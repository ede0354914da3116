"""Modified Bessel function of the second kind on the positive half-line.

The propagator layer needs K_nu(x) for nu = d/2 - 1 and the next few
orders up (radial derivatives shift the order by one).  Even dimensions
give integer orders, odd dimensions half-integer ones; any other order
raises DomainError.

K_0 and K_1 are evaluated in numpy.  Up to x = 1 they take their power
series in t = x^2/4 (Abramowitz & Stegun 9.6.13 and 9.6.11), ten terms
of each sum, with H_k the harmonic numbers and L = ln(x/2) + gamma:

    K_0(x) = sum_k H_k t^k / k!^2 - L sum_k t^k / k!^2,
    K_1(x) = 1/x + (x/2) sum_k (L - (H_k + H_{k+1})/2) t^k / (k! (k+1)!).

Above it they are e^-x / sqrt(x) (1 + P_n(1/x) / Q_n(1/x)), the rational
part of degree (8, 8) fitted with mpmath (``tools/fit_besselk.py``) to a
relative error below 3e-17; at 1/x = 0 it is sqrt(pi/2) - 1 (A&S 9.7.2).
Both forms land within a few units in the last place of K_n.

Half-integer orders use the elementary closed forms for K_{1/2} and
K_{3/2}.  Higher orders of either kind are reached with the upward
recurrence K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), stable in
this direction because K grows with the order.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

# rational parts of K_0 and K_1 above x = 1, in y = 1/x, lowest degree
# first (tools/fit_besselk.py)
_K0_P = (
    0.25331413731550023, 3.6554501893071683, 18.979894571155643,
    44.153593528505986, 45.874673979961436, 16.490067740830614,
    -1.8119858375374198, -1.4901393050752885, -0.10032250207873292)
_K0_Q = (
    1.0, 15.048960539157065, 83.8855877549005, 221.3105608183368,
    293.6855084792185, 192.91083783950748, 57.71414808770584,
    6.500745821849215, 0.17028926357009297)
_K1_P = (
    0.2533141373155003, 4.104512482522888, 25.698129032147826,
    80.24171428820713, 133.7019559907532, 117.18505692015019,
    49.595436021339125, 8.37716045802801, 0.3570299290464243)
_K1_Q = (
    1.0, 14.347875406980789, 75.40678079411202, 184.67136850599235,
    222.33171977277178, 127.77902096922385, 31.368321962722675,
    2.5212640624380924, 0.02819576674211368)

# ln 2 - Euler's gamma, so that ln(x/2) + gamma = ln(x) - _LN2_GAMMA
_LN2_GAMMA = 0.11593151565841244881
# terms of each series: at t = 1/4 the first one left out is below 1e-18
# of its sum
_TERMS = 10
_H = [sum(Fraction(1, j) for j in range(1, k + 1)) for k in range(_TERMS + 1)]
_F = [math.factorial(k) for k in range(_TERMS + 1)]
_I0 = tuple(float(Fraction(1, _F[k] ** 2)) for k in range(_TERMS))
_S0 = tuple(float(_H[k] / _F[k] ** 2) for k in range(_TERMS))
_I1 = tuple(float(Fraction(1, _F[k] * _F[k + 1])) for k in range(_TERMS))
_S1 = tuple(float((_H[k] + _H[k + 1]) / (2 * _F[k] * _F[k + 1]))
            for k in range(_TERMS))


def _horner(coef, t):
    """sum_k coef[k] t^k on a fresh array."""
    out = np.full_like(t, coef[-1])
    for c in coef[-2::-1]:
        out *= t
        out += c
    return out


def _k_series(n, x):
    """K_0 or K_1 from its power series, for x <= 1."""
    t = x * x
    t *= 0.25
    log = np.log(x)
    log -= _LN2_GAMMA
    if n == 0:
        out = _horner(_S0, t)
        out -= log * _horner(_I0, t)
        return out
    out = log * _horner(_I1, t)
    out -= _horner(_S1, t)
    out *= 0.5 * x
    out += 1.0 / x
    return out


def _k_rational(n, x):
    """K_0 or K_1 from its fitted rational form, for x > 1."""
    p, q = (_K0_P, _K0_Q) if n == 0 else (_K1_P, _K1_Q)
    y = 1.0 / x
    out = _horner(p, y)
    out /= _horner(q, y)
    out += 1.0
    out *= np.exp(-x)
    out /= np.sqrt(x)
    return out


def _k01(n, x):
    """K_0 (n = 0) or K_1 (n = 1) of a positive array."""
    big = x > 1.0
    if big.all():
        return _k_rational(n, x)
    out = np.empty_like(x)
    out[big] = _k_rational(n, x[big])
    small = ~big
    out[small] = _k_series(n, x[small])
    return out


def _k_half_pair(x):
    """(K_{1/2}, K_{3/2}) from the elementary closed forms."""
    k_half = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    return k_half, k_half * (1.0 + 1.0 / x)


def besselk(nu: float, x):
    """K_nu(x) for an integer or half-integer order nu and x > 0 (scalar
    or array).

    Raises DomainError for any other order and off the positive axis.
    """
    nu = abs(float(nu))
    twice = round(2.0 * nu)
    if abs(2.0 * nu - twice) > 2e-12:
        raise DomainError(
            f"besselk takes integer and half-integer orders, got {nu!r}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):
        raise DomainError("besselk requires x > 0")

    if twice in (0, 2):
        out = _k01(twice // 2, arr)
    elif twice == 1:
        out = _k_half_pair(arr)[0]
    else:
        # walk K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu up to the target
        if twice % 2:
            mu, (k_lo, k_hi) = 1.5, _k_half_pair(arr)
        else:
            mu, k_lo, k_hi = 1.0, _k01(0, arr), _k01(1, arr)
        while mu < nu - 0.25:
            k_lo, k_hi = k_hi, k_lo + (2.0 * mu / arr) * k_hi
            mu += 1.0
        out = k_hi
    return float(out[0]) if scalar else out
