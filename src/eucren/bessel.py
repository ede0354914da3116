"""Modified Bessel function of the second kind on the positive half-line.

The propagator layer needs K_nu(x) for nu = d/2 - 1 and the next few
orders up (radial derivatives shift the order by one).  Even dimensions
give integer orders, odd dimensions half-integer ones.

Half-integer orders use the elementary closed forms for K_{1/2} and
K_{3/2}; higher ones are reached with the upward recurrence
K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), stable in this
direction because K grows with the order.  Orders 0 and 1 go to
``scipy.special.k0`` and ``k1``, several times faster than ``kv`` at
the same accuracy; every other order goes to ``kv``.
"""

import math

import numpy as np
from scipy.special import k0, k1, kv

from .errors import DomainError


def _k_half_pair(x):
    """(K_{1/2}, K_{3/2}) from the elementary closed forms."""
    k_half = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    return k_half, k_half * (1.0 + 1.0 / x)


def besselk(nu: float, x):
    """K_nu(x) for real order nu and x > 0 (scalar or array).

    Raises DomainError off the positive axis.
    """
    nu = abs(float(nu))
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(arr <= 0.0) or np.any(~np.isfinite(arr)):
        raise DomainError("besselk requires x > 0")

    base = nu - math.floor(nu + 1e-12)
    if abs(base - 0.5) < 1e-12:
        k_lo, k_hi = _k_half_pair(arr)
        if abs(nu - 0.5) < 1e-9:
            out = k_lo
        else:
            # walk K_{mu+1} = K_{mu-1} + (2 mu / x) K_mu up to the target
            mu = 1.5
            while mu + 1e-9 < nu:
                k_lo, k_hi = k_hi, k_lo + (2.0 * mu / arr) * k_hi
                mu += 1.0
            out = k_hi
    elif nu in (0.0, 1.0):
        out = k0(arr) if nu == 0.0 else k1(arr)
    else:
        out = kv(nu, arr)
    return float(out[0]) if scalar else out
