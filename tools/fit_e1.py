"""Fit the exponential integral's rational part for ``eucren.expr``.

    python3 tools/fit_e1.py

The d = 3 spherical mean of a bump takes Q(t) = t e^(-1/t) - E_1(1/t),
the antiderivative of e^(-1/t), at t in [0, 1].  With x = 1/t,

    Q(t) = t^2 e^(-x) k(t),   k(t) = (1 - x e^x E_1(x)) / t,

and k(t) = int_0^inf s e^(-s) / (1 + t s) ds is smooth on [0, 1] with
k(0) = 1 (A&S 5.1.1 and the continued fraction 5.1.22).  It is fitted
by N(t) / D(t) of degree (10, 10) with N(0) = D(0) = 1, minimizing the
error relative to k on Chebyshev points.  Each step solves the
linearized problem N - k D = 0 in least squares with mpmath at 40
digits, weighted by the last D (Loeb's iteration), and reweights the
points by the root of their error (Lawson's), which moves the fit
toward minimax.  Fitting k itself, not 1 - x e^x E_1(x), avoids the
cancellation of that difference as x grows.

The fit is printed in partial fractions,

    k(t) ~ c + sum_j a_j / (1 + b_j t),

from the roots of D at 60 digits.  Like the integral it approximates,
every a_j and b_j comes out positive, so the sum of positive terms
loses no digits; Horner's rule on N and D was 2.7 times as far off in
float64 (8.9e-16 against 3.3e-16 relative on the points of
``float_error``).

Prints c, the a_j and the b_j, and the largest relative error of the
fit and of the float64 forms of k and of Q for x in [1, 700].  Needs
mpmath; takes a few seconds.
"""

import mpmath as mp
import numpy as np

DEGREE = 10
POINTS = 200
STEPS = 12
mp.mp.dps = 40


def k_exact(t):
    """k(t) at 40 digits; the working precision covers the cancellation
    of 1 - x e^x E_1(x), about log10(x) digits."""
    t = mp.mpf(t)
    if t == 0:
        return mp.mpf(1)
    with mp.workdps(80):
        x = 1 / t
        return +((1 - x * mp.exp(x) * mp.e1(x)) / t)


def fit():
    # t = 0 is left out: N(0) = D(0) = k(0) holds by construction
    ts = [(1 - mp.cos(mp.pi * (i + 0.5) / POINTS)) / 2
          for i in range(POINTS)] + [mp.mpf(1)]
    g = [k_exact(t) for t in ts]
    d_prev = [mp.mpf(1)] * len(ts)
    weight = [mp.mpf(1)] * len(ts)
    for _ in range(STEPS):
        # unknowns n_1..n_10, d_1..d_10; N(0) = D(0) = 1 is held fixed
        a = mp.matrix(len(ts), 2 * DEGREE)
        b = mp.matrix(len(ts), 1)
        for i, t in enumerate(ts):
            w = weight[i] / (g[i] * d_prev[i])
            for k in range(1, DEGREE + 1):
                a[i, k - 1] = w * t ** k
                a[i, DEGREE + k - 1] = -w * g[i] * t ** k
            b[i] = w * (g[i] - 1)
        sol = mp.qr_solve(a, b)[0]
        num = [mp.mpf(1)] + [sol[k] for k in range(DEGREE)]
        den = [mp.mpf(1)] + [sol[DEGREE + k] for k in range(DEGREE)]
        d_prev = [mp.polyval(den[::-1], t) for t in ts]
        err = [abs(mp.polyval(num[::-1], t) / d_prev[i] / g[i] - 1)
               for i, t in enumerate(ts)]
        top = max(err)
        weight = [w * mp.sqrt(e / top) + mp.mpf(10) ** -30
                  for w, e in zip(weight, err)]
        total = sum(weight)
        weight = [w * len(ts) / total for w in weight]
    return num, den, float(top)


def partial_fractions(num, den):
    """(c, a, b) with N/D = c + sum_j a_j / (1 + b_j t), from the roots
    r_j = -1/b_j of D and the residues N(r_j)/D'(r_j) = -a_j/b_j."""
    with mp.workdps(60):
        roots = mp.polyroots(den[::-1], maxsteps=200, extraprec=200)
        dd = [k * den[k] for k in range(1, len(den))]
        terms = []
        for r in roots:
            if abs(mp.im(r)) > mp.mpf(10) ** -30 or mp.re(r) >= 0:
                raise ValueError(f"D has a root off the negative axis: {r}")
            r = mp.re(r)
            res = mp.polyval(num[::-1], r) / mp.polyval(dd[::-1], r)
            terms.append((float(-res / r), float(-1 / r)))
        terms.sort()  # smallest term first, the order of the sum
        return (float(num[-1] / den[-1]), tuple(a for a, _ in terms),
                tuple(b for _, b in terms))


def k_float(c, a, b, t):
    """The float64 form of k that ``eucren.expr`` evaluates."""
    out = np.full_like(t, c)
    for aj, bj in zip(a, b):
        out += aj / (1.0 + bj * t)
    return out


def float_error(c, a, b):
    """Largest relative errors of the float64 forms of k and of Q on
    x in [1, 700]; Q only where it is a normal float (x below 690)."""
    x = np.concatenate([np.geomspace(1.0, 700.0, 2000),
                        1.0 + np.random.default_rng(0).random(500)])
    t = 1.0 / x
    k = k_float(c, a, b, t)
    big_q = k * (t * t) * np.exp(-x)  # as ``expr.bumpcore_integral``
    k_ref = np.array([float(k_exact(v)) for v in t])
    with mp.workdps(80):
        q_ref = np.array([float(mp.exp(-mp.mpf(v)) / mp.mpf(v) - mp.e1(mp.mpf(v)))
                          for v in x])
    normal = x < 690.0
    return (float(np.max(np.abs(k / k_ref - 1.0))),
            float(np.max(np.abs(big_q[normal] / q_ref[normal] - 1.0))))


if __name__ == "__main__":
    num, den, top = fit()
    c, a, b = partial_fractions(num, den)
    k_err, q_err = float_error(c, a, b)
    print(f"k: fit {top:.2e}, float64 k {k_err:.2e}, float64 Q {q_err:.2e}")
    print(f"_E1_C = {c!r}")
    print(f"_E1_A = {a!r}")
    print(f"_E1_B = {b!r}")
