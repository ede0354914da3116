"""Fit the rational parts of K_0 and K_1 above x = 1 for ``eucren.bessel``.

    python3 tools/fit_besselk.py

For n = 0, 1 and y = 1/x in [0, 1], sqrt(x) e^x K_n(x) - 1 is fitted by
P(y) / Q(y) of degree (8, 8) with Q(0) = 1, minimizing the error
relative to sqrt(x) e^x K_n(x) on Chebyshev points.  Each step solves
the linearized problem P - h Q = 0 in least squares with mpmath at 40
digits, weighted by the last Q (Loeb's iteration), and reweights the
points by the root of their error (Lawson's), which moves the fit
toward minimax.  Prints the coefficients, lowest degree first, and the
largest relative error of the fit and of its float64 evaluation.
Needs mpmath; takes a few minutes.
"""

import mpmath as mp
import numpy as np

DEGREE = 8
POINTS = 200
STEPS = 12
mp.mp.dps = 40


def scaled_k(n, y):
    """sqrt(x) e^x K_n(x) at x = 1/y; sqrt(pi/2) at y = 0."""
    if y == 0:
        return mp.sqrt(mp.pi / 2)
    return mp.sqrt(1 / y) * mp.exp(1 / y) * mp.besselk(n, 1 / y)


def fit(n):
    ys = [mp.mpf(0)] + [(1 - mp.cos(mp.pi * (i + 0.5) / POINTS)) / 2
                        for i in range(POINTS)] + [mp.mpf(1)]
    g = [scaled_k(n, y) for y in ys]
    q_prev = [mp.mpf(1)] * len(ys)
    weight = [mp.mpf(1)] * len(ys)
    for _ in range(STEPS):
        a = mp.matrix(len(ys), 2 * DEGREE + 1)
        b = mp.matrix(len(ys), 1)
        for i, y in enumerate(ys):
            w = weight[i] / (g[i] * q_prev[i])
            for k in range(DEGREE + 1):
                a[i, k] = w * y ** k
            for k in range(1, DEGREE + 1):
                a[i, DEGREE + k] = -w * (g[i] - 1) * y ** k
            b[i] = w * (g[i] - 1)
        sol = mp.qr_solve(a, b)[0]
        p = [sol[k] for k in range(DEGREE + 1)]
        q = [mp.mpf(1)] + [sol[DEGREE + k] for k in range(1, DEGREE + 1)]
        q_prev = [mp.polyval(q[::-1], y) for y in ys]
        err = [abs((mp.polyval(p[::-1], y) / q_prev[i] + 1) / g[i] - 1)
               for i, y in enumerate(ys)]
        top = max(err)
        weight = [w * mp.sqrt(e / top) + mp.mpf(10) ** -30
                  for w, e in zip(weight, err)]
        total = sum(weight)
        weight = [w * len(ys) / total for w in weight]
    return [float(c) for c in p], [float(c) for c in q], float(top)


def float_error(n, p, q):
    """Largest relative error of the float64 form on [1, 700]."""
    x = np.concatenate([np.geomspace(1.0, 700.0, 2000),
                        1.0 + np.random.default_rng(n).random(500)])
    y = 1.0 / x
    num, den = np.polyval(p[::-1], y), np.polyval(q[::-1], y)
    ours = (num / den + 1.0) * np.exp(-x) / np.sqrt(x)
    ref = np.array([float(mp.besselk(n, mp.mpf(v))) for v in x])
    return float(np.max(np.abs(ours / ref - 1.0)))


if __name__ == "__main__":
    for n in (0, 1):
        p, q, top = fit(n)
        print(f"K{n}: fit {top:.2e}, float64 {float_error(n, p, q):.2e}")
        print(f"_K{n}_P = {tuple(p)!r}")
        print(f"_K{n}_Q = {tuple(q)!r}")
