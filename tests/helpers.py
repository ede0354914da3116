"""Shared numeric oracles for the test suite.

Monte Carlo estimators are deliberately independent of the package's
quadrature code paths: uniform sampling over balls, nothing radial.
The deterministic references are adaptive QUADPACK, which the package
itself never calls, and sympy for field expressions, which the package
no longer imports.
"""

import functools
import itertools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import sympy as sp
from scipy.integrate import quad
from sympy.printing.numpy import NumPyPrinter

import eucren
from eucren.quadrature import DEFAULT_SCHEME


def fresh_run(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that
    imports eucren from the same source tree as the suite."""
    src = os.path.dirname(os.path.dirname(eucren.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def coords(d: int) -> tuple:
    """The sympy symbols x1..xd."""
    return sp.symbols(f"x1:{d + 1}", real=True)


class _FloatPrinter(NumPyPrinter):
    """numpy code in which a ``Float`` of at most 53 bits prints all its
    digits (``repr``), where sympy prints 15; a wider ``Float`` keeps its
    source digits, which Python rounds to the nearest double once."""

    def _print_Float(self, e):
        return repr(float(e)) if e._prec <= 53 else super()._print_Float(e)


def sympy_partial(text: str, d: int, alpha=None, digits: int = 0):
    """The field expression ``text`` in x1..xd, or its partial d^alpha,
    as sympy differentiates it one axis at a time, compiled to numpy
    with every float digit: the way the package evaluated backgrounds
    before it had its own expression tree.  With ``digits``, the float
    literals are their exact decimals instead and the partial is
    evaluated in mpmath at that precision.  Returns f(points)."""
    xs = coords(d)
    e = sp.sympify(text, locals={f"x{i + 1}": x for i, x in enumerate(xs)},
                   rational=bool(digits))
    for x, a in zip(xs, alpha or (0,) * d):
        for _ in range(a):
            e = sp.diff(e, x)
    if digits:
        fn = sp.lambdify(xs, e, modules="mpmath")

        def exact(points):
            with mpmath.workdps(digits):
                return np.array([float(fn(*map(mpmath.mpf, p)))
                                 for p in np.reshape(points, (-1, d))])
        return exact
    fn = sp.lambdify(xs, e, modules="numpy", printer=_FloatPrinter(
        {"fully_qualified_modules": False, "inline": True,
         "allow_unknown_functions": True}))

    def value(points):
        pts = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            out = fn(*np.moveaxis(pts, -1, 0))
        return np.array(np.broadcast_to(out, pts.shape[:-1]), dtype=float)
    return value


def ball_volume(d: int, radius: float) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * radius**d


def sample_ball(rng, d: int, center, radius: float, n: int) -> np.ndarray:
    """Uniform points in the closed ball (normal-direction trick)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    z = rng.normal(size=(n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return center + z * r[:, None]


def kernel_matrix(P, x, y, power: int, left=(), right=()) -> np.ndarray:
    """The dense matrix d_x^left d_y^right P^power(|x_i - y_j|) between
    two point sets: the one-kernel case of ``Propagator.blocks``."""
    return P.blocks([(power, left, right)])(x, y)[0]


def kernel_pair(K, phi, tests, scheme=DEFAULT_SCHEME) -> float:
    """<F^(n)(phi), psi_1 x ... x psi_n> for the derivative kernel K of
    ``functionals.derivative_kernel``, with the delta chain collapsed
    onto the coefficient variable: the numeric reading of the symbolic
    kernel, which equals the n-th directional derivative of evaluate."""
    if len(tests) != K.order:
        raise ValueError(f"kernel of order {K.order} paired with "
                         f"{len(tests)} arguments")
    total = 0.0
    for t in K.terms:
        pts, vals = t.coefficient.rule(scheme.gauss_n)
        for alpha in t.residual:
            vals = vals * np.asarray(phi.diff(alpha)(pts), dtype=float)
        arranged = np.zeros(len(pts))
        for perm in set(itertools.permutations(t.arg_derivs)):
            block = np.ones(len(pts))
            for psi, alpha in zip(tests, perm):
                block = block * np.asarray(psi.diff(alpha)(pts), dtype=float)
            arranged += block
        total += float(t.prefactor) * float(vals @ arranged)
    return total


def mc_ball(f, d: int, center, radius: float, n: int = 200_000, seed: int = 0):
    """Monte Carlo integral of f over a ball; returns (value, stderr)."""
    rng = np.random.default_rng(seed)
    pts = sample_ball(rng, d, center, radius, n)
    vals = np.asarray(f(pts), dtype=float)
    vol = ball_volume(d, radius)
    return vol * float(np.mean(vals)), vol * float(np.std(vals) / np.sqrt(n))


def mc_pair(kernel, d: int, f_center, f_radius, f_values,
            g_center, g_radius, g_values, n: int = 400_000, seed: int = 0):
    """Monte Carlo estimate of int int f(x) K(|x-y|) g(y) dx dy."""
    rng = np.random.default_rng(seed)
    x = sample_ball(rng, d, f_center, f_radius, n)
    y = sample_ball(rng, d, g_center, g_radius, n)
    dist = np.linalg.norm(x - y, axis=1)
    vals = np.asarray(f_values(x)) * np.asarray(kernel(dist)) * np.asarray(g_values(y))
    vol = ball_volume(d, f_radius) * ball_volume(d, g_radius)
    return vol * float(np.mean(vals)), vol * float(np.std(vals) / np.sqrt(n))


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def mc_pair_radial(kernel, d: int, f_center, f_radius, f_values,
                   g_center, g_radius, g_values,
                   n: int = 400_000, seed: int = 0):
    """Importance-sampled version of mc_pair for kernels singular at
    coinciding points: substitute y = x + s*omega so the estimator sees
    s^(d-1) K(s), which stays bounded for the integrable powers."""
    rng = np.random.default_rng(seed)
    x = sample_ball(rng, d, f_center, f_radius, n)
    smax = (np.linalg.norm(np.asarray(f_center, dtype=float)
                           - np.asarray(g_center, dtype=float))
            + f_radius + g_radius)
    s = smax * rng.random(n)
    omega = rng.normal(size=(n, d))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    y = x + s[:, None] * omega
    vals = (s ** (d - 1) * np.asarray(kernel(s))
            * np.asarray(f_values(x)) * np.asarray(g_values(y)))
    scale = ball_volume(d, f_radius) * smax * sphere_area(d)
    return scale * float(np.mean(vals)), scale * float(np.std(vals) / np.sqrt(n))


def mc_graph(edges, d: int, tests, n: int = 1_000_000, seed: int = 0):
    """Monte Carlo pairing of prod K(|x_i - x_j|) over ``edges``, a
    sequence of (i, j, K), against ball-supported tests."""
    rng = np.random.default_rng(seed)
    pts = [sample_ball(rng, d, t.center, t.radius, n) for t in tests]
    vals = np.ones(n)
    for t, p in zip(tests, pts):
        vals *= np.asarray(t(p), dtype=float)
    for i, j, k in edges:
        vals *= np.asarray(k(np.linalg.norm(pts[i] - pts[j], axis=1)))
    vol = 1.0
    for t in tests:
        vol *= ball_volume(d, t.radius)
    return vol * float(np.mean(vals)), vol * float(np.std(vals) / np.sqrt(n))


def mc_triple(k01, k02, k12, d: int, tests, n: int = 1_000_000, seed: int = 0):
    """Monte Carlo pairing of K01(|x0-x1|) K02(|x0-x2|) K12(|x1-x2|)
    against three ball-supported tests (pass lambda s: 1.0 + 0*s for an
    absent edge)."""
    return mc_graph(((0, 1, k01), (0, 2, k02), (1, 2, k12)), d, tests, n, seed)


def quadpack(f, a: float, b: float, points=(), epsrel: float = 1e-13) -> float:
    """Adaptive QUADPACK reference for int_a^b f of a scalar integrand,
    split at the ``points`` inside (a, b)."""
    inner = sorted({float(p) for p in points if a < p < b}) or None
    return quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=500,
                points=inner)[0]


@functools.lru_cache(maxsize=None)
def polished_leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]: numpy's ``leggauss``
    with its nodes polished by Newton's method on the three-term
    recurrence, the iteration of the mpmath reference in
    ``test_gauss_legendre_matches_mpmath``, in float64 for every node at
    once, and the weights 2/((1 - x^2) P_n'(x)^2) from the same
    recurrence.  At n = 1024 the weights of ``leggauss`` alone are up to
    1.2e-9 relative off near +-1, the polished ones 1.4e-12, about what
    a weight taken at a node rounded that close to +-1 can reach."""
    x = np.polynomial.legendre.leggauss(n)[0]
    for _ in range(2):  # leggauss is within 1e-9, so one step nearly does
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))
        x = x - p / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    for a in (x, w):
        a.setflags(write=False)
    return x, w


def _polar_rule(d: int, n: int):
    """Cosines and weights averaging a function of the polar cosine over
    the whole unit sphere in R^d: the two poles in d = 1, Gauss-Legendre
    in the cosine in d = 3 (``polished_leggauss``), and in the polar
    angle with the sin^(d-2) weight otherwise.  Unlike the package's
    rule it is not windowed at the support's edge, so it needs many more
    nodes: at the 1024 of ``quadpack_radial`` the suite's profiles agree
    with 2048 nodes to 2e-12 of their largest value, where 96 nodes
    leave up to 2e-5."""
    if d == 1:
        return np.array([1.0, -1.0]), np.array([0.5, 0.5])
    x, w = polished_leggauss(n)
    if d == 3:
        return x, 0.5 * w
    theta = 0.5 * math.pi * (x + 1.0)
    w = w * np.sin(theta) ** (d - 2)
    return np.cos(theta), w / w.sum()


def quadpack_radial(kernel, gu, support, offsets, d, kernel_window=None,
                    cutoff=None, value_at_origin=0.0, epsrel=1e-11,
                    n_polar=1024):
    """Reference for ``quadrature.radial_pair``: one adaptive QUADPACK
    call per offset c of

        |S^(d-1)| int K(rho) rho^(d-1) [A_c(rho) - w(rho) f(0)] drho,

    A_c the spherical average of f = g(|x - c e1|^2) over |x| = rho,
    taken by a fixed polar rule over the whole sphere (``_polar_rule``),
    independent of the package's rule windowed at the support's edge,
    and w the cutoff profile (absent unless ``cutoff`` is given).
    ``value_at_origin`` is one f(0) or one per offset."""
    mu, w_mu = _polar_rule(d, n_polar)
    offsets = np.abs(np.atleast_1d(np.asarray(offsets, dtype=float)))
    f0 = np.broadcast_to(np.asarray(value_at_origin, dtype=float),
                         offsets.shape)
    out = np.empty(len(offsets))
    for k, c in enumerate(offsets):
        lo, hi = max(0.0, c - support), c + support
        if kernel_window is not None:
            hi = min(hi, kernel_window)
        marks = [c, abs(c - support), c + support]
        if cutoff is not None:
            lo, hi = 0.0, max(hi, cutoff.radius)
            marks += [cutoff.radius, cutoff.plateau_radius]

        def integrand(rho, c=c, f0=f0[k]):
            u = np.maximum(rho * rho + c * c - 2.0 * c * rho * mu, 0.0)
            avg = float(np.asarray(gu(u), dtype=float) @ w_mu)
            if cutoff is not None:
                avg -= float(cutoff.profile(rho)) * f0
            return float(kernel(rho)) * rho ** (d - 1) * avg

        out[k] = quadpack(integrand, lo, hi, marks, epsrel) if hi > lo else 0.0
    return sphere_area(d) * out
