"""Numeric integration toolbox shared by the pairing routines.

Everything here reduces d-dimensional pairings to one-dimensional
integrals plus small tensor rules:

* ``radial_pair`` integrates K(|x|) f(x) over R^d for a radial kernel K
  and a test function f that is rotation invariant about some center c.
  In spherical coordinates about the kernel center this is
  omega_{d-1} * int K(rho) rho^(d-1) A(rho) drho, with A the spherical
  average of f, which is exact in d = 1 and a short Gauss-Legendre sum
  over the polar angle in d = 2, 3.

* ``subtracted_radial_pair`` is the same integral with A(rho) replaced
  by A(rho) - w(rho) * f(0), the Taylor-subtracted combination used by
  divergence-degree <= 1 extensions (the order-one term averages to
  zero over the sphere, so one subtraction covers both degrees).

* ``ProfileSpline`` caches a smooth radial profile on a window as a
  cubic spline; used for correlation profiles.

* ``contract`` applies a kernel matrix between two point sets to a
  vector, a block of rows at a time; every tensor-rule pairing and
  graph-term contraction goes through it.

Outer 1-d integrals go through QUADPACK (scipy.integrate.quad); a
nonzero error flag or an absolute-error report far above the requested
tolerance raises QuadratureFailure rather than returning junk.

Spherical averages are computed in the squared-radius variable u (see
``expr``), which keeps integrands finite at every sample; quadrature
nodes are strictly interior, so kernel singularities at rho = 0 are
never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import QuadratureFailure, UnsupportedCase

__all__ = [
    "QuadratureScheme",
    "DEFAULT_SCHEME",
    "quad_1d",
    "gauss_legendre",
    "sphere_area",
    "ball_rule",
    "angular_average",
    "radial_pair",
    "subtracted_radial_pair",
    "ProfileSpline",
    "correlation_profile",
    "contract",
    "pair_tensor",
]


@dataclass(frozen=True)
class QuadratureScheme:
    """Knobs for the nested quadratures.

    rtol / atol feed QUADPACK; gauss_n is the per-axis order of ball and
    tensor rules; angular_n the polar-average order; grid_nodes the
    per-axis size of the triple-correlation grid.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    gauss_n: int = 18
    angular_n: int = 96
    grid_nodes: int = 48

    def tighter(self, factor: float = 1e-2) -> "QuadratureScheme":
        return replace(self, rtol=self.rtol * factor, atol=self.atol * factor)


DEFAULT_SCHEME = QuadratureScheme()

# QUADPACK's subinterval limit
QUAD_LIMIT = 200
# samples of a cached radial profile
PROFILE_SAMPLES = 360


def quad_1d(f, a: float, b: float, scheme: QuadratureScheme = DEFAULT_SCHEME,
            points: Optional[Sequence[float]] = None) -> float:
    """QUADPACK on [a, b] with failure promoted to QuadratureFailure."""
    if b <= a:
        return 0.0
    pts = None
    if points:
        pts = sorted({float(p) for p in points if a < p < b})
        if not pts:
            pts = None
    out = quad(f, a, b, epsabs=scheme.atol, epsrel=scheme.rtol,
               limit=QUAD_LIMIT, points=pts, full_output=1)
    result, abserr = out[0], out[1]
    if len(out) > 3:
        # a fourth element is QUADPACK's warning/error message
        raise QuadratureFailure(
            f"integration on [{a:g}, {b:g}] failed: {out[3]}")
    tol = max(scheme.atol, scheme.rtol * abs(result))
    if abserr > 1e3 * tol and abserr > 1e-8 * max(1.0, abs(result)):
        raise QuadratureFailure(
            f"integration on [{a:g}, {b:g}] error estimate {abserr:g} "
            f"exceeds tolerance {tol:g}")
    return result


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return x, w


def _mapped_gauss(a: float, b: float, n: int):
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 when d = 1)."""
    import math
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_rule(d: int, center, radius: float, n: int):
    """Product Gauss rule for the closed ball; returns (points, weights).

    Nodes are strictly interior, so integrands that are nan exactly on
    the support boundary are safe to evaluate.  Each rule is built once
    and its arrays are read-only.
    """
    center = tuple(float(c) for c in np.atleast_1d(center))
    return _ball_rule(d, center, float(radius), n)


@lru_cache(maxsize=32)
def _ball_rule(d: int, center, radius: float, n: int):
    if d == 1:
        x, w = _mapped_gauss(center[0] - radius, center[0] + radius, n)
        pts, wts = x.reshape(-1, 1), w
    elif d in (2, 3):
        # d = 2 is the d = 3 rule with the single polar node mu = 0
        r, wr = _mapped_gauss(0.0, radius, n)
        mu, wmu = gauss_legendre(n) if d == 3 else (np.zeros(1), np.ones(1))
        n_phi = max(2 * n, 8)
        phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        w_phi = 2.0 * np.pi / n_phi
        R, MU, PH = np.meshgrid(r, mu, phi, indexing="ij")
        WR, WMU, _ = np.meshgrid(wr, wmu, phi, indexing="ij")
        ST = np.sqrt(1.0 - MU**2)
        axes = (R * ST * np.cos(PH), R * ST * np.sin(PH), R * MU)[:d]
        pts = np.stack([c + a for c, a in zip(center, axes)],
                       axis=-1).reshape(-1, d)
        wts = (WR * R**(d - 1) * WMU * w_phi).reshape(-1)
    else:
        raise UnsupportedCase(
            f"ball rules are implemented for d in 1..3, got {d}")
    for a in (pts, wts):
        a.setflags(write=False)
    return pts, wts


def angular_average(gu: Callable, c: float, d: int, n: int = 96) -> Callable:
    """Spherical average A(rho) of x -> g(|x - c e1|^2) about the origin.

    ``gu`` must accept numpy arrays of squared distances.  The returned
    callable is vectorized over rho and finite at rho = 0.
    """
    c = float(c)
    if d == 1:
        def avg(rho):
            rho = np.asarray(rho, dtype=float)
            return 0.5 * (gu((rho - c) ** 2) + gu((rho + c) ** 2))
        return avg
    if d == 2:
        theta, wt = _mapped_gauss(0.0, np.pi, n)
        nodes, w = np.cos(theta), wt / np.pi
    elif d == 3:
        nodes, wmu = gauss_legendre(n)
        w = 0.5 * wmu
    else:
        # sin^(d-2) weight in the polar angle; normalizing by the
        # quadrature sum keeps averages of constants exact
        theta, wt = _mapped_gauss(0.0, np.pi, n)
        w = wt * np.sin(theta) ** (d - 2)
        w = w / w.sum()
        nodes = np.cos(theta)

    def avg(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        u = rho[:, None] ** 2 + c * c - 2.0 * c * rho[:, None] * nodes[None, :]
        return gu(np.maximum(u, 0.0)) @ w
    return avg


def _scalar_avg(avg):
    def f(rho):
        out = avg(np.asarray([rho], dtype=float) if np.ndim(rho) == 0 else rho)
        return float(np.atleast_1d(out)[0]) if np.ndim(rho) == 0 else out
    return f


def radial_pair(kernel: Callable, gu: Callable, support: float, c: float, d: int,
                scheme: QuadratureScheme = DEFAULT_SCHEME,
                kernel_window: Optional[float] = None,
                extra_points: Sequence[float] = ()) -> float:
    """int K(|x|) f(x) dx for radial K and f radial about distance c.

    ``gu`` is f's squared-radius profile, ``support`` its support radius
    (f vanishes for |x - center| >= support).  ``kernel_window`` caps
    the kernel's own support when it has one.
    """
    c = abs(float(c))
    lo = max(0.0, c - support)
    hi = c + support
    if kernel_window is not None:
        hi = min(hi, kernel_window)
    if hi <= lo:
        return 0.0
    avg = _scalar_avg(angular_average(gu, c, d, scheme.angular_n))
    area = sphere_area(d)

    def integrand(rho):
        return kernel(rho) * rho ** (d - 1) * avg(rho)

    pts = [c, abs(c - support), c + support, *extra_points]
    return area * quad_1d(integrand, lo, hi, scheme, points=pts)


def subtracted_radial_pair(kernel: Callable, gu: Callable, support: float,
                           c: float, value_at_origin: float,
                           w_profile: Callable, w_support: float,
                           d: int, scheme: QuadratureScheme = DEFAULT_SCHEME,
                           extra_points: Sequence[float] = ()) -> float:
    """int K(|x|) [f(x) - w(|x|) f(0)] dx via the spherical average.

    Covers divergence degrees 0 and 1: the first-order Taylor term is
    odd under the angular average, so the zeroth-order subtraction
    leaves an O(rho^2) remainder near the origin.
    """
    c = abs(float(c))
    hi = max(c + support, w_support)
    avg = _scalar_avg(angular_average(gu, c, d, scheme.angular_n))
    area = sphere_area(d)

    def integrand(rho):
        return kernel(rho) * rho ** (d - 1) * (avg(rho) - w_profile(rho) * value_at_origin)

    pts = [c, abs(c - support), c + support, w_support, *extra_points]
    return area * quad_1d(integrand, 0.0, hi, scheme, points=pts)


class ProfileSpline:
    """Cubic-spline cache of a radial profile on [0, support]; zero beyond."""

    __slots__ = ("support_radius", "_spline", "_s0")

    def __init__(self, s: np.ndarray, values: np.ndarray, support: float):
        order = np.argsort(s)
        self._s0 = float(s[order][0])
        self._spline = CubicSpline(s[order], values[order])
        self.support_radius = float(support)

    @classmethod
    def from_function(cls, f: Callable, support: float, n: int) -> "ProfileSpline":
        # inset from both ends so boundary-nan expressions are never hit
        s = np.linspace(1e-9, support * (1.0 - 1e-12), n)
        return cls(s, np.asarray(f(s), dtype=float), support)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        inside = (s >= self._s0) & (s <= self.support_radius)
        out = np.zeros_like(s, dtype=float)
        if np.any(inside):
            out[inside] = self._spline(s[inside])
        # below the first sample: clamp (profiles are smooth at 0)
        low = s < self._s0
        if np.any(low):
            out[low] = self._spline(self._s0)
        return out if out.ndim else float(out)

    def profile_u(self):
        """Squared-radius view suitable for angular_average."""
        def gu(u):
            u = np.asarray(u, dtype=float)
            return self(np.sqrt(np.maximum(u, 0.0)))
        return gu


def correlation_profile(f_gu: Callable, f_support: float,
                        g_gu: Callable, g_support: float, d: int,
                        scheme: QuadratureScheme = DEFAULT_SCHEME) -> ProfileSpline:
    """C(s) = int f(z) g(z - s e1) dz as a spline on [0, Sf + Sg].

    The cross-correlation of two rotation-invariant functions is
    rotation invariant in the shift, so a 1-d profile captures it.
    """
    s_max = f_support + g_support

    def f_kernel(rho):
        return _radial_eval(f_gu, rho)

    s_grid = np.linspace(0.0, s_max, PROFILE_SAMPLES)
    vals = np.empty_like(s_grid)
    for i, s in enumerate(s_grid):
        vals[i] = radial_pair(f_kernel, g_gu, g_support, s, d, scheme,
                              kernel_window=f_support)
    return ProfileSpline(s_grid, vals, s_max)


def _radial_eval(gu, rho):
    rho = np.asarray(rho, dtype=float)
    return gu(rho * rho)


# rows of the first point set per kernel block in ``contract``
_BLOCK_ROWS = 256


def contract(block: Callable, xp: np.ndarray, yp: np.ndarray,
             v: np.ndarray) -> np.ndarray:
    """K(xp, yp) @ v without forming the whole kernel matrix.

    ``block(x, y)`` returns the kernel matrix between two point sets;
    it is called on successive row blocks of ``xp`` against all of
    ``yp``, so the working memory is a few blocks of
    _BLOCK_ROWS x len(yp).
    """
    out = np.empty(len(xp))
    for lo in range(0, len(xp), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        out[lo:hi] = np.asarray(block(xp[lo:hi], yp), dtype=float) @ v
    return out


def pair_tensor(block: Callable, f, g,
                scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """Direct tensor-Gauss evaluation of int int f(x) K(x, y) g(y) dx dy.

    ``block`` is a kernel-matrix callable as ``contract`` takes it; a
    test is anything with ``d``, ``center``, ``radius`` and values at
    points.  Accurate only when K is smooth on supp f x supp g
    (disjoint supports, or a bounded kernel); the radial routes handle
    the singular overlapping cases.
    """
    xp, xw = ball_rule(f.d, f.center, f.radius, scheme.gauss_n)
    yp, yw = ball_rule(g.d, g.center, g.radius, scheme.gauss_n)
    fx = np.asarray(f(xp), dtype=float) * xw
    gy = np.asarray(g(yp), dtype=float) * yw
    return float(fx @ contract(block, xp, yp, gy))
