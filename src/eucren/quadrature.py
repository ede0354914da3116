"""Numeric integration toolbox shared by the pairing routines.

Everything here reduces d-dimensional pairings to one-dimensional
integrals plus small tensor rules:

* ``radial_pair`` integrates K(|x|) f(x) over R^d for a radial kernel K
  and a test function f that is rotation invariant about some center c,
  for a whole array of offsets c at once.  In spherical coordinates
  about the kernel center this is omega_{d-1} * int K(rho) rho^(d-1)
  A(rho) drho, with A the spherical average of f, which is exact in
  d = 1 and a Gauss sum over the polar angle in d >= 2.  With a cutoff
  w it integrates A(rho) - w(rho) * f(0) instead, the Taylor-subtracted
  combination of divergence-degree <= 1 extensions (the order-one term
  averages to zero over the sphere, so one subtraction covers both
  degrees).

* ``panel_edges`` and ``panel_rule`` give the composite Gauss-Legendre
  rules of the radial integrals here and in ``triple``: panels split at
  the structural radii, cut geometrically toward rho = 0.

* ``ProfileSpline`` caches a smooth radial profile on a window as a
  cubic spline; used for correlation profiles.

* ``contract_pass`` applies several kernel matrices between two point
  sets to several columns each, toward either set, in one pass over
  blocks of rows; every graph-term contraction goes through it, and
  ``contract`` (one kernel, one column) is what the tensor-rule
  pairings use.

* ``bump_rule`` and ``ball_rule`` are product rules on a ball: radius,
  polar cosine (d = 3) and azimuth (d = 2, 3).  ``bump_rule`` serves
  integrals against a coefficient bump centred on the ball: its radial
  axis is Gauss for the weight rho^(d-1) exp(-1/(1 - rho^2/r^2))
  (``bump_gauss``), and gauss_n = n gives it ceil(n/2) radial,
  max(n-2, floor(n/2)+1) polar and twice as many azimuthal nodes
  (``bump_orders``; in d = 1 the diameter carries 2 ceil(n/2) nodes).
  ``ball_rule`` is Gauss-Legendre of order n in the radius and the
  polar cosine with max(2n, 8) azimuthal nodes (n on the diameter in
  d = 1); it serves integrands that carry no centred bump.

The radial integrals double the panel order until two successive
levels agree; an integral that does not settle raises
QuadratureFailure.  These two families, the panels and the bump rule,
carry every integral of the package; a bump's own integral is the
mass of ``bump_gauss`` in closed form.

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
from scipy.interpolate import CubicSpline

from .errors import QuadratureFailure, UnsupportedCase

__all__ = [
    "QuadratureScheme",
    "DEFAULT_SCHEME",
    "gauss_legendre",
    "sphere_area",
    "ball_rule",
    "bump_orders",
    "bump_rule",
    "bump_gauss",
    "panel_edges",
    "panel_rule",
    "radial_pair",
    "ProfileSpline",
    "correlation_profile",
    "contract",
    "contract_pass",
    "pair_tensor",
]


@dataclass(frozen=True)
class QuadratureScheme:
    """Knobs for the nested quadratures.

    rtol / atol are the tolerances of the 1-d integrals (the agreement
    between panel levels in ``radial_pair``); gauss_n the order of the
    ball rules (the bump rule of a coefficient bump: ceil(n/2) radial,
    max(n-2, floor(n/2)+1) polar and twice as many azimuthal nodes; any
    other ball rule: Gauss-Legendre of order n in the radius and polar
    cosine, max(2n, 8) azimuthal nodes); angular_n the polar-average
    order; grid_nodes the per-axis size of the triple-correlation grid.
    """

    rtol: float = 1e-9
    atol: float = 1e-12
    gauss_n: int = 18
    angular_n: int = 96
    grid_nodes: int = 48

    def tighter(self, factor: float = 1e-2) -> "QuadratureScheme":
        return replace(self, rtol=self.rtol * factor, atol=self.atol * factor)


DEFAULT_SCHEME = QuadratureScheme()

# samples of a cached radial profile
PROFILE_SAMPLES = 360


def quad(*args, **kwargs):
    """Not an integrator: eucren makes no QUADPACK call.  The name stays
    because ``perfbench/tracer.py`` wraps ``eucren.quadrature.quad``
    when it installs; calling it raises."""
    raise NotImplementedError("eucren integrates on its own Gauss rules")


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

    Gauss-Legendre of order n in the radius and (d = 3) the polar
    cosine, 2n (at least 8) midpoint nodes in the azimuth.  Nodes are
    strictly interior, so integrands that are nan exactly on the
    support boundary are safe to evaluate.  Each rule is built once and
    its arrays are read-only.
    """
    center = tuple(float(c) for c in np.atleast_1d(center))
    return _ball_rule(d, center, float(radius), n)


@lru_cache(maxsize=32)
def _ball_rule(d: int, center, radius: float, n: int):
    if d == 1:
        x, w = _mapped_gauss(center[0] - radius, center[0] + radius, n)
        return _read_only(x.reshape(-1, 1), w)
    r, wr = _mapped_gauss(0.0, radius, n)
    return _product_rule(d, center, r, wr * r**(d - 1), n, max(2 * n, 8))


def bump_orders(n: int):
    """(radial, polar, azimuthal) orders of the bump rule at gauss_n n.

    The radial axis carries the bump, so Gauss for its weight needs
    about half the nodes Gauss-Legendre needs for the smooth remainder
    on the angles; ``tests/test_quadrature.py::TestBumpRule`` records
    the convergence study that fixed the formula.  Every n >= 2 has at
    least two polar and four azimuthal nodes, so the angular axes
    integrate every polynomial of degree <= 3 exactly, and raising n by
    two or more raises every axis.
    """
    polar = max(n - 2, n // 2 + 1)
    return (n + 1) // 2, polar, 2 * polar


def bump_rule(d: int, center, radius: float, n: int):
    """Product Gauss rule for the bump weight exp(-1/(1 - |x-c|^2/r^2))
    on the ball B(c, r); returns (points, weights) with sum w h(x) ~
    int bump h.

    The radial axis is Gauss for that weight (times rho^(d-1)), so only
    the smooth factors of an integrand are left to resolve; the polar
    and azimuthal axes are those of ``ball_rule`` at the orders of
    ``bump_orders(n)``.  In d = 1 the interval carries twice the radial
    order, the nodes of both half-diameters.  Arrays are read-only.
    """
    center = tuple(float(c) for c in np.atleast_1d(center))
    return _bump_rule(d, center, float(radius), n)


@lru_cache(maxsize=32)
def _bump_rule(d: int, center, radius: float, n: int):
    n_r, n_polar, n_phi = bump_orders(n)
    if d == 1:
        t, w = bump_gauss(1, 2 * n_r)
        return _read_only((center[0] + radius * t).reshape(-1, 1), radius * w)
    t, w = bump_gauss(d, n_r)
    return _product_rule(d, center, radius * t, radius**d * w, n_polar, n_phi)


# Gauss-Legendre nodes per unit order discretising the bump weight; the
# discrete moments match the continuous ones to about 1e-14
_STIELTJES_NODES_PER_ORDER = 4
_STIELTJES_MIN_NODES = 200


@lru_cache(maxsize=64)
def bump_gauss(d: int, order: int):
    """Gauss rule of ``order`` nodes for exp(-1/(1 - t^2)) on [-1, 1]
    (d = 1) or t^(d-1) exp(-1/(1 - t^2)) on [0, 1] (d >= 2).  The
    weights sum to the mass of that weight at every order.

    The recurrence coefficients come from the discretised Stieltjes
    procedure on a Gauss-Legendre discretisation of the weight, the
    nodes and weights from the Jacobi matrix (Golub-Welsch); see
    Gautschi, Orthogonal Polynomials: Computation and Approximation
    (2004), sections 2.2.3 and 3.1.1.
    """
    x, w = gauss_legendre(max(_STIELTJES_MIN_NODES,
                              _STIELTJES_NODES_PER_ORDER * order))
    if d != 1:
        # onto [0, 1], with the measure t^(d-1)
        x = 0.5 * (x + 1.0)
        w = 0.5 * w * x ** (d - 1)
    w = w * np.exp(-1.0 / (1.0 - x * x))
    mass = w.sum()
    # p and p_prev are the orthonormal polynomials p_k and p_(k-1) at
    # the discrete nodes; alpha is the diagonal of the Jacobi matrix,
    # b its off-diagonal (b[0] = 0 starts the recurrence)
    alpha, b = np.empty(order), np.zeros(order)
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / np.sqrt(mass))
    for k in range(order):
        alpha[k] = w @ (x * p * p)
        if k + 1 < order:
            q = (x - alpha[k]) * p - b[k] * p_prev
            b[k + 1] = np.sqrt(w @ (q * q))
            p_prev, p = p, q / b[k + 1]
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(b[1:], 1)
                                 + np.diag(b[1:], -1))
    return _read_only(nodes, mass * vecs[0] ** 2)


def _product_rule(d: int, center, r, wr, n_polar: int, n_phi: int):
    """The radial rule (r, wr), whose weights carry the measure
    rho^(d-1), times Gauss-Legendre of order n_polar in the polar
    cosine (d = 3; d = 2 is the single polar node mu = 0) and the
    n_phi-point midpoint rule in the azimuth."""
    if d not in (2, 3):
        raise UnsupportedCase(
            f"ball rules are implemented for d in 1..3, got {d}")
    mu, wmu = gauss_legendre(n_polar) if d == 3 else (np.zeros(1), np.ones(1))
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    R, MU, PH = np.meshgrid(r, mu, phi, indexing="ij")
    WR, WMU, _ = np.meshgrid(wr, wmu, phi, indexing="ij")
    ST = np.sqrt(1.0 - MU**2)
    axes = (R * ST * np.cos(PH), R * ST * np.sin(PH), R * MU)[:d]
    pts = np.stack([c + a for c, a in zip(center, axes)],
                   axis=-1).reshape(-1, d)
    return _read_only(pts, (WR * WMU * w_phi).reshape(-1))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=16)
def _angular_rule(d: int, n: int):
    """Polar cosines mu and weights with sum w g(mu) ~ the average of
    g(cos theta) over the unit sphere in R^d: the two poles in d = 1,
    Gauss-Legendre in theta (d = 2) or in mu (d = 3), and Gauss-Legendre
    in theta with the sin^(d-2) weight in d >= 4."""
    if d == 1:
        return _read_only(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    if d == 3:
        nodes, wmu = gauss_legendre(n)
        return _read_only(nodes.copy(), 0.5 * wmu)
    theta, wt = _mapped_gauss(0.0, np.pi, n)
    if d == 2:
        return _read_only(np.cos(theta), wt / np.pi)
    # normalizing by the quadrature sum keeps averages of constants exact
    w = wt * np.sin(theta) ** (d - 2)
    return _read_only(np.cos(theta), w / w.sum())


def _sphere_mean(gu: Callable, rho, c, d: int, n: int):
    """Spherical average of x -> g(|x - c e1|^2) over |x| = rho, for
    matching arrays rho and c."""
    mu, w = _angular_rule(d, n)
    rho, c = rho[:, None], c[:, None]
    u = np.maximum(rho * rho + c * c - 2.0 * c * rho * mu, 0.0)
    # a constant profile compiles to a function returning one number
    return np.broadcast_to(np.asarray(gu(u), dtype=float), u.shape) @ w


def panel_edges(lo, hi, marks, levels: int = 0, ratio: float = 0.5):
    """Panels of composite rules on the intervals [lo, hi]: returns
    flat arrays (a, b, row), one entry per panel [a, b] of interval
    ``row``, in order along each interval.

    ``lo`` and ``hi`` are scalars or arrays of m bounds, ``marks`` a
    sequence of scalars or length-m arrays; each interval is split at
    the marks more than 1e-12 inside it.  When lo = 0, the panel
    touching it is cut geometrically toward zero ``levels`` times, each
    cut at ``ratio`` times the last, for integrands with structure on
    shrinking scales there.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    hi = np.maximum(hi, lo)
    lo_col, hi_col = lo[:, None], hi[:, None]
    inner = np.stack([np.broadcast_to(np.asarray(v, dtype=float), lo.shape)
                      for v in marks], axis=1) if len(marks) else lo_col
    inner = np.where((inner > lo_col + 1e-12) & (inner < hi_col - 1e-12),
                     inner, lo_col)
    edges = np.sort(np.concatenate([lo_col, inner, hi_col], axis=1), axis=1)
    if levels > 0:
        first = np.min(np.where(edges > lo_col, edges, hi_col), axis=1,
                       keepdims=True)
        cuts = np.where(lo_col == 0.0,
                        first * ratio ** np.arange(levels, 0, -1), lo_col)
        edges = np.sort(np.concatenate([edges, cuts], axis=1), axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    keep = b > a
    return a[keep], b[keep], np.nonzero(keep)[0]


def _panel_nodes(a, b, n: int):
    """Gauss-Legendre nodes and weights of order n on each panel [a, b],
    as (panels, n) arrays."""
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    return mid + half * x, half * w


def panel_rule(lo: float, hi: float, marks: Sequence[float], n: int,
               levels: int = 0):
    """The composite Gauss-Legendre rule of order n per panel on the
    panels ``panel_edges`` gives for [lo, hi]; returns (nodes, weights)."""
    a, b, _ = panel_edges(lo, hi, marks, levels)
    nodes, weights = _panel_nodes(a, b, n)
    return nodes.reshape(-1), weights.reshape(-1)


# Gauss-Legendre order per panel of the first level of ``radial_pair``;
# each further level doubles it, up to _RADIAL_LEVELS levels in all
_RADIAL_ORDER = 8
_RADIAL_LEVELS = 7
# geometric cuts of the panel at rho = 0, down to 4^-8 of its width:
# deep enough for the log singularities of P in even d, and a quarter
# apart, which order 16 resolves with half the panels of halving cuts
_ORIGIN_LEVELS = 8
_ORIGIN_RATIO = 0.25
# gu samples (nodes x polar nodes) per block of panels in ``radial_pair``
_RADIAL_BLOCK = 1 << 16


def radial_pair(kernel: Callable, gu: Callable, support: float, c, d: int,
                scheme: QuadratureScheme = DEFAULT_SCHEME,
                kernel_window: Optional[float] = None,
                cutoff=None, value_at_origin=0.0,
                origin_cuts: int = _ORIGIN_LEVELS):
    """int K(|x|) f(x) dx for radial K and f radial about a point at
    distance c from the origin, for one offset c or an array of them.

    ``gu`` is f's squared-radius profile, ``support`` its support radius
    (f vanishes for |x - center| >= support).  ``kernel_window`` caps
    the kernel's own support when it has one.

    With a ``cutoff`` w (anything with a vectorized ``profile(rho)``, a
    ``radius`` beyond which it vanishes and a ``plateau_radius``, as
    ``kernels.CutoffFunction``) the integrand is K(|x|) [f(x) - w(|x|)
    f(0)], with f(0) = ``value_at_origin`` (one value or one per
    offset).  This covers divergence degrees 0 and 1: the first-order
    Taylor term is odd under the angular average, so the zeroth-order
    subtraction leaves an O(rho^2) remainder near the origin.

    In spherical coordinates about the kernel center each offset is
    omega_{d-1} * int K(rho) rho^(d-1) A(rho) drho, A the spherical
    average of f.  The rho integral runs on composite Gauss-Legendre
    panels split at c, |c - support|, c + support, the kernel window and
    the cutoff's radius and plateau, with the panel at rho = 0 cut
    ``origin_cuts`` times geometrically toward it (``panel_edges``; the
    log singularities of P in even d need the default, a smooth kernel
    none).  Level k has order _RADIAL_ORDER * 2^k.  A panel is final
    once two successive levels agree to its share of max(rtol * scale,
    atol), the scale being the largest magnitude of an offset's value
    or of one panel's in the batch and the share one over its offset's
    panel count with the default origin cuts, whether or not they are
    made; a panel still open after _RADIAL_LEVELS levels raises
    QuadratureFailure.
    Panels are evaluated in blocks of about _RADIAL_BLOCK samples of
    gu, so the working memory does not grow with the batch.
    """
    c = np.abs(np.asarray(c, dtype=float))
    scalar = c.ndim == 0
    c = c.reshape(-1)
    lo = np.maximum(0.0, c - support)
    hi = c + support
    marks = [c, np.abs(c - support), c + support]
    if kernel_window is not None:
        hi = np.minimum(hi, kernel_window)
        marks.append(kernel_window)
    if cutoff is not None:
        f0 = np.broadcast_to(np.asarray(value_at_origin, dtype=float), c.shape)
        lo = np.zeros_like(c)
        hi = np.maximum(hi, cutoff.radius)
        marks += [cutoff.radius, cutoff.plateau_radius]
    a, b, row = panel_edges(lo, hi, marks, origin_cuts, _ORIGIN_RATIO)
    area = sphere_area(d)
    n_polar = len(_angular_rule(d, scheme.angular_n)[0])

    def panel_values(panels, n):
        out = np.empty(len(panels))
        step = max(1, _RADIAL_BLOCK // (n * n_polar))
        for start in range(0, len(panels), step):
            sel = panels[start:start + step]
            rho, w = _panel_nodes(a[sel], b[sel], n)
            rho = rho.reshape(-1)
            at = np.repeat(row[sel], n)
            f = _sphere_mean(gu, rho, c[at], d, scheme.angular_n)
            if cutoff is not None:
                f = f - np.asarray(cutoff.profile(rho), dtype=float) * f0[at]
            f = f * np.asarray(kernel(rho), dtype=float) * rho ** (d - 1)
            out[start:start + len(sel)] = np.sum(w * f.reshape(-1, n), axis=1)
        return area * out

    # the share of a panel is one over its offset's panel count with the
    # full origin cuts, so that leaving them out holds every other panel
    # to the same tolerance
    full = row if origin_cuts == _ORIGIN_LEVELS else panel_edges(
        lo, hi, marks, _ORIGIN_LEVELS, _ORIGIN_RATIO)[2]
    share = 1.0 / np.bincount(full, minlength=len(c))[row]
    open_ = np.arange(len(a))
    values = panel_values(open_, _RADIAL_ORDER)
    for level in range(1, _RADIAL_LEVELS):
        fine = panel_values(open_, _RADIAL_ORDER << level)
        gap = np.abs(fine - values[open_])
        values[open_] = fine
        total = np.bincount(row, weights=values, minlength=len(c))
        # the scale is the largest total or single panel, so an offset
        # whose panels cancel is not held to a tolerance below roundoff
        scale = max(np.max(np.abs(total), initial=0.0),
                    np.max(np.abs(values), initial=0.0))
        tol = max(scheme.rtol * float(scale), scheme.atol)
        open_ = open_[gap > tol * share[open_]]
        if len(open_) == 0:
            return float(total[0]) if scalar else total
    raise QuadratureFailure(
        f"radial panels still disagree after {_RADIAL_LEVELS} levels "
        f"(order {_RADIAL_ORDER << (_RADIAL_LEVELS - 1)}) on "
        f"{len(open_)} panels of {len(np.unique(row[open_]))} of "
        f"{len(c)} offsets")


class ProfileSpline:
    """Cubic-spline cache of a radial profile on [0, support]; zero beyond."""

    __slots__ = ("support_radius", "_spline", "_s0")

    def __init__(self, s: np.ndarray, values: np.ndarray, support: float):
        order = np.argsort(s)
        self._s0 = float(s[order][0])
        self._spline = CubicSpline(s[order], values[order])
        self.support_radius = float(support)

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
        """Squared-radius view, the ``gu`` that ``radial_pair`` takes."""
        def gu(u):
            u = np.asarray(u, dtype=float)
            return self(np.sqrt(np.maximum(u, 0.0)))
        return gu


def correlation_profile(f_gu: Callable, f_support: float,
                        g_gu: Callable, g_support: float, d: int,
                        scheme: QuadratureScheme = DEFAULT_SCHEME) -> ProfileSpline:
    """C(s) = int f(z) g(z - s e1) dz as a spline on [0, Sf + Sg].

    The cross-correlation of two rotation-invariant functions is
    rotation invariant in the shift, so a 1-d profile captures it; its
    PROFILE_SAMPLES shifts are one ``radial_pair`` batch, without cuts
    toward rho = 0, where the kernel f is smooth.
    """
    s_max = f_support + g_support
    s_grid = np.linspace(0.0, s_max, PROFILE_SAMPLES)
    vals = radial_pair(lambda rho: f_gu(rho * rho), g_gu, g_support, s_grid,
                       d, scheme, kernel_window=f_support, origin_cuts=0)
    return ProfileSpline(s_grid, vals, s_max)


# entries of one row block of ``contract_pass``: its kernel matrices,
# their rows of the columns sent toward yp, and the columns sent
# toward xp; about a 167-row block of one kernel between 3,136-node rules
_BLOCK_ENTRIES = 1 << 19


def contract_pass(blocks: Callable, xp: np.ndarray, yp: np.ndarray,
                  toward_x: Sequence[np.ndarray],
                  toward_y: Sequence[np.ndarray]):
    """K_k(xp, yp) @ toward_x[k] and K_k(xp, yp)^T @ toward_y[k] for
    every kernel K_k that ``blocks`` gives, in one pass over row blocks
    of ``xp``; returns the two lists of results.

    ``blocks(x, y)`` returns the kernel matrices between two point
    sets, one per kernel.  ``toward_x[k]`` is a (len(yp), c) matrix
    whose columns are contracted onto ``xp``, ``toward_y[k]`` a
    (len(xp), c') matrix contracted onto ``yp``; either may have no
    columns.  A block has as many rows as keep its kernel matrices,
    their rows of ``toward_y`` and all of ``toward_x`` within
    _BLOCK_ENTRIES entries (one row at least), so the working memory
    does not grow with the rules.
    """
    fixed = sum(v.size for v in toward_x)
    per_row = len(toward_x) * len(yp) + sum(u.shape[1] for u in toward_y)
    rows = max(1, (_BLOCK_ENTRIES - fixed) // per_row)
    out_x = [np.empty((len(xp), v.shape[1])) for v in toward_x]
    out_y = [np.zeros((len(yp), u.shape[1])) for u in toward_y]
    for lo in range(0, len(xp), rows):
        hi = lo + rows
        for k, kernel in enumerate(blocks(xp[lo:hi], yp)):
            if toward_x[k].shape[1]:
                out_x[k][lo:hi] = kernel @ toward_x[k]
            if toward_y[k].shape[1]:
                out_y[k] += kernel.T @ toward_y[k][lo:hi]
    return out_x, out_y


def contract(block: Callable, xp: np.ndarray, yp: np.ndarray,
             v: np.ndarray) -> np.ndarray:
    """K(xp, yp) @ v without forming the whole kernel matrix: the
    one-kernel, one-column case of ``contract_pass``, with
    ``block(x, y)`` the kernel matrix between two point sets."""
    (out,), _ = contract_pass(lambda x, y: (block(x, y),), xp, yp,
                              [v[:, None]], [np.empty((len(xp), 0))])
    return out[:, 0]


def pair_tensor(block: Callable, f, g,
                scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """Direct tensor-Gauss evaluation of int int f(x) K(x, y) g(y) dx dy.

    ``block`` is a kernel-matrix callable as ``contract`` takes it; a
    test is anything whose ``rule(n)`` gives nodes and weights for
    integrals against it (a bump's is Gauss for the bump weight).
    Accurate only when K is smooth on supp f x supp g (disjoint
    supports, or a bounded kernel); the radial routes handle the
    singular overlapping cases.
    """
    xp, fx = f.rule(scheme.gauss_n)
    yp, gy = g.rule(scheme.gauss_n)
    return float(fx @ contract(block, xp, yp, gy))
