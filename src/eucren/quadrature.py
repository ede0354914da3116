"""Numeric integration toolbox shared by the pairing routines.

Everything here reduces d-dimensional pairings to one-dimensional
integrals plus small tensor rules:

* ``radial_pair`` integrates K(|x|) f(x) over R^d for a radial kernel K
  and a test function f that is rotation invariant about some center c,
  for a whole array of offsets c at once.  In spherical coordinates
  about the kernel center this is omega_{d-1} * int K(rho) rho^(d-1)
  A(rho) drho, with A the spherical average of f (``_sphere_mean``):
  exact in d = 1, in closed form for a d = 3 bump, whose profile
  integrates itself in u (``expr.BumpProfile``), and otherwise a Gauss
  sum over the polar window where the sphere meets f's support.  With a
  cutoff w it integrates A(rho) - w(rho) * f(0) instead, the
  Taylor-subtracted combination of divergence-degree <= 1 extensions
  (the order-one term averages to zero over the sphere, so one
  subtraction covers both degrees).

* ``panel_edges`` gives the panels of the composite Gauss-Legendre
  rules of the radial integrals here and in ``triple``, split at the
  structural radii and cut geometrically toward rho = 0;
  ``_panel_nodes`` puts a rule of one order on each panel.

* ``ProfileSpline`` caches a smooth radial profile on a window as a
  not-a-knot cubic spline, the interpolant of scipy's ``CubicSpline``
  with its slopes solved in numpy; used for correlation and leg
  profiles.

* ``contract_pass`` applies several kernel matrices between two point
  sets to several columns each, toward either set, in one pass over
  blocks of rows; every graph-term contraction and every tensor-rule
  pairing (``propagator._tensor_pair``) goes through it or through
  ``ring_pass``.  ``ring_pass`` does the same for
  kernels that are block-circulant in the azimuth, as P is between two
  d = 3 bump rules whose centres differ only in x1: it forms one
  column of each circulant block and applies the blocks by FFT.

* ``bump_rule`` and ``ball_rule`` are product rules on a ball: radius,
  polar cosine (d = 3) and azimuth (d = 2, 3).  ``bump_rule`` serves
  integrals against a coefficient bump centred on the ball: its radial
  axis is Gauss for the weight rho^(d-1) exp(-1/(1 - rho^2/r^2))
  (``bump_gauss``), its polar axis is x1, and gauss_n = n gives it
  ceil(n/2) radial, b + 1 polar and 2b azimuthal nodes with
  b = max(n-2, floor(n/2)+1) (``bump_orders``; in d = 1 the diameter
  carries 2 ceil(n/2) nodes).  ``ball_rule`` is Gauss-Legendre of order
  n in the radius and the polar cosine about x3 with max(2n, 8)
  azimuthal nodes (n on the diameter in d = 1); it serves integrands
  that carry no centred bump.

The radial integrals double the panel order until two successive
levels agree; an integral that does not settle raises
QuadratureFailure.  These two families, the panels and the bump rule,
carry every integral of the package; a bump's own integral is the
mass of ``bump_gauss`` in closed form, and so are most of its d = 3
spherical means.

Spherical averages are computed in the squared-radius variable u (see
``expr``), which keeps integrands finite at every sample; quadrature
nodes are strictly interior, so kernel singularities at rho = 0 are
never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
# numpy loads these on first use; imported here, they load with eucren
# and not inside the first job
from numpy.fft import irfft, rfft

from .errors import QuadratureFailure, UnsupportedCase

__all__ = [
    "QuadratureScheme",
    "DEFAULT_SCHEME",
    "gauss_legendre",
    "sphere_area",
    "ball_rule",
    "bump_orders",
    "bump_rule",
    "bump_ring_size",
    "bump_gauss",
    "panel_edges",
    "radial_pair",
    "ProfileSpline",
    "correlation_profile",
    "contract_pass",
    "ring_pass",
]


@dataclass(frozen=True)
class QuadratureScheme:
    """Knobs for the nested quadratures.

    rtol / atol are the tolerances of the 1-d integrals (the agreement
    between panel levels in ``radial_pair``); gauss_n the order of the
    ball rules (the bump rule of a coefficient bump: ``bump_orders``;
    any other ball rule: Gauss-Legendre of order n in the radius and
    polar cosine, max(2n, 8) azimuthal nodes); angular_n the order of
    the windowed polar rule of the spherical averages in ``radial_pair``,
    which runs only over the part of each sphere inside the test's
    support (``_sphere_mean``); grid_nodes the per-axis size of the
    triple-correlation grid.
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
    """Nodes and weights on [-1, 1], the nodes ascending.

    Newton's method in the angle theta = arccos x from Tricomi's
    asymptotic nodes, on the three-term recurrence written for
    y = 1 - x = 2 sin^2(theta/2) (Hale and Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652).  In theta the weight 2/(dP_n/dtheta)^2 is
    insensitive to the rounding of a node near +-1, and the recurrence
    in y loses no digits there, so nodes and weights are within 1e-13
    relative of the exact ones up to n = 512.  It needs no LAPACK call,
    and the nodes of x >= 0 mirror the others exactly.
    """
    n = int(n)
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    # Tricomi's nodes, with terms through n^-4
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    theta = np.arccos(x)
    for _ in range(10):  # two or three steps reach roundoff
        p, dp = _legendre_theta(n, theta)
        step = p / dp
        theta = theta - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise QuadratureFailure(f"Gauss-Legendre nodes of order {n} "
                                f"did not converge")
    # dp is taken one step before the last, whose size the weight
    # does not feel
    x, w = np.cos(theta), 2.0 / (dp * dp)
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    return _read_only(np.concatenate([-x[:half], x[::-1]]),
                      np.concatenate([w[:half], w[::-1]]))


def _legendre_theta(n: int, theta):
    """P_n(cos theta) and its theta-derivative, by the recurrence for
    D_j = P_j - P_(j-1):  j D_j = (j - 1) D_(j-1) - (2j - 1) y P_(j-1)."""
    s = np.sin(0.5 * theta)
    y = 2.0 * s * s
    p, dlt = 1.0 - y, -y
    for j in range(2, n + 1):
        dlt = ((j - 1) / j) * dlt - ((2 * j - 1) / j) * (y * p)
        p = p + dlt
    # dP_n/dtheta = -sin(theta) P_n'(x), P_n' = n (P_(n-1) - x P_n)/(1 - x^2)
    return p, n * (dlt - y * p) / np.sin(theta)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere in R^d (2 when d = 1)."""
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
    lo, hi = ((center[0] - radius, center[0] + radius) if d == 1
              else (0.0, radius))
    r, wr = (v[0] for v in _panel_nodes(np.array([lo]), np.array([hi]), n))
    if d == 1:
        return _read_only(r.reshape(-1, 1), wr)
    return _product_rule(d, center, r, wr * r**(d - 1), n, max(2 * n, 8),
                         polar_axis=2)


def bump_orders(n: int):
    """(radial, polar, azimuthal) orders of the bump rule at gauss_n n.

    The radial axis carries the bump, so Gauss for its weight needs
    about half the nodes Gauss-Legendre needs for the smooth remainder
    on the angles.  With b = max(n - 2, n // 2 + 1) the polar order is
    b + 1 and the azimuthal 2 b: the polar axis x1 runs along the line
    of the centres of the products, where the kernel varies most, and
    the azimuth matters only for centres off that line.
    ``tests/test_quadrature.py::TestBumpRule`` records the convergence
    study that fixed the formula.  Every n >= 2 has at least three polar
    and four azimuthal nodes, so the angular axes integrate every
    polynomial of degree <= 3 exactly, and raising n by two or more
    raises every axis.
    """
    base = max(n - 2, n // 2 + 1)
    return (n + 1) // 2, base + 1, 2 * base


def bump_rule(d: int, center, radius: float, n: int):
    """Product Gauss rule for the bump weight exp(-1/(1 - |x-c|^2/r^2))
    on the ball B(c, r); returns (points, weights) with sum w h(x) ~
    int bump h.

    The radial axis is Gauss for that weight (times rho^(d-1)), so only
    the smooth factors of an integrand are left to resolve; the polar
    and azimuthal axes are those of ``ball_rule`` at the orders of
    ``bump_orders(n)``, except that in d = 3 the polar axis is x1, not
    x3.  Two such rules whose centres differ only in x1 then make every
    undecorated kernel between them block-circulant (``ring_pass``).
    In d = 1 the interval carries twice the radial order, the nodes of
    both half-diameters.  Arrays are read-only.
    """
    center = tuple(float(c) for c in np.atleast_1d(center))
    return _bump_rule(d, center, float(radius), n)


def bump_ring_size(d: int, center_x, center_y, n: int) -> int:
    """The ring size n_phi of the bump rules of order n at two centres
    when every kernel of |x - y| between them is block-circulant in
    rings of n_phi nodes (``ring_pass``), else 0: in d = 3, centres that
    differ only in x1, the rules' polar axis."""
    if d == 3 and tuple(center_x[1:]) == tuple(center_y[1:]):
        return bump_orders(n)[2]
    return 0


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


def _product_rule(d: int, center, r, wr, n_polar: int, n_phi: int,
                  polar_axis: int = 0):
    """The radial rule (r, wr), whose weights carry the measure
    rho^(d-1), times Gauss-Legendre of order n_polar in the polar
    cosine (d = 3; d = 2 is the single polar node mu = 0) and the
    n_phi-point midpoint rule in the azimuth.

    In d = 3 the polar axis is the coordinate ``polar_axis`` and the
    azimuth turns the other two in cyclic order; in d = 2 the azimuth
    turns (x1, x2).  Nodes run azimuth fastest, so each (radius, polar)
    pair owns a ring of n_phi consecutive nodes.
    """
    if d not in (2, 3):
        raise UnsupportedCase(
            f"ball rules are implemented for d in 1..3, got {d}")
    mu, wmu = gauss_legendre(n_polar) if d == 3 else (np.zeros(1), np.ones(1))
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    w_phi = 2.0 * np.pi / n_phi
    R, MU, PH = np.meshgrid(r, mu, phi, indexing="ij")
    WR, WMU, _ = np.meshgrid(wr, wmu, phi, indexing="ij")
    ST = np.sqrt(1.0 - MU**2)
    axes = [R * ST * np.cos(PH), R * ST * np.sin(PH)]
    if d == 3:
        axes = [([R * MU] + axes)[(i - polar_axis) % 3] for i in range(3)]
    pts = np.stack([c + a for c, a in zip(center, axes)],
                   axis=-1).reshape(-1, d)
    return _read_only(pts, (WR * WMU * w_phi).reshape(-1))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# rows whose unclipped u-interval, of width 4 c rho, is at least this
# share of S^2 take a closed-form d = 3 mean; narrower ones keep the
# windowed rule, where the two antiderivative values would cancel
_CLOSED_FORM_WIDTH = 0.02


def _sphere_mean(gu: Callable, rho, c, d: int, n: int, support: float):
    """Spherical average of x -> g(|x - c e1|^2) over |x| = rho, for
    matching arrays rho and c, where g vanishes for u >= support^2;
    ``gu`` maps an array of u to an array of the same shape.

    The sphere meets the support only where the polar cosine mu exceeds
    mu_min = (rho^2 + c^2 - S^2)/(2 c rho).  Rows with an empty window,
    S^2 <= (rho - c)^2, average 0 without a call of ``gu``.  In d = 3
    the average is, with u = rho^2 + c^2 - 2 c rho mu,

        (1/(4 c rho)) int g(u) du  over [(rho - c)^2, min((rho + c)^2, S^2)].

    A ``gu`` with an ``integral(lo, hi)`` method (the bump's
    ``expr.BumpProfile``) gives that integral in closed form on every
    row where 4 c rho >= _CLOSED_FORM_WIDTH * S^2.  Every other row runs
    a rule of n nodes over the window alone, so the support's edge is an
    end of the interval and not a kink inside it: in d = 3 Gauss-Legendre
    in u, whose unclipped half-width is 2 c rho exactly, so its rows need
    no scale and lose no digits as c rho -> 0; in d = 2 and d >= 4
    Gauss-Legendre in the polar angle over [0, arccos max(-1, mu_min)]
    against sin^(d-2), divided by the full sphere's
    sqrt(pi) Gamma((d-1)/2)/Gamma(d/2).  In d = 1 it is the mean of the
    two poles.
    """
    if d == 1:
        rho, c = rho[:, None], c[:, None]
        u = np.concatenate([(rho - c) ** 2, (rho + c) ** 2], axis=1)
        return 0.5 * (gu(u) @ np.ones(2))
    s2 = support * support
    span = 2.0 * c * rho
    room = s2 - (rho - c) ** 2
    out = np.zeros(len(rho))
    rule = room > 0.0
    if d == 3 and hasattr(gu, "integral"):
        closed = rule & (span >= 0.5 * _CLOSED_FORM_WIDTH * s2)
        if closed.any():
            rc, cc, sc = rho[closed], c[closed], span[closed]
            out[closed] = gu.integral(
                (rc - cc) ** 2, np.minimum((rc + cc) ** 2, s2)) / (2.0 * sc)
            rule &= ~closed
    if rule.all():
        return _windowed_mean(gu, rho, c, span, room, d, n, s2)
    if rule.any():
        out[rule] = _windowed_mean(gu, rho[rule], c[rule], span[rule],
                                   room[rule], d, n, s2)
    return out


def _windowed_mean(gu: Callable, rho, c, span, room, d: int, n: int,
                   s2: float):
    """``_sphere_mean`` by the windowed rule of n nodes, on rows whose
    window is not empty."""
    rho, c, span, room = rho[:, None], c[:, None], span[:, None], room[:, None]
    x, w = gauss_legendre(n)
    if d == 3:
        # rows whose interval the support clips run over [(rho - c)^2,
        # S^2], half-width room/2, and carry the scale room/(4 c rho)
        clipped = room < 2.0 * span
        half = np.where(clipped, 0.5 * room, span)
        mid = np.where(clipped, s2 - half, rho * rho + c * c)
        u = half * x
        np.subtract(mid, u, out=u)
        scale = np.where(clipped, half / np.maximum(span, np.finfo(float).tiny),
                         1.0)
        return (gu(np.maximum(u, 0.0, out=u)) @ (0.5 * w)) * scale[:, 0]
    # 1 - mu_min = room / span, so the window is the whole sphere where
    # room >= 2 span
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_min = np.where(room >= 2.0 * span, -1.0, 1.0 - room / span)
    top = np.arccos(mu_min)
    theta = (0.5 * top) * (1.0 + x)
    u = np.cos(theta)
    u *= -span
    u += rho * rho + c * c
    g = gu(np.maximum(u, 0.0, out=u))
    if d > 3:
        g = g * np.sin(theta) ** (d - 2)
    # int_0^pi sin^(d-2) = sqrt(pi) Gamma((d-1)/2)/Gamma(d/2)
    mass = math.sqrt(math.pi) * math.gamma(0.5 * (d - 1)) / math.gamma(0.5 * d)
    return (g @ w) * (0.5 / mass * top[:, 0])


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
    n_polar = 2 if d == 1 else scheme.angular_n

    def panel_values(panels, n):
        out = np.empty(len(panels))
        step = max(1, _RADIAL_BLOCK // (n * n_polar))
        for start in range(0, len(panels), step):
            sel = panels[start:start + step]
            rho, w = _panel_nodes(a[sel], b[sel], n)
            rho = rho.reshape(-1)
            at = np.repeat(row[sel], n)
            f = _sphere_mean(gu, rho, c[at], d, scheme.angular_n, support)
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
    """Cubic-spline cache of a radial profile on [0, support], clamped
    below the first sample and zero beyond the support: the not-a-knot
    interpolant of scipy's ``CubicSpline``, evaluated in Horner form.

    Its slopes k solve CubicSpline's tridiagonal system.  The two
    not-a-knot rows are not diagonally dominant; folding each into its
    neighbour (row 1 minus row 0, row n-2 minus row n-1) leaves a
    dominant system on the inner slopes, which a Thomas sweep solves
    without pivoting.
    """

    __slots__ = ("support_radius", "_s", "_coef")

    def __init__(self, s: np.ndarray, values: np.ndarray, support: float):
        order = np.argsort(s)
        x, y = np.asarray(s, float)[order], np.asarray(values, float)[order]
        if len(x) < 4:
            raise ValueError(f"a not-a-knot spline needs 4 samples, got {len(x)}")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.empty(len(x))
        rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d0
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        # rows 1 .. n-2: dx[i] k[i-1] + 2 (dx[i-1] + dx[i]) k[i]
        # + dx[i-1] k[i+1] = rhs[i]; folded, rows 1 and n-2 lose k[0] and
        # k[n-1] and take d0 and d1 on the diagonal
        diag = 2.0 * (dx[:-1] + dx[1:])
        diag[0], diag[-1] = d0, d1
        inner = rhs[1:-1].copy()
        inner[0] -= rhs[0]
        inner[-1] -= rhs[-1]
        sub, sup = dx[2:].tolist(), dx[:-2].tolist()
        diag, inner = diag.tolist(), inner.tolist()
        for i in range(1, len(diag)):
            w = sub[i - 1] / diag[i - 1]
            diag[i] -= w * sup[i - 1]
            inner[i] -= w * inner[i - 1]
        back = [inner[-1] / diag[-1]]  # k[n-2], k[n-3], ..., k[1]
        for i in range(len(diag) - 2, -1, -1):
            back.append((inner[i] - sup[i] * back[-1]) / diag[i])
        k = np.array([(rhs[0] - d0 * back[-1]) / dx[1], *back[::-1],
                      (rhs[-1] - d1 * back[0]) / dx[-2]])
        t = (k[:-1] + k[1:] - 2.0 * slope) / dx
        self._s = x
        self._coef = (t / dx, (slope - k[:-1]) / dx - t, k[:-1], y[:-1])
        self.support_radius = float(support)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        z = np.maximum(s, self._s[0])  # profiles are smooth at 0
        i = np.searchsorted(self._s[1:-1], z, side="right")
        z -= self._s.take(i)
        c0, c1, c2, c3 = (c.take(i) for c in self._coef)
        out = np.where(s <= self.support_radius,
                       ((c0 * z + c1) * z + c2) * z + c3, 0.0)
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


# entries of one row block of ``contract_pass`` (its kernel matrices,
# their rows of the columns sent toward yp, and the columns sent
# toward xp; about a 156-row block of one kernel between 3,360-node
# rules), of one ring block of ``ring_pass`` and of one ring block of
# ``triple.grid_field`` (about 38 rings at grid_nodes 48)
_BLOCK_ENTRIES = 1 << 19
# glibc serves a block above its mmap threshold from fresh mmap pages,
# which page faults zero on first touch; the threshold starts at 128 KiB
# and rises to the size of the largest such block freed.  Freeing one
# block of two row blocks at import lifts it, so that row blocks and the
# other large temporaries of a round reuse the heap (the sympy and scipy
# imports used to do this by accident; `radial` rounds still run about a
# fifth slower without it).  Other allocators ignore it.
np.empty(2 * _BLOCK_ENTRIES)


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


def ring_pass(blocks: Callable, xp: np.ndarray, yp: np.ndarray, n_phi: int,
              toward_x: Sequence[np.ndarray],
              toward_y: Sequence[np.ndarray]):
    """``contract_pass`` for kernels that are block-circulant in rings of
    n_phi consecutive nodes: K_k(x_(a,i), y_(b,j)) depends on the ring
    indices a, b and on i - j mod n_phi only, and is even in i - j.
    Two bump rules of one order in d = 3 whose centres differ only in
    x1 are such a pair for every undecorated kernel (``bump_rule``).

    Only the first column of each block is formed, K_k(xp, yp[::n_phi]).
    A circulant block is diagonal in the azimuthal Fourier basis, with
    the (real) spectrum of that column on its diagonal, so K @ V and
    K^T @ U become an rfft of the columns over the azimuth, one real
    batched matrix product per frequency, and an irfft.  Rings of xp are
    taken a block at a time, each block's kernel columns, one kernel's
    spectrum and its rows of ``toward_y`` within _BLOCK_ENTRIES entries
    besides the spectra of ``toward_x`` and of the K^T @ U sums, which
    accumulate in frequency space.
    """
    if len(xp) % n_phi or len(yp) % n_phi:
        raise ValueError(f"point sets of {len(xp)} and {len(yp)} nodes do "
                         f"not split into rings of {n_phi}")
    x_rings, y_rings = len(xp) // n_phi, len(yp) // n_phi
    n_freq = n_phi // 2 + 1

    def spectra(v, rings):
        # (rings * n_phi, c) -> (n_freq, rings, 2c): the real and imaginary
        # parts side by side, contiguous for the matrix products
        z = rfft(v.reshape(rings, n_phi, -1), axis=1).transpose(1, 0, 2)
        return np.concatenate([z.real, z.imag], axis=2)

    def signal(s, rings):
        c = s.shape[2] // 2
        z = (s[..., :c] + 1j * s[..., c:]).transpose(1, 0, 2)
        return irfft(z, n_phi, axis=1).reshape(rings * n_phi, c)

    v_hat = [spectra(v, y_rings) for v in toward_x]
    u_hat = [np.zeros((n_freq, y_rings, 2 * u.shape[1])) for u in toward_y]
    fixed = sum(s.size for s in v_hat + u_hat)
    per_ring = (n_phi * (len(toward_x) * y_rings
                         + sum(u.shape[1] for u in toward_y))
                + 2 * n_freq * y_rings)
    step = max(1, (_BLOCK_ENTRIES - fixed) // per_ring)
    out_x = [np.empty((len(xp), v.shape[1])) for v in toward_x]
    first = yp[::n_phi]
    for lo in range(0, x_rings, step):
        rings = min(step, x_rings - lo)
        rows = slice(lo * n_phi, (lo + rings) * n_phi)
        for k, kernel in enumerate(blocks(xp[rows], first)):
            k_hat = rfft(kernel.reshape(rings, n_phi, y_rings), axis=1)
            k_hat = np.ascontiguousarray(k_hat.real.transpose(1, 0, 2))
            if toward_x[k].shape[1]:
                out_x[k][rows] = signal(k_hat @ v_hat[k], rings)
            if toward_y[k].shape[1]:
                u_hat[k] += k_hat.transpose(0, 2, 1) @ spectra(
                    toward_y[k][rows], rings)
    return out_x, [signal(s, y_rings) for s in u_hat]
