"""Three-point pairings: paths through a pivot vertex, and the
triple-correlation reduction for concentric triangles.

With z1 = x0 - x1 and z2 = x0 - x2 the pairing of a connected
three-point kernel K1(z1) K2(z2) K3(z1 - z2) against f0 x f1 x f2
becomes a double integral over relative coordinates against

    Phi(z1, z2) = int f0(x) f1(x - z1) f2(x - z2) dx.

When the three test functions share a center, Phi is jointly
rotation invariant and reduces to a function of (r1, r2, mu) with
mu the cosine between z1 and z2; in d = 3 the pairing collapses to

    8 pi^2  int dr1 int dr2 r1 r2 K1 K2 int_{|r1-r2|}^{r1+r2} ds s K3 Phi,

using s^2 = r1^2 + r2^2 - 2 r1 r2 mu.  Renormalization enters through
pointwise subtractions inside the s-bracket: an extension on the K1
factor subtracts w1(r1) K3(r2) Phi(0, z2), an overall extension
subtracts W(sqrt(r1^2 + r2^2)) Phi(0, 0); the subtracted terms stay
inside the innermost integrand so the small-r1 cancellation happens
pointwise.  Counterterms act on Phi(0, .) and Phi(0, 0) directly.

The radial integrals run on fixed composite Gauss rules: panels split
at every structural point (cutoff plateau edges and radii, support
radii, and r1 = r2 where the s-window closes) and refine
geometrically toward the subtracted endpoint at zero.  Between those
points the integrands are analytic, so the rules converge fast and
the whole reduction is deterministic; two resolutions are compared
and a mismatch raises rather than returning a silently wrong value.

Phi itself is tabulated once per test triple and scheme on a uniform
(r1, r2, theta) grid by a ball-Gauss x-integral and queried through a
prefiltered cubic B-spline.  The theta axis makes the mirror boundary
condition exact (Phi is even about theta = 0 and pi); the radial axes
carry a few ghost nodes at negative radii, where the tabulation
formula remains valid, so interpolation keeps interior accuracy
through r = 0.

Paths (two edges sharing a pivot vertex) do not need the grid: each
leg is a radial profile of the (possibly renormalized) edge pairing
against the far test function, and the pivot integral runs on the
pivot's own rule (Gauss for the bump weight).  Triangles whose test
centers neither coincide nor support a common point are outside the
numeric envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .errors import (
    NonIntegrableSingularity,
    QuadratureFailure,
    UnsupportedCase,
)
from .kernels import ExtensionSpec, ScalarDistribution
from .propagator import (
    RadialTestView,
    _tests_overlap,
    green_function,
    pair_extension,
)
from .quadrature import (
    DEFAULT_SCHEME,
    PROFILE_SAMPLES,
    ProfileSpline,
    QuadratureScheme,
    ball_rule,
    gauss_legendre,
    panel_rule,
)

__all__ = ["pair_three", "TripleField", "grid_field", "analytic_field",
           "triple_pairing"]

_ZERO3 = (0, 0, 0)
_S_NODES = 24


@dataclass(frozen=True)
class TripleField:
    """Evaluation data for Phi(z1, z2) in the concentric frame.

    phi_tilde(r1, r2, s) broadcasts r1 against s for a fixed scalar
    r2, so a whole (r1 panel) x (s node) mesh is one call; phi2 is the
    radial profile of Phi(0, z2); phi00 = Phi(0, 0).  r1max / r2max
    bound the support in each radius.
    """

    phi_tilde: Callable
    phi2: Callable
    phi00: float
    r1max: float
    r2max: float


_GHOSTS = 5


@lru_cache(maxsize=8)
def grid_field(f0, f1, f2, scheme: QuadratureScheme = DEFAULT_SCHEME) -> TripleField:
    """Tabulate Phi for concentric tests (centers already coinciding)."""
    r0 = f0.radius
    R1 = r0 + f1.radius
    R2 = r0 + f2.radius
    n = scheme.grid_nodes
    h1 = 1.02 * R1 / (n - 1)
    h2 = 1.02 * R2 / (n - 1)
    r1g = np.arange(-_GHOSTS, n) * h1
    r2g = np.arange(-_GHOSTS, n) * h2
    n_th = n
    h_th = np.pi / (n_th - 1)
    theta = np.arange(n_th) * h_th

    pts, wts = ball_rule(3, np.zeros(3), r0, scheme.gauss_n)
    u0 = np.sum(pts * pts, axis=1)
    g0u, g1u, g2u = f0.gu(), f1.gu(), f2.gu()
    F = wts * np.asarray(g0u(u0), dtype=float)

    x0, x1 = pts[:, 0], pts[:, 1]
    mu, si = np.cos(theta), np.sin(theta)
    proj = np.outer(x0, mu) + np.outer(x1, si)

    n1, n2 = len(r1g), len(r2g)
    phi = np.zeros((n1, n2 * n_th))
    # chunk the x-sum: the (Q, n2, n_th) distance array is large
    for lo in range(0, len(pts), 1500):
        sl = slice(lo, min(lo + 1500, len(pts)))
        G = np.asarray(g1u(u0[sl, None] - 2.0 * np.outer(x0[sl], r1g)
                           + r1g[None, :] ** 2), dtype=float)
        arg = (u0[sl, None, None]
               - 2.0 * proj[sl, None, :] * r2g[None, :, None]
               + (r2g ** 2)[None, :, None])
        H = np.asarray(g2u(arg), dtype=float).reshape(sl.stop - sl.start, -1)
        phi += (F[sl, None] * G).T @ H
    phi = phi.reshape(n1, n2, n_th)

    coeffs = spline_filter(phi, order=3, mode="mirror")

    g1_at0 = F * np.asarray(g1u(u0), dtype=float)
    s2 = np.concatenate([-(np.arange(_GHOSTS, 0, -1)) * h2,
                         np.linspace(0.0, R2, PROFILE_SAMPLES)])
    vals2 = g1_at0 @ np.asarray(
        g2u(u0[:, None] - 2.0 * np.outer(x0, s2) + s2[None, :] ** 2),
        dtype=float)
    phi2 = ProfileSpline(s2, vals2, R2)
    phi00 = float(g1_at0 @ np.asarray(g2u(u0), dtype=float))

    def phi_tilde(r1, r2: float, s):
        r1b, sb = np.broadcast_arrays(np.asarray(r1, dtype=float),
                                      np.asarray(s, dtype=float))
        out = np.zeros(r1b.shape)
        if r2 >= R2:
            return out
        sel = r1b < R1
        if not sel.any():
            return out
        r1v, sv = r1b[sel], sb[sel]
        rr = 2.0 * r1v * r2
        num = r1v * r1v + r2 * r2 - sv * sv
        mu_q = np.where(rr < 1e-280, 0.0,
                        np.clip(num / np.where(rr < 1e-280, 1.0, rr),
                                -1.0, 1.0))
        th = np.arccos(mu_q)
        coords = np.vstack([
            (r1v - r1g[0]) / h1,
            np.full(r1v.shape, (r2 - r2g[0]) / h2),
            th / h_th,
        ])
        out[sel] = map_coordinates(coeffs, coords, order=3,
                                   prefilter=False, mode="mirror")
        return out

    return TripleField(phi_tilde=phi_tilde, phi2=phi2, phi00=phi00,
                       r1max=R1, r2max=R2)


def analytic_field(V: Callable, r1max: float, r2max: float) -> TripleField:
    """Field data for a function of the joint radius only,
    Phi(z1, z2) = V(sqrt(r1^2 + r2^2)); used for cutoff-change
    compensation integrals.  V must accept numpy arrays."""
    def phi_tilde(r1, r2, s):
        r1b, sb = np.broadcast_arrays(np.asarray(r1, dtype=float),
                                      np.asarray(s, dtype=float))
        return np.asarray(V(np.hypot(r1b, float(r2))), dtype=float)

    return TripleField(phi_tilde=phi_tilde,
                       phi2=lambda r: np.asarray(V(r), dtype=float),
                       phi00=float(V(0.0)), r1max=r1max, r2max=r2max)


def _order0_only(spec: ExtensionSpec, role: str) -> float:
    for alpha, value in spec.counterterms:
        if sum(alpha) > 0 and value != 0.0:
            raise UnsupportedCase(
                f"{role} counterterms beyond order 0 are outside the "
                "triple reduction")
    return spec.counterterm(_ZERO3)


def triple_pairing(m: float, powers: Tuple[int, int, int],
                   e1: Optional[ExtensionSpec],
                   overall: Optional[ExtensionSpec],
                   field: TripleField,
                   scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """The reduced d = 3 pairing for kernels K1(z1) K2(z2) K3(z1 - z2)
    with K_i = P^powers[i] (power 0 means the factor is absent).

    ``e1`` renormalizes the K1 factor at z1 = 0, ``overall`` the joint
    origin.  Their counterterms must be order 0.
    """
    prop = green_function(3, m)
    a, b, c = powers
    if c > 1:
        raise UnsupportedCase(
            "the z1 - z2 factor must have power <= 1 for the s-integral")
    K1 = prop.power_callable(a)
    K2 = prop.power_callable(b)
    K3 = prop.power_callable(c)

    c_pair = _order0_only(e1, "pair") if e1 is not None else 0.0
    c_over = _order0_only(overall, "overall") if overall is not None else 0.0
    w1 = e1.cutoff.profile if e1 is not None else None
    W = overall.cutoff.profile if overall is not None else None
    w1_marks = ((e1.cutoff.plateau_radius, e1.cutoff.radius)
                if e1 is not None else ())
    W_marks = ((overall.cutoff.plateau_radius, overall.cutoff.radius)
               if overall is not None else ())

    phi2, phi00 = field.phi2, field.phi00
    r1_hi = max(field.r1max, *w1_marks, *W_marks, 0.0)
    r2_hi = max(field.r2max, *W_marks, 0.0)

    sx, sw = gauss_legendre(_S_NODES)

    def evaluate(n_panel: int, levels: int) -> float:
        def inner(r2: float) -> float:
            k3_r2 = float(np.asarray(K3(np.float64(r2))))
            base2 = float(np.asarray(phi2(r2)))
            if W is not None:
                base2 -= float(np.asarray(W(r2))) * phi00
            marks = [r2, field.r1max, *w1_marks]
            # W transitions sit on joint-radius spheres; map to r1
            for t in W_marks:
                if t > r2:
                    marks.append(math.sqrt(t * t - r2 * r2))
            r1n, r1w = panel_rule(0.0, r1_hi, marks, n_panel, levels)
            half = np.minimum(r1n, r2)
            mid = np.abs(r1n - r2) + half
            S = mid[:, None] + half[:, None] * sx[None, :]
            core = field.phi_tilde(r1n[:, None], r2, S)
            if W is not None:
                core = core - (np.asarray(W(np.hypot(r1n, r2)),
                                          dtype=float) * phi00)[:, None]
            integ = S * np.asarray(K3(S), dtype=float) * core
            if e1 is not None:
                integ = integ - S * (np.asarray(w1(r1n), dtype=float)
                                     * (k3_r2 * base2))[:, None]
            vals = r1n * np.asarray(K1(r1n), dtype=float) * half * (integ @ sw)
            return float(r1w @ vals)

        r2n, r2w = panel_rule(0.0, r2_hi, [field.r2max, *W_marks],
                              n_panel, levels)
        outer_vals = np.fromiter((inner(float(r2)) for r2 in r2n),
                                 dtype=float, count=r2n.size)
        value = 8.0 * math.pi ** 2 * float(
            r2w @ (r2n * np.asarray(K2(r2n), dtype=float) * outer_vals))

        if e1 is not None and c_pair != 0.0:
            v = np.asarray(phi2(r2n), dtype=float)
            if W is not None:
                v = v - np.asarray(W(r2n), dtype=float) * phi00
            ct = (r2n * r2n * np.asarray(K2(r2n), dtype=float)
                  * np.asarray(K3(r2n), dtype=float) * v)
            value += c_pair * 4.0 * math.pi * float(r2w @ ct)
        return value

    n_panel = max(10, scheme.gauss_n)
    coarse = evaluate(n_panel - 2, levels=7)
    value = evaluate(n_panel + 6, levels=9)
    if abs(value - coarse) > max(5e-4 * abs(value), 1e-9):
        raise QuadratureFailure(
            "triple reduction rules disagree: "
            f"{coarse:.9g} vs {value:.9g}; the field grid is likely "
            "under-resolved for these kernels")

    if overall is not None:
        value += c_over * phi00
    return value


# -- dispatch ----------------------------------------------------------


def _concentric(tests) -> bool:
    c = np.asarray(tests[0].center, dtype=float)
    for t in tests[1:]:
        if np.linalg.norm(np.asarray(t.center, dtype=float) - c) > 1e-12:
            return False
    return True


def _common_support_point(tests) -> bool:
    # exact for coinciding centers; conservative (pairwise) otherwise
    if _concentric(tests):
        return True
    for i in range(len(tests)):
        for j in range(i + 1, len(tests)):
            if not _tests_overlap(tests[i], tests[j]):
                return False
    return True


@lru_cache(maxsize=64)
def _leg_profile(d: int, m: float, power: int,
                 extension: Optional[ExtensionSpec], leg, lo: float,
                 hi: float, scheme: QuadratureScheme) -> ProfileSpline:
    """Radial profile rho -> <P^power, leg(x - .)> for |x - c_leg| = rho."""
    sub = ScalarDistribution.single_power(d, m, power, extension=extension)
    gu = leg.gu()
    grid = np.linspace(lo, hi, max(160, PROFILE_SAMPLES // 2))
    view = RadialTestView(gu=gu, support=leg.radius, offset=grid,
                          value_at_origin=np.asarray(gu(grid * grid),
                                                     dtype=float))
    return ProfileSpline(grid, pair_extension(sub, view, scheme), hi)


def _pair_path(t: ScalarDistribution, tests, scheme: QuadratureScheme) -> float:
    fac1, fac2 = t.factors
    shared = set(fac1.pair) & set(fac2.pair)
    pivot = shared.pop()
    pv = tests[pivot]
    pts, wts = pv.rule(scheme.gauss_n)
    for factor in (fac1, fac2):
        leg_vertex = factor.i if factor.j == pivot else factor.j
        leg = tests[leg_vertex]
        sep = float(np.linalg.norm(np.asarray(pv.center, dtype=float)
                                   - np.asarray(leg.center, dtype=float)))
        lo = max(0.0, sep - pv.radius)
        hi = sep + pv.radius
        prof = _leg_profile(t.d, t.m, factor.power, factor.extension, leg,
                            lo, hi, scheme)
        rho = np.linalg.norm(pts - np.asarray(leg.center, dtype=float), axis=1)
        wts = wts * prof(rho)
    return float(np.sum(wts))


def pair_three(t: ScalarDistribution, tests,
               scheme: QuadratureScheme = DEFAULT_SCHEME,
               method: str = "auto") -> float:
    """Pairing of a connected three-point kernel against three tests."""
    for factor in t.factors:
        if factor.deriv_order:
            raise UnsupportedCase(
                "derivative decorations on three-point kernels are "
                "outside the numeric envelope")

    prop = green_function(t.d, t.m)
    for factor in t.factors:
        if factor.renormalized:
            continue
        rho_pair = prop.edge_sd(factor) - t.d
        if rho_pair >= 0 and _tests_overlap(tests[factor.i], tests[factor.j]):
            raise NonIntegrableSingularity(
                f"bare P^{factor.power} on pair {factor.pair} has "
                f"divergence degree {rho_pair} >= 0 against overlapping "
                "tests")

    sd_total = sum(prop.edge_sd(f) for f in t.factors)
    rho_overall = sd_total - 2 * t.d
    joint_locus = _common_support_point(tests)
    if rho_overall >= 0 and joint_locus:
        if t.overall is None:
            if t.is_bare:
                raise NonIntegrableSingularity(
                    f"joint divergence degree {rho_overall} >= 0 with no "
                    "overall extension")
            raise UnsupportedCase(
                "renormalized factors with a divergent joint locus need "
                "an overall extension spec")

    # the overall extension only matters on a populated joint locus
    overall_active = (t.overall is not None and rho_overall >= 0
                      and joint_locus)
    if len(t.factors) == 2 and not overall_active:
        return _pair_path(t, tests, scheme)

    if t.d != 3:
        raise UnsupportedCase(
            "triangle and overall-extended kernels are reduced in d = 3 only")
    if not _concentric(tests):
        raise UnsupportedCase(
            "triangle and overall-extended kernels need coinciding test "
            "centers")

    ext = [f for f in t.factors if f.renormalized]
    if len(ext) > 1:
        raise UnsupportedCase("at most one renormalized factor per triangle")

    def edge_power(u, v):
        f = t.factor_for(min(u, v), max(u, v))
        return f.power if f is not None else 0

    if ext:
        # either endpoint of the extended edge may serve as the pivot;
        # pick the one whose opposite edge keeps the s-kernel integrable
        i, j = ext[0].pair
        k = 3 - i - j
        order = (i, j, k) if edge_power(j, k) <= 1 else (j, i, k)
    else:
        lowest = min(t.factors, key=lambda f: f.power)
        i, j = lowest.pair
        order = (3 - i - j, i, j)

    powers = (edge_power(order[0], order[1]),
              edge_power(order[0], order[2]),
              edge_power(order[1], order[2]))
    e1 = ext[0].extension if ext else None

    # shift the common center to the origin; Phi is translation invariant
    field = grid_field(tests[order[0]], tests[order[1]], tests[order[2]],
                       scheme)
    return triple_pairing(t.m, powers, e1, t.overall, field, scheme)
