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
Both subtracted values come from the field itself, Phi(0, z2) as the
limit of its Phi(z1, z2) at r1 = 0, so the subtraction cancels to
rounding as r1 -> 0 and the subtracted integrand stays bounded there.

The radial integrals run on fixed composite Gauss rules: panels split
at every structural point (cutoff plateau edges and radii, support
radii, the joint radii a field marks, and r1 = r2 where the s-window
closes) and are cut geometrically a few times toward zero.  Two rules,
orders 10 and 12 per panel (``_RULES``, fixed by a convergence study),
are compared, and a gap above 5e-4 of the value raises rather than
returning a silently wrong value; the reduction is deterministic.  Each
rule takes the r1 panels of all its r2 nodes in one ``panel_edges``
call and evaluates the (r1, s) mesh in blocks of at most _TRIPLE_BLOCK
nodes across r2 nodes, summing the r1 integrals by r2 node at the end.

Phi itself is tabulated once per test triple and scheme on a uniform
(r1, r2, theta) grid and queried through a prefiltered cubic B-spline.
The x-integral runs over rings about x3: Gauss-Legendre of order
gauss_n in the radius and the polar cosine, and 2(grid_nodes - 1)
azimuthal midpoint nodes, so that the theta nodes are lags of the
azimuth.  Each ring evaluates f1 and f2 once per node, and the sum over
its azimuth is a circular correlation, taken in frequency space and
summed over blocks of rings within quadrature._BLOCK_ENTRIES entries;
one inverse FFT ends it.  The theta axis
makes the mirror boundary condition exact (Phi is even about theta = 0
and pi); the radial axes carry a few ghost nodes at negative radii,
where the tabulation formula remains valid, so interpolation keeps
interior accuracy through r = 0.  The spline is evaluated one axis at
a time (de Boor, A Practical Guide to Splines, ch. XVII): a query
collapses r2 once per distinct r2, r1 once per r1 node, and takes four
theta taps per s-node, instead of 64 taps per point.

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
from numpy.fft import irfft

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
    _BLOCK_ENTRIES,
    _panel_nodes,
    QuadratureScheme,
    gauss_legendre,
    panel_edges,
)

__all__ = ["pair_three", "TripleField", "grid_field", "analytic_field",
           "triple_pairing"]

_ZERO3 = (0, 0, 0)
_S_NODES = 24
# (Gauss order per panel, geometric cuts toward r = 0) of the coarse
# and the fine rule of triple_pairing, from the convergence study in
# tests/test_pairing.py::TestTripleRules; their values must agree to
# _RULES_RTOL
_RULES = ((10, 5), (12, 5))
_RULES_RTOL = 5e-4
# (r1, s) nodes per block of triple_pairing's batched r2 loop; one block
# of all r2 nodes raised a `radial` round's peak RSS from 60 to 86 MB
_TRIPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class TripleField:
    """Evaluation data for Phi(z1, z2) in the concentric frame.

    phi_tilde(r1, r2, s) takes r1 of shape (P,) or (P, 1), r2 a scalar
    or one value per r1 row, and s of shape (P,) or (P, S), so a whole
    (r1 node) x (s node) mesh is one call that shares each r1 node's
    spline row among its s-nodes; phi2 is the radial profile of
    Phi(0, z2), the limit of phi_tilde at r1 = 0; phi00 = Phi(0, 0).
    r1max / r2max bound the support in each radius.  marks are joint
    radii sqrt(r1^2 + r2^2) where Phi has structure that the radial
    rules must split at.
    """

    phi_tilde: Callable
    phi2: Callable
    phi00: float
    r1max: float
    r2max: float
    marks: Tuple[float, ...] = ()


_GHOSTS = 5


def _cubic_taps(x):
    """First of the four nodes that carry a cubic B-spline at the
    coordinates ``x``, and their four weights."""
    i = np.floor(x)
    t = x - i
    u = 1.0 - t
    return i.astype(np.intp) - 1, (u * u * u / 6.0,
                                   (4.0 - 3.0 * t * t * (2.0 - t)) / 6.0,
                                   (4.0 - 3.0 * u * u * (2.0 - u)) / 6.0,
                                   t * t * t / 6.0)


def _prefilter(a):
    """Cubic B-spline coefficients that interpolate the samples ``a``:
    on each axis, a solve of the collocation matrix (1, 4, 1)/6 under
    the mirror boundary c[-1] = c[1], c[n] = c[n-2], factored once per
    axis with the other axes as its right-hand sides."""
    for axis in range(a.ndim):
        n = a.shape[axis]
        m = (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6.0
        m[0, 1] = m[-1, -2] = 2.0 / 6.0
        b = np.moveaxis(a, axis, 0)
        c = np.linalg.solve(m, b.reshape(n, -1)).reshape(b.shape)
        a = np.moveaxis(c, 0, axis)
    return a


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
    h_th = np.pi / (n - 1)

    # the x-rule: Gauss-Legendre in the radius and in the polar cosine
    # about x3, the rings at +-mu folded into one (x3 -> -x3 moves no
    # argument), and 2(n - 1) azimuthal midpoint nodes phi_k, so that
    # phi_k - theta_j = phi_(k-j) and theta enters as a lag
    r, wr = (v[0] for v in _panel_nodes(np.zeros(1), np.full(1, r0),
                                        scheme.gauss_n))
    mu, wmu = (v[scheme.gauss_n // 2:] for v in gauss_legendre(scheme.gauss_n))
    wmu = np.where(mu > 0.0, 2.0, 1.0) * wmu
    rho2 = np.repeat(r * r, len(mu))
    s = np.outer(r, np.sqrt(1.0 - mu * mu)).reshape(-1)
    g0u, g1u, g2u = f0.gu(), f1.gu(), f2.gu()
    # ring weights: radius, polar cosine, the azimuth's h_th and the 4 of
    # the half-ring spectra below
    F = (np.outer(wr * r * r, wmu).reshape(-1) * (4.0 * h_th)
         * np.asarray(g0u(rho2), dtype=float))

    # g1 and g2 on a ring are even in the azimuth, so a ring's rfft is a
    # phase times 2 B[m], B the cosine sums over the half ring
    # phi_k = (k + 1/2) h_th in (0, pi); the phases cancel in the
    # correlation sum_k G[k] H[k - j], whose spectrum is then 4 B_G B_H
    az = (np.arange(n - 1) + 0.5) * h_th
    basis = np.cos(np.outer(np.arange(n), az))
    spectrum = np.zeros((n, len(r1g), len(r2g)))
    per_ring = (2 * n - 1) * (len(r1g) + len(r2g))
    step = max(1, (_BLOCK_ENTRIES - spectrum.size) // per_ring)
    for lo in range(0, len(s), step):
        sl = slice(lo, lo + step)
        sc = np.multiply.outer(np.cos(az), s[sl])[..., None]

        def half_ring(gu, rg):
            g = np.asarray(gu(rho2[sl, None] + rg * rg - 2.0 * rg * sc),
                           dtype=float)
            return (basis @ g.reshape(n - 1, -1)).reshape(n, -1, len(rg))

        spectrum += ((F[sl, None] * half_ring(g1u, r1g)).transpose(0, 2, 1)
                     @ half_ring(g2u, r2g))
    phi = np.moveaxis(irfft(spectrum, 2 * (n - 1), axis=0)[:n], 0, -1)
    # the prefiltered spline, with its mirror boundary as two padded
    # nodes on each side
    cpad = np.pad(_prefilter(phi), 2, mode="reflect")

    # Phi(0, z2) is the spline's own r1 = 0 row at theta = pi/2, where
    # phi_tilde puts r1 = 0, collapsed once: the subtractions of
    # triple_pairing then cancel to rounding as r1 -> 0
    i1, w1 = _cubic_taps(-r1g[0] / h1 + 2.0)
    ith, wth = _cubic_taps(np.arccos(0.0) / h_th + 2.0)
    row = sum(w * cpad[i1 + k] for k, w in enumerate(w1))
    row = sum(w * row[:, ith + k] for k, w in enumerate(wth))

    def phi2(r):
        r = np.asarray(r, dtype=float)
        i2, w2 = _cubic_taps((np.minimum(r, R2) - r2g[0]) / h2 + 2.0)
        return np.where(r < R2, sum(w * row[i2 + k] for k, w in enumerate(w2)),
                        0.0)

    def phi_tilde(r1, r2, s):
        r1 = np.asarray(r1, dtype=float)
        out = np.zeros(np.broadcast_shapes(r1.shape, np.shape(s)))
        r1v = r1.reshape(-1)
        r2v = np.broadcast_to(np.asarray(r2, dtype=float), r1.shape).reshape(-1)
        sel = (r1v < R1) & (r2v < R2)
        if not sel.any():
            return out
        rows = out.reshape(r1.size, -1)
        r1v, r2v = r1v[sel], r2v[sel]
        sv = np.broadcast_to(s, out.shape).reshape(rows.shape)[sel]
        # collapse r2 once per distinct value, then r1 once per node, then
        # theta per s-node
        r2u, which = np.unique(r2v, return_inverse=True)
        i2, w2 = _cubic_taps((r2u - r2g[0]) / h2 + 2.0)
        plane = sum(w[:, None] * cpad[:, i2 + k] for k, w in enumerate(w2))
        i1, w1 = _cubic_taps((r1v - r1g[0]) / h1 + 2.0)
        line = sum(w[:, None] * plane[i1 + k, which] for k, w in enumerate(w1))
        rr = 2.0 * r1v[:, None] * r2v[:, None]
        num = r1v[:, None] ** 2 + r2v[:, None] * r2v[:, None] - sv * sv
        mu_q = np.where(rr < 1e-280, 0.0,
                        np.clip(num / np.where(rr < 1e-280, 1.0, rr),
                                -1.0, 1.0))
        ith, wth = _cubic_taps(np.arccos(mu_q) / h_th + 2.0)
        ith += line.shape[1] * np.arange(len(r1v))[:, None]
        line = line.ravel()
        rows[sel] = sum(w * line[ith + k] for k, w in enumerate(wth))
        return out

    return TripleField(phi_tilde=phi_tilde, phi2=phi2,
                       phi00=float(phi2(0.0)), r1max=R1, r2max=R2)


def analytic_field(V: Callable, r1max: float, r2max: float,
                   marks: Tuple[float, ...] = ()) -> TripleField:
    """Field data for a function of the joint radius only,
    Phi(z1, z2) = V(sqrt(r1^2 + r2^2)); used for cutoff-change
    compensation integrals.  V must accept numpy arrays; ``marks`` are
    the joint radii where it is not smooth (its cutoffs' plateau edges
    and radii)."""
    def phi_tilde(r1, r2, s):
        r1b, r2b, _ = np.broadcast_arrays(np.asarray(r1, dtype=float),
                                          np.asarray(r2, dtype=float),
                                          np.asarray(s, dtype=float))
        return np.asarray(V(np.hypot(r1b, r2b)), dtype=float)

    return TripleField(phi_tilde=phi_tilde,
                       phi2=lambda r: np.asarray(V(r), dtype=float),
                       phi00=float(V(0.0)), r1max=r1max, r2max=r2max,
                       marks=tuple(marks))


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
    # joint radii where the integrand has structure: W's and the field's
    joint_marks = ((overall.cutoff.plateau_radius, overall.cutoff.radius)
                   if overall is not None else ()) + field.marks

    phi2, phi00 = field.phi2, field.phi00
    r1_hi = max(field.r1max, *w1_marks, *joint_marks, 0.0)
    r2_hi = max(field.r2max, *joint_marks, 0.0)

    sx, sw = gauss_legendre(_S_NODES)

    def evaluate(n_panel: int, levels: int) -> float:
        a, b, _ = panel_edges(0.0, r2_hi, [field.r2max, *joint_marks], levels)
        r2n, r2w = (v.reshape(-1) for v in _panel_nodes(a, b, n_panel))
        k3w = None
        if e1 is not None:
            base2 = np.asarray(phi2(r2n), dtype=float)
            if W is not None:
                base2 = base2 - np.asarray(W(r2n), dtype=float) * phi00
            k3_r2 = np.asarray(K3(r2n), dtype=float)
            k3w = k3_r2 * base2
        # the r1 panels of every r2 node at once, split at r2, the field's
        # and w1's radii and the joint-radius spheres mapped to r1
        marks = [r2n, field.r1max, *w1_marks]
        for t in joint_marks:
            marks.append(np.where(t > r2n, np.sqrt(np.maximum(
                t * t - r2n * r2n, 0.0)), 0.0))
        a, b, row = panel_edges(np.zeros_like(r2n), np.full_like(r2n, r1_hi),
                                marks, levels)
        r1n, r1w = (v.reshape(-1) for v in _panel_nodes(a, b, n_panel))
        at = np.repeat(row, n_panel)
        vals = np.empty_like(r1n)
        step = _TRIPLE_BLOCK // _S_NODES
        for lo in range(0, len(r1n), step):
            sl = slice(lo, lo + step)
            r1, r2 = r1n[sl], r2n[at[sl]]
            half = np.minimum(r1, r2)
            mid = np.abs(r1 - r2) + half
            S = mid[:, None] + half[:, None] * sx[None, :]
            core = field.phi_tilde(r1[:, None], r2[:, None], S)
            if W is not None:
                core = core - (np.asarray(W(np.hypot(r1, r2)),
                                          dtype=float) * phi00)[:, None]
            integ = S * np.asarray(K3(S), dtype=float) * core
            if k3w is not None:
                integ = integ - S * (np.asarray(w1(r1), dtype=float)
                                     * k3w[at[sl]])[:, None]
            vals[sl] = r1 * np.asarray(K1(r1), dtype=float) * half * (integ @ sw)
        outer_vals = np.bincount(at, weights=r1w * vals, minlength=len(r2n))
        value = 8.0 * math.pi ** 2 * float(
            r2w @ (r2n * np.asarray(K2(r2n), dtype=float) * outer_vals))

        if e1 is not None and c_pair != 0.0:
            ct = r2n * r2n * np.asarray(K2(r2n), dtype=float) * k3_r2 * base2
            value += c_pair * 4.0 * math.pi * float(r2w @ ct)
        return value

    coarse, value = (evaluate(*rule) for rule in _RULES)
    if abs(value - coarse) > max(_RULES_RTOL * abs(value), scheme.atol):
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
               scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
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
