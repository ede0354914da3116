"""Extension of propagator-power kernels to coinciding points.

Scaling degrees come in two forms: the analytic count (propagator
powers times the short-distance degree, plus derivative orders) and a
numeric estimate, the least-squares slope of log |t(phi^lambda)| over
a dyadic lambda sweep.  The degree of divergence compares the degree
against the ambient relative-coordinate dimension and drives the rest:
below zero the extension is the unique improper integral, at or above
zero a cutoff-weighted Taylor subtraction plus delta counterterms.
Recursive treatment handles nested or vertex-disjoint divergent loci;
anything overlapping is refused.  Power counting over all graphs of a
fixed interaction power classifies theories.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DomainError,
    IllConditionedFit,
    NotPrimitive,
    OverlappingDivergence,
)
from .kernels import (
    CutoffFunction,
    DeltaKernel,
    ExtensionSpec,
    ScalarDistribution,
    counterterm_count,
)
from .propagator import green_function, pair_extension, radial_view
from .quadrature import (
    DEFAULT_SCHEME,
    QuadratureScheme,
    ball_rule,
    quad_1d,
    sphere_area,
)

__all__ = [
    "ScalingDegree",
    "ScalingReport",
    "scaling_degree_analytic",
    "scaling_degree_numeric",
    "degree_of_divergence",
    "extend",
    "recursive_renormalize",
    "TheoryClassification",
    "classify_theory",
    "counterterm_shift",
    "CutoffFunction",
    "ExtensionSpec",
    "DeltaKernel",
    "counterterm_count",
]

DEFAULT_LAMBDAS = tuple(2.0 ** -k for k in range(1, 9))
_FIT_DROP = 2


@dataclass(frozen=True)
class ScalingDegree:
    """Integer scaling degree with a logarithm marker for d = 2
    kernels, whose power counting is zero but not better."""

    value: int
    log_flag: bool = False


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of a numeric scaling fit.

    ``points`` holds every (lambda, pairing) sample for external
    plotting; ``lambdas`` lists the subset the slope was fitted on.
    """

    analytic: Optional[ScalingDegree]
    estimate: float
    residual: float
    lambdas: Tuple[float, ...]
    points: Tuple[Tuple[float, float], ...]


def scaling_degree_analytic(
        t: Union[ScalarDistribution, DeltaKernel]) -> ScalingDegree:
    """Short-distance degree at the full coinciding-point locus.

    Propagator powers contribute power * sd_P, decorations their
    derivative order; a point mass scales exactly like lambda^-d."""
    if isinstance(t, DeltaKernel):
        return ScalingDegree(t.d + sum(t.deriv))
    prop = green_function(t.d, t.m)
    return ScalingDegree(sum(prop.edge_sd(f) for f in t.factors),
                         prop.has_log_singularity)


def degree_of_divergence(t: ScalarDistribution) -> int:
    """Scaling degree minus the ambient relative-coordinate dimension."""
    return scaling_degree_analytic(t).value - t.ambient_dimension


def _pair_value(t: ScalarDistribution, phi, scheme: QuadratureScheme) -> float:
    if len(t.factors) != 1 or t.n_points != 2:
        raise DomainError(
            "numeric scaling sweeps run on single-pair kernels")
    return pair_extension(t, radial_view(phi), scheme)


def _callable_value(kernel: Callable, phi, scheme: QuadratureScheme) -> float:
    pts, wts = ball_rule(phi.d, phi.center, phi.radius, scheme.gauss_n)
    dist = np.linalg.norm(pts, axis=1)
    return float(wts @ (np.asarray(kernel(dist), dtype=float)
                        * np.asarray(phi(pts), dtype=float)))


def scaling_degree_numeric(t, phi,
                           lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                           scheme: QuadratureScheme = DEFAULT_SCHEME,
                           residual_tol: float = 0.25) -> ScalingReport:
    """Fit the scaling degree from pairings against shrunk tests.

    phi^lambda concentrates the test at the origin with unit-preserved
    mass; the linear coefficient of log |t(phi^lambda)| against
    log(1/lambda) estimates sd(t).  The two largest lambdas are
    excluded from the fit to cut non-asymptotic bias.  A root-mean-
    square residual above ``residual_tol`` raises IllConditionedFit.
    """
    symbolic = isinstance(t, ScalarDistribution)
    pairing = _pair_value if symbolic else _callable_value
    lams = sorted((float(l) for l in lambdas), reverse=True)
    if any(not 0.0 < lam < 1.0 for lam in lams):
        raise IllConditionedFit("lambda sweep must lie strictly inside (0, 1)")
    points = []
    for lam in lams:
        points.append((lam, pairing(t, phi.scaled(lam), scheme)))
    fitted = points[_FIT_DROP:]
    if len(fitted) < 4:
        raise IllConditionedFit("need at least four lambdas after dropping "
                                "the two largest")
    if any(v == 0.0 for _, v in fitted):
        raise IllConditionedFit("pairing vanished during the lambda sweep")
    xs = np.array([math.log(1.0 / lam) for lam, _ in fitted])
    ys = np.array([math.log(abs(v)) for _, v in fitted])
    # a log(x) regressor absorbs the logarithmic factor that integer-
    # degree extensions and d = 2 kernels put on top of the power law
    design = np.column_stack([xs, np.log(xs), np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    slope = float(coef[0])
    residual = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))
    if residual > residual_tol:
        raise IllConditionedFit(
            f"scaling fit residual {residual:.3g} exceeds {residual_tol:g}")
    analytic = scaling_degree_analytic(t) if symbolic else None
    return ScalingReport(analytic, float(slope), residual,
                         tuple(lam for lam, _ in fitted), tuple(points))


# -- extension at a locus --------------------------------------------------


def _spec_is_trivial(spec: ExtensionSpec) -> bool:
    return all(v == 0.0 for _, v in spec.counterterms)


def extend(t: ScalarDistribution, spec: ExtensionSpec) -> ScalarDistribution:
    """Attach an extension at the one divergent locus of a bare kernel.

    Below threshold the improper integral is the unique extension:
    the kernel is returned unchanged and a nontrivial spec draws a
    warning.  At or above threshold the spec's cutoff defines the
    Taylor-subtracted part and its coefficients the counterterm; the
    result pairs against tests supported across the locus.
    """
    if t.overall is not None:
        raise DomainError("kernel already carries an overall extension")
    prop = green_function(t.d, t.m)

    if t.n_points == 2:
        factor = t.factors[0]
        if factor.renormalized:
            raise DomainError("factor is already renormalized")
        if prop.edge_sd(factor) < prop.d:
            if not _spec_is_trivial(spec):
                warnings.warn(
                    "extension below threshold is unique; counterterm "
                    "coefficients have no effect", stacklevel=2)
            return t
        return replace(t, factors=(replace(factor, extension=spec),))

    for factor in t.factors:
        if prop.edge_sd(factor) >= prop.d and not factor.renormalized:
            raise NotPrimitive(
                f"pair locus ({factor.i},{factor.j}) diverges and is not "
                "renormalized; run recursive_renormalize")
    if degree_of_divergence(t) < 0:
        if not _spec_is_trivial(spec):
            warnings.warn(
                "extension below threshold is unique; counterterm "
                "coefficients have no effect", stacklevel=2)
        return t
    return replace(t, overall=spec)


def recursive_renormalize(
        t: ScalarDistribution,
        specs: Optional[Mapping] = None) -> ScalarDistribution:
    """Extend every divergent locus, innermost first.

    ``specs`` maps pair labels (i, j) and the string "overall" to
    extension data; missing loci get the default cutoff with zero
    counterterms.  Divergent pair loci sharing a vertex are
    overlapping and outside this recursion.
    """
    if t.overall is not None:
        raise DomainError("kernel already carries an overall extension")
    specs = dict(specs or {})
    prop = green_function(t.d, t.m)

    divergent = [f for f in t.factors
                 if prop.edge_sd(f) >= prop.d and not f.renormalized]
    needs_overall = (t.n_points >= 3
                     and degree_of_divergence(t) >= 0)
    if not divergent and not needs_overall:
        return t
    for a in range(len(divergent)):
        for b in range(a + 1, len(divergent)):
            fa, fb = divergent[a], divergent[b]
            if {fa.i, fa.j} & {fb.i, fb.j}:
                raise OverlappingDivergence(
                    f"divergent pair loci ({fa.i},{fa.j}) and "
                    f"({fb.i},{fb.j}) share a vertex")

    new_factors = []
    for factor in t.factors:
        if factor in divergent:
            spec = specs.get((factor.i, factor.j), ExtensionSpec.default(t.d))
            factor = replace(factor, extension=spec)
        new_factors.append(factor)
    out = replace(t, factors=tuple(new_factors))

    if t.n_points >= 3 and degree_of_divergence(out) >= 0:
        out = replace(out, overall=specs.get("overall",
                                             ExtensionSpec.default(t.d)))
    return out


def counterterm_shift(t: ScalarDistribution, old: CutoffFunction,
                      new: CutoffFunction,
                      scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """Order-zero counterterm compensating a cutoff change.

    For a single-pair kernel at divergence degree exactly zero the
    subtracted parts differ by int P^j (w_new - w_old) times phi(0),
    so adding this value to C_0 reproduces the old extension."""
    if t.n_points != 2 or len(t.factors) != 1:
        raise DomainError("cutoff compensation applies to pair kernels")
    prop = green_function(t.d, t.m)
    factor = t.factors[0]
    if prop.edge_sd(factor) != prop.d or factor.deriv_order:
        raise DomainError(
            "the order-zero compensation formula needs divergence degree 0")
    kernel = prop.power_callable(factor.power)
    lo = 0.9 * min(old.plateau_radius, new.plateau_radius)
    hi = max(old.radius, new.radius)

    def integrand(r):
        return (r ** (t.d - 1) * float(kernel(r))
                * float(new.profile(r) - old.profile(r)))

    return sphere_area(t.d) * quad_1d(integrand, lo, hi, scheme)


# -- power counting ---------------------------------------------------------


@dataclass(frozen=True)
class TheoryClassification:
    """Divergence-degree table for phi^k theory in d dimensions.

    ``table`` pairs each order n with the worst degree over all
    multigraphs of that order respecting the vertex valence; the
    verdict follows the asymptotic slope (d-2)k/2 - d of that worst
    degree."""

    d: int
    interaction_power: int
    table: Tuple[Tuple[int, int], ...]
    classification: str
    asymptotic_slope: Fraction

    def rho_max(self, n: int) -> int:
        for order, rho in self.table:
            if order == n:
                return rho
        raise DomainError(f"order {n} outside the tabulated range")


def classify_theory(d: int, interaction_power: int,
                    n_max: int) -> TheoryClassification:
    """Worst degree of divergence per order and the resulting verdict.

    The maximal edge count of an n-vertex multigraph with valence at
    most k is floor(kn/2), so the worst degree at order n is
    (d-2)*floor(kn/2) - d*(n-1)."""
    if d < 3:
        raise DomainError("power counting needs a power-law kernel, d >= 3")
    if interaction_power < 2:
        raise DomainError("interaction power must be at least 2")
    if n_max < 2:
        raise DomainError("classification needs n_max >= 2")
    k = interaction_power
    table = tuple((n, (d - 2) * ((k * n) // 2) - d * (n - 1))
                  for n in range(2, n_max + 1))
    slope = Fraction(k * (d - 2), 2) - d
    if slope < 0:
        verdict = "superrenormalizable"
    elif slope == 0:
        verdict = "renormalizable"
    else:
        verdict = "unrenormalizable"
    return TheoryClassification(d, k, table, verdict, slope)
