"""Smeared field monomials and their calculus.

A local functional here is a finite sum of monomial terms

    prefactor * int f(x) prod_j (d^{a_j} phi)(x) dx

with a bump coefficient f and derivative multi-indices a_j capped at
total order 2.  The module provides evaluation against closed-form
field configurations (``expr.SmoothMap``, exported here as
``FieldConfiguration``: one class, whose optional support ball the
additivity check reads), the symbolic functional-derivative kernels
(delta chains on the thin diagonal with residual field powers), the
coefficient supports, and the additivity defect of support-local
functionals.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence, Tuple

import numpy as np

from .errors import PreconditionViolated
from .expr import BumpProfile, SmoothMap, bump_u
from .quadrature import (
    DEFAULT_SCHEME,
    QuadratureScheme,
    bump_gauss,
    bump_rule,
    sphere_area,
)

__all__ = [
    "TestFunction",
    "FieldConfiguration",
    "MonomialTerm",
    "LocalFunctional",
    "DerivativeKernel",
    "DKTerm",
    "evaluate",
    "derivative_kernel",
    "support",
    "supports_disjoint",
    "additivity_check",
]

MultiIndex = Tuple[int, ...]


def _zero_index(d: int) -> MultiIndex:
    return (0,) * d


@dataclass(frozen=True)
class TestFunction:
    """The fixed smooth bump A*exp(-1/(1 - |x-c|^2/r^2)) on B(c, r)."""

    __test__ = False  # not a pytest case despite the name

    d: int
    center: Tuple[float, ...]
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center",
                           tuple(float(c) for c in np.atleast_1d(self.center)))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        if len(self.center) != self.d:
            raise ValueError(
                f"center has {len(self.center)} components in d={self.d}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def gu(self, k: int = 0):
        """The k-th derivative of the squared-radius profile g(u), as a
        callable of u; at k = 0 a ``BumpProfile``, which also integrates
        g in u."""
        if k == 0:
            return BumpProfile(self.radius, self.amplitude)
        return partial(bump_u, radius=self.radius, amplitude=self.amplitude,
                       k=k)

    def __call__(self, points):
        """f at points of shape (..., d), or at scalars when d == 1."""
        return self.to_field()(points)

    @property
    def nodes_key(self):
        """(d, center, radius): the arguments of ``bump_rule`` that give
        ``rule``'s nodes, which the amplitude does not change."""
        return self.d, self.center, self.radius

    def rule(self, n: int):
        """Nodes and weights for integrals against f: sum w h(x) ~
        int f h, on the ball rule that is Gauss for the bump weight."""
        pts, wts = bump_rule(self.d, self.center, self.radius, n)
        return pts, self.amplitude * wts

    def integral(self) -> float:
        """int f in closed form: amplitude * r^d times the mass of the
        bump weight (``bump_gauss``), times |S^(d-1)| in d >= 2."""
        mass = float(bump_gauss(self.d, 1)[1].sum())
        area = 1.0 if self.d == 1 else sphere_area(self.d)
        return self.amplitude * self.radius ** self.d * area * mass

    def scaled(self, lam: float) -> "TestFunction":
        """The scaling f^lam(x) = lam^-d f(x / lam) used for scaling
        degrees: ball and center shrink with lam, amplitude grows."""
        lam = float(lam)
        return TestFunction(self.d, tuple(lam * c for c in self.center),
                            lam * self.radius,
                            self.amplitude * lam ** (-self.d))

    def to_field(self) -> SmoothMap:
        return SmoothMap.bump(self.d, self.center, self.radius,
                              self.amplitude)


# a field configuration phi is a closed-form smooth map with an optional
# support ball; the two names denote one class
FieldConfiguration = SmoothMap


_DERIV_CAP = 2


@dataclass(frozen=True)
class MonomialTerm:
    """prefactor * int f(x) prod_j (d^{a_j} phi)(x) dx"""

    power: int
    derivs: Tuple[MultiIndex, ...]
    coefficient: TestFunction
    prefactor: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "derivs",
                           tuple(tuple(int(a) for a in alpha)
                                 for alpha in self.derivs))
        object.__setattr__(self, "prefactor", Fraction(self.prefactor))
        if self.power != len(self.derivs):
            raise ValueError(
                f"{len(self.derivs)} multi-indices for power {self.power}; "
                f"one per field factor is required")
        d = self.coefficient.d
        for alpha in self.derivs:
            if len(alpha) != d:
                raise ValueError(f"multi-index {alpha} not in d={d}")
            if sum(alpha) > _DERIV_CAP:
                raise ValueError(
                    f"derivative order {sum(alpha)} exceeds the cap "
                    f"{_DERIV_CAP}")

    @property
    def d(self) -> int:
        return self.coefficient.d


class LocalFunctional:
    """A finite sum of monomial terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[MonomialTerm]):
        terms = tuple(terms)
        if not terms:
            raise ValueError("a local functional needs at least one term")
        d = terms[0].d
        if any(t.d != d for t in terms):
            raise ValueError("all terms must share one dimension")
        self.terms = terms

    @property
    def d(self) -> int:
        return self.terms[0].d

    @staticmethod
    def phi_power(k: int, f: TestFunction,
                  prefactor=Fraction(1)) -> "LocalFunctional":
        """prefactor * int phi^k f"""
        zero = _zero_index(f.d)
        return LocalFunctional([MonomialTerm(k, (zero,) * k, f,
                                             Fraction(prefactor))])

    @staticmethod
    def linear(f: TestFunction) -> "LocalFunctional":
        return LocalFunctional.phi_power(1, f)

    def __add__(self, other: "LocalFunctional") -> "LocalFunctional":
        return LocalFunctional(self.terms + other.terms)

    def __repr__(self):
        return f"LocalFunctional({len(self.terms)} terms, d={self.d})"


# -- evaluation --------------------------------------------------------


def _term_value(term: MonomialTerm, phi: FieldConfiguration,
                scheme: QuadratureScheme) -> float:
    f = term.coefficient
    pref = float(term.prefactor)
    if term.power == 0:
        return pref * f.integral()
    if phi.is_constant:
        if any(sum(alpha) for alpha in term.derivs):
            return 0.0
        c = phi.constant_value()
        if c == 0.0:
            return 0.0
        return pref * c ** term.power * f.integral()
    pts, vals = f.rule(scheme.gauss_n)
    # a product that overflows is inf, which the caller reports as a
    # non-finite result; numpy's warning would only repeat that
    with np.errstate(over="ignore"):
        for alpha in term.derivs:
            vals = vals * np.asarray(phi.diff(alpha)(pts), dtype=float)
    return pref * float(vals.sum())


def evaluate(F: LocalFunctional, phi: FieldConfiguration,
             scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """F(phi) by quadrature over the coefficient supports."""
    if phi.d != F.d:
        raise ValueError(f"configuration in d={phi.d}, functional in d={F.d}")
    return math.fsum(_term_value(t, phi, scheme) for t in F.terms)


# -- derivative kernels -------------------------------------------------


@dataclass(frozen=True)
class DKTerm:
    """One symmetrized kernel term of F^(n).

    Stands for the sum over the distinct orderings pi of ``arg_derivs``
    of   prefactor * f(x1) prod_i (d^{res_i} phi)(x1)
                   * delta(x1-x2)...delta(x_{n-1}-x_n)
                   * prod_j d^{pi_j} acting on slot j.
    ``residual`` and ``arg_derivs`` are kept sorted; the delta chain
    identifying all points is implicit in the type.
    """

    prefactor: Fraction
    coefficient: TestFunction
    residual: Tuple[MultiIndex, ...]
    arg_derivs: Tuple[MultiIndex, ...]


@dataclass(frozen=True)
class DerivativeKernel:
    """The order-n functional derivative F^(n) as a symmetric
    distribution on the thin diagonal."""

    order: int
    d: int
    terms: Tuple[DKTerm, ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def canonical(self) -> "DerivativeKernel":
        def key(t: DKTerm):
            return (t.arg_derivs, t.residual, repr(t.coefficient),
                    t.prefactor)
        return DerivativeKernel(self.order, self.d,
                                tuple(sorted(self.terms, key=key)))

    def permuted(self, perm: Sequence[int]) -> "DerivativeKernel":
        """Relabel the n arguments; sorting restores canonical form,
        which is the permutation-symmetry statement."""
        new_terms = tuple(
            DKTerm(t.prefactor, t.coefficient, t.residual,
                   tuple(sorted(t.arg_derivs[p] for p in perm)))
            for t in self.terms)
        return DerivativeKernel(self.order, self.d, new_terms).canonical()


@lru_cache(maxsize=256)
def derivative_kernel(F: LocalFunctional, n: int) -> DerivativeKernel:
    """F^(n): each monomial of degree k contributes the delta-chain
    kernel with residual power k - n and the multiplicity of ordered
    slot choices; n beyond every degree gives the zero kernel."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    out = []
    for term in F.terms:
        # each distinct draw of n slots from the multiset of derivs
        slots = Counter(term.derivs)
        seen = set()
        for combo in itertools.combinations(term.derivs, n):
            chosen = tuple(sorted(combo))
            if chosen in seen:
                continue
            seen.add(chosen)
            drawn = Counter(chosen)
            mult = math.prod(math.perm(slots[a], j) for a, j in drawn.items())
            rest = tuple(sorted((slots - drawn).elements()))
            out.append(DKTerm(term.prefactor * mult, term.coefficient,
                              rest, chosen))
    return DerivativeKernel(n, F.d, tuple(out)).canonical()


# -- supports ------------------------------------------------------------


def support(F: LocalFunctional) -> Tuple[Tuple[Tuple[float, ...], float], ...]:
    """The coefficient balls (center, radius), one per term."""
    return tuple((t.coefficient.center, t.coefficient.radius)
                 for t in F.terms)


def _balls_disjoint(a, b) -> bool:
    (ca, ra), (cb, rb) = a, b
    sep = float(np.linalg.norm(np.asarray(ca) - np.asarray(cb)))
    return sep > ra + rb


def supports_disjoint(F: LocalFunctional, G: LocalFunctional) -> bool:
    return all(_balls_disjoint(a, b)
               for a in support(F) for b in support(G))


# -- additivity -----------------------------------------------------------


def additivity_check(F: LocalFunctional, phi: FieldConfiguration,
                     psi: FieldConfiguration, chi: FieldConfiguration,
                     scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """|F(phi+psi+chi) - F(phi+psi) + F(psi) - F(psi+chi)|.

    Vanishes for support-local F whenever supp phi and supp chi are
    disjoint.  The four evaluations share one quadrature rule per
    term, so the cancellation happens on integrand samples and the
    residual reflects locality, not quadrature error.
    """
    for cfg, name in ((phi, "phi"), (chi, "chi")):
        if cfg.support_ball is None:
            raise PreconditionViolated(
                f"{name} carries no support bound; the check needs "
                "declared compact supports")
    if not _balls_disjoint(phi.support_ball, chi.support_ball):
        raise PreconditionViolated("supp phi and supp chi must be disjoint")

    total = 0.0
    for term in F.terms:
        pts, wts = term.coefficient.rule(scheme.gauss_n)
        # rows: the integrands at phi+psi+chi, phi+psi, psi and psi+chi;
        # d^alpha is linear, so each field is differentiated and
        # evaluated once and the combinations are sums of values
        rows = np.ones((4, len(pts)))
        for alpha in term.derivs:
            p, q, r = (np.asarray(cfg.diff(alpha)(pts), dtype=float)
                       for cfg in (phi, psi, chi))
            rows *= (p + q + r, p + q, q, q + r)
        acc = rows[0] - rows[1] + rows[2] - rows[3]
        total += float(term.prefactor) * float(wts @ acc)
    return abs(total)
