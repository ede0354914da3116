"""Smeared field monomials and their calculus.

A local functional here is a finite sum of monomial terms

    prefactor * int f(x) prod_j (d^{a_j} phi)(x) dx

with a bump coefficient f and derivative multi-indices a_j capped at
total order 2.  The module provides evaluation against closed-form
field configurations (``expr.SmoothMap``, exported here as
``FieldConfiguration``: one class, whose optional support ball the
additivity check reads), the symbolic functional-derivative kernels
(delta chains on the thin diagonal with residual field powers),
support bookkeeping, the additivity defect of support-local
functionals, and the balanced-field Taylor expansion around a
background configuration.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import PreconditionViolated, UnsupportedCase
from .expr import RadialMap, SmoothMap, coords
from .quadrature import (
    DEFAULT_SCHEME,
    QuadratureScheme,
    ball_rule,
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
    "BalancedFieldTerm",
    "CoefficientPiece",
    "evaluate",
    "derivative_kernel",
    "support",
    "supports_disjoint",
    "additivity_check",
    "taylor_expand",
    "taylor_evaluate",
    "split_support",
    "balanced_basis",
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

    def radial_map(self) -> RadialMap:
        return _bump_radial_map(self.d, self.center, self.radius,
                                self.amplitude)

    def gu(self):
        """Squared-radius profile callable."""
        return self.radial_map()._g()

    def __call__(self, points):
        return self.radial_map()(points)

    @property
    def nodes_key(self):
        """(rule, d, center, radius): the call that gives ``rule``'s
        nodes, which the amplitude does not change."""
        return bump_rule, self.d, self.center, self.radius

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


@lru_cache(maxsize=512)
def _bump_radial_map(d, center, radius, amplitude) -> RadialMap:
    return RadialMap.bump_profile(d, center, radius, amplitude)


# a field configuration phi is a closed-form smooth map with an optional
# support ball; the two names denote one class
FieldConfiguration = SmoothMap


@dataclass(frozen=True)
class CoefficientPiece:
    """A windowed coefficient from a partition-of-unity split: the
    original bump times a smooth slab window, with a bounding ball.
    Not radial, so only the tensor evaluation paths apply."""

    fn: SmoothMap
    d: int
    center: Tuple[float, ...]
    radius: float

    def __call__(self, points):
        return self.fn(points)

    @property
    def nodes_key(self):
        """(rule, d, center, radius): the call that gives ``rule``'s
        nodes."""
        return ball_rule, self.d, self.center, self.radius

    def rule(self, n: int):
        """Nodes and weights for integrals against the piece: the
        Gauss-Legendre ball rule of the bounding ball times its values
        (the piece is not concentric with the ball, so no rule for the
        bump weight applies)."""
        pts, wts = ball_rule(self.d, self.center, self.radius, n)
        return pts, wts * np.asarray(self(pts), dtype=float)


_DERIV_CAP = 2


@dataclass(frozen=True)
class MonomialTerm:
    """prefactor * int f(x) prod_j (d^{a_j} phi)(x) dx"""

    power: int
    derivs: Tuple[MultiIndex, ...]
    coefficient: Union[TestFunction, CoefficientPiece]
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
        if isinstance(f, TestFunction):
            return pref * f.integral()
    elif phi.is_constant:
        if any(sum(alpha) for alpha in term.derivs):
            return 0.0
        c = phi.constant_value()
        if c == 0.0:
            return 0.0
        if isinstance(f, TestFunction):
            return pref * c ** term.power * f.integral()
    pts, vals = f.rule(scheme.gauss_n)
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
    coefficient: Union[TestFunction, CoefficientPiece]
    residual: Tuple[MultiIndex, ...]
    arg_derivs: Tuple[MultiIndex, ...]

    @property
    def residual_power(self) -> int:
        return len(self.residual)

    def describe(self) -> str:
        n = len(self.arg_derivs)
        parts = [f"{self.prefactor} * f(x1)"]
        if self.residual:
            parts.append(" ".join(f"(d^{a}phi)(x1)" for a in self.residual))
        parts.append(" ".join(f"d({i + 1})^{a}" for i, a in
                              enumerate(self.arg_derivs) if sum(a)))
        parts.append(" ".join(f"delta(x{i}-x{i + 1})"
                              for i in range(1, n)))
        return " ".join(p for p in parts if p)


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


def kernel_pair(K: DerivativeKernel, phi: FieldConfiguration,
                tests: Sequence[FieldConfiguration],
                scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """<F^(n)(phi), psi_1 x ... x psi_n> with the delta chain collapsed
    onto the coefficient variable.  Numeric companion to the symbolic
    kernels: equals the n-th directional derivative of evaluate."""
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


@lru_cache(maxsize=256)
def derivative_kernel(F: LocalFunctional, n: int) -> DerivativeKernel:
    """F^(n): each monomial of degree k contributes the delta-chain
    kernel with residual power k - n and the multiplicity of ordered
    slot choices; n beyond every degree gives the zero kernel."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    out = []
    for term in F.terms:
        if n > term.power:
            continue
        slot_counts = Counter(term.derivs)
        # every way to draw n slots as a sub-multiset of the decorations
        choices = set(
            tuple(sorted(c))
            for c in itertools.combinations(term.derivs, n))
        for chosen in sorted(choices):
            chosen_counts = Counter(chosen)
            mult = 1
            for alpha, na in chosen_counts.items():
                mult *= math.perm(slot_counts[alpha], na)
            residual = list(term.derivs)
            for alpha in chosen:
                residual.remove(alpha)
            out.append(DKTerm(term.prefactor * mult, term.coefficient,
                              tuple(sorted(residual)), chosen))
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


# -- balanced-field Taylor expansion --------------------------------------


@lru_cache(maxsize=None)
def _multi_indices(d: int, cap: int) -> Tuple[MultiIndex, ...]:
    out = [alpha for alpha in itertools.product(range(cap + 1), repeat=d)
           if sum(alpha) <= cap]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def balanced_basis(n: int, d: int) -> Tuple[Tuple[MultiIndex, ...], ...]:
    """Lexicographic enumeration of the order-n derivative monomials
    (sorted n-tuples of multi-indices up to the order cap); the index
    into this tuple is the basis label reported in output metadata."""
    singles = _multi_indices(d, _DERIV_CAP)
    return tuple(itertools.combinations_with_replacement(singles, n))


@dataclass(frozen=True)
class BalancedFieldTerm:
    """One order-n term of the Taylor expansion of F around phi0:

        prefactor * int f(x) prod(d^{background} phi0)(x)
                          * prod(d^{basis} eta)(x) dx

    with eta the displacement field.  ``basis_index`` locates the
    derivative monomial in the lexicographic basis for (order, d).
    """

    order: int
    basis: Tuple[MultiIndex, ...]
    background: Tuple[MultiIndex, ...]
    coefficient: Union[TestFunction, CoefficientPiece]
    prefactor: Fraction
    phi0: FieldConfiguration

    @property
    def d(self) -> int:
        return self.coefficient.d

    @property
    def basis_index(self) -> int:
        return balanced_basis(self.order, self.d).index(self.basis)


def taylor_expand(F: LocalFunctional, phi0: FieldConfiguration,
                  N: int) -> list:
    """Terms of the order-N Taylor polynomial of F around phi0.

    Polynomial functionals terminate: with N >= max field power the
    expansion reproduces F exactly.
    """
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if phi0.d != F.d:
        raise ValueError("background dimension mismatch")
    out = []
    for term in F.terms:
        slot_counts = Counter(term.derivs)
        for n in range(0, min(N, term.power) + 1):
            seen = set()
            for combo in itertools.combinations(term.derivs, n):
                chosen = tuple(sorted(combo))
                if chosen in seen:
                    continue
                seen.add(chosen)
                chosen_counts = Counter(chosen)
                mult = 1
                for alpha, na in chosen_counts.items():
                    mult *= math.comb(slot_counts[alpha], na)
                residual = list(term.derivs)
                for alpha in chosen:
                    residual.remove(alpha)
                out.append(BalancedFieldTerm(
                    order=n, basis=chosen,
                    background=tuple(sorted(residual)),
                    coefficient=term.coefficient,
                    prefactor=term.prefactor * mult, phi0=phi0))
    return out


def taylor_evaluate(terms: Sequence[BalancedFieldTerm],
                    phi: FieldConfiguration,
                    scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """Sum of the expansion terms at phi.

    Terms sharing a coefficient are combined on one quadrature rule, so
    the binomial recombination of the expansion cancels pointwise and
    polynomial exactness survives quadrature.
    """
    groups: dict = {}
    order = []
    for t in terms:
        key = id(t.coefficient)
        if key not in groups:
            groups[key] = (t.coefficient, [])
            order.append(key)
        groups[key][1].append(t)
    total = 0.0
    for key in order:
        f, group = groups[key]
        pts, wts = f.rule(scheme.gauss_n)
        acc = np.zeros(len(pts))
        for t in group:
            eta = phi - t.phi0
            factors = ([(t.phi0, a) for a in t.background]
                       + [(eta, a) for a in t.basis])
            constant = 1.0
            pending = []
            zero = False
            for cfg, alpha in factors:
                if cfg.is_constant:
                    if sum(alpha):
                        zero = True
                        break
                    constant *= cfg.constant_value()
                else:
                    pending.append((cfg, alpha))
            if zero or constant == 0.0:
                continue
            vals = np.full(len(pts), float(t.prefactor) * constant)
            for cfg, alpha in pending:
                vals = vals * np.asarray(cfg.diff(alpha)(pts), dtype=float)
            acc += vals
        total += float(wts @ acc)
    return total


# -- partition-of-unity splitting ------------------------------------------


def _step_expr(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1."""
    from .expr import BumpCore
    return BumpCore(t) / (BumpCore(t) + BumpCore(1 - t))


def split_support(F: LocalFunctional, pieces: int,
                  axis: int = 0) -> list:
    """Split every coefficient bump into ``pieces`` slab-windowed
    parts along one axis with an exact partition of unity; the
    returned functionals sum to F pointwise on the integrand level.

    The pieces have product (bump * window) coefficients, so they are
    not radial; evaluation falls back to the tensor rules.
    """
    if pieces < 1:
        raise ValueError("need at least one piece")
    if pieces == 1:
        return [F]
    out_terms = [[] for _ in range(pieces)]
    for term in F.terms:
        f = term.coefficient
        if not isinstance(f, TestFunction):
            raise UnsupportedCase("only bump coefficients can be split")
        d, c, r = f.d, np.asarray(f.center), f.radius
        lo, hi = c[axis] - r, c[axis] + r
        width = (hi - lo) / pieces
        # wide transitions keep the windows quadrature-friendly
        tau = 0.75 * width
        x = coords(d)[axis]
        bump_expr = f.radial_map().to_smoothmap().expr
        cuts = [lo + k * width for k in range(pieces + 1)]
        for k in range(pieces):
            # rising steps at both cuts; the telescoping sum is 1 on supp f
            left = (_step_expr((x - cuts[k]) / tau + Fraction(1, 2))
                    if k > 0 else 1)
            right = (_step_expr((x - cuts[k + 1]) / tau + Fraction(1, 2))
                     if k + 1 < pieces else 0)
            window = left - right
            piece_fn = SmoothMap(bump_expr * window, d)
            # bounding ball of (slab + transition) intersected with the bump
            a = max(lo, cuts[k] - tau) if k > 0 else lo
            b = min(hi, cuts[k + 1] + tau) if k + 1 < pieces else hi
            mid = np.array(c, dtype=float)
            mid[axis] = 0.5 * (a + b)
            radius = math.hypot(0.5 * (b - a), r) if d > 1 else 0.5 * (b - a)
            piece = CoefficientPiece(piece_fn, d, tuple(mid), radius)
            out_terms[k].append(MonomialTerm(term.power, term.derivs,
                                             piece, term.prefactor))
    return [LocalFunctional(ts) for ts in out_terms]
