"""Symbolic kernel layer shared by pairing, products, and renormalization.

A ScalarDistribution is a product of propagator powers attached to
pairs of point labels, each factor either bare or carrying an
extension (cutoff + counterterms).  Translation invariance is
structural: factors depend on coordinate differences only.  The types
here are pure data; the numeric pairings live in ``propagator`` and
the extension logic in ``renorm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .expr import plateau_u

MultiIndex = Tuple[int, ...]


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth radial cutoff about the origin, identically 1 on the
    inner plateau |x| <= plateau_fraction * radius and 0 outside the
    ball of the given radius.

    This is the w of the Taylor-subtraction scheme.  The identity-near-
    zero requirement rules out the fixed bump profile of test
    functions, so cutoffs are their own type.  The profile is the
    closed-form step ``expr.plateau_u`` in u = |x|^2.
    """

    d: int
    radius: float = 1.0
    plateau_fraction: float = 0.5

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cutoff radius must be positive")
        if not 0.0 < self.plateau_fraction < 1.0:
            raise ValueError("plateau_fraction must lie in (0, 1)")

    def profile(self, rho):
        """Value at radius rho (vectorized)."""
        return self.gu()(np.square(rho))

    def gu(self):
        """The squared-radius profile w(u), as a callable of u."""
        return partial(plateau_u, inner=self.plateau_radius,
                       outer=float(self.radius))

    @property
    def plateau_radius(self) -> float:
        return self.radius * self.plateau_fraction


@dataclass(frozen=True)
class ExtensionSpec:
    """Extension data for one singular locus: cutoff w plus the
    counterterm coefficients C_a of the delta-derivative basis."""

    cutoff: CutoffFunction
    counterterms: Tuple[Tuple[MultiIndex, float], ...] = ()

    @staticmethod
    def make(cutoff: CutoffFunction,
             counterterms: Optional[Dict[MultiIndex, float]] = None) -> "ExtensionSpec":
        items = tuple(sorted((tuple(int(i) for i in a), float(v))
                             for a, v in (counterterms or {}).items()))
        return ExtensionSpec(cutoff, items)

    @staticmethod
    def default(d: int) -> "ExtensionSpec":
        return ExtensionSpec(CutoffFunction(d))

    def counterterm(self, alpha: MultiIndex) -> float:
        return dict(self.counterterms).get(tuple(alpha), 0.0)

    def with_counterterms(self, counterterms: Dict[MultiIndex, float]) -> "ExtensionSpec":
        return ExtensionSpec.make(self.cutoff, counterterms)


def counterterm_count(rho: int, ambient: int) -> int:
    """Number of delta-derivative counterterms with |a| <= rho in
    ambient dimensions: C(rho + ambient, ambient)."""
    if rho < 0:
        return 0
    return math.comb(rho + ambient, ambient)


def components(n: int, pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, ...]]:
    """Connected components of the graph on vertices 0..n-1 with the
    given edges, isolated vertices included: sorted vertex tuples,
    ordered by their lowest vertex."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        parent[find(j)] = find(i)
    groups: Dict[int, List[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(g) for g in groups.values())


@dataclass(frozen=True)
class PropFactor:
    """One propagator power P^power(x_i - x_j), optionally derivative-
    decorated at either end, optionally renormalized at its pair locus."""

    i: int
    j: int
    power: int
    left_deriv: MultiIndex = ()
    right_deriv: MultiIndex = ()
    extension: Optional[ExtensionSpec] = None

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError("factor endpoints must satisfy 0 <= i < j")
        if self.power < 1:
            raise ValueError("factor power must be >= 1")
        for a in (self.left_deriv, self.right_deriv):
            if any(k < 0 for k in a):
                raise ValueError("derivative multi-indices must be nonnegative")

    @property
    def renormalized(self) -> bool:
        return self.extension is not None

    @property
    def deriv_order(self) -> int:
        return sum(self.left_deriv) + sum(self.right_deriv)

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class DeltaKernel:
    """Derivative-decorated Dirac delta identifying two points."""

    d: int
    deriv: MultiIndex = ()


@dataclass(frozen=True)
class ScalarDistribution:
    """Product of propagator powers over pairs of n labelled points.

    Lives on the relative-coordinate space of dimension (n-1)*d once
    translation invariance is divided out; ``overall`` is the
    extension at the full coinciding-point locus, if any.
    """

    n_points: int
    d: int
    m: float
    factors: Tuple[PropFactor, ...]
    overall: Optional[ExtensionSpec] = None

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("a scalar distribution needs at least two points")
        pairs = [f.pair for f in self.factors]
        if len(set(pairs)) != len(pairs):
            raise ValueError("at most one factor per point pair; merge powers")
        for f in self.factors:
            if f.j >= self.n_points:
                raise ValueError("factor endpoint out of range")

    @staticmethod
    def single_power(d: int, m: float, power: int,
                     extension: Optional[ExtensionSpec] = None) -> "ScalarDistribution":
        """P^power(x - y) on two points."""
        return ScalarDistribution(2, d, m, (PropFactor(0, 1, power, extension=extension),))

    @property
    def ambient_dimension(self) -> int:
        return (self.n_points - 1) * self.d

    @property
    def total_edges(self) -> int:
        return sum(f.power for f in self.factors)

    @property
    def is_bare(self) -> bool:
        return self.overall is None and all(not f.renormalized for f in self.factors)

    def factor_for(self, i: int, j: int) -> Optional[PropFactor]:
        for f in self.factors:
            if f.pair == (min(i, j), max(i, j)):
                return f
        return None

    def components(self) -> list:
        """Connected components of the factor graph, isolated points
        included; each entry is (sorted vertex tuple, factor tuple)."""
        return [(verts, tuple(f for f in self.factors if f.i in verts))
                for verts in components(self.n_points,
                                        [f.pair for f in self.factors])]

    def relabelled(self, verts: Iterable[int]) -> "ScalarDistribution":
        """Restriction to a component of >= 2 vertices, renumbered 0..k-1."""
        verts = tuple(verts)
        index = {v: k for k, v in enumerate(verts)}
        facs = tuple(
            PropFactor(index[f.i], index[f.j], f.power, f.left_deriv,
                       f.right_deriv, f.extension)
            for f in self.factors if f.i in index and f.j in index)
        return ScalarDistribution(len(verts), self.d, self.m, facs,
                                  self.overall if len(verts) == self.n_points else None)
