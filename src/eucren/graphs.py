"""Tadpole-free labelled multigraphs and their weighted expansion terms.

The n-fold product expansion is a sum over multigraphs on n labelled
vertices: an edge of multiplicity l_ij between vertices i and j stands
for l_ij propagator contractions between the i-th and j-th functional
slots.  No edge joins a vertex to itself, and the weight of a graph is
the reciprocal of its symmetry factor, the number of permutations of
parallel edges.

Vertices are labelled (they are argument slots), so no isomorphism
quotient is taken; two relabelings of the same shape are distinct
terms and their weights add up to the unlabelled coefficient.

``graph_to_amplitude`` is the one lowering of a graph against
functional slots (the slots' derivative kernels plus one propagator
power per populated pair); every numeric product route reads its
graph terms through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DomainError
from .functionals import DerivativeKernel, LocalFunctional, derivative_kernel
from .kernels import PropFactor

__all__ = [
    "MultiGraph",
    "WeightedTerm",
    "AmplitudeTerm",
    "vertex_pairs",
    "compositions",
    "enumerate_graphs",
    "symmetry_factor",
    "expansion_terms",
    "graph_to_amplitude",
    "conjugated_merge_series",
    "cross_edge_series",
]


def vertex_pairs(n: int) -> Tuple[Tuple[int, int], ...]:
    """Unordered vertex pairs (i, j), i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class MultiGraph:
    """Edge multiplicities over the vertex pairs of ``vertex_pairs(n)``."""

    n: int
    mult: Tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("a graph needs at least one vertex")
        if len(self.mult) != self.n * (self.n - 1) // 2:
            raise DomainError(
                f"expected {self.n * (self.n - 1) // 2} edge slots for "
                f"{self.n} vertices, got {len(self.mult)}")
        if any(m < 0 for m in self.mult):
            raise DomainError("edge multiplicities must be nonnegative")

    @property
    def total_edges(self) -> int:
        return sum(self.mult)

    def degree(self, i: int) -> int:
        """Incident edge count, the derivative order drawn at slot i."""
        return sum(m for (a, b), m in zip(vertex_pairs(self.n), self.mult)
                   if i in (a, b))

    def edges(self) -> Tuple[Tuple[int, int, int], ...]:
        """(i, j, multiplicity) for the populated pairs."""
        return tuple((i, j, m) for (i, j), m
                     in zip(vertex_pairs(self.n), self.mult) if m > 0)

    def relabelled(self, perm: Sequence[int]) -> "MultiGraph":
        """Graph with vertex i renamed perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("relabelling must be a permutation")
        new = [0] * len(self.mult)
        pairs = vertex_pairs(self.n)
        for (i, j), m in zip(pairs, self.mult):
            a, b = perm[i], perm[j]
            new[pairs.index((min(a, b), max(a, b)))] = m
        return MultiGraph(self.n, tuple(new))

    def to_text(self) -> str:
        return f"{self.n}; " + ",".join(str(m) for m in self.mult)


@dataclass(frozen=True)
class WeightedTerm:
    """A graph together with its expansion weight 1/Sym."""

    graph: MultiGraph
    weight: Fraction

    @property
    def order(self) -> int:
        return self.graph.total_edges


def compositions(total: int, slots: int):
    """Weak compositions of ``total`` into ``slots`` nonnegative parts,
    lexicographic."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            yield (head,) + rest


# the most graphs one call of ``enumerate_graphs`` lists
GRAPH_BUDGET = 10**6


def enumerate_graphs(n: int, l: int) -> List[MultiGraph]:
    """All weak compositions of l edges into the vertex pairs,
    lexicographic in the multiplicity tuple; their number C(l + p - 1, l)
    for p pairs must not exceed GRAPH_BUDGET."""
    if n < 1 or l < 0:
        raise DomainError("need n >= 1 vertices and l >= 0 edges")
    p = n * (n - 1) // 2
    count = math.comb(l + p - 1, l) if p else int(l == 0)
    if count > GRAPH_BUDGET:
        raise DomainError(f"n={n} at order={l} has {count} graphs, more "
                          f"than the budget of {GRAPH_BUDGET}")
    return [MultiGraph(n, mult) for mult in compositions(l, p)]


def symmetry_factor(graph: MultiGraph) -> int:
    """Product over vertex pairs of (parallel edge count)!."""
    return math.prod(math.factorial(m) for m in graph.mult)


def expansion_terms(n: int, max_order: int) -> List[WeightedTerm]:
    """All graph terms through the given number of edges, each with
    weight 1/Sym; ordered by edge count, then lexicographically."""
    terms: List[WeightedTerm] = []
    for l in range(max_order + 1):
        for graph in enumerate_graphs(n, l):
            terms.append(WeightedTerm(graph, Fraction(1, symmetry_factor(graph))))
    return terms


@dataclass(frozen=True)
class AmplitudeTerm:
    """A graph lowered against concrete functional slots.

    ``kernels[i]`` is the degree(i)-th derivative kernel of the i-th
    functional; ``factors`` carry one merged propagator power per
    populated pair.  The term is zero when some slot cannot supply
    enough field powers.
    """

    graph: MultiGraph
    kernels: Tuple[DerivativeKernel, ...]
    factors: Tuple[PropFactor, ...]

    @property
    def is_zero(self) -> bool:
        return any(k.is_zero for k in self.kernels)


def graph_to_amplitude(graph: MultiGraph,
                       functionals: Sequence[LocalFunctional]) -> AmplitudeTerm:
    """Lower a graph against functional slots: slot i contributes its
    degree(i)-th derivative kernel, each populated pair a propagator
    power.  Saturating a slot beyond its field power yields the zero
    term rather than an error."""
    if len(functionals) != graph.n:
        raise DomainError(
            f"graph on {graph.n} vertices lowered against "
            f"{len(functionals)} functionals")
    kernels = tuple(derivative_kernel(F, graph.degree(i))
                    for i, F in enumerate(functionals))
    factors = tuple(PropFactor(i, j, m) for i, j, m in graph.edges())
    return AmplitudeTerm(graph=graph, kernels=kernels, factors=factors)


# -- tadpole cancellation on abstract two-slot states ----------------------
#
# The product of two functionals is the two-slot merge conjugated by
# contraction exponentials: exp(+G) after merging, exp(-G) on each slot
# before.  On a merged state G splits into three commuting generators
# (internal edge on the left slot, on the right slot, cross edge), so a
# state is a triple (left tadpoles, right tadpoles, cross edges) and the
# whole conjugation is a product of five exponential series.  Internal
# edges cancel order by order and only pure cross-edge states survive.

TwoSlotState = Tuple[int, int, int]
TwoSlotSeries = dict  # order -> {TwoSlotState: Fraction}


def conjugated_merge_series(order: int) -> TwoSlotSeries:
    """exp(+G) o M o (exp(-G) x exp(-G)) through the given edge order.

    Since the three generators commute, the coefficient of the state
    (a + p, b + q, x) is (-1)^(a+b) / (a! b! p! q! x!) summed over the
    ways to reach it; no operator recursion is needed.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    out: TwoSlotSeries = {k: {} for k in range(order + 1)}
    rng = range(order + 1)
    for a in rng:
        for b in rng:
            for p in rng:
                for q in rng:
                    for x in rng:
                        k = a + b + p + q + x
                        if k > order:
                            continue
                        coeff = Fraction(
                            (-1) ** (a + b),
                            math.factorial(a) * math.factorial(b)
                            * math.factorial(p) * math.factorial(q)
                            * math.factorial(x))
                        state = (a + p, b + q, x)
                        tgt = out[k]
                        val = tgt.get(state, Fraction(0)) + coeff
                        if val == 0:
                            tgt.pop(state, None)
                        else:
                            tgt[state] = val
    return out


def cross_edge_series(order: int) -> TwoSlotSeries:
    """The tadpole-free target: at edge order k, the single state
    (0, 0, k) with coefficient 1/k!."""
    if order < 0:
        raise DomainError("order must be >= 0")
    return {k: {(0, 0, k): Fraction(1, math.factorial(k))}
            for k in range(order + 1)}
