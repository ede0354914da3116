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

The module is pure combinatorics: ``compositions`` lists the
multiplicities of l edges over p pairs by stars and bars, and
``pair_expansion``, the one enumeration every caller uses, walks them
by edge count with their weights, for a whole product or for a block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DomainError

__all__ = [
    "MultiGraph",
    "WeightedTerm",
    "vertex_pairs",
    "compositions",
    "enumerate_graphs",
    "symmetry_factor",
    "check_graph_budget",
    "pair_expansion",
    "expansion_terms",
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
        pairs = vertex_pairs(self.n)
        index = {pair: k for k, pair in enumerate(pairs)}
        new = [0] * len(pairs)
        for (i, j), m in zip(pairs, self.mult):
            new[index[tuple(sorted((perm[i], perm[j])))]] = m
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
    lexicographic: stars and bars, the parts being the gaps between
    slots - 1 bars placed among total + slots - 1 positions."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + slots - 1), slots - 1):
        ends = bars + (total + slots - 1,)
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, ends))


# the most graphs one enumeration lists, and multiplicities they hold
GRAPH_BUDGET = 10**6
ENTRY_BUDGET = 10**7


def check_graph_budget(n: int, order: int, exact: bool = False) -> None:
    """Refuse, before any is made, the graphs on the p vertex pairs of n
    vertices with at most ``order`` edges, or exactly ``order`` if
    ``exact``, when they are more than GRAPH_BUDGET or hold more than
    ENTRY_BUDGET multiplicities, p each."""
    p = n * (n - 1) // 2
    # as many graphs of l edges on p pairs as of <= l edges on p - 1
    count = math.comb(order + p - exact, order) if p else 1
    what = f"n={n} {'at' if exact else 'through'} order={order}"
    for size, unit, budget in ((count, "graphs", GRAPH_BUDGET),
                               (count * p, "multiplicities", ENTRY_BUDGET)):
        if size > budget:
            raise DomainError(f"{what} has {size} {unit}, more than the "
                              f"budget of {budget}")


def enumerate_graphs(n: int, l: int) -> List[MultiGraph]:
    """All weak compositions of l edges into the vertex pairs,
    lexicographic in the multiplicity tuple."""
    if n < 1 or l < 0:
        raise DomainError("need n >= 1 vertices and l >= 0 edges")
    check_graph_budget(n, l, exact=True)
    return [MultiGraph(n, mult) for mult in compositions(l, n * (n - 1) // 2)]


def symmetry_factor(graph: MultiGraph) -> int:
    """Product over vertex pairs of (parallel edge count)!."""
    return math.prod(math.factorial(m) for m in graph.mult)


def pair_expansion(pairs: Sequence, max_order: int):
    """(edge count, 1/Sym, multiplicity tuple) for every multigraph on
    ``pairs`` with at most ``max_order`` edges, ordered by edge count,
    then lexicographically; the caller checks their number
    C(max_order + p, p) for p pairs with ``check_graph_budget``."""
    return ((l, Fraction(1, math.prod(map(math.factorial, mult))), mult)
            for l in range(max_order + 1)
            for mult in compositions(l, len(pairs)))


def expansion_terms(n: int, max_order: int) -> List[WeightedTerm]:
    """All graph terms through the given number of edges, each with
    weight 1/Sym; ordered by edge count, then lexicographically."""
    check_graph_budget(n, max_order)
    return [WeightedTerm(MultiGraph(n, mult), weight) for _, weight, mult
            in pair_expansion(vertex_pairs(n), max_order)]


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
    for a, b, p, q, x in itertools.product(range(order + 1), repeat=5):
        if a + b + p + q + x <= order:
            tgt, state = out[a + b + p + q + x], (a + p, b + q, x)
            weight = math.prod(map(math.factorial, (a, b, p, q, x)))
            tgt[state] = tgt.get(state, 0) + Fraction((-1) ** (a + b), weight)
    return {k: {s: c for s, c in tgt.items() if c} for k, tgt in out.items()}


def cross_edge_series(order: int) -> TwoSlotSeries:
    """The tadpole-free target: at edge order k, the single state
    (0, 0, k) with coefficient 1/k!."""
    if order < 0:
        raise DomainError("order must be >= 0")
    return {k: {(0, 0, k): Fraction(1, math.factorial(k))}
            for k in range(order + 1)}
