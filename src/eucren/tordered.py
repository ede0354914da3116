"""The partial Euclidean time-ordered product and its n-fold version.

The product of two functionals with disjoint supports is a formal
power series whose k-th coefficient contracts the k-th derivative
kernels through k propagators; the n-fold version sums tadpole-free
multigraphs with reciprocal-symmetry-factor weights.  Both are
evaluated numerically at a background configuration: each graph term
is lowered by ``graphs.graph_to_amplitude`` and is a product over
connected components.  Every component that is a tree (an isolated
vertex, a multi-edge, a path, a star, ...) is summed by one message
pass toward its lowest vertex: each vertex's weights on the rule of its
coefficient (``rule``, Gauss for the bump weight), times the
messages of its own children, are contracted through the edge's
propagator power onto the nodes of the parent's coefficient.

A product plans its messages before it contracts any.  It collects the
distinct messages of all of its graph terms; a message is keyed by the
content of its subtree (kernels and edge powers, not vertex indices)
and the parent's rule, so the terms of one product share it and it is
contracted once per product; nothing is kept across calls.  Messages
are batched by the unordered pair of rules they join: a pair is
contracted in one pass over blocks of rows, which evaluates each of its
kernels once per block for every message on the pair, in both
directions.  The schedule takes first a pair whose messages all have
their children's messages, and otherwise the pair with the most such
messages, for those alone; ties go to a fixed order of the rules.

The route of a pass follows from the pair's geometry.  Two d = 3 bump
rules, whose polar axis is x1, with centres that differ only in x1
make every undecorated kernel between them block-circulant in the
azimuth (``quadrature.bump_ring_size``); such a pair takes
``quadrature.ring_pass``, which forms the
kernels against one node per ring of the second rule and applies them
by FFT.  Every other pair takes the dense ``contract_pass``.

Components with a cycle are outside the numeric envelope, and
derivative decorations are evaluated only on a component that is a
single power-one edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, PreconditionViolated, UnsupportedCase
from .functionals import (
    DKTerm,
    FieldConfiguration,
    LocalFunctional,
    evaluate,
    supports_disjoint,
)
from .graphs import (MultiGraph, compositions, expansion_terms,
                     graph_to_amplitude, vertex_pairs)
from .kernels import components
from .propagator import green_function
from .quadrature import (DEFAULT_SCHEME, QuadratureScheme, bump_ring_size,
                         bump_rule, contract_pass, ring_pass)

__all__ = [
    "FormalSeries",
    "ProductResult",
    "star_E",
    "E_n",
    "block_product",
    "causal_factorization_check",
]


@dataclass(frozen=True)
class FormalSeries:
    """Truncated power series in ℏ, float or exact rational coefficients,
    built by ``from_dict`` or ``constant`` and only read after."""

    coeffs: Tuple[Tuple[int, object], ...]
    truncation: int

    @staticmethod
    def from_dict(data: Dict[int, object], truncation: int) -> "FormalSeries":
        items = tuple(sorted((k, v) for k, v in data.items()
                             if k <= truncation and v != 0))
        return FormalSeries(items, truncation)

    @staticmethod
    def constant(value, truncation: int) -> "FormalSeries":
        return FormalSeries.from_dict({0: value}, truncation)

    def coefficient(self, k: int):
        for order, value in self.coeffs:
            if order == k:
                return value
        return 0

    def as_dict(self) -> Dict[int, object]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class ProductResult:
    """A numeric product series plus the graphs that fed each order."""

    series: FormalSeries
    contributions: Tuple[Tuple[int, MultiGraph, Fraction, float], ...]


# -- numeric graph-term evaluation ---------------------------------------


@lru_cache(maxsize=64)
def _weights(f, residual, phi: FieldConfiguration, scheme: QuadratureScheme):
    """The nodes of a kernel term's coefficient f (``f.rule``) and the
    vertex weight on them: the rule's weights for f times
    prod (d^a phi) over the residual multi-indices a."""
    pts, vals = f.rule(scheme.gauss_n)
    for alpha in residual:
        vals = vals * np.asarray(phi.diff(alpha)(pts), dtype=float)
    vals.setflags(write=False)
    return pts, vals


def _below(children, dk: DKTerm):
    """The messages that a vertex's children send onto the nodes of its
    kernel term dk's coefficient.  A message is (edge power, subtree,
    the parent coefficient's ``nodes_key``, the parent's decoration),
    and a subtree is (kernel, ((edge power, child subtree), ...)), so
    equal subtrees on equal rules are one message."""
    return [(power, child, dk.coefficient.nodes_key, dk.arg_derivs[0])
            for power, child in children]


def _sent(children, dk: DKTerm, values, phi, scheme):
    """dk's vertex weights times its children's messages on its nodes."""
    _, vals = _weights(dk.coefficient, dk.residual, phi, scheme)
    for key in _below(children, dk):
        vals = vals * values[key]
    return vals


def _nodes(nodes_key, scheme: QuadratureScheme):
    return bump_rule(*nodes_key, scheme.gauss_n)[0]


def _messages(keys, phi: FieldConfiguration, m: float,
              scheme: QuadratureScheme) -> Dict:
    """{message: values on its parent's nodes} for ``keys`` and every
    message below them, held for this call only and read-only.

    Each distinct message is split into columns, one per kernel term
    of the sending vertex, and grouped by the unordered pair of rules
    they join.  A pair whose columns all have their children's messages
    is contracted first; when no pair is ready, the pair with the most
    ready columns is contracted on those alone.  Ties go to the first
    pair in the order of the rules' ``nodes_key`` (d, center, radius),
    which does not depend on the run.  A pair is one pass
    (``_contract``): each of its kernels is evaluated once per block,
    for all of its columns in both directions.
    """
    values, sums, open_parts = {}, {}, {}
    columns: Dict[tuple, list] = {}
    stack = list(reversed(keys))
    while stack:
        key = stack.pop()
        if key in open_parts:
            continue
        _, (kernel, children), nodes_key, _ = key
        open_parts[key] = len(kernel.terms)
        for dk in kernel.terms:
            pair = tuple(sorted((nodes_key, dk.coefficient.nodes_key)))
            columns.setdefault(pair, []).append((key, dk))
            stack.extend(reversed(_below(children, dk)))

    def ready(column):
        (_, (_, children), _, _), dk = column
        return all(k in values for k in _below(children, dk))

    while columns:
        best = None
        for pair in sorted(columns):
            now = [c for c in columns[pair] if ready(c)]
            if len(now) == len(columns[pair]):
                best = pair, now
                break
            if len(now) > (len(best[1]) if best else 0):
                best = pair, now
        pair, now = best
        columns[pair] = [c for c in columns[pair] if not ready(c)]
        if not columns[pair]:
            del columns[pair]
        for (key, dk), sent in zip(now, _contract(pair, now, values, phi, m,
                                                  scheme)):
            sums[key] = sums.get(key, 0.0) + float(dk.prefactor) * sent
            open_parts[key] -= 1
            if not open_parts[key]:
                values[key] = sums.pop(key)
                values[key].setflags(write=False)
    return values


def _contract(pair, columns, values, phi, m, scheme):
    """Every column's contraction on the rule pair (rows, cols), from
    one ``ring_pass`` when ``_ring_size`` finds the kernels
    block-circulant and one ``contract_pass`` otherwise: a column whose
    parent is the rows' rule is K @ v, one whose parent is the cols'
    K^T @ u, with K oriented rows by cols."""
    rows, cols = pair
    specs: Dict[tuple, Tuple[list, list]] = {}
    place = []
    for (power, (_, children), nodes_key, left), dk in columns:
        side = int(nodes_key != rows)
        right = dk.arg_derivs[0]
        spec = (power, right, left) if side else (power, left, right)
        sent = specs.setdefault(spec, ([], []))[side]
        place.append((spec, side, len(sent)))
        sent.append(_sent(children, dk, values, phi, scheme))
    x, y = _nodes(rows, scheme), _nodes(cols, scheme)
    kernels = green_function(phi.d, m).blocks(list(specs))
    toward = ([_stack(v, len(y)) for v, _ in specs.values()],
              [_stack(u, len(x)) for _, u in specs.values()])
    n_phi = _ring_size(pair, specs, scheme)
    if n_phi:
        to_x, to_y = ring_pass(kernels, x, y, n_phi, *toward)
    else:
        to_x, to_y = contract_pass(kernels, x, y, *toward)
    index = {spec: k for k, spec in enumerate(specs)}
    return [(to_y if side else to_x)[index[spec]][:, j]
            for spec, side, j in place]


def _ring_size(pair, specs, scheme: QuadratureScheme) -> int:
    """The azimuthal ring size of the pair's rules when every kernel on
    it is block-circulant, else 0: ``bump_ring_size`` finds the two
    bump rules block-circulant, and no kernel carries a derivative
    decoration (its x_i - y_i factors turn with the azimuth)."""
    (d, center_a, _), (_, center_b, _) = pair
    if not any(sum(left) + sum(right) for _, left, right in specs):
        return bump_ring_size(d, center_a, center_b, scheme.gauss_n)
    return 0


def _stack(vectors, n: int) -> np.ndarray:
    """The vectors as the columns of an (n, len(vectors)) matrix."""
    return np.stack(vectors, axis=1) if vectors else np.empty((n, 0))


def _tree(kernels, adj, v: int, parent: Optional[int]):
    return (kernels[v], tuple((adj[v][c], _tree(kernels, adj, c, v))
                              for c in adj[v] if c != parent))


def _trees(graph: MultiGraph, functionals: Sequence[LocalFunctional]):
    """One graph term's connected components, each a tree rooted at its
    lowest vertex, or None when the term vanishes."""
    amp = graph_to_amplitude(graph, functionals)
    if amp.is_zero:
        return None
    trees = []
    for verts in components(graph.n, [f.pair for f in amp.factors]):
        edges = [f for f in amp.factors if f.i in verts]
        if len(edges) != len(verts) - 1:
            raise UnsupportedCase(
                "graph components with a cycle are outside the "
                "numeric envelope")
        single_edge = len(edges) == 1 and edges[0].power == 1
        if not single_edge and any(
                sum(a) for v in verts for dk in amp.kernels[v].terms
                for a in dk.arg_derivs):
            raise UnsupportedCase(
                "derivative decorations are evaluated only on a "
                "component that is a single power-one edge")
        adj: Dict[int, Dict[int, int]] = {v: {} for v in verts}
        for f in edges:
            adj[f.i][f.j] = adj[f.j][f.i] = f.power
        trees.append(_tree(amp.kernels, adj, verts[0], None))
    return trees


def term_value(trees, values, phi: FieldConfiguration,
               scheme: QuadratureScheme) -> float:
    """One graph term at the background: the product over its trees of
    the sum over each root's kernel terms of its weights times the
    planned messages of its children (``values``)."""
    if trees is None:
        return 0.0
    value = 1.0
    for kernel, children in trees:
        total = 0.0
        for dk in kernel.terms:
            vals = _sent(children, dk, values, phi, scheme)
            total += float(dk.prefactor) * float(vals.sum())
        value *= total
    return value


def _graph_values(graphs: Sequence[MultiGraph],
                  functionals: Sequence[LocalFunctional],
                  phi: FieldConfiguration, m: float,
                  scheme: QuadratureScheme) -> List[float]:
    """Each graph term's value: the messages of all terms are planned
    and contracted together first (``_messages``)."""
    trees = [_trees(g, functionals) for g in graphs]
    roots = [key for t in trees if t for kernel, children in t
             for dk in kernel.terms for key in _below(children, dk)]
    values = _messages(roots, phi, m, scheme)
    return [term_value(t, values, phi, scheme) for t in trees]


def _check_arguments(functionals: Sequence[LocalFunctional],
                     phi: FieldConfiguration, m: float):
    """One dimension for all arguments and the background, and a
    decaying fundamental solution in it."""
    d = functionals[0].d
    for F in functionals:
        if F.d != d:
            raise DomainError("mixed ambient dimensions in one product")
    if phi.d != d:
        raise DomainError("background dimension does not match")
    green_function(d, m)


# -- the products ---------------------------------------------------------


def _require_pairwise_disjoint(functionals: Sequence[LocalFunctional]):
    for a, b in itertools.combinations(range(len(functionals)), 2):
        if not supports_disjoint(functionals[a], functionals[b]):
            raise DomainError(
                f"supports of arguments {a} and {b} intersect; the "
                "unrenormalized product is undefined there")


def product_expansion(functionals: Sequence[LocalFunctional],
                      phi: FieldConfiguration, m: float, order: int,
                      scheme: QuadratureScheme = DEFAULT_SCHEME) -> ProductResult:
    """The graph expansion of the n-fold product at a background
    configuration, with per-graph provenance."""
    _require_pairwise_disjoint(functionals)
    _check_arguments(functionals, phi, m)
    terms = expansion_terms(len(functionals), order)
    values = _graph_values([term.graph for term in terms], functionals, phi,
                           m, scheme)
    data: Dict[int, float] = {}
    rows = []
    for term, value in zip(terms, values):
        data[term.order] = data.get(term.order, 0.0) + float(term.weight) * value
        rows.append((term.order, term.graph, term.weight, value))
    return ProductResult(FormalSeries.from_dict(data, order), tuple(rows))


def E_n(functionals: Sequence[LocalFunctional], phi: FieldConfiguration,
        m: float, order: int,
        scheme: QuadratureScheme = DEFAULT_SCHEME) -> FormalSeries:
    """The n-fold product as a truncated series.

    The empty product is 1 and a single argument evaluates to itself;
    the supports must be pairwise disjoint.
    """
    if not functionals:
        return FormalSeries.constant(1.0, order)
    if len(functionals) == 1:
        return FormalSeries.constant(
            evaluate(functionals[0], phi, scheme), order)
    return product_expansion(functionals, phi, m, order, scheme).series


def star_E(F: LocalFunctional, G: LocalFunctional, phi: FieldConfiguration,
           m: float, order: int,
           scheme: QuadratureScheme = DEFAULT_SCHEME) -> FormalSeries:
    """The binary product: ℏ^k carries 1/k! times the k-fold
    contraction of the k-th derivative kernels."""
    return E_n([F, G], phi, m, order, scheme)


# -- Euclidean causality ---------------------------------------------------


def _split_blocks(functionals, index_set):
    n = len(functionals)
    I = sorted(set(index_set))
    if not I or len(I) >= n or any(i < 0 or i >= n for i in I):
        raise PreconditionViolated(
            "the index set must be a nonempty proper subset of the slots")
    Ic = [j for j in range(n) if j not in I]
    for i in I:
        for j in Ic:
            if not supports_disjoint(functionals[i], functionals[j]):
                raise PreconditionViolated(
                    f"blocks are not support-disjoint: slots {i} and {j}")
    return I, Ic


def block_product(functionals: Sequence[LocalFunctional],
                  index_set: Sequence[int],
                  phi: FieldConfiguration, m: float, order: int,
                  scheme: QuadratureScheme = DEFAULT_SCHEME) -> FormalSeries:
    """The n-fold product assembled through a bracketing: every graph
    is re-derived as (cross edges between the blocks) x (graph inside
    the index set) x (graph inside the complement), each with its own
    block weight.  Coefficient-wise equality with the direct expansion
    is the Euclidean causality statement."""
    I, Ic = _split_blocks(functionals, index_set)
    for block in (I, Ic):
        for a, b in itertools.combinations(block, 2):
            if not supports_disjoint(functionals[a], functionals[b]):
                raise PreconditionViolated(
                    f"supports overlap inside a block: slots {a} and {b}")
    _check_arguments(functionals, phi, m)
    n = len(functionals)
    pairs = vertex_pairs(n)
    cross_pairs = [(min(i, j), max(i, j)) for i in I for j in Ic]

    def block_terms(block, budget):
        for wt in expansion_terms(len(block), budget):
            mult = [0] * len(pairs)
            for (a, b), mv in zip(vertex_pairs(len(block)), wt.graph.mult):
                mult[pairs.index((block[a], block[b]))] = mv
            yield wt.order, wt.weight, mult

    terms = []
    for k in range(order + 1):
        for cross in compositions(k, len(cross_pairs)):
            cross_weight = Fraction(1)
            for c in cross:
                cross_weight /= math.factorial(c)
            for l_i, w_i, mult_i in block_terms(I, order - k):
                for l_c, w_c, mult_c in block_terms(Ic, order - k - l_i):
                    mult = [a + b for a, b in zip(mult_i, mult_c)]
                    for (a, b), c in zip(cross_pairs, cross):
                        mult[pairs.index((a, b))] += c
                    terms.append((k + l_i + l_c, cross_weight * w_i * w_c,
                                  MultiGraph(n, tuple(mult))))

    values = _graph_values([graph for _, _, graph in terms], functionals,
                           phi, m, scheme)
    data: Dict[int, float] = {}
    for (k, weight, _), value in zip(terms, values):
        data[k] = data.get(k, 0.0) + float(weight) * value
    return FormalSeries.from_dict(data, order)


def causal_factorization_check(functionals: Sequence[LocalFunctional],
                               index_set: Sequence[int],
                               phi: FieldConfiguration, m: float, order: int,
                               scheme: QuadratureScheme = DEFAULT_SCHEME) -> FormalSeries:
    """Per-order relative deviation of E_n from E_I x E_Ic.

    The right side runs through ``block_product`` on a shifted
    quadrature rule, so agreement checks the combinatorial
    factorization and the numerics at once.  Coefficient k of the
    returned series is |lhs_k - rhs_k| / max(|lhs_k|, |rhs_k|), zero
    when both vanish; the scale-invariant form keeps the pass
    threshold meaningful across amplitude choices.
    """
    rhs = block_product(functionals, index_set, phi, m, order,
                        replace(scheme, gauss_n=scheme.gauss_n + 3))
    lhs = product_expansion(functionals, phi, m, order, scheme).series
    truncation = min(lhs.truncation, rhs.truncation)
    data = {}
    for k in range(truncation + 1):
        a, b = lhs.coefficient(k), rhs.coefficient(k)
        scale = max(abs(a), abs(b))
        data[k] = abs(a - b) / scale if scale else 0.0
    return FormalSeries.from_dict(data, truncation)
