"""Multigraph enumeration, symmetry factors, and the lowering of a
graph term against functional slots.

Combinatorial claims are checked against brute-force oracles built
from raw itertools enumeration, and the tadpole cancellation against
the abstract contraction-operator engine in coproduct_oracle.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eucren.errors import DomainError
from eucren.functionals import LocalFunctional, TestFunction, derivative_kernel
from eucren.graphs import (
    MultiGraph,
    compositions,
    conjugated_merge_series,
    cross_edge_series,
    enumerate_graphs,
    expansion_terms,
    symmetry_factor,
    vertex_pairs,
)
from eucren.tordered import _trees

from coproduct_oracle import conjugated_product, expected_series


def brute_force_multisets(n, l):
    """All multisets of l edges over the vertex pairs, as sorted tuples."""
    return set(itertools.combinations_with_replacement(vertex_pairs(n), l))


def brute_force_edge_permutations(graph):
    """Count permutations of the edge copies that fix every copy's
    endpoint pair; the definition of the symmetry factor."""
    copies = []
    for i, j, m in graph.edges():
        copies.extend([(i, j)] * m)
    total = 0
    for perm in itertools.permutations(range(len(copies))):
        if all(copies[p] == copies[k] for k, p in enumerate(perm)):
            total += 1
    return total


class TestEnumeration:
    def test_two_vertices_one_slot(self):
        graphs = enumerate_graphs(2, 3)
        assert len(graphs) == 1
        assert graphs[0].mult == (3,)

    def test_three_vertices_two_edges(self):
        graphs = enumerate_graphs(3, 2)
        assert len(graphs) == 6
        doubles = [g for g in graphs if 2 in g.mult]
        paths = [g for g in graphs if g.mult.count(1) == 2]
        assert len(doubles) == 3 and len(paths) == 3

    def test_four_vertices_two_edges_vs_brute_force(self):
        graphs = enumerate_graphs(4, 2)
        assert len(graphs) == 21
        seen = set()
        for g in graphs:
            copies = []
            for i, j, m in g.edges():
                copies.extend([(i, j)] * m)
            seen.add(tuple(sorted(copies)))
        assert seen == brute_force_multisets(4, 2)

    def test_compositions_match_product_filter(self):
        # stars and bars against the lexicographic product filtered to
        # the total, empty slot lists included
        for total in range(7):
            for slots in range(6):
                oracle = [c for c in itertools.product(range(total + 1),
                                                       repeat=slots)
                          if sum(c) == total]
                assert list(compositions(total, slots)) == oracle

    def test_output_is_lexicographic(self):
        mults = [g.mult for g in enumerate_graphs(3, 3)]
        assert mults == sorted(mults)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_count_matches_stars_and_bars(self, n, l):
        slots = n * (n - 1) // 2
        expected = math.comb(l + slots - 1, l) if slots else (1 if l == 0 else 0)
        assert len(enumerate_graphs(n, l)) == expected

    def test_single_vertex(self):
        assert enumerate_graphs(1, 0)[0].total_edges == 0
        assert enumerate_graphs(1, 2) == []

    def test_count_budget(self, monkeypatch):
        # the count is checked before any graph is listed: the 56 graphs
        # of n = 4 at order 3 fit a budget of 56, the 220 of n = 5 do not
        monkeypatch.setattr("eucren.graphs.GRAPH_BUDGET", 56)
        assert len(enumerate_graphs(4, 3)) == 56
        with pytest.raises(DomainError, match="n=5 at order=3"):
            enumerate_graphs(5, 3)
        assert enumerate_graphs(1, 5) == []

    def test_multiplicity_budget(self, monkeypatch):
        # the 56 graphs of n = 4 at order 3 hold 6 multiplicities each,
        # 336 in all; one less is refused, though the count fits
        monkeypatch.setattr("eucren.graphs.ENTRY_BUDGET", 336)
        assert len(enumerate_graphs(4, 3)) == 56
        monkeypatch.setattr("eucren.graphs.ENTRY_BUDGET", 335)
        with pytest.raises(DomainError, match="has 336 multiplicities"):
            enumerate_graphs(4, 3)
        with pytest.raises(DomainError, match="n=4 through order=3 has 504"):
            expansion_terms(4, 3)
        assert len(enumerate_graphs(1, 0)) == 1

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            enumerate_graphs(0, 1)
        with pytest.raises(DomainError):
            MultiGraph(3, (1, 0))


class TestSymmetryFactor:
    def test_double_edge(self):
        assert symmetry_factor(MultiGraph(2, (2,))) == 2

    def test_path(self):
        assert symmetry_factor(MultiGraph(3, (1, 0, 1))) == 1

    def test_worked_triangle(self):
        # multiplicities 3, 2, 1 on the three pairs
        graph = MultiGraph(3, (3, 2, 1))
        assert symmetry_factor(graph) == 12
        assert brute_force_edge_permutations(graph) == 12

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_permutation_count(self, mult):
        graph = MultiGraph(3, tuple(mult))
        if graph.total_edges > 6:
            return
        assert symmetry_factor(graph) == brute_force_edge_permutations(graph)


class TestExpansionTerms:
    def test_two_point_chain_weights(self):
        terms = expansion_terms(2, 5)
        assert [t.order for t in terms] == list(range(6))
        for t in terms:
            assert t.weight == Fraction(1, math.factorial(t.order))

    def test_three_point_order_one(self):
        terms = [t for t in expansion_terms(3, 1) if t.order == 1]
        assert len(terms) == 3
        assert all(t.weight == 1 for t in terms)

    def test_three_point_order_two_weights(self):
        terms = [t for t in expansion_terms(3, 2) if t.order == 2]
        assert len(terms) == 6
        weights = sorted(t.weight for t in terms)
        assert weights == [Fraction(1, 2)] * 3 + [Fraction(1)] * 3
        for t in terms:
            if 2 in t.graph.mult:
                assert t.weight == Fraction(1, 2)
            else:
                assert t.weight == 1

    def test_pairing_count_identity(self):
        # sum of l!/Sym over graphs = number of maps from l labelled
        # edges to vertex pairs, counted by exhaustive enumeration
        for n in range(2, 5):
            pairs = vertex_pairs(n)
            for l in range(5):
                total = sum(Fraction(math.factorial(l), symmetry_factor(g))
                            for g in enumerate_graphs(n, l))
                brute = sum(1 for _ in itertools.product(pairs, repeat=l))
                assert total == brute


class TestRelabelling:
    @given(st.permutations(list(range(3))), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_commutes_with_relabelling(self, perm, l):
        graphs = set(g.mult for g in enumerate_graphs(3, l))
        relabelled = set(g.relabelled(perm).mult for g in enumerate_graphs(3, l))
        assert graphs == relabelled

    def test_relabel_moves_multiplicities(self):
        g = MultiGraph(3, (3, 2, 1))  # pairs (0,1), (0,2), (1,2)
        swapped = g.relabelled([1, 0, 2])
        assert swapped.mult == (3, 1, 2)

    def test_bad_permutation(self):
        with pytest.raises(DomainError):
            MultiGraph(2, (1,)).relabelled([0, 0])


class TestSerialization:
    def test_round_trip(self):
        g = MultiGraph(3, (3, 0, 1))
        assert g.to_text() == "3; 3,0,1"

    def test_single_vertex_line(self):
        assert MultiGraph(1, ()).to_text() == "1; "


class TestAmplitudeLowering:
    """Slot i of a graph term takes the degree(i)-th derivative kernel of
    the i-th functional, and each populated pair one propagator power;
    ``tordered._trees`` roots each component at its lowest vertex."""

    f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    g = TestFunction(3, (3.0, 0.0, 0.0), 1.0)
    h = TestFunction(3, (6.0, 0.0, 0.0), 1.0)

    def test_worked_example_monomials(self):
        F = LocalFunctional.phi_power(5, self.f, prefactor=Fraction(1, 120))
        G = LocalFunctional.phi_power(4, self.g, prefactor=Fraction(1, 24))
        H = LocalFunctional.phi_power(3, self.h, prefactor=Fraction(1, 6))
        graph = MultiGraph(3, (3, 2, 1))
        kernels = [derivative_kernel(F_i, graph.degree(i))
                   for i, F_i in enumerate([F, G, H])]
        assert [k.order for k in kernels] == [5, 4, 3]
        # saturated monomials: exact unit prefactor, no residual field
        for k in kernels:
            (dk,) = k.terms
            assert dk.prefactor == 1
            assert dk.residual == ()
        assert graph.edges() == ((0, 1, 3), (0, 2, 2), (1, 2, 1))

    def test_single_edge_linear(self):
        F = LocalFunctional.linear(self.f)
        G = LocalFunctional.linear(self.g)
        (tree,) = _trees(MultiGraph(2, (1,)), [F, G])
        assert tree == (derivative_kernel(F, 1),
                        ((1, (derivative_kernel(G, 1), ())),))

    def test_over_saturated_vertex_is_zero(self):
        F = LocalFunctional.phi_power(2, self.f)
        G = LocalFunctional.phi_power(4, self.g)
        graph = MultiGraph(2, (3,))
        assert derivative_kernel(F, graph.degree(0)).is_zero
        assert _trees(graph, [F, G]) is None

    def test_path_tree_kernels_and_powers(self):
        # the path 0 -1- 1 -2- 2 rooted at vertex 0: slot degrees 1, 3, 2
        Fs = [LocalFunctional.phi_power(2, self.f),
              LocalFunctional.phi_power(3, self.g),
              LocalFunctional.phi_power(4, self.h)]
        graph = MultiGraph(3, (1, 0, 2))
        k0, k1, k2 = (derivative_kernel(F, deg)
                      for F, deg in zip(Fs, (1, 3, 2)))
        assert _trees(graph, Fs) == [(k0, ((1, (k1, ((2, (k2, ())),))),))]
        # one isolated vertex is a tree of its own
        k1, k2 = derivative_kernel(Fs[1], 2), derivative_kernel(Fs[2], 2)
        assert _trees(MultiGraph(3, (0, 0, 2)), Fs) == [
            (derivative_kernel(Fs[0], 0), ()), (k1, ((2, (k2, ())),))]


class TestTadpoleCancellation:
    def test_conjugated_product_is_cross_series(self):
        order = 2
        assert conjugated_product(order) == expected_series(order)

    def test_third_order_too(self):
        assert conjugated_product(3) == expected_series(3)

    def test_tadpole_states_cancel_exactly(self):
        result = conjugated_product(2)
        for state in result[2]:
            assert state[0] == 0 and state[1] == 0

    def test_engine_matches_operator_oracle(self):
        # multinomial evaluation (package) vs iterated operator
        # application (oracle): same series, different recursions
        for order in range(4):
            assert conjugated_merge_series(order) == \
                conjugated_product(order)

    def test_engine_is_tadpole_free(self):
        assert conjugated_merge_series(2) == cross_edge_series(2)
        assert conjugated_merge_series(3) == cross_edge_series(3)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            conjugated_merge_series(-1)
        with pytest.raises(DomainError):
            cross_edge_series(-1)
