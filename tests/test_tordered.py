"""Product expansion at a background field and causality.

Oracles: Monte Carlo pairings with the closed-form d=3 propagator
written inline, and the background polynomial mirrored as a plain
numpy expression.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from eucren import tordered
from eucren.cli import parse_config, run
from eucren.errors import DomainError, PreconditionViolated, UnsupportedCase
from eucren.functionals import (FieldConfiguration, LocalFunctional,
                                MonomialTerm, TestFunction, derivative_kernel,
                                evaluate, supports_disjoint)
from eucren.propagator import Propagator
from eucren.quadrature import (QuadratureScheme, bump_orders, bump_rule,
                               contract_pass, ring_pass)
from eucren.tordered import (E_n, FormalSeries, block_product,
                             causal_factorization_check, product_expansion,
                             star_E)
from helpers import mc_ball, mc_graph, mc_pair, mc_triple

D = 3
M = 1.0
SCHEME = QuadratureScheme(gauss_n=12)

F0 = TestFunction(d=D, center=(0.0, 0.0, 0.0), radius=1.0)
F1 = TestFunction(d=D, center=(2.5, 0.0, 0.0), radius=1.0)
F2 = TestFunction(d=D, center=(0.0, 2.6, 0.0), radius=0.9, amplitude=1.2)

PHI = FieldConfiguration.from_expression(
    "1 + 0.2*x1 - 0.1*x2 + 0.05*x1*x3", D)


def phi_np(pts):
    return 1.0 + 0.2 * pts[:, 0] - 0.1 * pts[:, 1] + 0.05 * pts[:, 0] * pts[:, 2]


def prop(s):
    return np.exp(-M * np.asarray(s)) / (4.0 * np.pi * np.asarray(s))


def no_edge(s):
    return 1.0 + 0.0 * np.asarray(s)


class _BallWeight:
    """Ball-supported vertex weight for the MC oracles: a bump times
    an optional plain-numpy field factor."""

    def __init__(self, test, field=None):
        self.center = test.center
        self.radius = test.radius
        self._test = test
        self._field = field

    def __call__(self, pts):
        vals = np.asarray(self._test(pts), dtype=float)
        if self._field is not None:
            vals = vals * self._field(pts)
        return vals


def close_to_mc(value, ref, err, rel=0.01):
    assert abs(value - ref) < max(4.0 * err, rel * abs(ref))


class TestFormalSeries:
    def test_from_dict_and_constant(self):
        # zero coefficients and orders above the truncation are dropped,
        # and the rest read back in ascending order
        s = FormalSeries.from_dict(
            {2: Fraction(1, 3), 0: Fraction(1), 1: 0, 3: 5.0}, 2)
        assert s.coeffs == ((0, Fraction(1)), (2, Fraction(1, 3)))
        assert s.as_dict() == {0: Fraction(1), 2: Fraction(1, 3)}
        assert s.coefficient(1) == 0 and s.coefficient(3) == 0
        assert s.truncation == 2
        c = FormalSeries.constant(3.0, 4)
        assert c.coefficient(0) == 3.0 and c.as_dict() == {0: 3.0}
        assert FormalSeries.constant(0.0, 4).coeffs == ()


class TestStarProduct:
    def test_linear_pair_against_mc(self):
        F = LocalFunctional.linear(F0)
        G = LocalFunctional.linear(F1)
        series = star_E(F, G, PHI, M, 2, SCHEME)

        h0 = series.coefficient(0)
        rf, ef = mc_pair(no_edge, D, F0.center, F0.radius,
                         _BallWeight(F0, phi_np),
                         F1.center, F1.radius, _BallWeight(F1, phi_np),
                         seed=11)
        close_to_mc(h0, rf, ef)

        ref, err = mc_pair(prop, D, F0.center, F0.radius, F0,
                           F1.center, F1.radius, F1, seed=12)
        close_to_mc(series.coefficient(1), ref, err)
        assert series.coefficient(2) == 0

    def test_quadratic_pair_against_mc(self):
        F = LocalFunctional.phi_power(2, F0)
        G = LocalFunctional.phi_power(2, F1)
        series = star_E(F, G, PHI, M, 2, SCHEME)

        # first order: <2 f0 phi, P 2 f1 phi>
        ref1, err1 = mc_pair(prop, D, F0.center, F0.radius,
                             _BallWeight(F0, phi_np),
                             F1.center, F1.radius, _BallWeight(F1, phi_np),
                             seed=21)
        close_to_mc(series.coefficient(1), 4.0 * ref1, 4.0 * err1)

        # second order: (1/2) <2 f0, P^2 2 f1>
        ref2, err2 = mc_pair(lambda s: prop(s) ** 2, D,
                             F0.center, F0.radius, F0,
                             F1.center, F1.radius, F1, seed=22)
        close_to_mc(series.coefficient(2), 2.0 * ref2, 2.0 * err2)

    def test_derivative_monomial_first_order(self):
        # F = int (d1 phi) f0; the pairing moves the derivative onto P
        term = MonomialTerm(1, ((1, 0, 0),), F0)
        F = LocalFunctional([term])
        G = LocalFunctional.linear(F1)
        series = star_E(F, G, PHI, M, 2, SCHEME)

        df0 = F0.to_field().diff((1, 0, 0))
        ref, err = mc_pair(prop, D, F0.center, F0.radius,
                           lambda x: -np.asarray(df0(x)),
                           F1.center, F1.radius, F1, seed=31)
        close_to_mc(series.coefficient(1), ref, err, rel=0.015)
        assert series.coefficient(2) == 0

    def test_decorated_multi_edge_is_rejected(self):
        mixed = LocalFunctional([MonomialTerm(2, ((1, 0, 0), (0, 0, 0)), F0)])
        G = LocalFunctional.phi_power(2, F1)
        star_E(mixed, G, PHI, M, 1, SCHEME)
        with pytest.raises(UnsupportedCase):
            star_E(mixed, G, PHI, M, 2, SCHEME)

    def test_decorated_pivot_is_rejected(self):
        mixed = LocalFunctional([MonomialTerm(2, ((1, 0, 0), (0, 0, 0)), F1)])
        ends = [LocalFunctional.linear(F0), mixed, LocalFunctional.linear(F2)]
        with pytest.raises(UnsupportedCase):
            E_n(ends, PHI, M, 2, SCHEME)

    def test_overlapping_supports_rejected(self):
        near = TestFunction(d=D, center=(0.8, 0.0, 0.0), radius=1.0)
        with pytest.raises(DomainError):
            star_E(LocalFunctional.linear(F0), LocalFunctional.linear(near),
                   PHI, M, 2, SCHEME)

    def test_touching_supports_rejected(self):
        # closed balls B(0, 1) and B((1.8, 0, 0), 0.8) share one point,
        # so the supports are not disjoint and the product is undefined
        touching = TestFunction(d=D, center=(1.8, 0.0, 0.0), radius=0.8)
        F, G = LocalFunctional.linear(F0), LocalFunctional.linear(touching)
        assert not supports_disjoint(F, G)
        with pytest.raises(DomainError):
            star_E(F, G, PHI, M, 1, SCHEME)

    def test_background_dimension_mismatch(self):
        with pytest.raises(DomainError):
            star_E(LocalFunctional.linear(F0), LocalFunctional.linear(F1),
                   FieldConfiguration.zero(2), M, 1, SCHEME)

    def test_commutes_at_rounding_level(self):
        F = LocalFunctional.phi_power(2, F0)
        G = LocalFunctional.phi_power(3, F1)
        a = star_E(F, G, PHI, M, 2, SCHEME)
        b = star_E(G, F, PHI, M, 2, SCHEME)
        for k in range(3):
            np.testing.assert_allclose(a.coefficient(k), b.coefficient(k),
                                       rtol=1e-10)


class TestNFoldProduct:
    def setup_method(self):
        self.Fs = [LocalFunctional.phi_power(2, F0),
                   LocalFunctional.phi_power(3, F1),
                   LocalFunctional.linear(F2)]

    def test_empty_product_is_one(self):
        series = E_n([], PHI, M, 3, SCHEME)
        assert series.coefficient(0) == 1.0
        assert series.truncation == 3

    def test_single_argument_evaluates(self):
        series = E_n([self.Fs[0]], PHI, M, 2, SCHEME)
        assert series.coefficient(0) == evaluate(self.Fs[0], PHI, SCHEME)
        assert series.coefficient(1) == 0

    def test_first_order_against_mc(self):
        # each single-edge graph carries the third slot as a spectator
        series = E_n(self.Fs, PHI, M, 2, SCHEME)
        u0 = _BallWeight(F0, phi_np)
        u1 = _BallWeight(F1, lambda p: phi_np(p) ** 2)
        u2 = _BallWeight(F2)
        spec0, _ = mc_ball(_BallWeight(F0, lambda p: phi_np(p) ** 2),
                           D, F0.center, F0.radius, seed=44)
        spec1, _ = mc_ball(_BallWeight(F1, lambda p: phi_np(p) ** 3),
                           D, F1.center, F1.radius, seed=45)
        spec2, _ = mc_ball(_BallWeight(F2, phi_np),
                           D, F2.center, F2.radius, seed=46)
        total, var = 0.0, 0.0
        for pref, (a, b), spec in ((6.0, (u0, u1), spec2),
                                   (2.0, (u0, u2), spec1),
                                   (3.0, (u1, u2), spec0)):
            ref, err = mc_pair(prop, D, a.center, a.radius, a,
                               b.center, b.radius, b, seed=41)
            total += pref * ref * spec
            var += (pref * err * spec) ** 2
        close_to_mc(series.coefficient(1), total, np.sqrt(var), rel=0.015)

    def test_second_order_against_mc(self):
        series = E_n(self.Fs, PHI, M, 2, SCHEME)
        w_f0 = _BallWeight(F0)
        w_f1phi = _BallWeight(F1, phi_np)
        w_f1phi2 = _BallWeight(F1, lambda p: phi_np(p) ** 2)
        w_f0phi = _BallWeight(F0, phi_np)
        w_f2 = _BallWeight(F2)

        # double edge between the first two slots, third as spectator
        rd, ed = mc_pair(lambda s: prop(s) ** 2, D, F0.center, F0.radius,
                         w_f0, F1.center, F1.radius, w_f1phi, seed=51)
        spec2, _ = mc_ball(_BallWeight(F2, phi_np),
                           D, F2.center, F2.radius, seed=54)
        # paths through each pivot that carries a second kernel
        rp0, ep0 = mc_triple(prop, prop, no_edge, D,
                             (w_f0, w_f1phi2, w_f2), seed=52)
        rp1, ep1 = mc_triple(prop, no_edge, prop, D,
                             (w_f0phi, w_f1phi, w_f2), seed=53)
        total = 6.0 * rd * spec2 + 6.0 * rp0 + 12.0 * rp1
        err = np.sqrt((6 * ed * spec2) ** 2 + (6 * ep0) ** 2
                      + (12 * ep1) ** 2)
        close_to_mc(series.coefficient(2), total, err, rel=0.02)

    def test_permutation_invariance(self):
        a = E_n(self.Fs, PHI, M, 2, SCHEME)
        b = E_n([self.Fs[2], self.Fs[0], self.Fs[1]], PHI, M, 2, SCHEME)
        for k in range(3):
            np.testing.assert_allclose(a.coefficient(k), b.coefficient(k),
                                       rtol=1e-9)

    def test_provenance_rows(self):
        result = product_expansion(self.Fs[:2], PHI, M, 2, SCHEME)
        weights = [row[2] for row in result.contributions]
        assert weights == [Fraction(1), Fraction(1), Fraction(1, 2)]
        orders = [row[0] for row in result.contributions]
        assert orders == [0, 1, 2]

    def test_pairwise_overlap_rejected(self):
        shifted = TestFunction(d=D, center=(0.9, 0.0, 0.0), radius=1.0)
        bad = [self.Fs[0], LocalFunctional.linear(shifted), self.Fs[2]]
        with pytest.raises(DomainError):
            E_n(bad, PHI, M, 1, SCHEME)


class TestTrees:
    """Components on four vertices go through the same message pass as
    pairs and paths.  The exactly saturated vertices carry no
    background factor, so each graph value is k! prefactors times a
    plain four-ball Monte Carlo integral."""

    @staticmethod
    def graph_value(functionals, order, edges):
        result = product_expansion(functionals, PHI, M, order, SCHEME)
        for _, graph, _, value in result.contributions:
            if sorted(graph.edges()) == sorted(edges):
                return value
        raise AssertionError(f"no graph with edges {edges}")

    def test_star_against_mc(self):
        leaves = (F1,
                  TestFunction(d=D, center=(-1.3, 2.1, 0.0), radius=0.9),
                  TestFunction(d=D, center=(-1.2, -2.0, 0.8), radius=0.8,
                               amplitude=1.3))
        functionals = [LocalFunctional.phi_power(3, F0)] + [
            LocalFunctional.linear(f) for f in leaves]
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1)]
        value = self.graph_value(functionals, 3, edges)
        ref, err = mc_graph([(i, j, prop) for i, j, _ in edges], D,
                            (F0,) + leaves, n=600_000, seed=61)
        close_to_mc(value, 6.0 * ref, 6.0 * err, rel=0.02)

    def test_path_against_mc(self):
        tests = (TestFunction(d=D, center=(-2.4, 0.0, 0.0), radius=0.9),
                 F0, F1,
                 TestFunction(d=D, center=(4.7, 0.9, 0.0), radius=0.9,
                              amplitude=1.2))
        functionals = [LocalFunctional.linear(tests[0]),
                       LocalFunctional.phi_power(2, tests[1]),
                       LocalFunctional.phi_power(2, tests[2]),
                       LocalFunctional.linear(tests[3])]
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
        value = self.graph_value(functionals, 3, edges)
        ref, err = mc_graph([(i, j, prop) for i, j, _ in edges], D, tests,
                            n=600_000, seed=62)
        close_to_mc(value, 4.0 * ref, 4.0 * err, rel=0.02)

    def test_cycle_is_rejected(self):
        # three phi^2 slots at order 3 saturate only on the triangle
        squares = [LocalFunctional.phi_power(2, f) for f in (F0, F1, F2)]
        with pytest.raises(UnsupportedCase):
            E_n(squares, PHI, M, 3, SCHEME)

    @staticmethod
    def record_passes(monkeypatch, record):
        """Empty the weights cache and call ``record(route, x, y, out)``
        after every pair pass, dense or ring."""
        tordered._weights.cache_clear()

        def dense(blocks, x, y, toward_x, toward_y):
            out = contract_pass(blocks, x, y, toward_x, toward_y)
            record("dense", x, y, out)
            return out

        def ring(blocks, x, y, n_phi, toward_x, toward_y):
            out = ring_pass(blocks, x, y, n_phi, toward_x, toward_y)
            record("ring", x, y, out)
            return out

        monkeypatch.setattr(tordered, "contract_pass", dense)
        monkeypatch.setattr(tordered, "ring_pass", ring)

    def record_contractions(self, monkeypatch):
        """The list every contracted column appends to."""
        vectors = []
        self.record_passes(monkeypatch, lambda route, x, y, out: vectors.extend(
            column.tobytes() for side in out for matrix in side
            for column in matrix.T))
        return vectors

    def record_routes(self, monkeypatch):
        """The list every pair pass appends its route to."""
        routes = []
        self.record_passes(monkeypatch,
                           lambda route, x, y, out: routes.append(route))
        return routes

    def test_collinear_bumps_take_the_ring_route(self, monkeypatch):
        # F0 and F1 lie on the x1 axis; the ring route gives the series
        # of the dense one to rounding
        F, G = (LocalFunctional.phi_power(3, f) for f in (F0, F1))
        routes = self.record_routes(monkeypatch)
        ring = star_E(F, G, PHI, M, 3, SCHEME)
        assert routes and set(routes) == {"ring"}
        monkeypatch.setattr(
            tordered, "ring_pass",
            lambda blocks, x, y, n_phi, *toward: contract_pass(blocks, x, y,
                                                               *toward))
        dense = star_E(F, G, PHI, M, 3, SCHEME)
        for k in range(4):
            np.testing.assert_allclose(ring.coefficient(k),
                                       dense.coefficient(k), rtol=1e-13)

    def test_off_axis_centre_takes_the_dense_route(self, monkeypatch):
        # F2's centre (0, 2.6, 0) is off the polar axis of F0's rule
        routes = self.record_routes(monkeypatch)
        F, G = (LocalFunctional.phi_power(2, f) for f in (F0, F2))
        star_E(F, G, PHI, M, 2, SCHEME)
        assert routes and set(routes) == {"dense"}

    def test_decorated_kernel_takes_the_dense_route(self, monkeypatch):
        # the kernel d_x1 P carries a factor x1 - y1 that does not turn
        # with the azimuth, but a decorated pair goes dense all the same
        routes = self.record_routes(monkeypatch)
        F = LocalFunctional([MonomialTerm(1, ((1, 0, 0),), F0)])
        star_E(F, LocalFunctional.linear(F1), PHI, M, 1, SCHEME)
        assert routes == ["dense"]

    def test_terms_share_subtree_messages(self, monkeypatch):
        # the path 1-0-2 contains the single edges 0-1 and 0-2, and the
        # path 0-1-2 the edge 1-2; a message is contracted once, so no
        # contraction repeats an earlier one
        vectors = self.record_contractions(monkeypatch)
        squares = [LocalFunctional.phi_power(
            2, TestFunction(d=D, center=(c, 0.0, 0.0), radius=0.9))
            for c in (0.0, 3.0, 6.0)]
        product_expansion(squares, PHI, M, 2, QuadratureScheme(gauss_n=6))
        assert vectors
        assert len(set(vectors)) == len(vectors)

    def test_cached_arrays_are_read_only(self):
        scheme = QuadratureScheme(gauss_n=6)
        kernel = derivative_kernel(LocalFunctional.phi_power(2, F1), 1)
        dk, = kernel.terms
        key = (1, (kernel, ()), F0.nodes_key, dk.arg_derivs[0])
        message = tordered._messages([key], PHI, M, scheme)[key]
        weights = tordered._weights(dk.coefficient, dk.residual, PHI, scheme)
        for array in (message, *weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_message_takes_the_parent_coefficients_rule(self):
        # a message lands on the nodes of its parent's bump rule and is
        # keyed by that rule's ball, so bumps on one ball share it
        # whatever their amplitudes
        scheme = QuadratureScheme(gauss_n=6)
        kernel = derivative_kernel(LocalFunctional.phi_power(2, F1), 1)
        dk, = kernel.terms
        y, w = F1.rule(6)
        sent = float(dk.prefactor) * w * phi_np(y)
        louder = TestFunction(D, F0.center, F0.radius, amplitude=2.5)
        keys = [(1, (kernel, ()), parent.nodes_key, dk.arg_derivs[0])
                for parent in (F0, louder)]
        messages = tordered._messages(keys, PHI, M, scheme)
        assert keys[1] == keys[0]
        assert len(messages) == 1
        x, _ = F0.rule(6)
        r = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        np.testing.assert_allclose(messages[keys[0]], prop(r) @ sent,
                                   rtol=1e-12)
        assert len(x) == 120

    def test_rule_shift_reaches_the_rules(self, monkeypatch):
        # the shifted product contracts on the bump rules of gauss_n + 4,
        # every axis of which is finer (TestBumpRule)
        sizes = []
        self.record_passes(monkeypatch, lambda route, x, y, out: sizes.append(
            (len(x), len(y))))
        F, G = (LocalFunctional.phi_power(2, f) for f in (F0, F1))
        scheme = QuadratureScheme(gauss_n=6)
        star_E(F, G, PHI, M, 1, replace(scheme, gauss_n=scheme.gauss_n + 4))
        assert sizes and set(sizes) == {(720, 720)}
        assert bump_orders(10) == (5, 9, 16)

    @staticmethod
    def verify_entries(monkeypatch, d):
        """{columns: entries} of every matrix that P is formed on by
        ``verify`` in d dimensions at m = 1, seed 3 and gauss_n 4."""
        tordered._weights.cache_clear()
        entries = Counter()
        call = Propagator.__call__

        def counting(self, r):
            r = np.asarray(r)
            if r.ndim == 2:
                entries[r.shape[1]] += r.size
            return call(self, r)

        monkeypatch.setattr(Propagator, "__call__", counting)
        run(parse_config(f"command=verify d={d} m=1 seed=3 gauss_n=4"))
        return entries

    def test_verify_evaluates_each_rule_pair_once(self, monkeypatch):
        # verify d=3 joins three bumps on the x1 axis pairwise, on gauss_n
        # and on the shifted gauss_n + 4: the binary product evaluates one
        # pair, the block product the other two and then the first again
        # for the messages whose children it needed, so 4 pair passes per
        # rule size.  Each is a ring pass, which forms P against the
        # first node of each ring of the y rule only: N * N / n_phi
        # entries, against N * N for a dense pass.  P is evaluated on no
        # other matrix
        entries = self.verify_entries(monkeypatch, 3)
        small, large = (len(bump_rule(3, (0.0,) * 3, 1.0, n)[0])
                        for n in (4, 8))
        assert (small, large) == (48, 336)
        rings = small // bump_orders(4)[2], large // bump_orders(8)[2]
        assert rings == (8, 28)
        assert entries == {rings[0]: 4 * small * rings[0],
                           rings[1]: 4 * large * rings[1]}

    def test_verify_d2_evaluates_each_rule_pair_once(self, monkeypatch):
        # the same 4 pair passes per rule size in d = 2, where no rule
        # has rings: each pass is dense and forms P on one N x N block
        entries = self.verify_entries(monkeypatch, 2)
        small, large = (len(bump_rule(2, (0.0,) * 2, 1.0, n)[0])
                        for n in (4, 8))
        assert (small, large) == (12, 48)
        assert entries == {small: 4 * small * small,
                           large: 4 * large * large}


class TestCausality:
    def setup_method(self):
        self.Fs = [LocalFunctional.phi_power(2, F0),
                   LocalFunctional.phi_power(3, F1),
                   LocalFunctional.linear(F2)]

    def test_block_assembly_matches_direct(self):
        direct = product_expansion(self.Fs, PHI, M, 2, SCHEME).series
        for split in ([0], [1], [0, 2]):
            assembled = block_product(self.Fs, split, PHI, M, 2, SCHEME)
            for k in range(3):
                np.testing.assert_allclose(assembled.coefficient(k),
                                           direct.coefficient(k), rtol=1e-12)

    def test_residuals_below_tolerance(self):
        res = causal_factorization_check(self.Fs, [1], PHI, M, 2, SCHEME)
        for k in range(3):
            assert res.coefficient(k) < 1e-4

    def test_index_set_must_be_proper(self):
        for bad in ([], [0, 1, 2], [5]):
            with pytest.raises(PreconditionViolated):
                causal_factorization_check(self.Fs, bad, PHI, M, 1, SCHEME)

    def test_cross_block_overlap_rejected(self):
        near = TestFunction(d=D, center=(0.7, 0.0, 0.0), radius=1.0)
        Fs = [self.Fs[0], LocalFunctional.linear(near), self.Fs[2]]
        with pytest.raises(PreconditionViolated):
            causal_factorization_check(Fs, [0], PHI, M, 1, SCHEME)

    def test_intra_block_overlap_rejected(self):
        near = TestFunction(d=D, center=(0.7, 0.0, 0.0), radius=1.0)
        Fs = [self.Fs[0], LocalFunctional.linear(near), self.Fs[2]]
        with pytest.raises(PreconditionViolated):
            causal_factorization_check(Fs, [2], PHI, M, 1, SCHEME)
