"""Tests for local functionals: evaluation, derivative kernels, supports
and additivity.

Numeric oracles are independent scipy quadratures on the raw integrands.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eucren.errors import PreconditionViolated
from eucren.functionals import (
    DerivativeKernel,
    DKTerm,
    FieldConfiguration,
    LocalFunctional,
    MonomialTerm,
    TestFunction,
    additivity_check,
    derivative_kernel,
    evaluate,
    support,
    supports_disjoint,
)
from eucren import expr
from eucren.cli import parse_config, run
from eucren.quadrature import DEFAULT_SCHEME, QuadratureScheme
from helpers import kernel_pair, quadpack, sphere_area, sympy_partial

TIGHT = QuadratureScheme(gauss_n=48)


def bump_1d(x, c, r, a=1.0):
    """Raw reference bump, no package code."""
    t = 1.0 - (x - c) ** 2 / r**2
    return a * math.exp(-1.0 / t) if t > 0 else 0.0


class TestTestFunction:
    def test_compact_support_is_exact(self):
        f = TestFunction(2, (0.5, -1.0), 1.5, 2.0)
        on_bdry = np.array([[0.5 + 1.5, -1.0], [0.5, -1.0 + 1.5 + 1e-9]])
        np.testing.assert_array_equal(f(on_bdry), [0.0, 0.0])
        assert float(f(np.array([[0.5, -1.0]]))[0]) == pytest.approx(
            2.0 * np.exp(-1), rel=1e-12, abs=0.0)

    def test_smoothness_at_boundary(self):
        # finite differences of fixed order stay bounded as h -> 0
        f = TestFunction(1, (0.0,), 1.0)
        for h in (1e-2, 1e-3, 1e-4):
            pts = np.array([[1.0 - 2 * h], [1.0 - h], [1.0], [1.0 + h]])
            vals = f(pts)
            second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
            assert abs(second) < 1.0

    def test_integral_against_raw_quad(self):
        f = TestFunction(1, (0.3,), 0.8, 1.7)
        ref = quad(lambda x: bump_1d(x, 0.3, 0.8, 1.7), -0.5, 1.1,
                   epsabs=1e-14)[0]
        assert f.integral() == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_integral_closed_form_against_quadpack(self, d):
        f = TestFunction(d, (0.4, -0.2, 1.0, 0.3)[:d], 0.7, amplitude=1.3)
        gu = f.gu()
        ref = sphere_area(d) * quadpack(
            lambda rho: rho ** (d - 1) * float(gu(np.float64(rho * rho))),
            0.0, f.radius)
        assert f.integral() == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_scaled_preserves_mass(self):
        f = TestFunction(3, (0.4, 0.0, -0.2), 0.9)
        g = f.scaled(0.5)
        assert g.radius == pytest.approx(0.45)
        assert g.center == pytest.approx((0.2, 0.0, -0.1), abs=0.0)
        assert g.integral() == pytest.approx(f.integral(), rel=1e-9)


class TestEvaluate:
    def test_zero_field(self):
        f = TestFunction(2, (0.0, 0.0), 1.0)
        F = LocalFunctional.phi_power(2, f)
        assert evaluate(F, FieldConfiguration.zero(2)) == 0.0

    def test_linear_at_constant_one(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.linear(f)
        ref = quad(lambda x: bump_1d(x, 0.0, 1.0), -1, 1, epsabs=1e-14)[0]
        assert evaluate(F, FieldConfiguration.constant(1, 1)) == pytest.approx(
            ref, rel=1e-10)

    def test_half_phi_squared_coordinate(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(2, f, Fraction(1, 2))
        phi = FieldConfiguration.coordinate(0, 1)
        ref = 0.5 * quad(lambda x: x * x * bump_1d(x, 0.0, 1.0), -1, 1,
                         epsabs=1e-14)[0]
        assert evaluate(F, phi, TIGHT) == pytest.approx(ref, rel=1e-7)

    def test_derivative_decoration(self):
        # int (phi')^2 f with phi = sin(x)
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional([MonomialTerm(2, ((1,), (1,)), f)])
        phi = FieldConfiguration.from_expression("sin(x1)", 1)
        ref = quad(lambda x: math.cos(x) ** 2 * bump_1d(x, 0.0, 1.0), -1, 1,
                   epsabs=1e-14)[0]
        assert evaluate(F, phi, TIGHT) == pytest.approx(ref, rel=1e-7)

    def test_dimension_mismatch(self):
        F = LocalFunctional.linear(TestFunction(2, (0.0, 0.0), 1.0))
        with pytest.raises(ValueError):
            evaluate(F, FieldConfiguration.zero(3))


class TestDerivativeKernel:
    def test_cubic_third_kernel_has_no_residue(self):
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        F = LocalFunctional.phi_power(3, f, Fraction(1, 6))
        K = derivative_kernel(F, 3)
        assert K.order == 3
        assert len(K.terms) == 1
        t = K.terms[0]
        assert t.prefactor == 1
        assert t.residual == ()
        assert t.arg_derivs == ((0, 0, 0),) * 3

    def test_beyond_degree_is_zero(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(3, f, Fraction(1, 6))
        assert derivative_kernel(F, 4).is_zero

    def test_linear_first_kernel(self):
        f = TestFunction(2, (0.0, 0.0), 1.0)
        K = derivative_kernel(LocalFunctional.linear(f), 1)
        assert len(K.terms) == 1
        assert K.terms[0].prefactor == 1
        assert K.terms[0].coefficient is f
        assert K.terms[0].residual == ()

    def test_residual_power_counts_down(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(5, f, Fraction(1, 120))
        K = derivative_kernel(F, 2)
        (t,) = K.terms
        assert len(t.residual) == 3
        assert t.prefactor == Fraction(20, 120)

    def test_pairing_matches_directional_derivative(self):
        f = TestFunction(1, (0.1,), 0.9, 1.4)
        F = LocalFunctional([
            MonomialTerm(2, ((0,), (1,)), f, Fraction(1, 2)),
            MonomialTerm(3, ((0,), (0,), (0,)), f, Fraction(-1, 3)),
        ])
        phi = FieldConfiguration.from_expression("cos(2*x1)", 1)
        psis = [FieldConfiguration.bump(1, (0.0,), 1.0),
                FieldConfiguration.from_expression("x1*exp(-x1**2)", 1)]
        K = derivative_kernel(F, 2)
        got = kernel_pair(K, phi, psis, TIGHT)

        h = 1e-4
        vals = {}
        for s1, s2 in itertools.product((1, -1), repeat=2):
            cfg = phi + (s1 * h) * psis[0] + (s2 * h) * psis[1]
            vals[s1, s2] = evaluate(F, cfg, TIGHT)
        fd = (vals[1, 1] - vals[1, -1] - vals[-1, 1] + vals[-1, -1]) / (4 * h * h)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-10)

    def test_permutation_symmetry_symbolic(self):
        """Canonical forms are invariant under argument relabelling for
        all n <= 4 on monomials up to degree 6."""
        f = TestFunction(2, (0.0, 0.0), 1.0)
        rng = np.random.default_rng(7)
        singles = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for degree in range(1, 7):
            derivs = tuple(singles[i] for i in
                           rng.integers(0, len(singles), size=degree))
            F = LocalFunctional([MonomialTerm(degree, derivs, f)])
            for n in range(1, min(degree, 4) + 1):
                K = derivative_kernel(F, n)
                for perm in itertools.permutations(range(n)):
                    assert K.permuted(perm) == K.canonical()

    def test_pairing_permutation_invariant(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional([MonomialTerm(3, ((0,), (0,), (1,)), f,
                                          Fraction(1, 3))])
        phi = FieldConfiguration.from_expression("x1**2", 1)
        psis = [FieldConfiguration.from_expression("sin(x1)", 1),
                FieldConfiguration.from_expression("exp(-x1**2)", 1),
                FieldConfiguration.constant(1, 1)]
        K = derivative_kernel(F, 3)
        base = kernel_pair(K, phi, psis, TIGHT)
        for perm in itertools.permutations(range(3)):
            shuffled = [psis[p] for p in perm]
            assert kernel_pair(K, phi, shuffled, TIGHT) == pytest.approx(
                base, rel=1e-10, abs=1e-12)


_FIELD_TEXTS = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2", "x3", "0.1", "0.5", "2.5"]),
              st.integers(0, 5).map(str)),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})/{}".format, inner, st.sampled_from(["3", "0.7"])),
        st.builds("({})**{}".format, inner, st.integers(0, 3)),
        st.builds("-({})".format, inner),
        st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]),
                  inner)),
    max_leaves=8)


class TestFieldExpression:
    """Background expressions are built from a whitelisted syntax tree,
    never evaluated as code."""

    @pytest.mark.parametrize("text, d", [
        ("0", 3), ("x1", 1), ("1 + 0.5*x1", 1), ("1 + 0.2*x1", 1),
        ("1 + 0.2*x1 - 0.1*x2 + 0.05*x1*x3", 3), ("sin(x1)", 1),
        ("cos(x1)", 1), ("cos(2*x1)", 1), ("x1*exp(-x1**2)", 1),
        ("exp(-x1**2)", 1), ("x1**2", 1), ("x1**2 - 1", 1),
        ("sin(x1)*cos(x2)", 2), ("0.912345 + -0.123456*x1", 3),
        ("-0.411931*x1 + 1.295321*sin(x2) + -0.0201", 2),
        ("0.9785 + -0.0633*x1", 3), ("x1**0.5", 1), ("1/3 - x1/2", 1),
        ("1.1455927773739436 + 0.14129167032734002*x1", 3),
    ])
    def test_same_tree_as_sympy_parser(self, text, d):
        # the expressions used across the tests, the CLI and the
        # benchmark configs: the tree gives the values and the first and
        # second partials of sympy's compiled code bit for bit, so
        # reports do not change.  sympy differentiates one axis at a
        # time here; a second-order ``sp.diff`` also factors its result,
        # which moves the second partials of exp(-x1**2) and
        # x1*exp(-x1**2) by up to 3 ulp
        phi = FieldConfiguration.from_expression(text, d)
        pts = np.random.default_rng(d).uniform(0.05, 2.0, size=(200, d))
        for alpha in itertools.product(range(3), repeat=d):
            if sum(alpha) <= 2:
                np.testing.assert_array_equal(
                    phi.diff(alpha)(pts), sympy_partial(text, d, alpha)(pts),
                    err_msg=str(alpha))

    @settings(max_examples=40)
    @given(_FIELD_TEXTS)
    def test_random_expressions_match_sympy(self, text):
        # random expressions of the grammar (quotients by numbers, powers
        # by small integers): values and partials within a few ulp of
        # their 40-digit values wherever sympy's compiled code is (where
        # it is not, the expression is too ill-conditioned to tell)
        try:
            phi = FieldConfiguration.from_expression(text, 3)
        except ValueError:  # a constant part overflows, as with sympy
            assume(False)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 3))
        for alpha in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)):
            exact = sympy_partial(text, 3, alpha, digits=40)(pts)
            ulp = np.finfo(float).eps * np.max(np.abs(exact))
            sympy_gap = np.abs(sympy_partial(text, 3, alpha)(pts) - exact)
            assume(np.max(sympy_gap) <= 4 * ulp)
            gap = np.max(np.abs(phi.diff(alpha)(pts) - exact))
            assert gap <= 16 * ulp, alpha

    def test_float_literal_keeps_every_digit(self):
        phi = FieldConfiguration.from_expression("1.1455927773739436*x1", 1)
        assert float(phi(np.array([[1.0]]))[0]) == 1.1455927773739436

    @pytest.mark.parametrize("text", [
        '__import__("os").getcwd()', "x1.real", "lambda: x1", "x1[0]",
        "log(x1)", "exp(x1, 2)", "x4", "y", "True", "'x1'", "x1^2", "1 +* x1",
    ])
    def test_outside_whitelist_rejected(self, text):
        with pytest.raises(ValueError):
            FieldConfiguration.from_expression(text, 3)


class TestSupport:
    def test_single_ball(self):
        F = LocalFunctional.linear(TestFunction(1, (0.0,), 1.0))
        assert support(F) == (((0.0,), 1.0),)

    def test_union_of_balls(self):
        F = LocalFunctional.linear(TestFunction(1, (0.0,), 1.0)) + \
            LocalFunctional.linear(TestFunction(1, (3.0,), 1.0))
        assert support(F) == (((0.0,), 1.0), ((3.0,), 1.0))

    def test_disjointness_metric(self):
        F = LocalFunctional.linear(TestFunction(1, (0.0,), 1.0))
        G_far = LocalFunctional.linear(TestFunction(1, (3.0,), 1.0))
        G_near = LocalFunctional.linear(TestFunction(1, (1.5,), 1.0))
        assert supports_disjoint(F, G_far)
        assert not supports_disjoint(F, G_near)

    def test_far_away_field_change_is_invisible(self):
        rng = np.random.default_rng(3)
        f = TestFunction(2, (0.0, 0.0), 1.0)
        F = LocalFunctional([MonomialTerm(2, ((0, 0), (1, 0)), f)])
        phi = FieldConfiguration.from_expression("sin(x1)*cos(x2)", 2)
        for _ in range(4):
            c = rng.uniform(2.2, 5.0, size=2)
            h = FieldConfiguration.bump(2, tuple(c), 1.0, rng.normal())
            a = evaluate(F, phi, TIGHT)
            b = evaluate(F, phi + h, TIGHT)
            assert b == pytest.approx(a, rel=1e-12, abs=0.0)


class TestSupportBall:
    """The declared support ball of a field configuration, through the
    operations that build the additivity check's combinations."""

    def test_disjoint_bumps_merge_to_smallest_ball(self):
        a = FieldConfiguration.bump(1, (-2.0,), 1.0)
        b = FieldConfiguration.bump(1, (2.0,), 0.5)
        center, radius = (a + b).support_ball
        # [-3, 2.5] is the smallest interval containing both
        assert center == pytest.approx((-0.25,))
        assert radius == pytest.approx(2.75)
        assert (a - b).support_ball == (a + b).support_ball

    def test_nested_bumps_give_outer_ball(self):
        inner = FieldConfiguration.bump(2, (0.3, 0.0), 0.5)
        outer = FieldConfiguration.bump(2, (0.0, 0.0), 2.0)
        assert (inner + outer).support_ball == ((0.0, 0.0), 2.0)
        assert (outer + inner).support_ball == ((0.0, 0.0), 2.0)

    def test_scalar_multiple_keeps_ball(self):
        a = FieldConfiguration.bump(2, (1.0, -1.0), 0.7, 2.0)
        assert (a * 3).support_ball == ((1.0, -1.0), 0.7)
        assert (-0.5 * a).support_ball == ((1.0, -1.0), 0.7)
        assert (-a).support_ball == ((1.0, -1.0), 0.7)

    def test_diff_keeps_ball(self):
        a = FieldConfiguration.bump(3, (0.0, 1.0, 2.0), 1.5)
        assert a.diff((1, 0, 1)).support_ball == ((0.0, 1.0, 2.0), 1.5)

    def test_sum_with_global_map_has_no_ball(self):
        a = FieldConfiguration.bump(1, (0.0,), 1.0)
        assert (a + FieldConfiguration.from_expression("x1", 1)).support_ball is None
        assert (a + FieldConfiguration.constant(1, 1)).support_ball is None
        assert (a + 1).support_ball is None

    def test_test_function_field_has_its_ball(self):
        f = TestFunction(2, (0.5, -1.0), 0.8, 1.7)
        phi = f.to_field()
        assert phi.support_ball == ((0.5, -1.0), 0.8)
        pts = np.array([[0.5, -1.0], [0.9, -0.7], [1.2, -1.0]])
        np.testing.assert_allclose(phi(pts), f(pts), rtol=1e-14)


class TestAdditivity:
    def test_merged_phi_far_from_chi_accepted(self):
        F = LocalFunctional.phi_power(3, TestFunction(1, (0.0,), 1.0))
        phi = (FieldConfiguration.bump(1, (-3.0,), 0.5)
               + FieldConfiguration.bump(1, (-2.0,), 0.5))
        psi = FieldConfiguration.bump(1, (0.0,), 2.0, 0.5)
        chi = FieldConfiguration.bump(1, (2.0,), 1.0, 1.1)
        assert additivity_check(F, phi, psi, chi) < 1e-14

    def test_merged_phi_reaching_chi_rejected(self):
        # each bump alone is disjoint from chi, their merged ball is not
        F = LocalFunctional.phi_power(3, TestFunction(1, (0.0,), 1.0))
        phi = (FieldConfiguration.bump(1, (-3.0,), 0.5)
               + FieldConfiguration.bump(1, (3.0,), 0.5))
        psi = FieldConfiguration.zero(1)
        chi = FieldConfiguration.bump(1, (0.0,), 1.0)
        with pytest.raises(PreconditionViolated):
            additivity_check(F, phi, psi, chi)

    def test_zero_chi_is_exact(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(2, f)
        phi = FieldConfiguration.bump(1, (-2.0,), 1.0)
        psi = FieldConfiguration.bump(1, (0.0,), 2.0, 0.5)
        chi = FieldConfiguration.zero(1)
        assert additivity_check(F, phi, psi, chi) == 0.0

    def test_linear_is_exact(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.linear(f)
        phi = FieldConfiguration.bump(1, (-2.0,), 1.0)
        psi = FieldConfiguration.bump(1, (0.5,), 1.5, -0.8)
        chi = FieldConfiguration.bump(1, (2.0,), 1.0, 1.1)
        assert additivity_check(F, phi, psi, chi) < 1e-14

    def test_overlap_rejected(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(2, f)
        phi = FieldConfiguration.bump(1, (-0.5,), 1.0)
        chi = FieldConfiguration.bump(1, (0.5,), 1.0)
        psi = FieldConfiguration.zero(1)
        with pytest.raises(PreconditionViolated):
            additivity_check(F, phi, psi, chi)

    def test_unbounded_support_rejected(self):
        f = TestFunction(1, (0.0,), 1.0)
        F = LocalFunctional.phi_power(2, f)
        phi = FieldConfiguration.constant(1, 1)
        chi = FieldConfiguration.bump(1, (3.0,), 1.0)
        with pytest.raises(PreconditionViolated):
            additivity_check(F, phi, FieldConfiguration.zero(1), chi)

    def test_fieldwise_sums_match_combined_expressions(self):
        # the four combined fields, each differentiated and compiled as
        # one expression, give the same signed residual
        f = TestFunction(2, (0.1, -0.2), 1.2, 1.3)
        F = LocalFunctional([MonomialTerm(3, ((0, 0), (1, 0), (0, 1)), f,
                                          Fraction(1, 3)),
                             MonomialTerm(2, ((0, 0), (0, 0)), f)])
        phi = FieldConfiguration.bump(2, (-3.0, 0.0), 0.9, 0.7)
        chi = FieldConfiguration.bump(2, (3.0, 0.0), 1.1, -1.2)
        psi = (FieldConfiguration.bump(2, (0.2, 0.1), 2.5, 0.8)
               + FieldConfiguration.from_expression("0.3 + 0.2*x1*x2", 2))
        total = 0.0
        for term in F.terms:
            pts, wts = term.coefficient.rule(DEFAULT_SCHEME.gauss_n)
            acc = np.zeros(len(pts))
            for cfg, sign in ((phi + psi + chi, 1.0), (phi + psi, -1.0),
                              (psi, 1.0), (psi + chi, -1.0)):
                vals = np.ones(len(pts))
                for alpha in term.derivs:
                    vals = vals * np.asarray(cfg.diff(alpha)(pts))
                acc += sign * vals
            total += float(term.prefactor) * float(wts @ acc)
        assert abs(additivity_check(F, phi, psi, chi) - abs(total)) <= 1e-14

    def test_verify_compiles_few_expressions(self, monkeypatch):
        # the additivity fields are bumps and the background's
        # derivatives are numbers, so only the background is a tree to
        # evaluate (a tree is the compiled form of an expression)
        evaluated = set()
        call = expr.SmoothMap.__call__

        def recording(self, points):
            if not expr._is_num(self.expr):
                evaluated.add(repr(self.expr))
            return call(self, points)

        monkeypatch.setattr(expr.SmoothMap, "__call__", recording)
        for d in (1, 2, 3):
            evaluated.clear()
            report = run(parse_config(f"command=verify d={d} m=1 seed=3"))
            assert report.ok
            assert len(evaluated) == 1, (d, evaluated)

    def test_randomized_suite(self):
        """20 randomized (F, phi, psi, chi) with disjoint phi/chi."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for k in range(20):
            d = int(rng.integers(1, 3))
            zero = (0,) * d
            derivs_pool = [zero, tuple(np.eye(d, dtype=int)[0])]
            power = int(rng.integers(1, 4))
            derivs = tuple(derivs_pool[i] for i in
                           rng.integers(0, 2, size=power))
            f = TestFunction(d, tuple(rng.uniform(-0.5, 0.5, size=d)),
                             float(rng.uniform(0.8, 1.6)),
                             float(rng.uniform(0.5, 2.0)))
            F = LocalFunctional([MonomialTerm(power, derivs, f,
                                              Fraction(1, power))])
            gap = rng.uniform(2.5, 4.0)
            phi = FieldConfiguration.bump(
                d, (-gap,) + (0.0,) * (d - 1),
                float(rng.uniform(0.7, 1.2)), float(rng.normal()))
            chi = FieldConfiguration.bump(
                d, (gap,) + (0.0,) * (d - 1),
                float(rng.uniform(0.7, 1.2)), float(rng.normal()))
            psi = FieldConfiguration.bump(
                d, tuple(rng.uniform(-0.3, 0.3, size=d)),
                float(rng.uniform(1.5, 3.0)), float(rng.normal()))
            worst = max(worst, additivity_check(F, phi, psi, chi, TIGHT))
        assert worst <= 1e-5
