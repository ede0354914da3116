"""Scaling fits, extensions, recursion over loci, power counting.

The numeric scaling estimator is its own oracle against the analytic
degrees, and its pairings against QUADPACK; cutoff-change compensation
is checked against a raw QUADPACK quadrature; the classification table
against exhaustive bounded-degree multigraph enumeration written from
scratch here.
"""

import itertools
import math

import numpy as np
import pytest

from eucren.errors import (DomainError, IllConditionedFit, NotPrimitive,
                           OverlappingDivergence)
from eucren.functionals import TestFunction
from eucren.kernels import (CutoffFunction, DeltaKernel, ExtensionSpec,
                            PropFactor, ScalarDistribution)
from eucren.propagator import pair
from eucren.quadrature import QuadratureScheme
from eucren.renorm import (TheoryClassification, classify_theory,
                           counterterm_shift, degree_of_divergence, extend,
                           recursive_renormalize, scaling_degree_analytic,
                           scaling_degree_numeric)

from helpers import quadpack, quadpack_radial

M = 1.0


def single(power, d=3, m=M, extension=None):
    return ScalarDistribution.single_power(d, m, power, extension)


class TestAnalyticDegrees:
    def test_propagator_powers(self):
        assert scaling_degree_analytic(single(1)).value == 1
        assert scaling_degree_analytic(single(2)).value == 2
        assert scaling_degree_analytic(single(3)).value == 3
        assert scaling_degree_analytic(single(2, d=4)).value == 4

    def test_log_flag_in_two_dimensions(self):
        sd = scaling_degree_analytic(single(2, d=2))
        assert sd.value == 0
        assert sd.log_flag

    def test_point_mass(self):
        assert scaling_degree_analytic(DeltaKernel(3)).value == 3
        assert scaling_degree_analytic(DeltaKernel(4)).value == 4
        assert scaling_degree_analytic(
            DeltaKernel(3, deriv=(1, 1, 0))).value == 5
        assert not scaling_degree_analytic(DeltaKernel(3)).log_flag

    def test_decorations_raise_the_degree(self):
        t = ScalarDistribution(2, 3, M, (PropFactor(
            0, 1, 1, left_deriv=(1, 0, 0)),))
        assert scaling_degree_analytic(t).value == 2

    def test_divergence_degree(self):
        assert degree_of_divergence(single(2)) == -1
        assert degree_of_divergence(single(3)) == 0
        assert degree_of_divergence(single(2, d=4)) == 0
        triangle = ScalarDistribution(3, 3, M, (
            PropFactor(0, 1, 3), PropFactor(0, 2, 2), PropFactor(1, 2, 1)))
        assert degree_of_divergence(triangle) == 0


class TestNumericDegrees:
    def setup_method(self):
        self.phi = TestFunction(d=3, center=(0.0, 0.0, 0.0), radius=1.0)

    def test_single_power_slope(self):
        report = scaling_degree_numeric(single(1), self.phi)
        assert abs(report.estimate - 1.0) < 0.1
        assert report.analytic.value == 1
        assert len(report.points) == 8
        assert len(report.lambdas) == 6

    def test_square_slope(self):
        report = scaling_degree_numeric(single(2), self.phi)
        assert abs(report.estimate - 2.0) < 0.1

    def test_bounded_kernel_is_flat(self):
        report = scaling_degree_numeric(lambda r: np.exp(-r * r), self.phi)
        assert report.estimate < 0.1
        assert report.analytic is None

    def test_callable_pairings_match_quadpack(self):
        # a kernel singular at the origin against an off-centre test
        kernel = lambda r: np.exp(-r) / r
        phi = TestFunction(d=3, center=(1.5, 0.0, 0.0), radius=1.0)
        report = scaling_degree_numeric(kernel, phi)
        for lam, value in report.points:
            f = phi.scaled(lam)
            ref = quadpack_radial(kernel, f.gu(), f.radius,
                                  np.linalg.norm(f.center), 3)[0]
            assert value == pytest.approx(ref, rel=1e-10, abs=0.0), lam

    def test_extended_cube_keeps_its_degree(self):
        ext = extend(single(3), ExtensionSpec.default(3))
        report = scaling_degree_numeric(ext, self.phi)
        assert abs(report.estimate - 3.0) < 0.15

    def test_agreement_across_dimensions_masses_and_powers(self):
        # bare sweeps stay off the singular locus; the deeper sequence
        # outruns the exponential decay of the heavier masses
        lams = tuple(2.0 ** -k for k in range(5, 16))
        for d in (3, 4):
            probe = TestFunction(d=d, center=(1.5,) + (0.0,) * (d - 1),
                                 radius=1.0)
            for j in (1, 2, 3):
                for m in (0.5, 1.0, 2.0):
                    report = scaling_degree_numeric(single(j, d=d, m=m),
                                                    probe, lambdas=lams)
                    assert abs(report.estimate - j * (d - 2)) < 0.1, \
                        (d, j, m, report.estimate)

    def test_residual_threshold_enforced(self):
        with pytest.raises(IllConditionedFit):
            scaling_degree_numeric(single(1), self.phi, residual_tol=1e-12)

    def test_vanishing_pairing_rejected(self):
        with pytest.raises(IllConditionedFit):
            scaling_degree_numeric(lambda r: 0.0 * np.asarray(r), self.phi)

    def test_multi_point_kernel_rejected(self):
        triangle = ScalarDistribution(3, 3, M, (
            PropFactor(0, 1, 1), PropFactor(0, 2, 1), PropFactor(1, 2, 1)))
        with pytest.raises(DomainError):
            scaling_degree_numeric(triangle, self.phi)


class TestExtend:
    def setup_method(self):
        self.f = TestFunction(d=3, center=(0.0, 0.0, 0.0), radius=1.0)
        self.g = TestFunction(d=3, center=(0.6, 0.0, 0.0), radius=0.8,
                              amplitude=1.3)

    def test_below_threshold_returns_input(self):
        t = single(2)
        assert extend(t, ExtensionSpec.default(3)) is t

    def test_below_threshold_warns_on_counterterms(self):
        spec = ExtensionSpec.default(3).with_counterterms({(0, 0, 0): 2.0})
        with pytest.warns(UserWarning):
            extend(single(2), spec)

    def test_at_threshold_attaches_spec(self):
        spec = ExtensionSpec.default(3)
        t = extend(single(3), spec)
        assert t.factors[0].renormalized
        assert t.factors[0].extension is spec

    def test_counterterm_difference_is_exact(self):
        base = ExtensionSpec.default(3)
        tests = (self.f, self.g)
        p0 = pair(extend(single(3), base), tests)
        p1 = pair(extend(single(3), base.with_counterterms(
            {(0, 0, 0): 1.0})), tests)
        p7 = pair(extend(single(3), base.with_counterterms(
            {(0, 0, 0): 0.7})), tests)
        np.testing.assert_allclose(p7 - p0, 0.7 * (p1 - p0), rtol=1e-12)

    def test_extension_matches_bare_off_the_locus(self):
        far = TestFunction(d=3, center=(2.4, 0.0, 0.0), radius=1.0)
        bare = pair(single(3), (self.f, far))
        ext = pair(extend(single(3), ExtensionSpec.default(3)),
                   (self.f, far))
        np.testing.assert_allclose(ext, bare, rtol=1e-6)

    def test_double_extension_rejected(self):
        t = extend(single(3), ExtensionSpec.default(3))
        with pytest.raises(DomainError):
            extend(t, ExtensionSpec.default(3))

    def test_overall_before_pairs_rejected(self):
        triangle = ScalarDistribution(3, 3, M, (
            PropFactor(0, 1, 3), PropFactor(0, 2, 2), PropFactor(1, 2, 1)))
        with pytest.raises(NotPrimitive):
            extend(triangle, ExtensionSpec.default(3))

    def test_finite_overall_locus_returns_input(self):
        # bare triangle of single powers: every locus converges
        triangle = ScalarDistribution(3, 3, M, (
            PropFactor(0, 1, 1), PropFactor(0, 2, 1), PropFactor(1, 2, 1)))
        assert extend(triangle, ExtensionSpec.default(3)) is triangle


class TestCutoffShift:
    def test_matches_raw_quadrature(self):
        self.check(0.6, 1.0)

    def test_swapped_radii_match_raw_quadrature(self):
        self.check(1.0, 0.6)

    @staticmethod
    def check(r_old, r_new):
        old = CutoffFunction(3, radius=r_old)
        new = CutoffFunction(3, radius=r_new)
        shift = counterterm_shift(single(3), old, new)

        def p3(r):
            return (np.exp(-M * r) / (4.0 * np.pi * r)) ** 3

        oracle = quadpack(
            lambda r: 4.0 * np.pi * r * r * p3(r)
            * float(new.profile(r) - old.profile(r)), 0.0, max(r_old, r_new),
            points=(old.plateau_radius, new.plateau_radius, r_old, r_new))
        np.testing.assert_allclose(shift, oracle, rtol=1e-12)

    def test_requires_degree_zero(self):
        old = CutoffFunction(3, radius=0.6)
        new = CutoffFunction(3, radius=1.0)
        with pytest.raises(DomainError):
            counterterm_shift(single(2), old, new)


class TestRecursiveRenormalize:
    def setup_method(self):
        self.triangle = ScalarDistribution(3, 3, M, (
            PropFactor(0, 1, 3), PropFactor(0, 2, 2), PropFactor(1, 2, 1)))

    def test_worked_example_structure(self):
        spec_p = ExtensionSpec(CutoffFunction(3, radius=0.6))
        spec_o = ExtensionSpec(CutoffFunction(3, radius=0.8))
        out = recursive_renormalize(self.triangle,
                                    {(0, 1): spec_p, "overall": spec_o})
        by_pair = {(f.i, f.j): f for f in out.factors}
        assert by_pair[(0, 1)].renormalized
        assert by_pair[(0, 1)].extension is spec_p
        assert not by_pair[(0, 2)].renormalized
        assert not by_pair[(1, 2)].renormalized
        assert out.overall is spec_o

    def test_worked_example_pairs_finitely(self):
        out = recursive_renormalize(self.triangle)
        f0 = TestFunction(d=3, center=(0.0, 0.0, 0.0), radius=1.0)
        f1 = TestFunction(d=3, center=(0.0, 0.0, 0.0), radius=0.9,
                          amplitude=1.1)
        f2 = TestFunction(d=3, center=(0.0, 0.0, 0.0), radius=1.2,
                          amplitude=0.8)
        value = pair(out, (f0, f1, f2), QuadratureScheme(gauss_n=12))
        assert math.isfinite(value)
        assert value != 0.0

    def test_single_edge_untouched(self):
        t = single(1)
        assert recursive_renormalize(t) is t

    def test_factorized_pairs_in_four_dimensions(self):
        t = ScalarDistribution(4, 4, M, (PropFactor(0, 1, 2),
                                         PropFactor(2, 3, 2)))
        out = recursive_renormalize(t)
        assert all(f.renormalized for f in out.factors)
        assert out.overall is None

        tests = tuple(
            TestFunction(d=4, center=c, radius=0.8) for c in
            ((0.0, 0.0, 0.0, 0.0), (0.7, 0.0, 0.0, 0.0),
             (5.0, 0.0, 0.0, 0.0), (5.0, 0.7, 0.0, 0.0)))
        whole = pair(out, tests)
        left = pair(out.relabelled((0, 1)), tests[:2])
        right = pair(out.relabelled((2, 3)), tests[2:])
        np.testing.assert_allclose(whole, left * right, rtol=1e-12)

    def test_overlapping_loci_rejected(self):
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 3),
                                         PropFactor(1, 2, 3)))
        with pytest.raises(OverlappingDivergence):
            recursive_renormalize(t)

    def test_disjoint_divergent_loci_allowed(self):
        t = ScalarDistribution(4, 3, M, (PropFactor(0, 1, 3),
                                         PropFactor(2, 3, 3)))
        out = recursive_renormalize(t)
        assert all(f.renormalized for f in out.factors)


def brute_rho_max(d: int, k: int, n: int) -> int:
    """Worst degree over tadpole-free multigraphs with valence <= k,
    enumerated by recursive multiplicity assignment."""
    pairs = list(itertools.combinations(range(n), 2))
    degrees = [0] * n
    best = [-(10 ** 9)]

    def rec(idx, edges):
        if idx == len(pairs):
            best[0] = max(best[0], (d - 2) * edges - d * (n - 1))
            return
        a, b = pairs[idx]
        cap = min(k - degrees[a], k - degrees[b])
        for mult in range(cap + 1):
            degrees[a] += mult
            degrees[b] += mult
            rec(idx + 1, edges + mult)
            degrees[a] -= mult
            degrees[b] -= mult

    rec(0, 0)
    return best[0]


class TestClassification:
    def test_phi_four_in_four_dimensions(self):
        result = classify_theory(4, 4, 8)
        assert result.classification == "renormalizable"
        assert all(rho == 4 for _, rho in result.table)

    def test_phi_four_in_three_dimensions(self):
        result = classify_theory(3, 4, 8)
        assert result.classification == "superrenormalizable"
        assert dict(result.table) == {n: 3 - n for n in range(2, 9)}

    def test_phi_six_in_four_dimensions(self):
        result = classify_theory(4, 6, 8)
        assert result.classification == "unrenormalizable"
        assert dict(result.table) == {n: 2 * n + 4 for n in range(2, 9)}

    def test_table_matches_exhaustive_enumeration(self):
        for d, k, n_cap in ((4, 4, 5), (3, 4, 5), (4, 6, 4)):
            result = classify_theory(d, k, n_cap)
            for n in range(2, n_cap + 1):
                assert result.rho_max(n) == brute_rho_max(d, k, n), (d, k, n)

    def test_odd_interaction_power(self):
        result = classify_theory(3, 3, 5)
        for n in range(2, 6):
            assert result.rho_max(n) == brute_rho_max(3, 3, n)

    def test_argument_gates(self):
        with pytest.raises(DomainError):
            classify_theory(2, 4, 8)
        with pytest.raises(DomainError):
            classify_theory(4, 1, 8)
        with pytest.raises(DomainError):
            classify_theory(4, 4, 1)
        with pytest.raises(DomainError):
            classify_theory(4, 4, 5).rho_max(7)
