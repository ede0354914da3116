"""Pairings of propagator-power kernels against bump test functions.

Every numeric route is validated against an estimator that shares no
code with the package: plain or importance-sampled Monte Carlo over
balls, or a raw scipy quadrature for the radial cutoff identities.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from eucren.errors import (
    DomainError,
    NonIntegrableSingularity,
    QuadratureFailure,
    UnsupportedCase,
    exit_code_for,
)
from eucren.functionals import TestFunction
from eucren.kernels import CutoffFunction, ExtensionSpec, PropFactor, ScalarDistribution
from eucren import propagator, triple
from eucren.propagator import Propagator, pair, pair_extension, spline_view
from eucren.quadrature import (
    DEFAULT_SCHEME,
    PROFILE_SAMPLES,
    QuadratureScheme,
    correlation_profile,
    radial_pair,
)
from eucren.triple import analytic_field, grid_field, pair_three, triple_pairing

from helpers import (fresh_run, mc_ball, mc_pair, mc_pair_radial, mc_triple,
                     quadpack_radial)

M = 1.0


def single(power, extension=None, **deco):
    return ScalarDistribution(2, 3, M, (PropFactor(0, 1, power, extension=extension, **deco),))


class TestTwoPoint:
    f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    g_far = TestFunction(3, (2.5, 0.0, 0.0), 1.0, amplitude=0.7)
    g_near = TestFunction(3, (0.6, 0.0, 0.0), 0.8, amplitude=1.3)

    def test_disjoint_propagator_vs_mc(self):
        val = pair(single(1), (self.f, self.g_far))
        ref, err = mc_pair(Propagator(3, M), 3, self.f.center, 1.0, self.f,
                           self.g_far.center, 1.0, self.g_far, seed=1)
        assert abs(val - ref) < max(4.0 * err, 1e-2 * abs(ref))

    def test_radial_and_tensor_routes_agree(self):
        t = single(1)
        v_rad = pair(t, (self.f, self.g_far))
        v_ten = pair(t, (self.f, self.g_far), method="tensor")
        np.testing.assert_allclose(v_ten, v_rad, rtol=2e-5)

    def test_overlapping_square_vs_importance_mc(self):
        # P^2 is integrable in d = 3; plain MC has unbounded variance
        val = pair(single(2), (self.f, self.g_near))
        ref, err = mc_pair_radial(
            Propagator(3, M).power_callable(2), 3, self.f.center, 1.0,
            self.f, self.g_near.center, 0.8, self.g_near, n=800_000, seed=2)
        assert abs(val - ref) < max(4.0 * err, 1e-2 * abs(ref))

    def test_overlapping_cube_rejected(self):
        with pytest.raises(NonIntegrableSingularity):
            pair(single(3), (self.f, self.g_near))

    def test_touching_cube_pairs(self):
        # B(0, 1) and B((1.8, 0, 0), 0.8) touch at one point: the open
        # interiors do not overlap, so the integrability gate lets the
        # bare P^3 through, and both routes give the same value
        touching = TestFunction(3, (1.8, 0.0, 0.0), 0.8)
        v_rad = pair(single(3), (self.f, touching))
        v_ten = pair(single(3), (self.f, touching), method="tensor")
        assert v_rad > 0
        np.testing.assert_allclose(v_ten, v_rad, rtol=1e-4)

    def test_disjoint_cube_vs_mc(self):
        val = pair(single(3), (self.f, self.g_far))
        ref, err = mc_pair(Propagator(3, M).power_callable(3), 3,
                           self.f.center, 1.0, self.f,
                           self.g_far.center, 1.0, self.g_far, seed=3)
        assert abs(val - ref) < max(4.0 * err, 1e-2 * abs(ref))

    def test_amplitude_homogeneity(self):
        base = pair(single(2), (self.f, self.g_near))
        scaled = pair(single(2), (TestFunction(3, self.f.center, 1.0, amplitude=3.0),
                                  self.g_near))
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_decorated_kernel_moves_derivatives_onto_tests(self):
        # <d_x^a d_y^b P, f x g> = <P, (-1)^|a| d^a f x (-1)^|b| d^b g>
        t = single(1, left_deriv=(1, 0, 0), right_deriv=(0, 1, 0))
        val = pair(t, (self.f, self.g_far))
        # the two signs (-1)^|a| (-1)^|b| cancel here
        df = self.f.to_field().diff((1, 0, 0))
        dg = self.g_far.to_field().diff((0, 1, 0))
        ref, err = mc_pair(Propagator(3, M), 3, self.f.center, 1.0, df,
                           self.g_far.center, 1.0, dg, n=800_000, seed=4)
        assert abs(val - ref) < max(4.0 * err, 2e-2 * abs(ref))

    def test_renormalized_cube_cutoff_change_identity(self):
        # moving the cutoff radius is exactly compensated by shifting
        # the order-0 counterterm with <P^3, w' - w>
        p3 = Propagator(3, M).power_callable(3)
        w_old = CutoffFunction(3, radius=0.6)
        w_new = CutoffFunction(3, radius=1.0)
        shift = 4.0 * np.pi * quad(
            lambda r: r * r * float(p3(np.float64(r)))
            * (float(w_new.profile(r)) - float(w_old.profile(r))),
            0.0, 1.0, limit=200)[0]
        t_old = single(3, extension=ExtensionSpec(w_old))
        t_new = single(3, extension=ExtensionSpec(w_new).with_counterterms(
            {(0, 0, 0): shift}))
        v_old = pair(t_old, (self.f, self.g_near))
        v_new = pair(t_new, (self.f, self.g_near))
        np.testing.assert_allclose(v_new, v_old, rtol=1e-6, atol=1e-10)

    def test_counterterm_adds_delta_pairing(self):
        # c delta(z) contributes c int f(x) g(x) dx in relative coords
        spec = ExtensionSpec(CutoffFunction(3, radius=0.6))
        base = pair(single(3, extension=spec), (self.f, self.g_near))
        bumped = pair(single(3, extension=spec.with_counterterms(
            {(0, 0, 0): 2.0})), (self.f, self.g_near))
        ref, err = mc_ball(
            lambda x: np.asarray(self.f(x)) * np.asarray(self.g_near(x)),
            3, self.g_near.center, 0.8, seed=5)
        assert abs((bumped - base) - 2.0 * ref) < max(4.0 * err, 1e-6)

    def test_mismatched_test_count_rejected(self):
        with pytest.raises(DomainError):
            pair(single(1), (self.f,))


class TestThreePoint:
    f0 = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    f1 = TestFunction(3, (0.0, 0.0, 0.0), 0.9, amplitude=1.1)
    f2 = TestFunction(3, (0.0, 0.0, 0.0), 1.2, amplitude=0.8)

    def path(self, p01, p12):
        return ScalarDistribution(
            3, 3, M, (PropFactor(0, 1, p01), PropFactor(1, 2, p12)))

    def test_path_vs_mc(self):
        a = TestFunction(3, (-2.0, 0.0, 0.0), 0.8)
        piv = TestFunction(3, (0.0, 0.0, 0.0), 1.0, amplitude=1.2)
        b = TestFunction(3, (2.2, 0.0, 0.0), 0.9)
        val = pair(self.path(1, 1), (a, piv, b))
        prop = Propagator(3, M)
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))
        ref, err = mc_triple(prop, one, prop, 3, (a, piv, b),
                             n=1_500_000, seed=1)
        assert abs(val - ref) < max(4.0 * err, 1e-2 * abs(ref))

    def test_path_with_square_leg_vs_mc(self):
        a = TestFunction(3, (-2.2, 0.0, 0.0), 1.0)
        piv = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        b = TestFunction(3, (2.2, 0.0, 0.0), 1.0, amplitude=0.9)
        val = pair(self.path(2, 1), (a, piv, b))
        prop = Propagator(3, M)
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))
        ref, err = mc_triple(prop.power_callable(2), one, prop, 3,
                             (a, piv, b), n=1_500_000, seed=2)
        assert abs(val - ref) < max(4.0 * err, 1e-2 * abs(ref))

    def test_path_pivot_on_the_bump_rule(self):
        # the pivot is integrated on its bump rule: at gauss_n 12, the
        # command line's default, the path is within 5e-6 of gauss_n 48
        a = TestFunction(3, (-2.2, 0.0, 0.0), 0.9)
        piv = TestFunction(3, (0.0, 0.0, 0.0), 1.0, amplitude=1.2)
        b = TestFunction(3, (0.8, 0.3, 0.0), 0.8)
        t = self.path(2, 1)
        got = triple._pair_path(t, (a, piv, b), QuadratureScheme(gauss_n=12))
        ref = triple._pair_path(t, (a, piv, b), QuadratureScheme(gauss_n=48))
        assert got == pytest.approx(ref, rel=5e-6, abs=0.0)

    def test_concentric_triangle_vs_mc(self):
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 1),
                                         PropFactor(0, 2, 1),
                                         PropFactor(1, 2, 1)))
        val = pair_three(t, (self.f0, self.f1, self.f2))
        prop = Propagator(3, M)
        ref, err = mc_triple(prop, prop, prop, 3, (self.f0, self.f1, self.f2),
                             n=2_000_000, seed=3)
        assert abs(val - ref) < max(4.0 * err, 2e-2 * abs(ref))

    def test_triangle_pivot_choice_is_internal(self):
        # calling the reduction directly with a different vertex order
        # must reproduce the dispatched value
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 1),
                                         PropFactor(0, 2, 1),
                                         PropFactor(1, 2, 1)))
        val = pair_three(t, (self.f0, self.f1, self.f2))
        field = grid_field(self.f0, self.f1, self.f2)
        direct = triple_pairing(M, (1, 1, 1), None, None, field)
        np.testing.assert_allclose(direct, val, rtol=5e-5)

    def test_bare_divergent_joint_locus_rejected(self):
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 2),
                                         PropFactor(0, 2, 2),
                                         PropFactor(1, 2, 2)))
        with pytest.raises(NonIntegrableSingularity):
            pair_three(t, (self.f0, self.f1, self.f2))

    def test_renormalized_triangle_needs_overall_extension(self):
        spec = ExtensionSpec(CutoffFunction(3, radius=0.6))
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 3, extension=spec),
                                         PropFactor(0, 2, 2),
                                         PropFactor(1, 2, 1)))
        with pytest.raises(UnsupportedCase):
            pair_three(t, (self.f0, self.f1, self.f2))

    def worked_example(self, wrad, c_p, Wrad, c_o):
        spec_pair = ExtensionSpec(CutoffFunction(3, radius=wrad)).with_counterterms(
            {(0, 0, 0): c_p})
        spec_over = ExtensionSpec(CutoffFunction(3, radius=Wrad)).with_counterterms(
            {(0, 0, 0): c_o})
        t = ScalarDistribution(
            3, 3, M,
            (PropFactor(0, 1, 3, extension=spec_pair),
             PropFactor(0, 2, 2),
             PropFactor(1, 2, 1)),
            overall=spec_over)
        return pair_three(t, (self.f0, self.f1, self.f2))

    def test_overall_extension_pair_cutoff_stability(self):
        p3 = Propagator(3, M).power_callable(3)
        w_old = CutoffFunction(3, radius=0.6)
        w_new = CutoffFunction(3, radius=1.0)
        shift = 4.0 * np.pi * quad(
            lambda r: r * r * float(p3(np.float64(r)))
            * (float(w_new.profile(r)) - float(w_old.profile(r))),
            0.0, 1.0, limit=200)[0]
        v_old = self.worked_example(0.6, 0.0, 0.8, 0.0)
        v_new = self.worked_example(1.0, shift, 0.8, 0.0)
        np.testing.assert_allclose(v_new, v_old, rtol=0, atol=1e-3 * abs(v_old))

    def test_overall_extension_overall_cutoff_stability(self):
        W_old = CutoffFunction(3, radius=0.8)
        W_new = CutoffFunction(3, radius=1.1)
        dV = lambda r: (np.asarray(W_new.profile(r), dtype=float)
                        - np.asarray(W_old.profile(r), dtype=float))
        spec_pair = ExtensionSpec(CutoffFunction(3, radius=0.6))
        shift = triple_pairing(M, (3, 2, 1), spec_pair, None,
                               analytic_field(dV, 1.1, 1.1))
        v_old = self.worked_example(0.6, 0.0, 0.8, 0.0)
        v_new = self.worked_example(0.6, 0.0, 1.1, shift)
        np.testing.assert_allclose(v_new, v_old, rtol=0, atol=1e-3 * abs(v_old))

    def test_triangle_s_kernel_power_cap(self):
        field = grid_field(self.f0, self.f1, self.f2)
        with pytest.raises(UnsupportedCase):
            triple_pairing(M, (1, 1, 2), None, None, field)

    def test_offset_triangle_unsupported(self):
        shifted = TestFunction(3, (0.3, 0.0, 0.0), 0.9)
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 1),
                                         PropFactor(0, 2, 1),
                                         PropFactor(1, 2, 1)))
        with pytest.raises(UnsupportedCase):
            pair_three(t, (self.f0, shifted, self.f2))


class TestComposite:
    def test_disconnected_kernel_factorizes(self):
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        g = TestFunction(3, (2.5, 0.0, 0.0), 1.0)
        h = TestFunction(3, (9.0, 0.0, 0.0), 1.1, amplitude=2.0)
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 1),))
        val = pair(t, (f, g, h))
        edge = pair(ScalarDistribution(2, 3, M, (PropFactor(0, 1, 1),)), (f, g))
        np.testing.assert_allclose(val, edge * h.integral(), rtol=1e-9)

    def test_two_disjoint_edges_factorize(self):
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        g = TestFunction(3, (2.5, 0.0, 0.0), 1.0)
        h = TestFunction(3, (9.0, 0.0, 0.0), 1.0)
        k = TestFunction(3, (12.0, 0.0, 0.0), 1.0, amplitude=0.5)
        t = ScalarDistribution(4, 3, M, (PropFactor(0, 1, 1), PropFactor(2, 3, 2)))
        val = pair(t, (f, g, h, k))
        e1 = pair(single(1), (f, g))
        e2 = pair(single(2), (h, k))
        np.testing.assert_allclose(val, e1 * e2, rtol=1e-9)

    def test_connected_four_point_rejected(self):
        tests = tuple(TestFunction(3, (2.5 * i, 0.0, 0.0), 1.0) for i in range(4))
        t = ScalarDistribution(4, 3, M, (PropFactor(0, 1, 1),
                                         PropFactor(1, 2, 1),
                                         PropFactor(2, 3, 1)))
        with pytest.raises(UnsupportedCase):
            pair(t, tests)


class TestSchemeCaches:
    """Cached profiles are reused only under the scheme that built them:
    a coarse call must not leak into a later default-scheme call."""

    coarse = QuadratureScheme(rtol=1e-2)

    def check(self, cache, t, tests):
        cache.cache_clear()
        first = pair(t, tests, self.coarse)
        warm = pair(t, tests, DEFAULT_SCHEME)
        cache.cache_clear()
        cold = pair(t, tests, DEFAULT_SCHEME)
        assert warm == cold
        assert warm != first

    def test_correlation_profile(self):
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        g = TestFunction(3, (0.6, 0.0, 0.0), 0.9)
        self.check(propagator._correlation, single(1), (f, g))

    def test_path_leg_profile(self):
        a = TestFunction(3, (-2.2, 0.0, 0.0), 1.0)
        piv = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        b = TestFunction(3, (0.8, 0.3, 0.0), 0.8)
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 2), PropFactor(1, 2, 1)))
        self.check(triple._leg_profile, t, (a, piv, b))

    def test_grid_field(self):
        tests = tuple(TestFunction(3, (0.0, 0.0, 0.0), r) for r in (1.0, 0.9, 0.8))
        r1, s = np.linspace(0.05, 1.7, 9), np.full(9, 0.4)
        grid_field.cache_clear()
        first = grid_field(*tests, QuadratureScheme(grid_nodes=24))
        warm = grid_field(*tests, DEFAULT_SCHEME)
        grid_field.cache_clear()
        cold = grid_field(*tests, DEFAULT_SCHEME)
        assert warm.phi00 == cold.phi00
        np.testing.assert_array_equal(warm.phi_tilde(r1, 0.6, s),
                                      cold.phi_tilde(r1, 0.6, s))
        assert not np.array_equal(warm.phi_tilde(r1, 0.6, s),
                                  first.phi_tilde(r1, 0.6, s))


class TestPanelRoute:
    """The composite-panel radial route against a QUADPACK loop, one
    adaptive call per offset (``helpers.quadpack_radial``), to 1e-8 of
    the largest value."""

    RTOL = 1e-8

    def check(self, got, ref):
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(np.asarray(got) - ref)) <= self.RTOL * scale

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_correlation_profile(self, d):
        # d = 4 takes the sin^(d-2) branch of the polar average
        f = TestFunction(d, (0.0,) * d, 1.0, 1.1)
        g = TestFunction(d, (0.7,) + (0.0,) * (d - 1), 0.9, 0.9)
        prof = correlation_profile(f.gu(), 1.0, g.gu(), 0.9, d)
        # the profile's own samples, which the spline reproduces
        s = np.linspace(0.0, 1.9, PROFILE_SAMPLES)[::15]
        fu = f.gu()
        ref = quadpack_radial(lambda rho: fu(rho * rho), g.gu(), 0.9, s, d,
                              kernel_window=1.0)
        self.check(prof(s), ref)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_profile_without_origin_cuts(self, d):
        # the kernel of a correlation profile is a smooth bump, so its
        # profile leaves out the cuts toward rho = 0; every other panel
        # keeps the tolerance it had with them, so the values stay
        # within 1e-10 of the maximum of the route with the cuts
        f = TestFunction(d, (0.0,) * d, 1.0, 1.1)
        g = TestFunction(d, (0.0,) * d, 0.8, 1.2)
        s = np.linspace(0.0, 1.8, PROFILE_SAMPLES)
        fu = f.gu()
        cut = radial_pair(lambda rho: fu(rho * rho), g.gu(), 0.8, s, d,
                          kernel_window=1.0)
        prof = correlation_profile(fu, 1.0, g.gu(), 0.8, d)
        assert np.max(np.abs(prof(s) - cut)) <= 1e-10 * np.max(np.abs(cut))

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("leg_center,lo,hi", [
        ((0.8, 0.3, 0.0), 0.0, 1.85),     # overlapping the pivot
        ((-2.2, 0.0, 0.0), 1.2, 3.2),     # disjoint from it
    ])
    def test_leg_profile(self, power, leg_center, lo, hi):
        leg = TestFunction(3, leg_center, 0.8, 0.95)
        prof = triple._leg_profile(3, M, power, None, leg, lo, hi,
                                   DEFAULT_SCHEME)
        rho = np.linspace(lo, hi, max(160, PROFILE_SAMPLES // 2))[::12]
        ref = quadpack_radial(Propagator(3, M).power_callable(power),
                              leg.gu(), 0.8, rho, 3)
        self.check(prof(rho), ref)

    def test_subtracted_cube(self):
        f = TestFunction(3, (0.5, 0.3, 0.0), 0.8, 0.82)
        w = CutoffFunction(3, radius=1.0)
        t = single(3, extension=ExtensionSpec(w))
        got = pair_extension(t, f, DEFAULT_SCHEME)
        ref = quadpack_radial(Propagator(3, M).power_callable(3), f.gu(),
                              0.8, np.linalg.norm(f.center), 3, cutoff=w,
                              value_at_origin=float(f(np.zeros(3))))
        self.check([got], ref)

    def test_bare_cube_d2_on_a_spline(self):
        f = TestFunction(2, (0.0, 0.0), 1.0, 0.93)
        g = TestFunction(2, (0.7, 0.0), 0.9, 1.14)
        prof = correlation_profile(f.gu(), 1.0, g.gu(), 0.9, 2)
        t = ScalarDistribution(2, 2, M, (PropFactor(0, 1, 3),))
        got = pair_extension(t, spline_view(prof, 0.7), DEFAULT_SCHEME)
        ref = quadpack_radial(Propagator(2, M).power_callable(3),
                              prof.profile_u(), prof.support_radius, 0.7, 2)
        self.check([got], ref)

    def test_profiles_make_no_quadpack_call(self):
        # QUADPACK is never loaded while the profiles are computed
        code = (
            "import sys\n"
            "from eucren import quadrature, triple\n"
            "from eucren.functionals import TestFunction\n"
            "f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)\n"
            "g = TestFunction(3, (0.6, 0.0, 0.0), 0.9)\n"
            "quadrature.correlation_profile(f.gu(), 1.0, g.gu(), 0.9, 3)\n"
            "triple._leg_profile(3, 1.0, 2, None, g, 0.0, 1.5,\n"
            "                    quadrature.DEFAULT_SCHEME)\n"
            "print('scipy.integrate' in sys.modules)\n")
        assert fresh_run(code).strip() == "False"

    def test_refinement_cap_raises(self):
        # no two levels agree to 1e-300 of the values
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        g = TestFunction(3, (0.6, 0.0, 0.0), 0.9)
        with pytest.raises(QuadratureFailure) as info:
            correlation_profile(f.gu(), 1.0, g.gu(), 0.9, 3,
                                QuadratureScheme(rtol=1e-300, atol=1e-300))
        assert exit_code_for(info.value) == 5
