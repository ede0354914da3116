"""Pairings of propagator-power kernels against bump test functions.

Every numeric route is validated against an estimator that shares no
code with the package: plain or importance-sampled Monte Carlo over
balls, or a raw scipy quadrature for the radial cutoff identities.
"""

import contextlib
import functools
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
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
from eucren import propagator, quadrature, triple
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

    def test_path_polar_rule_is_converged(self):
        # the path-d3 geometry of the benchmark: its leg profiles are
        # spherical means windowed at the leg's support, so the default
        # 96 polar nodes give the value at 1536 nodes to 1e-10
        a = TestFunction(3, (-2.2, 0.0, 0.0), 0.9)
        piv = TestFunction(3, (0.0, 0.0, 0.0), 1.0, amplitude=1.2)
        b = TestFunction(3, (0.8, 0.3, 0.0), 0.8)
        t = self.path(2, 1)
        got = triple._pair_path(t, (a, piv, b), QuadratureScheme(gauss_n=12))
        ref = triple._pair_path(t, (a, piv, b),
                                QuadratureScheme(gauss_n=12, angular_n=1536))
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

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
        np.testing.assert_allclose(direct, val, rtol=5e-5, atol=0)

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
        marks = (W_old.plateau_radius, W_old.radius,
                 W_new.plateau_radius, W_new.radius)
        shift = triple_pairing(M, (3, 2, 1), spec_pair, None,
                               analytic_field(dV, 1.1, 1.1, marks))
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


class TestTripleGrid:
    """The separable query of the Phi spline against the route it
    replaced, ``scipy.ndimage.map_coordinates`` on the same prefiltered
    coefficients, and the working memory of the grid."""

    tests = (TestFunction(3, (0.0, 0.0, 0.0), 1.0),
             TestFunction(3, (0.0, 0.0, 0.0), 0.9, amplitude=1.2),
             TestFunction(3, (0.0, 0.0, 0.0), 0.8, amplitude=0.8))
    R1, R2 = 1.9, 1.8

    @staticmethod
    def oracle(field, r1, r2, s):
        grid = inspect.getclosurevars(field.phi_tilde).nonlocals
        r1, s = np.broadcast_arrays(np.asarray(r1, dtype=float),
                                    np.asarray(s, dtype=float))
        rr = 2.0 * r1 * r2
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(rr < 1e-280, 0.0,
                          np.clip((r1 * r1 + r2 * r2 - s * s) / rr,
                                  -1.0, 1.0))
        coords = np.stack([(r1 - grid["r1g"][0]) / grid["h1"],
                           np.full(r1.shape, (r2 - grid["r2g"][0])
                                   / grid["h2"]),
                           np.arccos(mu) / grid["h_th"]])
        coeffs = grid["cpad"][2:-2, 2:-2, 2:-2]
        vals = scipy.ndimage.map_coordinates(coeffs, coords, order=3,
                                             prefilter=False, mode="mirror")
        return np.where((r1 < field.r1max) & (r2 < field.r2max), vals, 0.0)

    def test_matches_map_coordinates(self):
        field = grid_field(*self.tests)
        assert (field.r1max, field.r2max) == (self.R1, self.R2)
        rng = np.random.default_rng(7)
        # r = 0, r1 -> R1 and r2 -> R2 beside random nodes
        r1 = np.concatenate([[0.0, 1e-12, self.R1 - 1e-12],
                             rng.uniform(0.0, self.R1, 60)])[:, None]
        got, ref = [], []
        for r2 in [0.0, 1e-12, 0.37, 1.1, self.R2 - 1e-3, self.R2 - 1e-12,
                   *rng.uniform(0.0, self.R2, 4)]:
            lo, hi = np.abs(r1 - r2), r1 + r2
            # theta = 0 and pi at the ends of the s-window
            s = np.hstack([lo, hi, lo + (hi - lo) * rng.random((len(r1), 22))])
            got.append(field.phi_tilde(r1, r2, s))
            ref.append(self.oracle(field, r1, r2, s))
        got, ref = np.array(got), np.array(ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_prefilter_matches_spline_filter(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=(53, 53, 48))
        ref = scipy.ndimage.spline_filter(samples, order=3, mode="mirror")
        got = triple._prefilter(samples)
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))

    def test_phi2_is_the_r1_zero_row(self):
        # triple_pairing subtracts phi2 where phi_tilde reaches r1 = 0;
        # a gap between them would leave a 1/r1 tail in the integrand
        field = grid_field(*self.tests)
        s = np.array([0.0, 0.3, 1.7])
        r = np.concatenate([np.linspace(0.0, self.R2, 61), [self.R2 - 1e-12]])
        profile = field.phi2(r)
        for r2, value in zip(r, profile):
            row = field.phi_tilde(np.zeros(3), float(r2), s)
            assert np.max(np.abs(row - value)) <= 1e-14 * field.phi00
            assert field.phi2(float(r2)) == value
        assert field.phi00 == profile[0]
        np.testing.assert_array_equal(field.phi2(np.array([self.R2, 2.5])), 0.0)

    def test_rows_do_not_amplify_prefilter_rounding(self, monkeypatch):
        # coefficients that differ from scipy's by rounding (at most
        # 2e-15 of their maximum, see above) move the triangle rows by
        # less than 1e-12
        rows = TestTripleRules.rows
        ours = rows(grid_field.__wrapped__(*self.tests, TestTripleRules.SCHEME))
        monkeypatch.setattr(
            triple, "_prefilter",
            lambda a: scipy.ndimage.spline_filter(a, order=3, mode="mirror"))
        theirs = rows(grid_field.__wrapped__(*self.tests, TestTripleRules.SCHEME))
        # measured: 3.9e-13 and 2.5e-13
        np.testing.assert_allclose(theirs, ours, rtol=1e-12, atol=0.0)

    def test_triangle_leaves_ndimage_unloaded(self):
        code = (
            "import sys\n"
            "from eucren.functionals import TestFunction\n"
            "from eucren.kernels import PropFactor, ScalarDistribution\n"
            "from eucren.propagator import pair\n"
            "tests = [TestFunction(3, (0.0, 0.0, 0.0), r) for r in (1.0, 0.9, 0.8)]\n"
            "t = ScalarDistribution(3, 3, 1.0, (PropFactor(0, 1, 1),\n"
            "                                    PropFactor(0, 2, 1),\n"
            "                                    PropFactor(1, 2, 1)))\n"
            "pair(t, tests)\n"
            "print('scipy.ndimage' in sys.modules)\n")
        assert fresh_run(code).strip() == "False"

    def test_zero_beyond_the_support(self):
        field = grid_field(*self.tests)
        r1 = np.array([0.2, self.R1, self.R1 + 0.3, 0.9])
        s = np.full(4, 0.5)
        inside = field.phi_tilde(r1, 0.6, s)
        assert inside[0] != 0.0 and inside[3] != 0.0
        assert np.all(inside[1:3] == 0.0)
        for r2 in (self.R2, self.R2 + 0.5):
            assert np.all(field.phi_tilde(r1, r2, s) == 0.0)

    def test_input_shapes(self):
        # r1 of shape (P,) with s (P,), or (P, 1) with s (P, S)
        field = grid_field(*self.tests)
        rng = np.random.default_rng(3)
        r1 = rng.uniform(0.0, 2.0, 40)
        s = rng.uniform(0.0, 2.5, (40, 24))
        mesh = field.phi_tilde(r1[:, None], 0.7, s)
        assert mesh.shape == (40, 24)
        for j in (0, 11, 23):
            column = field.phi_tilde(r1, 0.7, s[:, j])
            assert column.shape == (40,)
            np.testing.assert_array_equal(column, mesh[:, j])
        assert field.phi_tilde(r1[5], 0.7, s[5, 0]).shape == ()
        np.testing.assert_allclose(mesh, self.oracle(field, r1[:, None],
                                                     0.7, s),
                                   rtol=0, atol=1e-13 * np.max(np.abs(mesh)))
        # an r2 per row, repeated as triple_pairing's batches repeat it and
        # beyond R2 on some rows, gives each row its scalar-r2 value
        r2 = np.repeat(np.append(rng.uniform(0.0, self.R2, 7), 1.9), 5)
        batch = field.phi_tilde(r1[:, None], r2[:, None], s)
        assert batch.shape == (40, 24)
        for i in range(40):
            np.testing.assert_array_equal(
                batch[i], field.phi_tilde(r1[i:i + 1, None], r2[i], s[i:i + 1])[0])
        np.testing.assert_array_equal(field.phi_tilde(r1, r2, s[:, 0]),
                                      batch[:, 0])
        assert np.any(r2 >= self.R2) and np.all(batch[r2 >= self.R2] == 0.0)
        dV = lambda r: np.exp(-r * r)  # noqa: E731
        joint = analytic_field(dV, self.R1, self.R2)
        np.testing.assert_array_equal(
            joint.phi_tilde(r1[:, None], r2[:, None], s),
            np.broadcast_to(dV(np.hypot(r1, r2))[:, None], (40, 24)))

    def test_grid_memory_is_bounded(self):
        # the ring sums run in blocks of rings within
        # quadrature._BLOCK_ENTRIES entries (5.5 MB peak at each order);
        # all rings in one block peaked at 52 MB at gauss_n 36
        for gauss_n in (12, 24, 36):
            tracemalloc.start()
            try:
                grid_field.__wrapped__(*self.tests,
                                       QuadratureScheme(gauss_n=gauss_n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2 ** 20, gauss_n

    @pytest.mark.parametrize("gauss_n", [12, 7])
    @pytest.mark.parametrize("grid_nodes", [48, 24])
    def test_matches_the_x_sum(self, gauss_n, grid_nodes):
        # the table against the plain sum of f0(x) f1(x - z1) f2(x - z2)
        # over every node of the same x-rule, unfolded (an odd gauss_n
        # has its mu = 0 ring once); summed ring by ring, as one flat
        # sum it carried up to 1.4e-14 of rounding of its own into the
        # coefficients
        scheme = QuadratureScheme(gauss_n=gauss_n, grid_nodes=grid_nodes)
        field = grid_field.__wrapped__(*self.tests, scheme)
        grid = inspect.getclosurevars(field.phi_tilde).nonlocals
        r1g, r2g = grid["r1g"], grid["r2g"]
        n_az = 2 * (grid_nodes - 1)
        r, wr = (v[0] for v in quadrature._panel_nodes(
            np.zeros(1), np.full(1, self.tests[0].radius), gauss_n))
        pts, wts = quadrature._product_rule(3, (0, 0, 0), r, wr * r * r,
                                            gauss_n, n_az, polar_axis=2)
        g0, g1, g2 = (f.gu() for f in self.tests)
        u0 = np.sum(pts * pts, axis=1)
        a = ((wts * g0(u0))[:, None]
             * g1(u0[:, None] - 2.0 * pts[:, :1] * r1g + r1g * r1g))
        a = a.reshape(-1, n_az, len(r1g)).transpose(0, 2, 1)
        table = np.empty((len(r1g), len(r2g), grid_nodes))
        for j in range(grid_nodes):
            theta = j * grid["h_th"]
            proj = pts[:, 0] * np.cos(theta) + pts[:, 1] * np.sin(theta)
            h = g2(u0[:, None] - 2.0 * proj[:, None] * r2g + r2g * r2g)
            rings = a @ h.reshape(-1, n_az, len(r2g))
            table[..., j] = np.ascontiguousarray(
                rings.transpose(1, 2, 0)).sum(axis=-1)
        ref = np.pad(triple._prefilter(table), 2, mode="reflect")
        assert grid["cpad"].shape == ref.shape
        assert (np.max(np.abs(grid["cpad"] - ref))
                <= 1e-14 * np.max(np.abs(ref)))

    def test_triangle_makes_no_map_coordinates_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("map_coordinates was called")

        monkeypatch.setattr(scipy.ndimage, "map_coordinates", refuse)
        monkeypatch.setattr(triple, "map_coordinates", refuse, raising=False)
        t = ScalarDistribution(3, 3, M, (PropFactor(0, 1, 1),
                                         PropFactor(0, 2, 1),
                                         PropFactor(1, 2, 1)))
        assert np.isfinite(pair_three(t, self.tests))


class TestTripleRules:
    """The coarse and the fine rule of ``triple_pairing``
    (``triple._RULES``): the convergence study that fixes their orders,
    and the check between them.  The fields are the worked triangle's
    grid at the benchmark's gauss_n 12, with the pair and overall
    cutoffs 0.6 / 0.8 ("old") and 1.0 / 1.1 with their counterterm
    shifts ("new"), and the analytic field of the overall shift."""

    SCHEME = QuadratureScheme(gauss_n=12)
    REFERENCE = (32, 14)
    # the counterterm shifts of the cutoff changes 0.6 -> 1.0 and
    # 0.8 -> 1.1
    C_PAIR, C_OVER = 5.37155362210431e-4, 1.030936738541916e-6
    W_OLD, W_NEW = CutoffFunction(3, radius=0.8), CutoffFunction(3, radius=1.1)
    MARKS = (W_OLD.plateau_radius, W_OLD.radius,
             W_NEW.plateau_radius, W_NEW.radius)

    @staticmethod
    def spec(radius, c0):
        return ExtensionSpec(CutoffFunction(3, radius=radius)).with_counterterms(
            {(0, 0, 0): c0})

    @classmethod
    def rows(cls, field):
        """triangle-old and triangle-new on ``field``."""
        return np.array([
            triple_pairing(M, (3, 2, 1), cls.spec(0.6, 0.0),
                           cls.spec(0.8, 0.0), field, cls.SCHEME),
            triple_pairing(M, (3, 2, 1), cls.spec(1.0, cls.C_PAIR),
                           cls.spec(1.1, cls.C_OVER), field, cls.SCHEME)])

    @classmethod
    def shift(cls, scale=1.0, marks=MARKS):
        """The overall counterterm shift: the pair-extended kernel
        against W_new - W_old, scaled by ``scale``."""
        dV = lambda r: scale * (np.asarray(cls.W_NEW.profile(r), dtype=float)
                                - np.asarray(cls.W_OLD.profile(r), dtype=float))
        return triple_pairing(M, (3, 2, 1), cls.spec(1.0, cls.C_PAIR), None,
                              analytic_field(dV, 1.1, 1.1, marks))

    @staticmethod
    @contextlib.contextmanager
    def one_rule(rule):
        """``rule`` as the coarse and the fine rule alike."""
        saved, triple._RULES = triple._RULES, (rule, rule)
        try:
            yield
        finally:
            triple._RULES = saved

    @classmethod
    @functools.lru_cache(maxsize=None)
    def values(cls, rule):
        """The two rows and the shift on one rule."""
        with cls.one_rule(rule):
            field = grid_field(*TestTripleGrid.tests, cls.SCHEME)
            return np.append(cls.rows(field), cls.shift())

    @classmethod
    @functools.lru_cache(maxsize=None)
    def unmarked(cls, rule):
        """The shift on one rule, without the marks of W."""
        with cls.one_rule(rule):
            return cls.shift(marks=())

    def errors(self, rule):
        return np.abs(self.values(rule) / self.values(self.REFERENCE) - 1.0)

    def gap(self, coarse, fine):
        return np.abs(self.values(coarse) / self.values(fine) - 1.0)

    def test_convergence_fixes_the_orders(self):
        coarse, fine = triple._RULES
        assert (coarse, fine) == ((10, 5), (12, 5))
        assert np.max(self.errors(fine)) < 1e-4
        assert np.max(self.gap(coarse, fine)) <= 0.5 * triple._RULES_RTOL
        # between its marks the shift converges spectrally: 9.7e-8 at
        # the coarse rule, and one order lower is measurably worse on it
        assert self.errors(coarse)[2] < 2e-7
        for n, levels in (coarse, fine):
            assert (self.errors((n - 1, levels))[2]
                    > 2 * self.errors((n, levels))[2]), n
        # the rows' integrand is a C^2 spline, so they converge slowly
        # (5e-6 and 8e-6 at order 32, against order 64); one order lower
        # on the fine rule still raises its error on every value
        lower = (fine[0] - 1, fine[1])
        assert np.all(self.errors(lower) > self.errors(fine))

    def test_shift_needs_its_marks(self):
        # unmarked, the cutoff edges of W fall inside panels: the fine
        # rule is off by 2.9e-4, and order 24 still by 2.4e-5
        ref = self.values(self.REFERENCE)[2]
        for rule, bound in ((triple._RULES[1], 1e-4), ((24, 9), 1e-5)):
            assert abs(self.unmarked(rule) / ref - 1.0) > bound

    def test_rule_check_has_no_absolute_floor(self):
        # the unmarked shift scaled to a value near 1e-8: its two rules
        # differ by 1.4e-3 relative, a gap that an absolute floor of
        # 1e-9 would let through
        scale = 1e-2
        coarse, fine = (scale * self.unmarked(rule) for rule in triple._RULES)
        assert triple._RULES_RTOL * abs(fine) < abs(fine - coarse) < 1e-9
        with pytest.raises(QuadratureFailure):
            self.shift(scale, marks=())
        marked = scale * self.values(triple._RULES[1])[2]
        assert self.shift(scale) == pytest.approx(marked, rel=1e-12, abs=0.0)

    def test_rows_converge_in_the_grid(self):
        # the worked triangle at the default gauss_n: the rows settle as
        # the grid refines (-1.95133e-8, -1.95205e-8, -1.95242e-8 at 48,
        # 72 and 96 nodes per axis)
        old = [triple_pairing(M, (3, 2, 1), self.spec(0.6, 0.0),
                              self.spec(0.8, 0.0),
                              grid_field(*TestTripleGrid.tests,
                                         QuadratureScheme(grid_nodes=n)))
               for n in (48, 72)]
        assert old[0] == pytest.approx(old[1], rel=1e-3, abs=0.0)


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
