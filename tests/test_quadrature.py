"""Tests for the pairing quadratures against independent oracles."""

from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.spatial.distance import cdist

from eucren import expr, quadrature
from eucren.functionals import TestFunction
from eucren.kernels import CutoffFunction
from eucren.propagator import green_function
from eucren.quadrature import (
    DEFAULT_SCHEME,
    ProfileSpline,
    _product_rule,
    _sphere_mean,
    ball_rule,
    bump_gauss,
    bump_orders,
    bump_ring_size,
    bump_rule,
    contract_pass,
    correlation_profile,
    gauss_legendre,
    radial_pair,
    ring_pass,
    sphere_area,
)
from helpers import (kernel_matrix, mc_ball, mc_pair, polished_leggauss,
                     quadpack)


def tensor_pair(kernel, f, g, n: int = DEFAULT_SCHEME.gauss_n) -> float:
    """int int f(x) K(|x - y|) g(y) dx dy on the tensor product of the
    tests' rules of order n, contracted by ``contract_pass``."""
    xp, fx = f.rule(n)
    yp, gy = g.rule(n)
    (kg,), _ = contract_pass(lambda x, y: (kernel(cdist(x, y)),), xp, yp,
                             [gy[:, None]], [np.empty((len(xp), 0))])
    return float(fx @ kg[:, 0])


def exact_gauss_node(n: int, x0: float):
    """The Gauss-Legendre node of order n at the float x0 and its weight,
    polished by Newton's method on the recurrence in mpmath's working
    precision; call it, and compare with it, inside ``workdps(40)``."""
    t = mpmath.mpf(float(x0))
    for _ in range(3):
        p_prev, p = mpmath.mpf(1), t
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
        dp = n * (t * p - p_prev) / (t * t - 1)
        t -= p / dp
    return t, 2 / ((1 - t * t) * dp * dp)


class TestBasicRules:
    def test_sphere_area(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * np.pi)
        assert sphere_area(3) == pytest.approx(4 * np.pi)

    @pytest.mark.parametrize("n", [8, 9, 31, 96, 255, 512])
    def test_gauss_legendre_matches_mpmath(self, n):
        # every node and weight within 1e-13 relative of the exact rule
        # (numpy's leggauss is 1e-10 off at n = 512)
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        # the nodes of x >= 0, every other one above n = 96
        picks = np.arange(n // 2, n)[::1 if n <= 96 else 2]
        with mpmath.workdps(40):
            for i in picks:
                t, weight = exact_gauss_node(n, x[i])
                assert abs(x[i] - t) <= 1e-13 * abs(t) + (0 if t else 1e-300)
                assert abs(w[i] - weight) <= 1e-13 * weight

    def test_polished_oracle_rule_matches_mpmath(self):
        # the tests' own 1024-node rule (helpers.polished_leggauss), at
        # the nodes nearest -1, where leggauss's weights are 1.2e-9 off,
        # and at the middle
        n = 1024
        x, w = polished_leggauss(n)
        with mpmath.workdps(40):
            for i in (0, 1, 2, n // 2):
                t, weight = exact_gauss_node(n, x[i])
                assert abs(x[i] - t) <= 1e-16
                assert abs(w[i] - weight) <= 1e-11 * weight

    def test_gauss_legendre_integrates_its_degree(self):
        # order n is exact through degree 2n - 1
        for n in (1, 2, 5, 40):
            x, w = gauss_legendre(n)
            for k in range(0, 2 * n, 2):
                assert float(w @ x**k) == pytest.approx(2.0 / (k + 1), rel=1e-14)
            assert abs(float(w @ x ** (2 * n - 1))) < 1e-15

    @pytest.mark.parametrize("d,expect", [
        (1, 2.0 / 3.0),          # int_{-1}^{1} x^2 dx
        (2, np.pi / 2.0),        # int |x|^2 over unit disk
        (3, 4 * np.pi / 5.0),    # int |x|^2 over unit ball
    ])
    def test_ball_rule_moment(self, d, expect):
        pts, wts = ball_rule(d, np.zeros(d), 1.0, 12)
        val = float(np.sum(wts * np.sum(pts**2, axis=1)))
        assert val == pytest.approx(expect, rel=1e-10)

    def test_ball_rule_shifted_volume(self):
        pts, wts = ball_rule(3, (1.0, -2.0, 0.5), 0.7, 10)
        assert float(np.sum(wts)) == pytest.approx(4 * np.pi * 0.7**3 / 3, rel=1e-12)

    def test_ball_rule_is_shared_and_read_only(self):
        pts, wts = ball_rule(3, np.zeros(3), 1.0, 6)
        assert ball_rule(3, (0, 0, 0), 1, 6)[0] is pts
        for array in (pts, wts):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("n", [5, 12])
    def test_disk_rule_matches_polar_loop(self, n):
        # the d = 2 rule is the d = 3 product rule at the single polar
        # node mu = 0, with the node order and rounding of a loop over
        # the radial nodes
        center, radius = (0.3, -1.2), 0.7
        x, w = gauss_legendre(n)
        half = 0.5 * radius
        n_theta = max(2 * n, 8)
        theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
        pts, wts = [], []
        for ri, wi in zip(half + half * x, half * w):
            pts.append(np.stack([center[0] + ri * np.cos(theta),
                                 center[1] + ri * np.sin(theta)], axis=-1))
            wts.append(np.full(n_theta, wi * ri * (2.0 * np.pi / n_theta)))
        got_pts, got_wts = ball_rule(2, center, radius, n)
        assert np.array_equal(got_pts, np.concatenate(pts))
        assert np.array_equal(got_wts, np.concatenate(wts))


class TestAngularAverage:
    # ``_sphere_mean(gu, rho, c, d, n, support)``: the average of
    # g(|x - c e1|^2) over |x| = rho, for matching arrays rho and c, on
    # the polar window where g(u) may be nonzero, u < support^2 (the
    # whole sphere for support = inf)
    S = 0.9
    bump = TestFunction(3, (0.0, 0.0, 0.0), S, 1.3)

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3])
    def test_near_concentric_mean_keeps_its_digits(self, c):
        # the d = 3 mean is (1/(4 c rho)) int g du over [(rho - c)^2,
        # (rho + c)^2]: its rule may not take the interval's half-width
        # as a difference of the ends, which would lose about rho/c
        # digits.  Reference: the same integral at 40 digits
        rho = np.array([0.1, 0.45, 0.8])
        got = _sphere_mean(self.bump.gu(), rho, np.full_like(rho, c), 3, 96,
                           self.S)
        with mpmath.workdps(40):
            def g(u):
                return 1.3 * mpmath.exp(-1 / (1 - u / mpmath.mpf(self.S) ** 2))
            cm = mpmath.mpf(c)
            for r, value in zip(rho, got):
                r = mpmath.mpf(float(r))
                ref = mpmath.quad(g, [(r - cm) ** 2, (r + cm) ** 2]) / (4 * cm * r)
                assert abs(value - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("c", [0.3, 0.7, 1.2])
    def test_windowed_mean_in_higher_dimensions(self, d, c):
        # the window [0, theta_max] carries the sin^(d-2) weight over the
        # full sphere's mass, not over the windowed rule's own sum:
        # against 2048 Gauss-Legendre nodes over the whole of [0, pi]
        g = self.bump.gu()
        rho = np.linspace(max(0.0, c - self.S) + 1e-3, c + self.S - 1e-3, 41)
        x, w = polished_leggauss(2048)
        theta = 0.5 * np.pi * (x + 1.0)
        w = w * np.sin(theta) ** (d - 2)
        u = rho[:, None] ** 2 + c * c - 2.0 * c * rho[:, None] * np.cos(theta)
        ref = g(np.maximum(u, 0.0)) @ (w / w.sum())
        got = _sphere_mean(g, rho, np.full_like(rho, c), d, 96, self.S)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_sphere_outside_the_support_averages_zero(self):
        # rho beyond c + S and below c - S: an empty window in every d
        g = self.bump.gu()
        rho, c = np.array([0.05, 2.0, 0.0]), np.array([1.0, 1.0, 0.95])
        for d in (2, 3, 4):
            assert np.array_equal(_sphere_mean(g, rho, c, d, 96, self.S),
                                  np.zeros(3))

    def test_empty_windows_call_no_profile(self):
        # rows with S^2 <= (rho - c)^2 average exactly 0, and their u never
        # reaches gu: the cutoff routes start their rho range at 0, and
        # 2,216 of the 5,120 rows of a p3-d3-c037 job had such a window
        rng = np.random.default_rng(5)
        c, rho = rng.uniform(0.0, 2.0, 60), rng.uniform(0.0, 3.0, 60)
        empty = self.S ** 2 <= (rho - c) ** 2
        assert 10 < np.count_nonzero(empty) < 50
        bump = self.bump.gu()
        for d in (2, 3, 4):
            seen = []

            def g(u):
                seen.append(len(u))
                return bump(u)
            got = _sphere_mean(g, rho, c, d, 96, self.S)
            assert sum(seen) == np.count_nonzero(~empty)
            assert np.all(got[empty] == 0.0)
            assert np.array_equal(got[~empty], _sphere_mean(
                g, rho[~empty], c[~empty], d, 96, self.S))

    def test_e1_fit_matches_mpmath(self):
        # k(t) = (1 - x e^x E_1(x)) / t and Q(t) = t e^(-1/t) - E_1(1/t) at
        # t = 1/x, within 1e-15 relative; beyond x = 690 Q is subnormal,
        # and within half its spacing
        x = np.concatenate([np.geomspace(1.0, 700.0, 300),
                            1.0 + np.random.default_rng(6).random(100)])
        k = expr._e1_k(1.0 / x)
        q = expr.bumpcore_integral(x)
        with mpmath.workdps(80):
            for xi, ki, qi in zip(x, k, q):
                big_x, t = mpmath.mpf(float(xi)), mpmath.mpf(1.0 / xi)
                k_ref = (1 - mpmath.exp(1 / t) * mpmath.e1(1 / t) / t) / t
                q_ref = mpmath.exp(-big_x) / big_x - mpmath.e1(big_x)
                assert abs(ki - k_ref) <= 1e-15 * k_ref
                assert abs(qi - q_ref) <= 1e-15 * q_ref + mpmath.mpf(2) ** -1075
        assert expr.bumpcore_integral(np.array([np.inf]))[0] == 0.0

    def test_closed_form_bump_mean(self):
        # unclipped rows (rho + c < S), clipped ones, empty ones and
        # near-concentric ones (4 c rho below _CLOSED_FORM_WIDTH S^2,
        # which keep the windowed rule), against the 40-digit u-integral
        rng = np.random.default_rng(8)
        rho = np.concatenate([rng.uniform(0.05, 0.45, 12), rng.uniform(0.3, 1.4, 12),
                              [0.05, 1.7, 2.5], [0.1, 0.45, 0.8, 0.3]])
        c = np.concatenate([rng.uniform(0.05, 0.4, 12), rng.uniform(0.3, 1.0, 12),
                            [1.2, 0.5, 1.0], [1e-3, 1e-4, 2e-3, 0.0]])
        s2 = self.S ** 2
        unclipped = (rho + c) ** 2 < s2
        empty = (rho - c) ** 2 >= s2
        narrow = 4.0 * c * rho < quadrature._CLOSED_FORM_WIDTH * s2
        assert (np.count_nonzero(unclipped & ~narrow) > 5
                and np.count_nonzero(~unclipped & ~empty & ~narrow) > 5
                and np.count_nonzero(empty) == 3
                and np.count_nonzero(narrow & ~empty) == 4)
        bump = self.bump.gu()
        assert isinstance(bump, expr.BumpProfile)
        u = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(bump(u), expr.bump_u(u, self.S, 1.3))
        rows = []

        class Recording:
            integral = staticmethod(bump.integral)

            def __call__(self, u):
                rows.append(len(u))
                return bump(u)
        got = _sphere_mean(Recording(), rho, c, 3, 96, self.S)
        assert sum(rows) == 4  # the windowed rule took the narrow rows only
        ref = np.zeros_like(got)
        with mpmath.workdps(40):
            def g(u):
                return 1.3 * mpmath.exp(-1 / (1 - u / mpmath.mpf(self.S) ** 2))
            for i, (r, cc) in enumerate(zip(rho, c)):
                r, cc = mpmath.mpf(float(r)), mpmath.mpf(float(cc))
                lo, hi = (r - cc) ** 2, min((r + cc) ** 2, mpmath.mpf(self.S) ** 2)
                if cc == 0:
                    ref[i] = g(r * r)
                elif hi > lo:
                    ref[i] = mpmath.quad(g, [lo, hi]) / (4 * cc * r)
        assert np.all(got[empty] == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)

    def test_gaussian_closed_form_3d(self):
        # average of exp(-|x - c e1|^2) over the sphere |x| = rho is
        # exp(-(rho^2+c^2)) sinh(2 rho c)/(2 rho c)
        c = 0.8
        rho = np.array([0.1, 0.5, 1.3, 2.0])
        avg = _sphere_mean(lambda u: np.exp(-u), rho, np.full_like(rho, c), 3, 96,
                          np.inf)
        expect = np.exp(-(rho**2 + c**2)) * np.sinh(2 * rho * c) / (2 * rho * c)
        np.testing.assert_allclose(avg, expect, rtol=1e-12)

    def test_value_at_origin(self):
        c = 1.1
        for d in (1, 2, 3):
            avg = _sphere_mean(lambda u: np.exp(-u), np.array([1e-12]),
                               np.array([c]), d, 64, np.inf)
            assert float(avg[0]) == pytest.approx(np.exp(-c * c), rel=1e-8)

    def test_zero_offset_reduces_to_profile(self):
        rho = np.array([0.3, 1.7])
        avg = _sphere_mean(lambda u: 1.0 / (1.0 + u), rho, np.zeros(2), 3, 32,
                          np.inf)
        np.testing.assert_allclose(avg, 1.0 / (1.0 + rho**2), rtol=1e-12)


class TestRadialPair:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_smooth_kernel_against_ball_rule(self, d):
        bump = TestFunction(d, [0.9] + [0.0] * (d - 1), 0.8, amplitude=1.3)
        gu = bump.gu()
        kernel = lambda rho: np.exp(-rho)
        val = radial_pair(kernel, gu, 0.8, 0.9, d)
        pts, wts = ball_rule(d, bump.center, 0.8, 40)
        ref = float(np.sum(wts * np.exp(-np.linalg.norm(pts, axis=1)) * bump(pts)))
        assert val == pytest.approx(ref, rel=1e-8)

    def test_singular_kernel_centered(self):
        # K = rho^-1 in d = 3 with the bump centered on the singularity:
        # 4 pi int rho g(rho^2) drho is an independent 1-d oracle
        bump = TestFunction(3, (0, 0, 0), 1.0)
        gu = bump.gu()
        val = radial_pair(lambda rho: 1.0 / rho, gu, 1.0, 0.0, 3)
        ref = 4 * np.pi * quadpack(lambda r: r * float(gu(np.float64(r * r))), 0.0, 1.0)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_singular_kernel_overlapping_offset(self):
        bump = TestFunction(3, (0.5, 0, 0), 1.0)
        gu = bump.gu()
        val = radial_pair(lambda rho: 1.0 / rho, gu, 1.0, 0.5, 3)
        mc, err = mc_ball(lambda p: bump(p) / np.linalg.norm(p, axis=1),
                          3, (0.5, 0, 0), 1.0, n=400_000, seed=42)
        assert val == pytest.approx(mc, abs=4 * err)

    def test_disjoint_support_window(self):
        bump = TestFunction(3, (3.0, 0, 0), 0.5)
        gu = bump.gu()
        # kernel windowed to [0, 2]: no overlap with supp f, integral 0
        val = radial_pair(lambda rho: 1.0, gu, 0.5, 3.0, 3, kernel_window=2.0)
        assert val == 0.0


class TestSubtractedRadialPair:
    """radial_pair with a cutoff: K against f - w f(0)."""

    def test_zero_cutoff_reduces_to_plain(self):
        bump = TestFunction(3, (0.6, 0, 0), 0.9, amplitude=2.0)
        gu = bump.gu()
        kernel = lambda rho: np.exp(-2 * rho) / rho
        plain = radial_pair(kernel, gu, 0.9, 0.6, 3)
        sub = radial_pair(kernel, gu, 0.9, 0.6, 3, cutoff=CutoffFunction(3),
                          value_at_origin=0.0)
        assert sub == pytest.approx(plain, rel=1e-9)

    def test_subtraction_linearity(self):
        # for an integrable kernel the subtracted pairing equals
        # plain(f) - f(0) * int K w dx
        bump = TestFunction(3, (0.4, 0, 0), 1.0, amplitude=1.5)
        w = CutoffFunction(3, radius=1.0)
        gu = bump.gu()
        kernel = lambda rho: np.exp(-rho) / rho
        f0 = float(bump(np.zeros(3)))
        plain = radial_pair(kernel, gu, 1.0, 0.4, 3)
        kw = radial_pair(kernel, w.gu(), 1.0, 0.0, 3)
        sub = radial_pair(kernel, gu, 1.0, 0.4, 3, cutoff=w, value_at_origin=f0)
        assert sub == pytest.approx(plain - f0 * kw, rel=1e-8)

    def test_log_divergent_kernel_is_finite(self):
        # K = rho^-3 in d = 3 is at the logarithmic edge; the subtracted
        # pairing must converge and be stable under tolerance tightening
        bump = TestFunction(3, (0, 0, 0), 1.0)
        w = CutoffFunction(3, radius=1.0)
        gu = bump.gu()
        f0 = float(bump(np.zeros(3)))
        kernel = lambda rho: rho**-3
        v1 = radial_pair(kernel, gu, 1.0, 0.0, 3, cutoff=w, value_at_origin=f0)
        v2 = radial_pair(kernel, gu, 1.0, 0.0, 3, DEFAULT_SCHEME.tighter(1e-2),
                         cutoff=w, value_at_origin=f0)
        assert np.isfinite(v1)
        assert v1 == pytest.approx(v2, rel=1e-7)


class TestProfilesAndTensor:
    def test_profile_spline_accuracy(self):
        f = lambda s: np.exp(-s) * np.cos(3 * s)
        grid = np.linspace(0.0, 2.0, 400)
        sp = ProfileSpline(grid, f(grid), 2.0)
        s = np.linspace(0.05, 1.95, 37)
        np.testing.assert_allclose(sp(s), f(s), atol=5e-9)
        assert sp(2.5) == 0.0

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 1.9, 360),
        # a grid of two steps: 5 ghost nodes below zero at one, then a
        # linspace at another
        np.concatenate([-np.arange(5, 0, -1) * (1.02 * 1.9 / 39),
                        np.linspace(0.0, 1.9, 360)]),
        # _leg_profile: a linspace from an offset
        np.linspace(0.37, 2.1, 180),
        # as many samples as the ghost grid, the most a profile takes,
        # with steps that shrink toward the support
        1.9 * np.sin(np.linspace(0.0, 0.5 * np.pi, 365)),
    ], ids=["uniform", "ghosts", "offset", "graded"])
    def test_profile_spline_is_scipy_not_a_knot(self, grid):
        # scipy.interpolate stays out of the package; its not-a-knot
        # CubicSpline is the oracle
        f = lambda s: np.exp(-s * s) * np.cos(3.0 * s) + 0.1 * s
        spline = ProfileSpline(grid[::-1], f(grid[::-1]), grid[-1])
        oracle = CubicSpline(grid, f(grid))
        s = np.concatenate([grid, np.random.default_rng(4).uniform(
            grid[0], grid[-1], 2000)])
        ref = oracle(s)
        assert np.max(np.abs(spline(s) - ref)) <= 1e-15 * np.max(np.abs(ref))
        # clamped below the first sample, zero beyond the support
        low = grid[0] - np.array([1e-9, 0.5, 3.0])
        np.testing.assert_array_equal(spline(low), oracle(grid[0]))
        assert spline(grid[0] - 0.5) == oracle(grid[0])
        np.testing.assert_array_equal(
            spline(grid[-1] + np.array([1e-12, 0.1, 5.0])), 0.0)
        assert spline(grid[-1] + 0.1) == 0.0

    def test_correlation_profile_matches_mc(self):
        f = TestFunction(3, (0, 0, 0), 1.0)
        g = TestFunction(3, (0, 0, 0), 0.8, amplitude=2.0)
        prof = correlation_profile(f.gu(), 1.0, g.gu(), 0.8, 3)
        # C(0) = int f g: oracle over the smaller ball
        ref, err = mc_ball(lambda p: f(p) * g(p), 3, (0, 0, 0), 0.8,
                           n=300_000, seed=7)
        assert prof(0.0) == pytest.approx(ref, abs=4 * err)
        assert prof(1.9) == 0.0
        # correlation of translates: C(s) = int f(z) g(z - s e1) dz
        s = 0.9
        g_shift = TestFunction(3, (s, 0, 0), 0.8, amplitude=2.0)
        ref_s, err_s = mc_ball(lambda p: f(p) * g_shift(p), 3, (0, 0, 0), 1.0,
                               n=300_000, seed=8)
        assert prof(s) == pytest.approx(ref_s, abs=4 * err_s)

    def test_pair_tensor_matches_radial_route(self):
        f = TestFunction(3, (0, 0, 0), 0.7)
        g = TestFunction(3, (2.5, 0, 0), 0.7, amplitude=1.4)
        kernel = lambda r: np.exp(-r) / (4 * np.pi * r)
        via_tensor = tensor_pair(kernel, f, g)
        prof = correlation_profile(f.gu(), 0.7, g.gu(), 0.7, 3)
        via_radial = radial_pair(kernel, prof.profile_u(), prof.support_radius, 2.5, 3)
        assert via_tensor == pytest.approx(via_radial, rel=1e-5, abs=0.0)

    def test_pair_tensor_matches_mc(self):
        f = TestFunction(2, (0, 0), 0.6)
        g = TestFunction(2, (2.0, 0.5), 0.8)
        kernel = lambda r: 1.0 / (1.0 + r * r)
        val = tensor_pair(kernel, f, g)
        ref, err = mc_pair(kernel, 2, f.center, 0.6, f, g.center, 0.8, g,
                           n=400_000, seed=3)
        assert val == pytest.approx(ref, abs=4 * err)


class TestContractPass:
    """``contract_pass`` and ``ring_pass`` against the dense K @ V and
    K^T @ U of one kernel of ``Propagator.blocks`` at a time
    (``helpers.kernel_matrix``), with rows that the block size does not
    divide; d = 2 and 4 go through besselk."""

    @staticmethod
    def points(d, center, radius, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, d))
        z *= (radius * rng.uniform(size=(n, 1)) ** (1.0 / d)
              / np.linalg.norm(z, axis=1, keepdims=True))
        return z + np.asarray(center)

    @staticmethod
    def specs(d):
        e = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        return [(1, (), ()), (2, (), ()), (3, (), ()),
                (1, e[0], ()), (1, (), e[-1]), (1, e[0], e[-1]),
                (1, tuple(2 * a for a in e[0]), ()), (1, e[-1], e[0])]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_dense(self, d, monkeypatch):
        P = green_function(d, 1.0)
        xp = self.points(d, (0.0,) * d, 1.0, 101, d)
        yp = self.points(d, (2.5,) + (0.0,) * (d - 1), 0.8, 37, 10 + d)
        specs = self.specs(d)
        rng = np.random.default_rng(20 + d)
        # every kernel but the last sends columns both ways; the last
        # sends toward yp only, and the first toward xp two columns
        toward_x = [rng.normal(size=(len(yp), 2 if k == 0 else 1))
                    for k in range(len(specs) - 1)] + [np.empty((37, 0))]
        toward_y = [rng.normal(size=(len(xp), 1)) for _ in specs]
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 3000)
        rows = []
        kernels = P.blocks(specs)

        def recording(x, y):
            rows.append(len(x))
            return kernels(x, y)

        to_x, to_y = contract_pass(recording, xp, yp, toward_x, toward_y)
        assert len(rows) > 2 and sum(rows) == len(xp)
        assert len(xp) % rows[0] != 0
        for k, (power, left, right) in enumerate(specs):
            dense = kernel_matrix(P, xp, yp, power, left, right)
            for got, ref in ((to_x[k], dense @ toward_x[k]),
                             (to_y[k], dense.T @ toward_y[k])):
                assert got.shape == ref.shape
                np.testing.assert_allclose(
                    got, ref, rtol=1e-13,
                    atol=1e-13 * np.max(np.abs(ref), initial=0.0))

    def test_block_entries_bound_the_rows(self, monkeypatch):
        # a block holds its kernel matrices, its rows of U and all of V
        xp = self.points(3, (0.0, 0.0, 0.0), 1.0, 50, 1)
        yp = self.points(3, (3.0, 0.0, 0.0), 1.0, 40, 2)
        toward_x = [np.ones((40, 3)), np.ones((40, 0))]
        toward_y = [np.ones((50, 1)), np.ones((50, 2))]
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1000)
        kernels = green_function(3, 1.0).blocks([(1, (), ()), (2, (), ())])
        rows = []

        def recording(x, y):
            rows.append(len(x))
            return kernels(x, y)

        contract_pass(recording, xp, yp, toward_x, toward_y)
        assert max(rows) * (2 * 40 + 3) + 120 <= 1000
        assert (max(rows) + 1) * (2 * 40 + 3) + 120 > 1000

    # the ring pass, on product rules with polar axis x1 whose centres
    # differ only in x1, so that every kernel block between two rings is
    # circulant

    @staticmethod
    def rings(center, radius, n_r, n_polar, n_phi):
        r = radius * (np.arange(n_r) + 0.5) / n_r
        return _product_rule(3, center, r, np.ones(n_r), n_polar, n_phi,
                             polar_axis=0)[0]

    @pytest.mark.parametrize("n_phi", [7, 8])
    def test_ring_pass_matches_dense(self, n_phi, monkeypatch):
        P = green_function(3, 1.0)
        xp = self.rings((0.0, 0.2, -0.1), 1.0, 5, 3, n_phi)
        yp = self.rings((2.5, 0.2, -0.1), 0.8, 2, 3, n_phi)
        specs = [(1, (), ()), (2, (), ()), (3, (), ())]
        rng = np.random.default_rng(n_phi)
        # P^1 sends two columns toward xp and one toward yp, P^2 none
        # toward yp, P^3 none toward xp
        toward_x = [rng.normal(size=(len(yp), c)) for c in (2, 1, 0)]
        toward_y = [rng.normal(size=(len(xp), c)) for c in (1, 0, 2)]
        # four of the 15 rings of xp a block
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES",
                            {7: 1100, 8: 1300}[n_phi])
        shapes = []
        kernels = P.blocks(specs)

        def recording(x, y):
            shapes.append((len(x), len(y)))
            return kernels(x, y)

        to_x, to_y = ring_pass(recording, xp, yp, n_phi, toward_x, toward_y)
        rows = [x for x, _ in shapes]
        assert {y for _, y in shapes} == {len(yp) // n_phi}
        assert len(rows) > 2 and sum(rows) == len(xp)
        assert rows[0] == 4 * n_phi
        for k, (power, left, right) in enumerate(specs):
            dense = kernel_matrix(P, xp, yp, power, left, right)
            for got, ref in ((to_x[k], dense @ toward_x[k]),
                             (to_y[k], dense.T @ toward_y[k])):
                assert got.shape == ref.shape
                np.testing.assert_allclose(
                    got, ref, rtol=1e-13,
                    atol=1e-13 * np.max(np.abs(ref), initial=0.0))
        with pytest.raises(ValueError):
            ring_pass(kernels, xp[:-1], yp, n_phi, toward_x, toward_y)

    def test_ring_block_entries_bound_the_rings(self, monkeypatch):
        # a block holds its kernel columns, one kernel's spectrum and its
        # rows of U, besides the spectra of V and of the K^T U sums:
        # 4 frequencies of 6 azimuths, 4 rings of yp, 10 of xp
        xp = self.rings((0.0, 0.0, 0.0), 1.0, 5, 2, 6)
        yp = self.rings((3.0, 0.0, 0.0), 1.0, 2, 2, 6)
        toward_x = [np.ones((24, 3)), np.ones((24, 0))]
        toward_y = [np.ones((60, 1)), np.ones((60, 2))]
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 600)
        kernels = green_function(3, 1.0).blocks([(1, (), ()), (2, (), ())])
        rows = []

        def recording(x, y):
            rows.append(len(x) // 6)
            return kernels(x, y)

        ring_pass(recording, xp, yp, 6, toward_x, toward_y)
        fixed = 4 * 4 * 2 * (3 + 0) + 4 * 4 * 2 * (1 + 2)
        per_ring = 6 * (2 * 4 + 3) + 2 * 4 * 4
        assert max(rows) * per_ring + fixed <= 600
        assert (max(rows) + 1) * per_ring + fixed > 600


def _bump_moments(d: int, top: int):
    """(int t^k w, int |t|^k w) for k < top, w the bump weight of
    ``bump_gauss``, by 30-digit mpmath quadrature."""
    lo = -1 if d == 1 else 0
    with mpmath.workdps(30):
        def moment(k, absolute):
            def f(t):
                tk = abs(t) ** k if absolute else t ** k
                return abs(t) ** (d - 1) * tk * mpmath.exp(-1 / (1 - t * t))
            return float(mpmath.quad(f, [lo, 0, 0.5, 0.9, 1]))
        return ([moment(k, False) for k in range(top)],
                [moment(k, True) for k in range(top)])


@lru_cache(maxsize=32)
def _product_values(orders, y_center=(3.0, 0.0, 0.0)):
    """int int f(x) a(x) P(x-y)^k b(y) g(y) dx dy for k = 1, 2, 3 in
    d = 3 at the geometry of ``verify``: bumps of radius 1.1 at the
    origin and 1.05 at ``y_center``, smooth factors on both sides, on
    the bump rule's product rule (polar axis x1) with the bump-weight
    radial axis at (radial, polar, azimuthal) ``orders``; one dense
    pass."""
    def rule(center, radius):
        n_r, n_polar, n_phi = orders
        t, w = bump_gauss(3, n_r)
        return _product_rule(3, center, radius * t, radius**3 * w, n_polar,
                             n_phi, polar_axis=0)
    x, wx = rule((0.0, 0.0, 0.0), 1.1)
    y, wy = rule(y_center, 1.05)
    a = (0.9 + 0.2 * x[:, 0]) ** 2
    b = (0.9 + 0.2 * y[:, 0]) ** 2 * np.cos(0.3 * y[:, 1])
    specs = [(k, (), ()) for k in (1, 2, 3)]
    out, _ = contract_pass(green_function(3, 1.0).blocks(specs), x, y,
                           [(wy * b)[:, None]] * 3,
                           [np.empty((len(x), 0))] * 3)
    return tuple(float((wx * a) @ v[:, 0]) for v in out)


class TestBumpRule:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gauss_exactness(self, d):
        # n nodes integrate the weight times any polynomial of degree
        # <= 2n - 1
        orders = (1, 2, 5, 8, 16, 24)
        exact, scale = _bump_moments(d, 2 * max(orders))
        for n in orders:
            t, w = bump_gauss(d, n)
            assert len(t) == n
            assert np.all(w > 0) and np.all((t > -1.0) & (t < 1.0))
            for k in range(2 * n):
                err = abs(float(w @ t**k) - exact[k])
                assert err <= 1e-13 * scale[k], (n, k, err / scale[k])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_rule_integrates_bump(self, d):
        f = TestFunction(d, (0.4, -0.2, 1.0)[:d], 0.7, amplitude=1.3)
        pts, wts = f.rule(12)
        assert pts is bump_rule(d, f.center, f.radius, 12)[0]
        assert len(pts) == {1: 12, 2: 120, 3: 1320}[d]
        # the mass and the second moment about the centre, against the
        # 1-d radial integrals
        gu = f.gu()
        for k, value in ((0, wts.sum()),
                         (2, wts @ np.sum((pts - f.center) ** 2, axis=1))):
            ref = sphere_area(d) * quadpack(
                lambda rho: rho ** (d - 1 + k) * float(gu(np.float64(rho * rho))),
                0.0, f.radius)
            assert float(value) == pytest.approx(ref, rel=1e-12, abs=0.0)
        for array in bump_rule(d, f.center, f.radius, 12):
            with pytest.raises(ValueError):
                array[0] = 0.0

    # the convergence study behind ``bump_orders``: gauss_n -> the
    # (radial, polar, azimuthal) orders it gives, and the bound on the
    # relative error of int int f a P^k g b (k = 1, 2, 3) against the
    # rule (10, 18, 36), for a y centre on the polar axis x1 and two
    # off it.  Measured, worst over k and the geometries: (6, 11, 20)
    # 2.5e-8, (8, 15, 28) 5.9e-12; Gauss-Legendre ball rules of 3,456
    # and 8,192 nodes (gauss_n 12 and 16) err 1e-5 to 4e-5.  Each axis
    # one step lower errs at least 3 times more at k = 3: the radial and
    # polar ones on the axis, the azimuthal one off it, since on the
    # axis the kernel's azimuthal dependence is that of the smooth
    # factors alone ((6, 10, 12) and (6, 10, 20) both err 6.8e-8 there)
    CONVERGENCE = {12: ((6, 11, 20), 1e-7), 16: ((8, 15, 28), 1e-10)}
    ON_AXIS, OFF_AXIS = (3.0, 0.0, 0.0), (0.0, 3.0, 0.0)

    @staticmethod
    def errors(orders, y_center):
        ref = _product_values((10, 18, 36), y_center)
        return [abs(v / r - 1.0)
                for v, r in zip(_product_values(orders, y_center), ref)]

    @pytest.mark.parametrize("n", sorted(CONVERGENCE))
    def test_convergence_fixes_the_orders(self, n):
        orders, bound = self.CONVERGENCE[n]
        assert bump_orders(n) == orders
        for y_center in (self.ON_AXIS, self.OFF_AXIS, (2.0, 2.0, 1.0)):
            assert max(self.errors(orders, y_center)) < bound, y_center
        n_r, n_polar, n_phi = orders
        for lower, y_center in (((n_r - 1, n_polar, n_phi), self.ON_AXIS),
                                ((n_r, n_polar - 1, n_phi), self.ON_AXIS),
                                ((n_r, n_polar, n_phi - 2), self.OFF_AXIS)):
            err = self.errors(orders, y_center)[2]
            assert self.errors(lower, y_center)[2] > 3 * err, lower

    def test_ring_size_follows_the_geometry(self):
        # centres that differ only in x1, the polar axis of d = 3 bump
        # rules, make rings of the azimuthal order; nothing else does
        assert bump_ring_size(3, (0.0, 0.2, -0.1), (2.5, 0.2, -0.1), 12) == 20
        assert bump_ring_size(3, (0.0, 0.0, 0.0), (0.0, 2.6, 0.0), 12) == 0
        assert bump_ring_size(2, (0.0, 0.0), (2.5, 0.0), 12) == 0
        assert bump_ring_size(1, (0.0,), (2.5,), 12) == 0

    @pytest.mark.parametrize("shift", [2, 3, 4])
    def test_rule_shift_raises_every_axis(self, shift):
        # the products compare rules shifted by 3 (causality) and 4
        # (verify); every shift of two or more raises all three orders
        for n in range(2, 41):
            low, high = bump_orders(n), bump_orders(n + shift)
            assert all(a < b for a, b in zip(low, high)), (n, low, high)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_low_orders_cover_every_coordinate(self, d):
        # gauss_n 2-4 keep at least two polar and four azimuthal nodes,
        # so for every monomial p of degree k <= 3 in (x - c) / r the
        # ratio sum w p / sum w rho^k is its sphere average exactly;
        # the radial axis makes sum w p itself exact up to degree
        # 2 * radial - 1 (d = 1: 4 * radial - 1)
        center, radius = (0.4, -0.2, 1.0)[:d], 0.7
        ref_pts, ref_w = bump_rule(d, center, radius, 24)
        powers = [a for a in np.ndindex(*(4,) * d) if sum(a) <= 3]
        for n in (2, 3, 4):
            pts, w = bump_rule(d, center, radius, n)
            n_r = bump_orders(n)[0]
            exact_to = 4 * n_r - 1 if d == 1 else 2 * n_r - 1
            for a in powers:
                k = sum(a)
                moments = []
                for p, wt in ((pts, w), (ref_pts, ref_w)):
                    u = (p - center) / radius
                    rho_k = wt @ np.linalg.norm(u, axis=1) ** k
                    moments.append((wt @ np.prod(u ** np.array(a), axis=1),
                                    rho_k))
                (value, rho_k), (ref, ref_rho_k) = moments
                assert abs(value / rho_k - ref / ref_rho_k) < 1e-13, (n, a)
                if k <= exact_to:
                    assert abs(value - ref) < 1e-13 * ref_rho_k, (n, a)
