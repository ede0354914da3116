"""Tests for the pairing quadratures against independent oracles."""

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from eucren import quadrature
from eucren.expr import RadialMap
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
    bump_rule,
    contract,
    contract_pass,
    correlation_profile,
    pair_tensor,
    radial_pair,
    sphere_area,
)
from helpers import mc_ball, mc_pair, quadpack


class TestBasicRules:
    def test_sphere_area(self):
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * np.pi)
        assert sphere_area(3) == pytest.approx(4 * np.pi)

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
        x, w = np.polynomial.legendre.leggauss(n)
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
    # ``_sphere_mean(gu, rho, c, d, n)``: the average of g(|x - c e1|^2)
    # over |x| = rho, for matching arrays rho and c
    def test_gaussian_closed_form_3d(self):
        # average of exp(-|x - c e1|^2) over the sphere |x| = rho is
        # exp(-(rho^2+c^2)) sinh(2 rho c)/(2 rho c)
        c = 0.8
        rho = np.array([0.1, 0.5, 1.3, 2.0])
        avg = _sphere_mean(lambda u: np.exp(-u), rho, np.full_like(rho, c), 3, 96)
        expect = np.exp(-(rho**2 + c**2)) * np.sinh(2 * rho * c) / (2 * rho * c)
        np.testing.assert_allclose(avg, expect, rtol=1e-12)

    def test_value_at_origin(self):
        c = 1.1
        for d in (1, 2, 3):
            avg = _sphere_mean(lambda u: np.exp(-u), np.array([1e-12]),
                               np.array([c]), d, 64)
            assert float(avg[0]) == pytest.approx(np.exp(-c * c), rel=1e-8)

    def test_zero_offset_reduces_to_profile(self):
        rho = np.array([0.3, 1.7])
        avg = _sphere_mean(lambda u: 1.0 / (1.0 + u), rho, np.zeros(2), 3, 32)
        np.testing.assert_allclose(avg, 1.0 / (1.0 + rho**2), rtol=1e-12)


class TestRadialPair:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_smooth_kernel_against_ball_rule(self, d):
        bump = RadialMap.bump_profile(d, [0.9] + [0.0] * (d - 1), 0.8, amplitude=1.3)
        gu = bump._g()
        kernel = lambda rho: np.exp(-rho)
        val = radial_pair(kernel, gu, 0.8, 0.9, d)
        pts, wts = ball_rule(d, bump.center, 0.8, 40)
        ref = float(np.sum(wts * np.exp(-np.linalg.norm(pts, axis=1)) * bump(pts)))
        assert val == pytest.approx(ref, rel=1e-8)

    def test_singular_kernel_centered(self):
        # K = rho^-1 in d = 3 with the bump centered on the singularity:
        # 4 pi int rho g(rho^2) drho is an independent 1-d oracle
        bump = RadialMap.bump_profile(3, (0, 0, 0), 1.0)
        gu = bump._g()
        val = radial_pair(lambda rho: 1.0 / rho, gu, 1.0, 0.0, 3)
        ref = 4 * np.pi * quadpack(lambda r: r * float(gu(np.float64(r * r))), 0.0, 1.0)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_singular_kernel_overlapping_offset(self):
        bump = RadialMap.bump_profile(3, (0.5, 0, 0), 1.0)
        gu = bump._g()
        val = radial_pair(lambda rho: 1.0 / rho, gu, 1.0, 0.5, 3)
        mc, err = mc_ball(lambda p: bump(p) / np.linalg.norm(p, axis=1),
                          3, (0.5, 0, 0), 1.0, n=400_000, seed=42)
        assert val == pytest.approx(mc, abs=4 * err)

    def test_disjoint_support_window(self):
        bump = RadialMap.bump_profile(3, (3.0, 0, 0), 0.5)
        gu = bump._g()
        # kernel windowed to [0, 2]: no overlap with supp f, integral 0
        val = radial_pair(lambda rho: 1.0, gu, 0.5, 3.0, 3, kernel_window=2.0)
        assert val == 0.0


class TestSubtractedRadialPair:
    """radial_pair with a cutoff: K against f - w f(0)."""

    def test_zero_cutoff_reduces_to_plain(self):
        bump = RadialMap.bump_profile(3, (0.6, 0, 0), 0.9, amplitude=2.0)
        gu = bump._g()
        kernel = lambda rho: np.exp(-2 * rho) / rho
        plain = radial_pair(kernel, gu, 0.9, 0.6, 3)
        sub = radial_pair(kernel, gu, 0.9, 0.6, 3, cutoff=CutoffFunction(3),
                          value_at_origin=0.0)
        assert sub == pytest.approx(plain, rel=1e-9)

    def test_subtraction_linearity(self):
        # for an integrable kernel the subtracted pairing equals
        # plain(f) - f(0) * int K w dx
        bump = RadialMap.bump_profile(3, (0.4, 0, 0), 1.0, amplitude=1.5)
        w = CutoffFunction(3, radius=1.0)
        gu = bump._g()
        kernel = lambda rho: np.exp(-rho) / rho
        f0 = float(bump(np.zeros(3)))
        plain = radial_pair(kernel, gu, 1.0, 0.4, 3)
        kw = radial_pair(kernel, w.gu(), 1.0, 0.0, 3)
        sub = radial_pair(kernel, gu, 1.0, 0.4, 3, cutoff=w, value_at_origin=f0)
        assert sub == pytest.approx(plain - f0 * kw, rel=1e-8)

    def test_log_divergent_kernel_is_finite(self):
        # K = rho^-3 in d = 3 is at the logarithmic edge; the subtracted
        # pairing must converge and be stable under tolerance tightening
        bump = RadialMap.bump_profile(3, (0, 0, 0), 1.0)
        w = CutoffFunction(3, radius=1.0)
        gu = bump._g()
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

    def test_correlation_profile_matches_mc(self):
        f = RadialMap.bump_profile(3, (0, 0, 0), 1.0)
        g = RadialMap.bump_profile(3, (0, 0, 0), 0.8, amplitude=2.0)
        prof = correlation_profile(f._g(), 1.0, g._g(), 0.8, 3)
        # C(0) = int f g: oracle over the smaller ball
        ref, err = mc_ball(lambda p: f(p) * g(p), 3, (0, 0, 0), 0.8,
                           n=300_000, seed=7)
        assert prof(0.0) == pytest.approx(ref, abs=4 * err)
        assert prof(1.9) == 0.0
        # correlation of translates: C(s) = int f(z) g(z - s e1) dz
        s = 0.9
        g_shift = RadialMap.bump_profile(3, (s, 0, 0), 0.8, amplitude=2.0)
        ref_s, err_s = mc_ball(lambda p: f(p) * g_shift(p), 3, (0, 0, 0), 1.0,
                               n=300_000, seed=8)
        assert prof(s) == pytest.approx(ref_s, abs=4 * err_s)

    def test_pair_tensor_matches_radial_route(self):
        f = TestFunction(3, (0, 0, 0), 0.7)
        g = TestFunction(3, (2.5, 0, 0), 0.7, amplitude=1.4)
        kernel = lambda r: np.exp(-r) / (4 * np.pi * r)
        via_tensor = pair_tensor(lambda x, y: kernel(cdist(x, y)), f, g)
        prof = correlation_profile(f.gu(), 0.7, g.gu(), 0.7, 3)
        via_radial = radial_pair(kernel, prof.profile_u(), prof.support_radius, 2.5, 3)
        assert via_tensor == pytest.approx(via_radial, rel=1e-5)

    def test_pair_tensor_matches_mc(self):
        f = TestFunction(2, (0, 0), 0.6)
        g = TestFunction(2, (2.0, 0.5), 0.8)
        kernel = lambda r: 1.0 / (1.0 + r * r)
        val = pair_tensor(lambda x, y: kernel(cdist(x, y)), f, g)
        ref, err = mc_pair(kernel, 2, f.center, 0.6, f, g.center, 0.8, g,
                           n=400_000, seed=3)
        assert val == pytest.approx(ref, abs=4 * err)


class TestContract:
    # 432 nodes in the first rule, 250 in the second: at 256 rows of 250
    # entries a block, two row blocks, the second partial
    xp, _ = ball_rule(3, (0.0, 0.0, 0.0), 1.0, 6)
    yp, yw = ball_rule(3, (2.4, 0.3, 0.0), 0.8, 5)
    v = yw * np.cos(np.arange(len(yw)))

    @pytest.fixture(autouse=True)
    def two_blocks(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES",
                            256 * len(self.yp) + len(self.yp))

    def check(self, block):
        dense = block(self.xp, self.yp) @ self.v
        got = contract(block, self.xp, self.yp, self.v)
        np.testing.assert_allclose(got, dense, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(dense)))

    def test_radial_block(self):
        self.check(green_function(3, 1.0).block(2))

    def test_decorated_block(self):
        self.check(green_function(3, 1.0).block(1, (1, 0, 0), (0, 1, 0)))


class TestContractPass:
    """``contract_pass`` against the dense K @ V and K^T @ U of
    ``Propagator.block``, with rows that the block size does not divide;
    d = 2 and 4 go through besselk."""

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
            dense = P.block(power, left, right)(xp, yp)
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


def _product_value(orders, k: int) -> float:
    """int int f(x) a(x) P(x-y)^k b(y) g(y) dx dy in d = 3 at the
    geometry of ``verify``: bumps of radius 1.1 and 1.05 with centres 3
    apart, smooth factors on both sides, on the product rule with the
    bump-weight radial axis at (radial, polar, azimuthal) ``orders``."""
    def rule(center, radius):
        n_r, n_polar, n_phi = orders
        t, w = bump_gauss(3, n_r)
        return _product_rule(3, center, radius * t, radius**3 * w, n_polar,
                             n_phi)
    x, wx = rule((0.0, 0.0, 0.0), 1.1)
    y, wy = rule((3.0, 0.0, 0.0), 1.05)
    a = (0.9 + 0.2 * x[:, 0]) ** 2
    b = (0.9 + 0.2 * y[:, 0]) ** 2 * np.cos(0.3 * y[:, 1])
    block = green_function(3, 1.0).block(k)
    return float((wx * a) @ contract(block, x, y, wy * b))


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
        assert len(pts) == {1: 12, 2: 120, 3: 1200}[d]
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
    # rule (10, 18, 36).  Measured: (6, 10, 20) 1.6e-11, 1.3e-9, 4.0e-8;
    # (8, 14, 28) 1.3e-16, 1.5e-13, 8.8e-12; Gauss-Legendre ball rules
    # of 3,456 and 8,192 nodes (gauss_n 12 and 16) err 1e-5 to 4e-5.
    # Each axis one step lower errs at least 3 times more, so neither
    # axis is resolved further than the other needs.
    CONVERGENCE = {12: ((6, 10, 20), 1e-7), 16: ((8, 14, 28), 1e-10)}

    @pytest.mark.parametrize("n", sorted(CONVERGENCE))
    def test_convergence_fixes_the_orders(self, n):
        orders, bound = self.CONVERGENCE[n]
        assert bump_orders(n) == orders
        n_r, n_polar, n_phi = orders
        for k in (1, 2, 3):
            ref = _product_value((10, 18, 36), k)
            err = abs(_product_value(orders, k) / ref - 1.0)
            assert err < bound
            if k == 3:
                for lower in ((n_r - 1, n_polar, n_phi),
                              (n_r, n_polar - 2, n_phi - 4)):
                    assert abs(_product_value(lower, k) / ref - 1.0) > 3 * err

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
