"""Tests for the Helmholtz fundamental solutions and their
self-verification."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import k0, kv

from eucren.errors import UnsupportedCase
from eucren.functionals import TestFunction
from eucren.propagator import (
    Propagator,
    distances,
    green_function,
    verify_fundamental_solution,
)
from eucren.quadrature import DEFAULT_SCHEME, QuadratureScheme
from helpers import kernel_matrix


class TestClosedForms:
    def test_d3_m1_is_yukawa(self):
        P = green_function(3, 1.0)
        r = np.array([0.2, 0.7, 1.9])
        np.testing.assert_allclose(P(r), np.exp(-r) / (4 * np.pi * r),
                                   rtol=1e-14)

    def test_d1_m2_exponential(self):
        P = green_function(1, 2.0)
        r = np.array([0.1, 0.5, 2.0])
        np.testing.assert_allclose(P(r), np.exp(-2 * r) / 4, rtol=1e-14)

    def test_d1_solves_ode_off_origin(self):
        # -P'' + m^2 P = 0 for x != 0, via high-order central differences
        P = green_function(1, 2.0)
        h = 1e-4
        for x in (0.3, 1.1):
            second = (float(P(x + h)) - 2 * float(P(x)) + float(P(x - h))) / h**2
            assert -second + 4.0 * float(P(x)) == pytest.approx(0.0, abs=1e-5)

    def test_d2_matches_bessel(self):
        P = green_function(2, 1.5)
        r = np.array([0.05, 0.3, 1.0, 3.0])
        np.testing.assert_allclose(P(r), k0(1.5 * r) / (2 * np.pi), rtol=1e-9)

    def test_general_d_matches_bessel(self):
        m = 0.8
        P = green_function(4, m)
        r = np.array([0.2, 1.0, 2.5])
        expect = (2 * np.pi) ** -2 * (m / r) * kv(1.0, m * r)
        np.testing.assert_allclose(P(r), expect, rtol=1e-9)

    def test_massless_power_law(self):
        P = green_function(3, 0.0)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(P(r), 1.0 / (4 * np.pi * r), rtol=1e-14)
        P5 = green_function(5, 0.0)
        omega4 = 2 * math.pi ** 2.5 / math.gamma(2.5)
        np.testing.assert_allclose(P5(r), r ** -3 / (3 * omega4), rtol=1e-13)

    def test_massless_low_dim_rejected(self):
        with pytest.raises(UnsupportedCase):
            green_function(2, 0.0)
        with pytest.raises(UnsupportedCase):
            green_function(1, 0.0)

    def test_monotone_decay(self):
        r = np.linspace(0.05, 6.0, 300)
        for d in (1, 2, 3, 4):
            for m in (0.5, 1.0, 2.0):
                vals = green_function(d, m)(r)
                assert np.all(np.diff(vals) < 0)

    def test_symmetry_in_the_difference(self):
        # P depends on |x - y| only, so both argument orders agree exactly
        rng = np.random.default_rng(0)
        P = green_function(3, 1.0)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3))
        rxy = np.linalg.norm(x - y, axis=1)
        ryx = np.linalg.norm(y - x, axis=1)
        np.testing.assert_array_equal(P(rxy), P(ryx))

    def test_scaling_degree_fields(self):
        assert green_function(1, 1.0).sd == 0
        P2 = green_function(2, 1.0)
        assert P2.sd == 0 and P2.has_log_singularity
        assert green_function(3, 1.0).sd == 1
        assert green_function(5, 0.5).sd == 3
        assert not green_function(3, 1.0).has_log_singularity


class TestUDerivatives:
    def test_first_derivative_matches_finite_difference(self):
        # the callables take u = r^2, not r
        for d, m in ((3, 1.0), (2, 0.7), (3, 0.0), (4, 1.3)):
            P = Propagator(d, m)
            p1 = P.u_derivative(1)
            h = 1e-6
            for u in (0.3, 1.2):
                fd = (float(P.power_callable(1)(math.sqrt(u + h)))
                      - float(P.power_callable(1)(math.sqrt(u - h)))) / (2 * h)
                assert float(p1(u)) == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_matches_finite_difference(self):
        P = Propagator(3, 1.0)
        p2 = P.u_derivative(2)
        h = 1e-4
        p1 = P.u_derivative(1)
        for u in (0.5, 2.0):
            fd = (float(p1(u + h)) - float(p1(u - h))) / (2 * h)
            assert float(p2(u)) == pytest.approx(fd, rel=1e-5)


class TestVerifyFundamentalSolution:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_residual_small(self, d, m):
        phi = TestFunction(d, (0.1,) * d, 1.0, 1.0)
        P = green_function(d, m)
        res = verify_fundamental_solution(P, phi, DEFAULT_SCHEME)
        assert res < 1e-6 * max(1.0, float(phi(np.zeros((1, d)))[0]))

    def test_offset_bump_pairs_to_zero(self):
        # phi(0) = 0 and P smooth on supp phi
        phi = TestFunction(3, (2.0, 0.0, 0.0), 1.0)
        P = green_function(3, 1.0)
        res = verify_fundamental_solution(P, phi, DEFAULT_SCHEME)
        assert res < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("center,radius", [
        ((2.0, 0.0), 1.0), ((0.5, 0.2), 0.9), ((1.2, 0.1), 1.1),
        ((-0.4, 0.3), 1.3)])
    def test_off_centre_residual_at_roundoff(self, d, center, radius):
        # the polar rule runs over the window where the bump is nonzero,
        # so the default 96 nodes settle off-centre bumps to roundoff; a
        # rule over the whole sphere leaves 1e-9 at (2, 0, 0) even with
        # 512 nodes
        phi = TestFunction(d, center + (0.0,) * (d - 2), radius, 1.3)
        res = verify_fundamental_solution(green_function(d, 1.0), phi,
                                          DEFAULT_SCHEME)
        assert res <= 1e-13

    def test_linearity_in_amplitude(self):
        phi = TestFunction(2, (0.2, -0.1), 0.9, 1.0)
        phi5 = TestFunction(2, (0.2, -0.1), 0.9, 5.0)
        P = green_function(2, 1.0)
        r1 = verify_fundamental_solution(P, phi, DEFAULT_SCHEME)
        r5 = verify_fundamental_solution(P, phi5, DEFAULT_SCHEME)
        assert r5 <= 5 * r1 + 1e-12


class TestKernelBlocks:
    """Decorated kernel blocks against derivatives in r of the d = 3
    Yukawa potential: d_i P = P'(r) z_i / r, and
    d_i d_j P = P'' z_i z_j / r^2 + P' (delta_ij / r - z_i z_j / r^3),
    with z = x - y and d_y = -d_x."""

    x = np.array([[0.1, 0.2, -0.3], [0.5, -0.4, 0.2]])
    y = np.array([[2.4, 0.1, 0.0], [2.0, -1.1, 0.6], [2.9, 0.3, -0.5]])

    def radial(self):
        z = self.x[:, None, :] - self.y[None, :, :]
        r = np.linalg.norm(z, axis=-1)
        p1 = -np.exp(-r) * (1.0 + r) / (4 * np.pi * r**2)
        p2 = np.exp(-r) * (2.0 + 2.0 * r + r**2) / (4 * np.pi * r**3)
        return z, r, p1, p2

    def hessian(self, i, j):
        z, r, p1, p2 = self.radial()
        zz = z[..., i] * z[..., j]
        return p2 * zz / r**2 + p1 * ((i == j) / r - zz / r**3)

    def test_plain_power(self):
        _, r, _, _ = self.radial()
        P = green_function(3, 1.0)
        np.testing.assert_allclose(kernel_matrix(P, self.x, self.y, 2),
                                   (np.exp(-r) / (4 * np.pi * r)) ** 2,
                                   rtol=1e-13)

    def test_first_order(self):
        z, r, p1, _ = self.radial()
        P = green_function(3, 1.0)
        np.testing.assert_allclose(
            kernel_matrix(P, self.x, self.y, 1, (0, 0, 1)),
            p1 * z[..., 2] / r, rtol=1e-12)
        np.testing.assert_allclose(
            kernel_matrix(P, self.x, self.y, 1, (), (0, 1, 0)),
            -p1 * z[..., 1] / r, rtol=1e-12)

    def test_second_order(self):
        P = green_function(3, 1.0)
        np.testing.assert_allclose(
            kernel_matrix(P, self.x, self.y, 1, (1, 0, 0), (0, 1, 0)),
            -self.hessian(0, 1), rtol=1e-12)
        np.testing.assert_allclose(
            kernel_matrix(P, self.x, self.y, 1, (0, 2, 0)),
            self.hessian(1, 1), rtol=1e-12)

    def test_limits(self):
        P = green_function(3, 1.0)
        with pytest.raises(UnsupportedCase):
            P.blocks([(2, (1, 0, 0), ())])
        with pytest.raises(UnsupportedCase):
            P.blocks([(1, (2, 0, 0), (1, 0, 0))])


class TestDistances:
    @pytest.mark.parametrize("nx, ny, d", [
        (1372, 120, 3), (1320, 66, 3), (616, 120, 3),  # ring blocks of verify
        (224, 224, 2), (120, 120, 2), (5, 0, 3), (0, 7, 2), (1, 1, 1)])
    def test_bit_identical_to_cdist(self, nx, ny, d):
        rng = np.random.default_rng(nx + ny + d)
        x = rng.normal(size=(nx, d))
        x[:, 0] += 2.5
        y = rng.normal(size=(ny, d))
        # shared points give exact zeros
        y[: min(nx, ny) // 3] = x[: min(nx, ny) // 3]
        np.testing.assert_array_equal(distances(x, y), cdist(x, y))
