"""Tests for the smooth-expression layer (SmoothMap / RadialMap / BumpCore)."""

import numpy as np
import pytest
import sympy as sp

from eucren import expr
from eucren.cli import parse_config, run
from eucren.expr import BumpCore, RadialMap, SmoothMap, coords
from eucren.functionals import FieldConfiguration


def central_diff(f, x, i, h=1e-5):
    """Second-order central difference of f along coordinate i at point x."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[i] = h
    return (f(x + e) - f(x - e)) / (2 * h)


class TestBumpCore:
    def test_zero_at_and_below_zero(self):
        assert BumpCore(0) == 0
        assert BumpCore(-3) == 0
        assert BumpCore(sp.Rational(-1, 2)) == 0

    def test_positive_values(self):
        t = 0.7
        val = float(BumpCore(sp.Float(t)).evalf())
        assert val == pytest.approx(np.exp(-1 / t), rel=1e-12)

    def test_derivative_rule(self):
        t = sp.Symbol("t")
        d = sp.diff(BumpCore(t), t)
        assert sp.simplify(d - BumpCore(t) / t**2) == 0

    @pytest.mark.parametrize("t", [
        np.array([-2.0, -1e-300, -0.0, 0.0, 1e-310, 1e-300, 0.004, 0.7,
                  3.0, np.inf, -np.inf, np.nan]),
        np.float64(0.0), np.float64(0.7), np.float64(np.nan), -1.5,
    ])
    def test_numpy_core_matches_the_where_form(self, t):
        # the in-place core is bit-identical to the plain formula,
        # NaN -> 0 and 0-d input included
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            ref = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)),
                           0.0)
        got = expr._bumpcore_numpy(t)
        assert got.shape == t.shape
        np.testing.assert_array_equal(got, ref)
        assert not np.isnan(got).any()


class TestSmoothMap:
    def test_constant_and_coordinate(self):
        c = SmoothMap.constant(2.5, 3)
        assert c.is_constant
        assert c.constant_value() == 2.5
        x1 = SmoothMap.coordinate(0, 3)
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 1.0]])
        np.testing.assert_allclose(x1(pts), [1.0, -4.0])

    def test_arithmetic_matches_pointwise(self):
        rng = np.random.default_rng(11)
        x = SmoothMap.coordinate(0, 2)
        y = SmoothMap.coordinate(1, 2)
        f = x * x + 3 * y - 1.5
        g = f * f + x
        pts = rng.normal(size=(20, 2))
        expect = (pts[:, 0] ** 2 + 3 * pts[:, 1] - 1.5) ** 2 + pts[:, 0]
        np.testing.assert_allclose(g(pts), expect, rtol=1e-12)

    def test_diff_against_central_difference(self):
        xs = coords(2)
        f = SmoothMap(sp.sin(xs[0]) * sp.exp(-(xs[0] ** 2 + 2 * xs[1] ** 2)), 2)
        df = f.diff((1, 0))
        for pt in [np.array([0.3, -0.2]), np.array([1.1, 0.7])]:
            approx = central_diff(lambda q: float(f(q)), pt, 0)
            assert float(df(pt)) == pytest.approx(approx, rel=1e-7, abs=1e-9)

    def test_bump_support_is_exact(self):
        f = SmoothMap.bump(3, center=(0.5, 0.0, -1.0), radius=0.8, amplitude=2.0)
        center = np.array([0.5, 0.0, -1.0])
        # dead outside the closed ball, including exactly on the sphere
        for scale in (0.8, 0.81, 1.5, 10.0):
            pt = center + np.array([scale, 0, 0])
            assert f(pt) == 0.0
        # positive strictly inside
        assert f(center) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
        assert float(f(center + np.array([0.4, 0, 0]))) > 0

    def test_bump_derivatives_bounded_near_boundary(self):
        # High derivatives of the mollifier stay finite as the boundary is
        # approached from inside (the defining property of the glueing).
        f = SmoothMap.bump(1, center=(0.0,), radius=1.0)
        d4 = f.diff((4,))
        s = 1.0 - np.geomspace(1e-3, 1e-1, 15)
        vals = d4(s.reshape(-1, 1))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1e9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SmoothMap.coordinate(0, 2) + SmoothMap.coordinate(0, 3)


class TestRadialMap:
    def test_matches_smoothmap_values(self):
        rm = RadialMap.bump_profile(3, (0.2, -0.1, 0.4), 1.3, amplitude=0.7)
        sm = rm.to_smoothmap()
        rng = np.random.default_rng(5)
        pts = rng.normal(scale=0.6, size=(40, 3)) + np.array([0.2, -0.1, 0.4])
        np.testing.assert_allclose(rm(pts), sm(pts), rtol=1e-12, atol=1e-300)

    def test_laplacian_agrees_with_cartesian(self):
        rm = RadialMap.bump_profile(2, (0.0, 0.0), 1.0)
        lap_radial = rm.laplacian()
        lap_cart = rm.to_smoothmap().laplacian()
        pts = np.array([[0.0, 0.0], [0.3, 0.1], [-0.5, 0.45], [0.6, -0.6]])
        np.testing.assert_allclose(lap_radial(pts), lap_cart(pts), rtol=1e-9, atol=1e-12)

    def test_laplacian_no_singularity_at_center(self):
        # The u = s^2 form has no 1/s term, so the center value is exact.
        rm = RadialMap.bump_profile(3, (0.0, 0.0, 0.0), 1.0)
        val = rm.laplacian()(np.zeros(3))
        # Lap f(0) = 2d g'(0) with g(u) = exp(-1/(1-u)): g'(0) = -e^{-1}
        assert float(val) == pytest.approx(-6 * np.exp(-1.0), rel=1e-12)

    def test_helmholtz_operator(self):
        m = 1.7
        rm = RadialMap.bump_profile(3, (0.0, 0.0, 0.0), 1.0)
        h = rm.helmholtz(m)
        pts = np.array([[0.1, 0.2, -0.3], [0.0, 0.0, 0.0]])
        expect = -rm.laplacian()(pts) + m**2 * rm(pts)
        np.testing.assert_allclose(h(pts), expect, rtol=1e-12)

    def test_plateau_profile(self):
        w = RadialMap.plateau_profile(3, (0.0, 0.0, 0.0), radius=1.0, plateau_fraction=0.5)
        inner = np.array([[0.0, 0.0, 0.0], [0.3, 0.3, 0.2], [0.49, 0.0, 0.0]])
        outer = np.array([[1.0, 0.0, 0.0], [0.8, 0.8, 0.0], [0.0, 0.0, 2.0]])
        np.testing.assert_allclose(w(inner), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w(outer), 0.0, rtol=0, atol=1e-15)
        mid = w(np.array([0.75, 0.0, 0.0]))
        assert 0.0 < float(mid) < 1.0

    def test_profile_taylor(self):
        rm = RadialMap.bump_profile(1, (0.0,), 2.0, amplitude=3.0)
        c0, c1 = rm.profile_taylor_u(1)
        # g(u) = 3 exp(-1/(1-u/4)): g(0) = 3/e, g'(0) = -3/(4e)
        assert c0 == pytest.approx(3 * np.exp(-1.0), rel=1e-12)
        assert c1 == pytest.approx(-0.75 * np.exp(-1.0), rel=1e-12)


class TestCompileOnce:
    def test_verify_compiles_each_expression_once(self, monkeypatch):
        compiled = []
        compile_ = sp.lambdify

        def recording(args, body, **kwargs):
            compiled.append((args, body))
            return compile_(args, body, **kwargs)

        monkeypatch.setattr(sp, "lambdify", recording)
        expr._compiled.cache_clear()
        run(parse_config("command=verify d=1 m=1 seed=3"))
        assert len(compiled) == len(set(compiled)) > 0

    def test_float_precision_keeps_separate_entries(self):
        # equal hashes, unequal expressions: a 53-bit Float prints 15
        # digits into the compiled code, a literal keeps all 17
        x1 = coords(1)[0]
        short = SmoothMap(sp.Float(1.1455927773739436) * x1, 1)
        full = FieldConfiguration.from_expression("1.1455927773739436*x1", 1)
        at_one = np.array([[1.0]])
        assert float(full(at_one)[0]) == 1.1455927773739436
        assert float(short(at_one)[0]) != float(full(at_one)[0])
