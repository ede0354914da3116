"""Tests for the smooth-expression layer: SmoothMap, and the closed-form
bump, its partials, and the cutoff profiles."""

import ast
import itertools
import pathlib

import mpmath
import numpy as np
import pytest
import sympy as sp

import eucren
from eucren import expr
from eucren.cli import parse_config, run
from eucren.expr import SmoothMap, bump_partial, bump_u, plateau_u
from eucren.functionals import (FieldConfiguration, LocalFunctional,
                                MonomialTerm, TestFunction, additivity_check,
                                evaluate)
from eucren.kernels import CutoffFunction
from eucren.propagator import (
    _helmholtz_image,
    green_function,
    verify_fundamental_solution,
)
from helpers import coords


def central_diff(f, x, i, h=1e-5):
    """Second-order central difference of f along coordinate i at point x."""
    x = np.asarray(x, dtype=float)
    e = np.zeros_like(x)
    e[i] = h
    return (f(x + e) - f(x - e)) / (2 * h)


class TestBumpCore:
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
        f = SmoothMap.from_expression("sin(x1)*exp(-(x1**2 + 2*x2**2))", 2)
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
        assert f(center) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12, abs=0.0)
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

    def test_bump_products_and_powers_rejected(self):
        f = SmoothMap.bump(2, center=(0.0, 0.0), radius=1.0)
        x = SmoothMap.coordinate(0, 2)
        for make in (lambda: f * x, lambda: x * f, lambda: f * f,
                     lambda: f ** 2, lambda: f ** 1, lambda: f.diff((1, 0)) ** 0):
            with pytest.raises(ValueError, match="bump terms"):
                make()
        # constant multiples scale the amplitudes
        pts = np.array([[0.2, -0.3], [0.5, 0.5]])
        np.testing.assert_array_equal((-2.5 * f)(pts), -2.5 * f(pts))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SmoothMap.coordinate(0, 2) + SmoothMap.coordinate(0, 3)


def _sympy_bump(d, center, radius, amplitude):
    """The bump A*exp(-1/(1 - |x-c|^2/r^2)) as a sympy ``Piecewise`` in
    x1..xd, 0 off the open ball."""
    u = sum((x - sp.Float(c, 40)) ** 2 for x, c in zip(coords(d), center))
    t = 1 - u / sp.Float(radius, 40) ** 2
    return sp.Piecewise((sp.Float(amplitude, 40) * sp.exp(-1 / t), t > 0),
                        (0, True))


def _numpy(e, d):
    """The sympy expression e in x1..xd as a function of points (n, d)."""
    fn = sp.lambdify(coords(d), e, "numpy")
    return lambda pts: np.broadcast_to(fn(*np.moveaxis(pts, -1, 0)),
                                       pts.shape[:-1])


def _cartesian_laplacian(d, center, radius, amplitude):
    bump = _sympy_bump(d, center, radius, amplitude)
    return _numpy(sum(sp.diff(bump, x, 2) for x in coords(d)), d)


class TestRadialMap:
    """Radial maps in closed form: the bump test function, its Helmholtz
    image, and the cutoff step, against their Cartesian sympy forms."""

    def test_matches_smoothmap_values(self):
        f = TestFunction(3, (0.2, -0.1, 0.4), 1.3, amplitude=0.7)
        sm = SmoothMap.bump(3, f.center, f.radius, f.amplitude)
        rng = np.random.default_rng(5)
        pts = rng.normal(scale=0.6, size=(40, 3)) + np.array([0.2, -0.1, 0.4])
        np.testing.assert_allclose(f(pts), sm(pts), rtol=1e-12, atol=1e-300)
        # d = 1 takes bare scalars as well as points of shape (n, 1)
        g = TestFunction(1, (0.3,), 0.8, amplitude=-1.2)
        x = np.linspace(-0.6, 1.2, 13)
        sm1 = SmoothMap.bump(1, g.center, g.radius, g.amplitude)
        np.testing.assert_allclose(g(x), sm1(x[:, None]), rtol=1e-12,
                                   atol=1e-300)
        np.testing.assert_array_equal(g(x), g(x[:, None]))

    def test_laplacian_agrees_with_cartesian(self):
        # at m = 0 the image is -Lap f, against the sympy Laplacian of
        # the Cartesian bump
        rng = np.random.default_rng(3)
        for d, center, radius in ((1, (0.2,), 0.9), (2, (0.0, 0.0), 1.0),
                                  (3, (0.1, -0.3, 0.2), 1.1)):
            f = TestFunction(d, center, radius, amplitude=1.4)
            lap = _cartesian_laplacian(d, center, radius, 1.4)
            pts = np.asarray(center) + rng.uniform(-0.7, 0.7, size=(30, d))
            u = np.sum((pts - np.asarray(center)) ** 2, axis=1)
            np.testing.assert_allclose(-_helmholtz_image(f, 0.0)(u),
                                       lap(pts), rtol=1e-9, atol=1e-12)

    def test_laplacian_no_singularity_at_center(self):
        # The u = s^2 form has no 1/s term, so the center value is exact:
        # Lap f(0) = 2d g'(0) with g(u) = exp(-1/(1-u)), g'(0) = -e^{-1}
        f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
        val = float(_helmholtz_image(f, 0.0)(0.0))
        assert val == pytest.approx(6 * np.exp(-1.0), rel=1e-12, abs=0.0)

    def test_helmholtz_operator(self):
        m = 1.7
        f = TestFunction(3, (0.3, 0.0, -0.2), 1.0, amplitude=0.8)
        sm = _numpy(_sympy_bump(3, f.center, f.radius, f.amplitude), 3)
        pts = np.array([[0.4, 0.2, -0.5], [0.3, 0.0, -0.2], [1.0, 0.1, 0.1]])
        u = np.sum((pts - np.asarray(f.center)) ** 2, axis=1)
        expect = (-_cartesian_laplacian(3, f.center, f.radius, f.amplitude)(pts)
                  + m**2 * sm(pts))
        np.testing.assert_allclose(_helmholtz_image(f, m)(u), expect,
                                   rtol=1e-9, atol=1e-12)

    def test_plateau_profile(self):
        w = CutoffFunction(3, radius=1.0, plateau_fraction=0.5)
        inner = np.linalg.norm([[0.0, 0.0, 0.0], [0.3, 0.3, 0.2],
                                [0.49, 0.0, 0.0]], axis=1)
        outer = np.linalg.norm([[1.0, 0.0, 0.0], [0.8, 0.8, 0.0],
                                [0.0, 0.0, 2.0]], axis=1)
        np.testing.assert_array_equal(w.profile(inner), 1.0)
        np.testing.assert_array_equal(w.profile(outer), 0.0)
        mid = w.profile(0.75)
        assert 0.0 < float(mid) < 1.0
        rho = np.linspace(0.0, 1.2, 25)
        np.testing.assert_array_equal(w.gu()(rho * rho), w.profile(rho))

    def test_profile_taylor(self):
        # g(u) = 3 exp(-1/(1-u/4)): g(0) = 3/e, g'(0) = -3/(4e), and
        # g''(0) = (3/16) e^{-1} p_2(1) = -3/(16e)
        f = TestFunction(1, (0.0,), 2.0, amplitude=3.0)
        c0, c1, c2 = (float(f.gu(k)(0.0)) for k in range(3))
        assert c0 == pytest.approx(3 * np.exp(-1.0), rel=1e-12, abs=0.0)
        assert c1 == pytest.approx(-0.75 * np.exp(-1.0), rel=1e-12, abs=0.0)
        assert c2 == pytest.approx(-3 / 16 * np.exp(-1.0), rel=1e-12,
                                   abs=0.0)


def _bump_oracle(k):
    """(u, r^2, A) -> the k-th u-derivative of A exp(-1/(1 - u/r^2)) by
    sympy, evaluated in mpmath."""
    u, r2, a = sp.symbols("u r2 A", real=True)
    return sp.lambdify((u, r2, a), sp.diff(a * sp.exp(-1 / (1 - u / r2)), u, k),
                       "mpmath")


class TestClosedForms:
    """``bump_u`` and ``plateau_u`` against sympy, at 40 digits."""

    CASES = ((1.0, 1.0), (0.7, 1.3), (-2.5, 0.45))  # (amplitude, radius)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bump_derivatives_match_sympy(self, k):
        # max |g^(k)| is the scale: p_2 has a root at t = 1/2, where a
        # relative check would ask for an exact zero
        oracle = _bump_oracle(k)
        t = np.linspace(0.05, 1.0, 191)
        for amplitude, radius in self.CASES:
            u = radius * radius * (1.0 - t)
            got = bump_u(u, radius, amplitude, k)
            with mpmath.workdps(40):
                ref = np.array([float(oracle(mpmath.mpf(x),
                                             mpmath.mpf(radius) ** 2,
                                             mpmath.mpf(amplitude)))
                                for x in u])
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bump_derivatives_near_the_boundary(self, k):
        # g is ill-conditioned in u there (relative error about eps/t^2),
        # so the oracle is taken at the float t the closed form computes;
        # exp(-1/t) still turns the rounding of 1/t into about eps/t
        oracle = _bump_oracle(k)
        for amplitude, radius in self.CASES:
            r2 = radius * radius
            u = r2 * (1.0 - np.geomspace(2e-3, 0.05, 60))
            t = 1.0 - u / r2
            got = bump_u(u, radius, amplitude, k)
            with mpmath.workdps(40):
                ref = np.array([float(oracle(mpmath.mpf(r2) * (1 - mpmath.mpf(x)),
                                             mpmath.mpf(r2),
                                             mpmath.mpf(amplitude)))
                                for x in t])
            assert np.all(ref != 0.0)
            assert np.all(np.abs(got - ref) <= 1e-15 / t * np.abs(ref))

    def test_bump_is_zero_off_the_support(self):
        for k in (0, 1, 2, 3, 12):
            # t <= 0, the sphere itself included
            out = bump_u(np.array([1.0, 1.0 + 1e-12, 1.5, 4.0, np.inf]),
                         1.0, 2.0, k)
            np.testing.assert_array_equal(out, 0.0)
            # the smallest positive t that 1 - u/r^2 can produce: E(t)
            # underflows, and p_k(1/t) must not turn it into nan
            u = 1.0 - 2.0 ** -53
            assert 1.0 - u == 2.0 ** -53
            edge = bump_u(u, 1.0, 2.0, k)
            assert np.isfinite(edge) and edge == 0.0

    def test_plateau_matches_sympy(self):
        u, a2, b2 = sp.symbols("u a2 b2", real=True)
        s = (u - a2) / (b2 - a2)

        def core(t):
            return sp.Piecewise((sp.exp(-1 / t), t > 0), (0, True))

        oracle = sp.lambdify((u, a2, b2),
                             core(1 - s) / (core(1 - s) + core(s)), "mpmath")
        inner, outer = 0.45, 1.2
        grid = np.linspace(0.0, 2.0, 401)
        got = plateau_u(grid, inner, outer)
        with mpmath.workdps(40):
            ref = np.array([float(oracle(mpmath.mpf(x), mpmath.mpf(inner) ** 2,
                                         mpmath.mpf(outer) ** 2))
                            for x in grid])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)
        np.testing.assert_array_equal(got[grid <= inner**2], 1.0)
        np.testing.assert_array_equal(got[grid >= outer**2], 0.0)


class TestBumpPartial:
    """``bump_partial`` against the sympy ``Piecewise`` bump, evaluated
    in mpmath at 40 digits."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_partials_match_sympy(self, d):
        center = (0.3, -0.2, 0.1)[:d]
        radius, amplitude = 0.9, -1.3
        bump = _sympy_bump(d, center, radius, amplitude)
        rng = np.random.default_rng(d)
        # t = 1 - |y|^2/r^2 in [0.05, 1], random directions
        direction = rng.normal(size=(40, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        rho = radius * np.sqrt(1.0 - rng.uniform(0.05, 1.0, 40))
        y = direction * rho[:, None]
        outside = direction * radius * rng.uniform(1.0, 1.5, 40)[:, None]
        outside[0] = direction[0] * radius
        alphas = [a for a in itertools.product(range(5), repeat=d)
                  if sum(a) <= 4]
        for alpha in alphas:
            expr_ = bump
            for x, a in zip(coords(d), alpha):
                expr_ = sp.diff(expr_, x, a) if a else expr_
            oracle = sp.lambdify(coords(d), expr_, "mpmath")
            got = bump_partial(y, radius, amplitude, alpha)
            with mpmath.workdps(40):
                ref = np.array([float(oracle(*(mpmath.mpf(float(c)) + x
                                               for c, x in zip(center, p))))
                                for p in y])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale, alpha
            np.testing.assert_array_equal(
                bump_partial(outside, radius, amplitude, alpha), 0.0)

    def test_field_partials_are_bump_partials(self):
        f = SmoothMap.bump(2, (0.3, -0.2), 0.9, 1.7)
        pts = np.array([[0.1, 0.0], [0.5, -0.6], [2.0, 2.0]])
        np.testing.assert_array_equal(
            f.diff((2, 1))(pts),
            bump_partial(pts - np.array([0.3, -0.2]), 0.9, 1.7, (2, 1)))


class TestNumericCore:
    """The pairing, renormalization and verification routes evaluate no
    expression tree, and no module of the package imports sympy or
    scipy.interpolate."""

    @pytest.fixture
    def no_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expression-tree work in the numeric core")

        diff = expr._diff
        monkeypatch.setattr(expr, "_value", refuse)
        monkeypatch.setattr(expr, "_diff", lambda e, i: refuse()
                            if isinstance(e, tuple) else diff(e, i))

    def test_fundamental_solution_is_numeric(self, no_tree):
        phi = TestFunction(3, (0.1, 0.0, -0.2), 1.0, amplitude=1.3)
        assert verify_fundamental_solution(green_function(3, 1.0), phi) < 1e-9

    def test_renormalize_sweep_is_numeric(self, no_tree):
        # the lambda sweep pairs through radial_view, the pairing through
        # correlation profiles
        text = ("command=renormalize d=3 m=1 factors=0-1:3\n"
                "[functional f]\ncenter=0,0,0\nradius=0.8\n"
                "[functional g]\ncenter=0.5,0,0\nradius=0.8\n")
        sections = {s.name: dict(s.pairs) for s in run(parse_config(text)).sections}
        assert abs(float(sections["scaling"]["estimate"]) - 3.0) < 0.2
        assert np.isfinite(float(sections["pairing"]["value"]))

    def test_triangle_is_numeric(self, no_tree):
        text = ("command=renormalize d=3 m=1 factors=0-1:3,0-2:2,1-2:1 "
                "gauss_n=6\n"
                "[functional f]\ncenter=0,0,0\nradius=1.0\n"
                "[functional g]\ncenter=0,0,0\nradius=0.9\n"
                "[functional h]\ncenter=0,0,0\nradius=0.8\n")
        pairing = run(parse_config(text)).sections[-1]
        assert pairing.name == "pairing"
        assert np.isfinite(float(dict(pairing.pairs)["value"]))

    def test_additivity_on_bump_fields_is_numeric(self, no_tree):
        f = TestFunction(2, (0.1, -0.2), 1.2, 1.3)
        F = LocalFunctional([MonomialTerm(3, ((0, 0), (1, 0), (0, 2)), f),
                             MonomialTerm(2, ((0, 0), (0, 0)), f)])
        phi = FieldConfiguration.bump(2, (-3.0, 0.0), 0.9, 0.7)
        chi = FieldConfiguration.bump(2, (3.0, 0.0), 1.1, -1.2)
        psi = (FieldConfiguration.bump(2, (0.2, 0.1), 2.5, 0.8)
               + FieldConfiguration.bump(2, (-0.3, 0.0), 1.5, -0.4))
        assert additivity_check(F, phi, psi, chi) == 0.0
        assert evaluate(F, psi) != 0.0

    def test_no_module_imports_sympy_or_interpolate(self):
        # a static check: an import inside a function counts too
        importers = set()
        for path in pathlib.Path(eucren.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "sympy"
                       or n.startswith(("scipy.interpolate", "scipy.optimize"))
                       for n in names):
                    importers.add(path.stem)
        assert importers == set()


class TestCompileOnce:
    """A background's tree is its compiled form: it is built once per
    job and evaluated with numpy."""

    def test_verify_compiles_each_expression_once(self, monkeypatch):
        parsed = []
        parse = SmoothMap.from_expression

        def recording(text, d):
            parsed.append(text)
            return parse(text, d)

        monkeypatch.setattr(SmoothMap, "from_expression",
                            staticmethod(recording))
        run(parse_config("command=verify d=1 m=1 seed=3"))
        assert len(parsed) == len(set(parsed)) > 0

    def test_float_coefficient_keeps_every_digit(self):
        # a 53-bit float from arithmetic and a literal of its 17 digits
        # build the same tree, and both evaluate to that float
        x1 = SmoothMap.coordinate(0, 1)
        short = 1.1455927773739436 * x1
        full = FieldConfiguration.from_expression("1.1455927773739436*x1", 1)
        assert short.expr == full.expr
        assert float(full(np.array([[1.0]]))[0]) == 1.1455927773739436
        assert float(short(np.array([[1.0]]))[0]) == 1.1455927773739436
