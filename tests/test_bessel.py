"""Bessel-K evaluator against independent oracles.

Integer orders come from the package's own series and fitted rational
forms of K_0 and K_1, so they are checked against mpmath at 40 digits
and against the integral K_nu(x) = int_0^oo exp(-x cosh t) cosh(nu t) dt
under adaptive QUADPACK; half-integer orders, computed from closed
forms, are checked against scipy's kv.
"""

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad
from scipy.optimize import brentq

from eucren.bessel import besselk
from eucren.errors import DomainError

ORDERS = [0.0, 1.0, 2.0, 3.0, 5.0, 0.5, 1.5, 2.5, 4.5]


def cosh_integral(nu, x):
    """K_nu(x) from its Laplace-type integral representation, cut
    where the integrand has fallen by e^-60 from its value at t = 0."""
    log_f = lambda t: -x * np.cosh(t) + nu * t  # noqa: E731
    top = brentq(lambda t: log_f(0.0) - log_f(t) - 60.0, 0.0, 50.0)

    def f(t):
        return 0.5 * (np.exp(log_f(t)) + np.exp(log_f(t) - 2.0 * nu * t))
    return quad(f, 0.0, top, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def mpmath_k(nu, x):
    with mpmath.workdps(40):
        return np.array([float(mpmath.besselk(nu, mpmath.mpf(v))) for v in x])


class TestBesselK:
    @pytest.mark.parametrize("nu", ORDERS)
    def test_matches_scipy(self, nu):
        x = np.geomspace(1e-3, 30.0, 200)
        ours = besselk(nu, x)
        if float(nu).is_integer():
            ref = np.array([cosh_integral(nu, xi) for xi in x])
        else:
            ref = scipy.special.kv(nu, x)
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_switchover_is_seamless(self):
        # orders within 1e-12 of 1/2 take the closed form
        x = np.geomspace(0.05, 20.0, 41)
        closed = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        for nu in (0.5 - 1e-13, 0.5 + 1e-13):
            np.testing.assert_array_equal(besselk(nu, x), closed)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_orders_zero_and_one_match_mpmath(self, nu):
        # the series up to x = 1, the fitted rational form above it; both
        # sides of the crossover and its neighbours in float64
        one = np.nextafter(1.0, [0.0, 2.0])
        x = np.concatenate([np.geomspace(1e-8, 700.0, 400), [1.0], one,
                            np.linspace(0.9, 1.1, 41)])
        np.testing.assert_allclose(besselk(nu, x), mpmath_k(nu, x),
                                   rtol=3e-15, atol=0.0)

    @pytest.mark.parametrize("nu", [2, 3, 4, 5])
    def test_higher_integer_orders_match_mpmath(self, nu):
        # the upward recurrence from K_0 and K_1
        x = np.geomspace(1e-8, 700.0, 120)
        np.testing.assert_allclose(besselk(nu, x), mpmath_k(nu, x),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("nu", [0, 1, 2, 0.5, 2.5])
    def test_underflow_gives_zero(self, nu):
        # e^-x underflows past x = 745: K is 0.0 there, not nan
        x = np.array([746.0, 800.0, 1e4, 1e300])
        np.testing.assert_array_equal(besselk(nu, x), 0.0)

    @pytest.mark.parametrize("nu", [0.3, 1e-11, 0.5 + 1e-11, 2.75])
    def test_other_orders_raise(self, nu):
        with pytest.raises(DomainError):
            besselk(nu, np.array([1.0, 2.0]))

    def test_half_integer_closed_form(self):
        x = np.array([0.3, 1.0, 4.2])
        expect = np.sqrt(np.pi / (2 * x)) * np.exp(-x)
        np.testing.assert_allclose(besselk(0.5, x), expect, rtol=1e-14)

    def test_negative_order_symmetry(self):
        x = np.array([0.7, 3.3])
        np.testing.assert_allclose(besselk(-1.5, x), besselk(1.5, x), rtol=0)

    def test_recurrence_consistency(self):
        x = np.geomspace(0.05, 20.0, 50)
        for nu in (1.0, 1.5, 2.0):
            lhs = besselk(nu + 1, x)
            rhs = besselk(nu - 1, x) + (2 * nu / x) * besselk(nu, x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_scalar_in_scalar_out(self):
        v = besselk(0.0, 1.0)
        assert isinstance(v, float)
        assert v == pytest.approx(0.42102443824070834, rel=1e-12, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            besselk(0.0, 0.0)
        with pytest.raises(DomainError):
            besselk(1.0, np.array([1.0, -2.0]))
