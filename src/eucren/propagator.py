"""Fundamental solutions of (-Lap + m^2) and the numeric pairing front end.

The Propagator type carries the closed-form radial profile P(r) per
dimension together with its UV scaling data.  ``pair`` is the single
entry point for evaluating a ScalarDistribution against test
functions; it dispatches by component structure:

* disconnected factor graphs split into a product of component
  pairings (absolute coordinates factorize);
* two-point components reduce to a 1-d radial integral against the
  correlation profile of the two tests, with Taylor subtraction when
  the factor is renormalized;
* three-point components go through the triple-correlation reduction
  (see ``triple``);
* connected components on four or more points are outside the numeric
  envelope and raise UnsupportedCase.

Integrability gates fire before any quadrature: a bare factor whose
pair locus has divergence degree >= 0 cannot be paired against tests
overlapping that locus.  For bump tests, ball overlap is exactly the
condition that the integrand is nonvanishing near the locus.

Derivative-decorated factors are evaluated only on disjoint supports
(tensor route); their overlapping-support pairings are not reduced to
radial form here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bessel import besselk
from .errors import (
    DomainError,
    NonIntegrableSingularity,
    UnsupportedCase,
    UnsupportedKernel,
)
from .kernels import DeltaKernel, PropFactor, ScalarDistribution
from .quadrature import (
    _BLOCK_ENTRIES,
    DEFAULT_SCHEME,
    ProfileSpline,
    QuadratureScheme,
    contract_pass,
    correlation_profile,
    radial_pair,
    sphere_area,
)

__all__ = [
    "Propagator",
    "QuadratureScheme",
    "WaveFrontDescriptor",
    "green_function",
    "verify_fundamental_solution",
    "pair",
    "pair_extension",
    "wavefront",
    "RadialTestView",
]


@dataclass(frozen=True)
class Propagator:
    """Euclidean-invariant decaying fundamental solution of (-Lap + m^2)."""

    d: int
    m: float

    @property
    def nu(self) -> float:
        return self.d / 2.0 - 1.0

    @property
    def sd(self) -> int:
        """UV scaling degree at the coinciding-point locus."""
        return self.d - 2 if self.d >= 3 else 0

    def edge_sd(self, factor: PropFactor) -> int:
        """Scaling degree of one factor at its pair locus: power * sd
        plus the derivative order of its decorations."""
        return factor.power * self.sd + factor.deriv_order

    @property
    def has_log_singularity(self) -> bool:
        return self.d == 2

    def __call__(self, r):
        """P(r) for r > 0, scalar or array; singular entries follow the
        closed form (inf at exactly 0 when sd > 0).  In d = 1 and 3 the
        constant is folded into the exponent, so an array costs one exp
        and, in d = 3, one in-place divide."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        with np.errstate(divide="ignore", over="ignore"):
            if self.m == 0.0:
                area = sphere_area(self.d)
                out = r ** (2 - self.d) / ((self.d - 2) * area)
            elif self.d in (1, 3):
                out = np.multiply(r, -self.m)
                out -= math.log(2.0 * self.m if self.d == 1 else 4.0 * np.pi)
                np.exp(out, out=out)
                if self.d == 3:
                    out /= r
            else:
                out = ((2.0 * np.pi) ** (-self.d / 2.0) * self.m ** self.nu
                       * r ** (-self.nu) * besselk(self.nu, r * self.m))
        return float(out[0]) if scalar else out

    def power_callable(self, j: int) -> Callable:
        if j == 0:
            return lambda r: np.ones_like(np.asarray(r, dtype=float))
        return lambda r: self(r) ** j

    def u_derivative(self, k: int) -> Callable:
        """k-th derivative of P viewed as a function of u = r^2.

        Closed form from d/dr[r^-nu K_nu(mr)] = -m r^-nu K_{nu+1}(mr):
        each u-derivative shifts the Bessel order up by one and
        multiplies by -m/2.
        """
        if self.m == 0.0:
            area = sphere_area(self.d)
            expo = (2.0 - self.d) / 2.0
            coef = 1.0 / ((self.d - 2) * area)
            for jj in range(k):
                coef *= expo - jj

            def deriv0(u):
                u = np.asarray(u, dtype=float)
                return coef * u ** (expo - k)
            return deriv0

        c = (2.0 * np.pi) ** (-self.d / 2.0) * self.m ** self.nu * (-self.m / 2.0) ** k
        order = self.nu + k

        def deriv(u):
            u = np.asarray(u, dtype=float)
            r = np.sqrt(u)
            return c * r ** (-order) * besselk(order, self.m * r)
        return deriv

    def blocks(self, specs: Sequence[tuple]) -> Callable:
        """Kernel matrices (x, y) -> [d_x^left d_y^right P^power(|x - y|)
        for (power, left, right) in specs] between two point sets, as
        ``quadrature.contract_pass`` takes them.

        One call forms the distances once and P once, through
        ``__call__``; higher powers are products of that matrix, made in
        place where no lower power is asked for.  Decorations use the
        u-derivatives of P at u = |x - y|^2 of the same distances; they
        are implemented on single powers up to total order 2.  A
        derivative in y is minus the one in x.
        """
        plain, decorated = set(), {}
        for power, left, right in specs:
            alpha = [0] * self.d
            for deco in (left, right):
                for i, a in enumerate(deco):
                    alpha[i] += a
            if sum(alpha) == 0:
                plain.add(power)
                continue
            if power != 1:
                raise UnsupportedCase(
                    "decorations are supported on single powers only")
            if sum(alpha) > 2:
                raise UnsupportedCase(
                    "decorated kernels implemented to total order 2")
            axes = [i for i, a in enumerate(alpha) for _ in range(a)]
            decorated[left, right] = ((-1.0) ** sum(right), axes)
        top = max(plain, default=0)
        # P' enters every decorated kernel, P'' those of order 2
        n_derivs = max((len(axes) for _, axes in decorated.values()),
                       default=0)
        derivs = [self.u_derivative(k) for k in range(1, n_derivs + 1)]

        def kernel_blocks(x, y):
            r = distances(x, y)
            out = {}
            if plain:
                p = acc = self(r)
                out[1] = p
                for j in range(2, top + 1):
                    keep = (j - 1) in plain or (acc is p and j < top)
                    acc = acc * p if keep else np.multiply(acc, p, out=acc)
                    out[j] = acc
            if decorated:
                u = np.square(r, out=r)
                pu = [dk(u) for dk in derivs]
                for (left, right), (sign, axes) in decorated.items():
                    diff = [x[:, None, i] - y[None, :, i] for i in axes]
                    if len(axes) == 1:
                        out[left, right] = sign * 2.0 * diff[0] * pu[0]
                        continue
                    k = 4.0 * diff[0] * diff[1] * pu[1]
                    if axes[0] == axes[1]:
                        k += 2.0 * pu[0]
                    out[left, right] = sign * k
            return [out[left, right] if (left, right) in decorated
                    else out[power] for power, left, right in specs]
        return kernel_blocks


# entries of one row chunk of ``distances``: its two arrays stay in cache
_DISTANCE_ENTRIES = _BLOCK_ENTRIES >> 4


def distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j| between two point sets, bit for bit as scipy's
    ``cdist`` forms it: the squared coordinate differences summed in
    axis order, then the root.  Rows go in chunks of about
    _DISTANCE_ENTRIES entries, one in-place pass per coordinate each."""
    out = np.empty((len(x), len(y)))
    y = np.ascontiguousarray(y.T)
    step = max(1, _DISTANCE_ENTRIES // max(1, y.shape[1]))
    part = np.empty((min(step, len(x)), y.shape[1]))
    for lo in range(0, len(x), step):
        rows = out[lo:lo + step]
        np.subtract.outer(x[lo:lo + step, 0], y[0], out=rows)
        rows *= rows
        for i in range(1, len(y)):
            diff = part[:len(rows)]
            np.subtract.outer(x[lo:lo + step, i], y[i], out=diff)
            diff *= diff
            rows += diff
        np.sqrt(rows, out=rows)
    return out


def green_function(d: int, m: float) -> Propagator:
    """The decaying fundamental solution; the only one compatible with
    Euclidean invariance and Dirichlet behavior at infinity."""
    if d < 1 or int(d) != d:
        raise DomainError(f"dimension must be a positive integer, got {d}")
    if m < 0:
        raise DomainError(f"mass must be nonnegative, got {m}")
    if m == 0.0 and d <= 2:
        raise UnsupportedCase(
            f"no decaying massless fundamental solution in d={d}")
    return Propagator(int(d), float(m))


def _helmholtz_image(phi, m: float):
    """(-Lap + m^2) phi for a bump test function phi, as a callable of
    u = |x - c|^2: -(4u g'' + 2d g') + m^2 g from the derivatives of
    phi's profile g, with no 1/|x - c| at the center."""
    g, g1, g2 = (phi.gu(k) for k in range(3))
    return lambda u: -(4.0 * u * g2(u) + 2.0 * phi.d * g1(u)) + m * m * g(u)


def verify_fundamental_solution(P: Propagator, phi,
                                scheme: QuadratureScheme = DEFAULT_SCHEME) -> float:
    """|<P, (-Lap + m^2) phi> - phi(0)| for a bump test function phi.

    The Helmholtz image is formed in closed form (``_helmholtz_image``),
    so the residual measures only the quadrature and the correctness of
    the closed form of P.
    """
    c = float(np.linalg.norm(phi.center))
    val = radial_pair(P, _helmholtz_image(phi, P.m), phi.radius, c, P.d,
                      scheme)
    at_zero = float(phi(np.zeros(P.d)))
    return abs(val - at_zero)


# -- wave front bookkeeping -------------------------------------------


@dataclass(frozen=True)
class WaveFrontDescriptor:
    """Symbolic wave-front content: which points coincide, and the
    linear covector constraint over the coinciding points."""

    base: str
    covectors: str


_DELTA_TYPE_WF = WaveFrontDescriptor(base="x1 = x2", covectors="k1 + k2 = 0")


def wavefront(kernel) -> WaveFrontDescriptor:
    """Wave front set of a delta-type kernel or a single propagator.

    The fundamental solution shares the wave front of the delta it
    solves for; derivative decorations cannot enlarge it.  Products
    need a genuine microlocal calculus and are refused.
    """
    if isinstance(kernel, DeltaKernel):
        return _DELTA_TYPE_WF
    if isinstance(kernel, Propagator):
        return _DELTA_TYPE_WF
    if isinstance(kernel, ScalarDistribution):
        if (kernel.n_points == 2 and len(kernel.factors) == 1
                and kernel.factors[0].power == 1 and kernel.is_bare):
            return _DELTA_TYPE_WF
        raise UnsupportedKernel(
            "wave front sets of propagator products are out of scope")
    raise UnsupportedKernel(f"no wave front rule for {type(kernel).__name__}")


# -- pairing front end -------------------------------------------------


@dataclass(frozen=True)
class RadialTestView:
    """Uniform radial view of a test object for 1-d reductions: the
    squared-radius profile, support radius, the distance of its center
    from the origin, and exact origin data for counterterms.

    An array ``offset``, with ``value_at_origin`` one value per entry,
    stands for the translates of one profile to each of those
    distances; ``pair_extension`` pairs all of them in one batch.
    """

    gu: Callable
    support: float
    offset: Union[float, np.ndarray]
    value_at_origin: Union[float, np.ndarray]
    gradient_at_origin: Optional[tuple] = None


def radial_view(phi) -> RadialTestView:
    """The RadialTestView of a TestFunction; its gradient at the origin
    is -2c g'(|c|^2)."""
    c2 = float(np.dot(phi.center, phi.center))
    gp = float(phi.gu(1)(c2))
    grad = tuple(-2.0 * ci * gp for ci in phi.center)
    return RadialTestView(
        gu=phi.gu(), support=phi.radius, offset=float(np.sqrt(c2)),
        value_at_origin=float(phi(np.zeros(phi.d))), gradient_at_origin=grad)


def spline_view(profile: ProfileSpline, offset: float) -> RadialTestView:
    """Radial view of a spline profile centered at distance ``offset``
    from the origin (gradient data unavailable)."""
    return RadialTestView(
        gu=profile.profile_u(), support=profile.support_radius,
        offset=float(offset), value_at_origin=float(profile(offset)))


def _tests_overlap(f, g) -> bool:
    sep = float(np.linalg.norm(np.asarray(f.center) - np.asarray(g.center)))
    return sep < f.radius + g.radius


@lru_cache(maxsize=64)
def _correlation(f, g, d: int, scheme: QuadratureScheme) -> ProfileSpline:
    return correlation_profile(f.gu(), f.radius, g.gu(), g.radius, d, scheme)


def pair_extension(t: ScalarDistribution, phi,
                   scheme: QuadratureScheme = DEFAULT_SCHEME):
    """Pairing of a single renormalized (or integrable bare) propagator
    power with a test function on the relative space R^d.

    phi: RadialTestView, or a TestFunction, whose view ``radial_view``
    forms from its closed-form profile.  A view with an array of
    offsets gives the array of their pairings.
    """
    if t.n_points != 2 or len(t.factors) != 1:
        raise UnsupportedCase("pair_extension handles single-pair kernels only")
    factor = t.factors[0]
    if factor.deriv_order:
        raise UnsupportedCase("decorated factors have no radial extension route")
    prop = green_function(t.d, t.m)
    view = phi if isinstance(phi, RadialTestView) else radial_view(phi)
    kernel = prop.power_callable(factor.power)
    rho_div = prop.edge_sd(factor) - prop.d

    ext = factor.extension
    if (ext is None and rho_div >= 0
            and np.any(np.asarray(view.offset) < view.support)):
        raise NonIntegrableSingularity(
            f"bare P^{factor.power} in d={t.d} has divergence degree "
            f"{rho_div} >= 0 at the origin")
    if ext is None or rho_div < 0:
        # an integrable bare power, or its unique extension: the improper
        # integral; spec data is inert
        return radial_pair(kernel, view.gu, view.support, view.offset,
                           t.d, scheme)
    if rho_div > 1:
        raise UnsupportedCase(
            f"extension pairing implemented for divergence degree <= 1, "
            f"got {rho_div}")
    value = radial_pair(kernel, view.gu, view.support, view.offset, t.d,
                        scheme, cutoff=ext.cutoff,
                        value_at_origin=view.value_at_origin)
    for alpha, c_a in ext.counterterms:
        if c_a == 0.0:
            continue
        order = sum(alpha)
        if order == 0:
            value += c_a * view.value_at_origin
        elif order == 1 and rho_div >= 1:
            if view.gradient_at_origin is None:
                raise UnsupportedCase(
                    "first-order counterterms need exact origin derivatives")
            i = alpha.index(1)
            value += -c_a * view.gradient_at_origin[i]
        else:
            raise UnsupportedCase(
                f"counterterm order {order} exceeds divergence degree {rho_div}")
    return value


def _tensor_pair(prop: Propagator, factor: PropFactor, f, g,
                 scheme: QuadratureScheme) -> float:
    """<factor, f x g> on the tensor product of the tests' rules
    (``f.rule``): accurate only where the kernel is smooth on supp f x
    supp g; the radial routes handle the singular overlapping cases."""
    xp, fx = f.rule(scheme.gauss_n)
    yp, gy = g.rule(scheme.gauss_n)
    (kg,), _ = contract_pass(
        prop.blocks([(factor.power, factor.left_deriv, factor.right_deriv)]),
        xp, yp, [gy[:, None]], [np.empty((len(xp), 0))])
    return float(fx @ kg[:, 0])


def _pair_two(t: ScalarDistribution, f, g, scheme: QuadratureScheme,
              method: str) -> float:
    factor = t.factors[0]
    if t.overall is not None:
        raise UnsupportedCase(
            "two-point kernels carry their extension on the factor, not "
            "as an overall spec")
    prop = green_function(t.d, t.m)
    overlap = _tests_overlap(f, g)

    if factor.deriv_order:
        if factor.renormalized:
            raise UnsupportedCase("renormalized decorated factors unsupported")
        if overlap:
            raise UnsupportedCase(
                "decorated factors require disjoint test supports")
        return _tensor_pair(prop, factor, f, g, scheme)

    if not factor.renormalized:
        rho_div = prop.edge_sd(factor) - prop.d
        if rho_div >= 0 and overlap:
            raise NonIntegrableSingularity(
                f"bare P^{factor.power} (d={t.d}) with divergence degree "
                f"{rho_div} >= 0 paired against overlapping supports")
        if method == "tensor":
            if overlap and prop.sd > 0:
                raise UnsupportedCase(
                    "tensor route needs disjoint supports for singular kernels")
            return _tensor_pair(prop, factor, f, g, scheme)

    prof = _correlation(f, g, t.d, scheme)
    offset = float(np.linalg.norm(np.asarray(f.center) - np.asarray(g.center)))
    return pair_extension(t, spline_view(prof, offset), scheme)


def pair(t: ScalarDistribution, tests: Sequence,
         scheme: QuadratureScheme = DEFAULT_SCHEME, method: str = "auto") -> float:
    """<t, f_1 x ... x f_n> over absolute coordinates.

    ``tests`` are TestFunction-like (radial bumps); ``method`` is
    "auto" (radial reductions) or "tensor" (force the tensor rule
    where legal, for cross-validation).
    """
    if len(tests) != t.n_points:
        raise DomainError(
            f"kernel on {t.n_points} points paired with {len(tests)} tests")
    for phi in tests:
        if phi.d != t.d:
            raise DomainError("test dimension does not match kernel dimension")

    result = 1.0
    for verts, _ in t.components():
        if len(verts) == 1:
            result *= tests[verts[0]].integral()
            continue
        sub = t.relabelled(verts)
        sub_tests = [tests[v] for v in verts]
        if len(verts) == 2:
            result *= _pair_two(sub, sub_tests[0], sub_tests[1], scheme, method)
        elif len(verts) == 3:
            from .triple import pair_three
            result *= pair_three(sub, sub_tests, scheme)
        else:
            raise UnsupportedCase(
                "connected kernels on >= 4 points are outside the numeric "
                "envelope (disconnected ones factorize)")
    return result
