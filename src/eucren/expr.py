"""Closed-form smooth functions on R^d as exact expression trees.

Two representations cooperate here:

* ``SmoothMap`` wraps a sympy expression in coordinates x1..xd.  The
  grammar is constants, coordinates, polynomials, exponentials,
  sine/cosine, plus the compactly supported atom ``BumpCore``
  (see below), and is closed under exact partial differentiation.

* ``RadialMap`` stores a rotation-invariant function about a center c
  through its profile g(u) in the *squared* distance u = |x-c|^2.
  Working in u keeps every radial formula (notably the Laplacian
  4*u*g'' + 2*d*g') free of 1/|x-c| singularities at the center.

``BumpCore(t)`` is exp(-1/t) for t > 0 and identically 0 for t <= 0,
the standard C-infinity transition germ.  Its derivative is
BumpCore(t)/t**2, so derivative trees stay inside the grammar.
Numeric caveat: expressions produced by differentiation contain
rational prefactors 1/t**k that are 0*inf = nan exactly on the support
boundary t = 0; all quadrature grids in this package therefore sample
strictly inside or strictly outside supports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
import sympy as sp


class BumpCore(sp.Function):
    """exp(-1/t) smoothly glued to 0 for t <= 0."""

    nargs = 1

    @classmethod
    def eval(cls, t):
        if t.is_Number:
            if t.is_zero or t.is_negative:
                return sp.Integer(0)
        return None

    def fdiff(self, argindex=1):
        t = self.args[0]
        return BumpCore(t) / t**2

    def _eval_evalf(self, prec):
        t = self.args[0].evalf(prec)
        if not t.is_Number:
            return None
        if t <= 0:
            return sp.Float(0, prec)
        return sp.exp(-1 / t).evalf(prec)


def _bumpcore_numpy(t):
    t = np.asarray(t, dtype=float)
    safe = np.maximum(t, 1e-300)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


_LAMBDIFY_MODULES = [{"BumpCore": _bumpcore_numpy}, "numpy"]


@lru_cache(maxsize=1024)
def _compiled(args, expr):
    """The numpy callable of ``expr`` in ``args``; both map types compile
    through here, so an expression compiles once however many maps carry
    it.  Floats of different precision compare unequal and never share."""
    return sp.lambdify(args, expr, modules=_LAMBDIFY_MODULES)


@lru_cache(maxsize=None)
def coords(d: int) -> tuple:
    """The coordinate symbols x1..xd."""
    return sp.symbols(f"x1:{d + 1}", real=True)


@lru_cache(maxsize=None)
def _u_symbol():
    return sp.Symbol("u", nonnegative=True)


class SmoothMap:
    """A smooth function R^d -> R given as a sympy expression."""

    __slots__ = ("d", "expr")

    def __init__(self, expr, d: int):
        self.d = int(d)
        self.expr = sp.sympify(expr)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value, d: int) -> "SmoothMap":
        return SmoothMap(sp.sympify(value), d)

    @staticmethod
    def coordinate(i: int, d: int) -> "SmoothMap":
        if not 0 <= i < d:
            raise ValueError(f"coordinate index {i} out of range for d={d}")
        return SmoothMap(coords(d)[i], d)

    @staticmethod
    def bump(d: int, center: Sequence[float], radius: float, amplitude=1) -> "SmoothMap":
        return RadialMap.bump_profile(d, center, radius, amplitude).to_smoothmap()

    # -- evaluation ----------------------------------------------------

    def __call__(self, points):
        """Evaluate at points of shape (..., d) (or scalars when d == 1)."""
        pts = np.asarray(points, dtype=float)
        if self.d == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            comps = [pts]
        else:
            comps = [pts[..., i] for i in range(self.d)]
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = _compiled(coords(self.d), self.expr)(*comps)
        return np.broadcast_to(np.asarray(out, dtype=float), comps[0].shape).copy() \
            if np.ndim(out) == 0 and np.ndim(comps[0]) > 0 else np.asarray(out, dtype=float)

    # -- calculus ------------------------------------------------------

    def diff(self, alpha: Iterable[int]) -> "SmoothMap":
        """Exact partial derivative for a multi-index alpha in N^d."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d:
            raise ValueError("multi-index length must equal the dimension")
        e = self.expr
        for i, a in enumerate(alpha):
            if a:
                e = sp.diff(e, coords(self.d)[i], a)
        return SmoothMap(e, self.d)

    def laplacian(self) -> "SmoothMap":
        e = sum(sp.diff(self.expr, x, 2) for x in coords(self.d))
        return SmoothMap(e, self.d)

    # -- algebra -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SmoothMap):
            if other.d != self.d:
                raise ValueError("dimension mismatch")
            return other
        return SmoothMap.constant(other, self.d)

    def __add__(self, other):
        o = self._coerce(other)
        return SmoothMap(self.expr + o.expr, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._coerce(other) * -1)

    def __mul__(self, other):
        o = self._coerce(other)
        return SmoothMap(self.expr * o.expr, self.d)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __pow__(self, n: int):
        n = int(n)
        if n < 0:
            raise ValueError("only nonnegative integer powers are smooth-safe")
        return SmoothMap(self.expr**n, self.d)

    @property
    def is_constant(self) -> bool:
        return not self.expr.free_symbols

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("not a constant map")
        return float(self.expr)

    def __repr__(self):
        return f"SmoothMap(d={self.d}, {self.expr})"


class RadialMap:
    """Rotation-invariant smooth function via its squared-radius profile.

    f(x) = g(u) with u = |x - center|^2; ``gexpr`` is a sympy expression
    in the symbol u.  ``support_radius`` is an upper bound S with
    f(x) = 0 for |x - center| >= S (None means unbounded support).
    """

    __slots__ = ("d", "center", "gexpr", "support_radius")

    def __init__(self, d: int, center, gexpr, support_radius: Optional[float]):
        self.d = int(d)
        self.center = tuple(float(c) for c in center)
        if len(self.center) != self.d:
            raise ValueError("center length must equal the dimension")
        self.gexpr = sp.sympify(gexpr)
        self.support_radius = None if support_radius is None else float(support_radius)

    @staticmethod
    def bump_profile(d: int, center, radius: float, amplitude=1) -> "RadialMap":
        """The fixed mollifier A*exp(-1/(1 - u/r^2)) inside the ball."""
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        u = _u_symbol()
        g = sp.sympify(amplitude) * BumpCore(1 - u / sp.Float(radius) ** 2)
        return RadialMap(d, center, g, radius)

    @staticmethod
    def plateau_profile(d: int, center, radius: float, plateau_fraction: float = 0.5) -> "RadialMap":
        """Smooth cutoff identically 1 for |x-c| <= plateau_fraction*radius,
        0 for |x-c| >= radius (a C-infinity partition step in between)."""
        radius = float(radius)
        if not 0 < plateau_fraction < 1:
            raise ValueError("plateau_fraction must be in (0,1)")
        a2 = (plateau_fraction * radius) ** 2
        b2 = radius**2
        u = _u_symbol()
        s = (u - sp.Float(a2)) / sp.Float(b2 - a2)
        g = BumpCore(1 - s) / (BumpCore(1 - s) + BumpCore(s))
        return RadialMap(d, center, g, radius)

    # -- evaluation ----------------------------------------------------

    def _g(self):
        return _compiled(_u_symbol(), self.gexpr)

    def profile(self, s):
        """Profile value at distance s >= 0 from the center."""
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = self._g()(s * s)
        return np.broadcast_to(np.asarray(out, dtype=float), s.shape).copy() \
            if np.ndim(out) == 0 and np.ndim(s) > 0 else np.asarray(out, dtype=float)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        if self.d == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            delta2 = (pts - self.center[0]) ** 2
        else:
            delta2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = self._g()(delta2)
        return np.asarray(out, dtype=float)

    # -- calculus ------------------------------------------------------

    def laplacian(self) -> "RadialMap":
        u = _u_symbol()
        g1 = sp.diff(self.gexpr, u)
        g2 = sp.diff(self.gexpr, u, 2)
        return RadialMap(self.d, self.center, 4 * u * g2 + 2 * self.d * g1, self.support_radius)

    def helmholtz(self, m: float) -> "RadialMap":
        """(-Lap + m^2) applied to this map, as a new RadialMap."""
        lap = self.laplacian()
        g = -lap.gexpr + sp.Float(m) ** 2 * self.gexpr
        return RadialMap(self.d, self.center, g, self.support_radius)

    def profile_taylor_u(self, order: int):
        """Exact Taylor coefficients of g(u) at u = 0 (list, length order+1)."""
        u = _u_symbol()
        out = []
        g = self.gexpr
        fact = 1
        for k in range(order + 1):
            out.append(float(g.subs(u, 0)) / fact)
            g = sp.diff(g, u)
            fact *= k + 1
        return out

    def to_smoothmap(self) -> "SmoothMap":
        xs = coords(self.d)
        u_of_x = sum((x - sp.Float(c)) ** 2 for x, c in zip(xs, self.center))
        return SmoothMap(self.gexpr.subs(_u_symbol(), u_of_x), self.d)

    def __repr__(self):
        return (f"RadialMap(d={self.d}, center={self.center}, "
                f"support={self.support_radius}, g(u)={self.gexpr})")
