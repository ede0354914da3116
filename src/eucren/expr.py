"""Closed-form smooth functions on R^d.

Two representations cooperate here:

* ``SmoothMap`` wraps a sympy expression in coordinates x1..xd.  The
  grammar is constants, coordinates, polynomials, exponentials,
  sine/cosine, plus the compactly supported atom ``BumpCore``
  (see below), and is closed under exact partial differentiation.
  It is also the field configuration phi of the functional calculus:
  an optional ``support_ball`` bounds its support, and
  ``SmoothMap.from_expression`` reads the field-expression grammar of
  config files (an ``ast`` whitelist; the text is never evaluated).

* Radial profiles are plain numpy functions of the *squared* distance
  u = |x-c|^2, which keeps every radial formula (notably the Laplacian
  4*u*g'' + 2*d*g') free of 1/|x-c| singularities at the center.
  With E(t) = exp(-1/t) and t = 1 - u/r^2, ``bump_u`` gives the bump
  g(u) = A*E(t) and its k-th u-derivative

      g^(k)(u) = A * (-1/r^2)^k * E(t) * p_k(1/t),

  with integer polynomials p_0 = 1, p_(k+1)(s) = s^2 (p_k(s) - p_k'(s)),
  and 0 for t <= 0.  ``plateau_u`` is the C-infinity step
  w = E(1-s)/(E(1-s) + E(s)), s = (u - a^2)/(b^2 - a^2): 1 for |x-c| <= a
  and 0 for |x-c| >= b.

``BumpCore(t)`` is exp(-1/t) for t > 0 and identically 0 for t <= 0,
the standard C-infinity transition germ.  Its derivative is
BumpCore(t)/t**2, so derivative trees stay inside the grammar.
Numeric caveat: expressions produced by differentiation contain
rational prefactors 1/t**k that are 0*inf = nan exactly on the support
boundary t = 0; all quadrature grids in this package therefore sample
strictly inside or strictly outside supports.  The closed forms have no
such point: they evaluate p_k only where E(t) > 0.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

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
    out = np.maximum(t, 1e-300, out=np.empty_like(t))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
    out[~(t > 0.0)] = 0.0
    return out


def bump_u(u, radius: float, amplitude: float = 1.0, k: int = 0):
    """g^(k)(u) of the bump g(u) = A*E(1 - u/r^2), in closed form (see
    the module docstring), as an array of the shape of u."""
    t = 1.0 - np.asarray(u, dtype=float) / (radius * radius)
    out = _bumpcore_numpy(t)
    if k:
        p = np.polynomial.Polynomial([1.0])
        for _ in range(k):
            p = np.polynomial.Polynomial([0.0, 0.0, 1.0]) * (p - p.deriv())
        # where E(t) underflows to 0, p_k(1/t) could overflow
        inside = out > 0.0
        out[inside] *= p(1.0 / t[inside]) * (-1.0 / (radius * radius)) ** k
    # in place: a block of u holds up to quadrature._BLOCK_ENTRIES entries
    out *= amplitude
    return out


def plateau_u(u, inner: float, outer: float):
    """The smooth step w(u): 1 for u <= inner^2, 0 for u >= outer^2."""
    a2 = inner * inner
    s = (np.asarray(u, dtype=float) - a2) / (outer * outer - a2)
    rise = _bumpcore_numpy(1.0 - s)
    return rise / (rise + _bumpcore_numpy(s))


_LAMBDIFY_MODULES = [{"BumpCore": _bumpcore_numpy}, "numpy"]


@lru_cache(maxsize=1024)
def _compiled(args, expr):
    """The numpy callable of ``expr`` in ``args``, compiled once however
    many maps carry it; ``_numpy_fn`` hands it expressions whose float
    constants are parameters, so maps that differ only in those
    constants share one compilation."""
    return sp.lambdify(args, expr, modules=_LAMBDIFY_MODULES)


@lru_cache(maxsize=1024)
def _lifted(expr):
    """(template, parameters, values): ``expr`` with each distinct Float
    replaced by a parameter symbol, numbered in order of first
    appearance, and the values those Floats have in compiled code (a
    53-bit Float prints 15 digits there; a literal keeps its source
    digits, so Floats of different precision stay distinct)."""
    from sympy.printing.numpy import NumPyPrinter

    floats = {}
    for node in sp.preorder_traversal(expr):
        if isinstance(node, sp.Float) and node not in floats:
            floats[node] = sp.Symbol(f"float_{len(floats)}")
    printer = NumPyPrinter()
    values = tuple(float(printer.doprint(f)) for f in floats)
    return expr.xreplace(floats), tuple(floats.values()), values


def _numpy_fn(args, expr):
    """The numpy callable of ``expr`` in ``args`` (a symbol or a tuple
    of them)."""
    template, params, values = _lifted(expr)
    args = args if isinstance(args, tuple) else (args,)
    fn = _compiled(args + params, template)
    return lambda *xs: fn(*xs, *values)


@lru_cache(maxsize=None)
def coords(d: int) -> tuple:
    """The coordinate symbols x1..xd."""
    return sp.symbols(f"x1:{d + 1}", real=True)


class SmoothMap:
    """A smooth function R^d -> R given as a sympy expression.

    ``support_ball`` is an optional declared bounding ball (center,
    radius) of the support.  A sum gets the smallest ball containing
    both balls, scalar multiples and derivatives keep theirs; any other
    result carries None, as do globally supported atoms.
    """

    __slots__ = ("d", "expr", "support_ball")

    def __init__(self, expr, d: int,
                 support_ball: Optional[Tuple[Tuple[float, ...], float]] = None):
        self.d = int(d)
        self.expr = sp.sympify(expr)
        if support_ball is not None:
            center, radius = support_ball
            support_ball = (tuple(float(c) for c in center), float(radius))
        self.support_ball = support_ball

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value, d: int) -> "SmoothMap":
        return SmoothMap(sp.sympify(value), d)

    @staticmethod
    def zero(d: int) -> "SmoothMap":
        return SmoothMap(0, d, support_ball=((0.0,) * d, 1e-12))

    @staticmethod
    def coordinate(i: int, d: int) -> "SmoothMap":
        if not 0 <= i < d:
            raise ValueError(f"coordinate index {i} out of range for d={d}")
        return SmoothMap(coords(d)[i], d)

    @staticmethod
    def bump(d: int, center: Sequence[float], radius: float, amplitude=1) -> "SmoothMap":
        """The mollifier A*exp(-1/(1 - |x-c|^2/r^2)) with support ball B(c, r)."""
        center = tuple(float(c) for c in np.atleast_1d(center))
        radius = float(radius)
        if len(center) != d:
            raise ValueError("center length must equal the dimension")
        if radius <= 0:
            raise ValueError("radius must be positive")
        u = sum((x - sp.Float(c)) ** 2 for x, c in zip(coords(d), center))
        expr = sp.sympify(amplitude) * BumpCore(1 - u / sp.Float(radius) ** 2)
        return SmoothMap(expr, d, support_ball=(center, radius))

    @staticmethod
    def from_expression(text: str, d: int) -> "SmoothMap":
        """Parse an expression in x1..xd over the closed-form atoms
        (polynomials, exp, sin, cos).

        The text is never evaluated: its syntax tree is walked under a
        whitelist (int and float literals, x1..xd, binary + - * / **,
        unary + and -, one-argument exp, sin and cos) and the sympy
        expression is built node by node.  Float literals keep their
        source digits.  Anything else raises ValueError.
        """
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"invalid field expression: {exc.msg}")
        return SmoothMap(_field_expr(tree.body, text.strip(), d), d)

    # -- evaluation ----------------------------------------------------

    def __call__(self, points):
        """Evaluate at points of shape (..., d) (or scalars when d == 1)."""
        pts = np.asarray(points, dtype=float)
        if self.d == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            comps = [pts]
        else:
            comps = [pts[..., i] for i in range(self.d)]
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = _numpy_fn(coords(self.d), self.expr)(*comps)
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
        return SmoothMap(e, self.d, self.support_ball)

    # -- algebra -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SmoothMap):
            if other.d != self.d:
                raise ValueError("dimension mismatch")
            return other
        return SmoothMap.constant(other, self.d)

    def _merged_ball(self, other):
        if self.support_ball is None or other.support_ball is None:
            return None
        (ca, ra), (cb, rb) = self.support_ball, other.support_ball
        ca, cb = np.asarray(ca), np.asarray(cb)
        delta = cb - ca
        dist = float(np.linalg.norm(delta))
        if dist + rb <= ra:
            return (tuple(ca), ra)
        if dist + ra <= rb:
            return (tuple(cb), rb)
        # smallest ball containing both
        radius = 0.5 * (dist + ra + rb)
        direction = delta / dist if dist > 0 else np.zeros_like(ca)
        center = ca + (radius - ra) * direction
        return (tuple(float(c) for c in center), radius)

    def __add__(self, other):
        o = self._coerce(other)
        return SmoothMap(self.expr + o.expr, self.d, self._merged_ball(o))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._coerce(other) * -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o.is_constant:
            ball = self.support_ball
        elif self.is_constant:
            ball = o.support_ball
        else:
            ball = None
        return SmoothMap(self.expr * o.expr, self.d, ball)

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


_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.Pow: operator.pow}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FIELD_FUNCS = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos}


def _field_expr(node: ast.AST, text: str, d: int):
    """The sympy expression of one whitelisted syntax-tree node.  Numeric
    subexpressions must be finite and real, and a power of two numbers
    has an exponent of at most 1024 in magnitude: an exact integer power
    such as 10**10**8 would take unbounded time."""
    segment = ast.get_source_segment(text, node)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if isinstance(node.value, int):
            expr = sp.Integer(node.value)
        else:
            expr = sp.Float(segment)
    elif isinstance(node, ast.Name):
        match = re.fullmatch(r"x([1-9]\d*)", node.id)
        if match is None or int(match.group(1)) > d:
            raise ValueError(f"unknown name {node.id!r} in field expression")
        return coords(d)[int(match.group(1)) - 1]
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        left = _field_expr(node.left, text, d)
        right = _field_expr(node.right, text, d)
        if (isinstance(node.op, ast.Pow) and left.is_number
                and right.is_number and abs(right) > 1024):
            raise ValueError(
                f"exponent in {segment!r} exceeds 1024 in magnitude")
        expr = _BINARY_OPS[type(node.op)](left, right)
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        expr = _UNARY_OPS[type(node.op)](_field_expr(node.operand, text, d))
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FIELD_FUNCS and len(node.args) == 1
            and not node.keywords):
        expr = _FIELD_FUNCS[node.func.id](_field_expr(node.args[0], text, d))
    else:
        raise ValueError(f"unsupported syntax {segment!r} in field expression")
    if expr.is_number and not (expr.is_extended_real
                               and math.isfinite(float(expr))):
        raise ValueError(f"{segment!r} has no finite real value")
    return expr
