"""Closed-form smooth functions on R^d, around one bump.

The bump of radius r and amplitude A is g(u) = A*E(t), with
E(t) = exp(-1/t) and t = 1 - u/r^2, in the *squared* distance
u = |x-c|^2, which keeps every radial formula (notably the Laplacian
4*u*g'' + 2*d*g') free of 1/|x-c| singularities at the center.
``bump_u`` gives its k-th u-derivative

    g^(k)(u) = A * (-1/r^2)^k * E(t) * p_k(1/t),

with integer polynomials p_0 = 1, p_(k+1)(s) = s^2 (p_k(s) - p_k'(s)),
and 0 for t <= 0; p_k is evaluated only where E(t) > 0, so no
0*inf = nan appears at the boundary.  ``bump_partial`` gives the
Cartesian partials of g(|x-c|^2), ``step`` the C-infinity step
E(1-s)/(E(1-s) + E(s)) and ``plateau_u`` the cutoff step in u.

``SmoothMap``, the field configuration phi of the functional calculus,
is a sympy expression in x1..xd plus bump terms;
``SmoothMap.from_expression`` reads the field-expression grammar of
config files (an ``ast`` whitelist; the text is never evaluated).
"""

from __future__ import annotations

import ast
import itertools
import math
import operator
import re
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter


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
        p = (1,)  # the integer coefficients of p_k, lowest degree first
        for _ in range(k):
            p = (0, 0, *(a - i * b for i, (a, b) in
                         enumerate(zip(p, p[1:] + (0,)), start=1)))
        # p_k(1/t) by Horner; 1/t is 0 where E(t) underflows to 0, so
        # that p_k cannot overflow there
        inside = out > 0.0
        s = np.divide(1.0, t, out=np.zeros_like(t), where=inside)
        poly = np.zeros_like(t)
        for c in reversed(p):
            poly *= s
            poly += c
        poly *= (-1.0 / (radius * radius)) ** k
        np.multiply(out, poly, out=out, where=inside)
    # in place: a block of u holds up to quadrature._BLOCK_ENTRIES entries
    out *= amplitude
    return out


def bump_partial(y, radius: float, amplitude: float, alpha: Sequence[int]):
    """The partial d^alpha of the bump g(|y|^2) at offsets y = x - c of
    shape (..., d): by Faa di Bruno for the square,

        sum_j prod_i a_i!/(j_i! (a_i - 2 j_i)!) (2 y_i)^(a_i - 2 j_i)
              * g^(|alpha| - |j|)(|y|^2),

    over 0 <= 2 j_i <= a_i."""
    y = np.asarray(y, dtype=float)
    u = np.sum(y * y, axis=-1)
    out = np.zeros(u.shape)
    for js in itertools.product(*(range(a // 2 + 1) for a in alpha)):
        term = bump_u(u, radius, amplitude, sum(alpha) - sum(js))
        for a, j, yi in zip(alpha, js, np.moveaxis(y, -1, 0)):
            term *= math.perm(a, 2 * j) // math.factorial(j) * (2.0 * yi) ** (a - 2 * j)
        out += term
    return out


def step(s):
    """The smooth step E(1-s)/(E(1-s) + E(s)): 1 for s <= 0, 0 for s >= 1."""
    fall = _bumpcore_numpy(1.0 - s)
    return fall / (fall + _bumpcore_numpy(s))


def plateau_u(u, inner: float, outer: float):
    """The smooth step w(u): 1 for u <= inner^2, 0 for u >= outer^2."""
    a2 = inner * inner
    return step((np.asarray(u, dtype=float) - a2) / (outer * outer - a2))


class _FloatPrinter(NumPyPrinter):
    """numpy code in which a ``Float`` of at most 53 bits, a Python
    float, prints all its digits (``repr``), where sympy prints 15.  A
    wider ``Float``, such as a config-file literal of 16 or more digits,
    keeps its source digits, which Python then rounds to the nearest
    double once (rounding its binary value instead would round twice)."""

    def _print_Float(self, e):
        return repr(float(e)) if e._prec <= 53 else super()._print_Float(e)


@lru_cache(maxsize=1024)
def _compiled(args, expr):
    """The numpy callable of ``expr`` in ``args``, compiled once however
    many maps carry it."""
    printer = _FloatPrinter({"fully_qualified_modules": False,
                             "inline": True,
                             "allow_unknown_functions": True})
    return sp.lambdify(args, expr, modules="numpy", printer=printer)


@lru_cache(maxsize=None)
def coords(d: int) -> tuple:
    """The coordinate symbols x1..xd."""
    return sp.symbols(f"x1:{d + 1}", real=True)


class SmoothMap:
    """A smooth function R^d -> R: a sympy expression in x1..xd
    (constants, polynomials, exp, sin, cos) plus ``bumps``, terms
    (center, radius, amplitude, alpha) that each stand for d^alpha of
    the bump A*exp(-1/(1 - |x-c|^2/r^2)).  Sums concatenate the terms,
    constant multiples scale the amplitudes, derivatives add to alpha.
    A product of two non-constant maps where either has bump terms, and
    a power of a map with bump terms, raise ValueError.

    ``support_ball`` is an optional declared bounding ball (center,
    radius) of the support.  A sum gets the smallest ball containing
    both balls, scalar multiples and derivatives keep theirs; any other
    result carries None, as do globally supported atoms.
    """

    __slots__ = ("d", "expr", "support_ball", "bumps")

    def __init__(self, expr, d: int,
                 support_ball: Optional[Tuple[Tuple[float, ...], float]] = None,
                 bumps: tuple = ()):
        self.d = int(d)
        self.expr = sp.sympify(expr)
        if support_ball is not None:
            center, radius = support_ball
            support_ball = (tuple(float(c) for c in center), float(radius))
        self.support_ball = support_ball
        self.bumps = tuple(bumps)

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
        return SmoothMap(0, d, support_ball=(center, radius),
                         bumps=((center, radius, float(amplitude), (0,) * d),))

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
            pts = pts[..., None]
        with np.errstate(all="ignore"):
            out = float(self.expr) if self.expr.is_number else _compiled(
                coords(self.d), self.expr)(*np.moveaxis(pts, -1, 0))
        out = np.array(np.broadcast_to(out, pts.shape[:-1]), dtype=float)
        for center, radius, amplitude, alpha in self.bumps:
            out += bump_partial(pts - center, radius, amplitude, alpha)
        return out

    # -- calculus ------------------------------------------------------

    def diff(self, alpha: Iterable[int]) -> "SmoothMap":
        """Exact partial derivative for a multi-index alpha in N^d."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d:
            raise ValueError("multi-index length must equal the dimension")
        e = self.expr
        if any(alpha):
            e = sp.S.Zero if e.is_number else sp.diff(
                e, *((x, a) for x, a in zip(coords(self.d), alpha) if a))
        bumps = tuple((c, r, amp, tuple(a + b for a, b in zip(beta, alpha)))
                      for c, r, amp, beta in self.bumps)
        return SmoothMap(e, self.d, self.support_ball, bumps)

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
        return SmoothMap(self.expr + o.expr, self.d, self._merged_ball(o),
                         self.bumps + o.bumps)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._coerce(other) * -1)

    def __mul__(self, other):
        o = self._coerce(other)
        scale, kept = (o, self) if o.is_constant else (self, o)
        if not scale.is_constant:
            if self.bumps or o.bumps:
                raise ValueError("a product of non-constant maps with bump "
                                 "terms is not a SmoothMap")
            return SmoothMap(self.expr * o.expr, self.d)
        return SmoothMap(self.expr * o.expr, self.d, kept.support_ball,
                         tuple((c, r, amp * scale.constant_value(), alpha)
                               for c, r, amp, alpha in kept.bumps))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __pow__(self, n: int):
        n = int(n)
        if n < 0 or self.bumps:
            raise ValueError("only nonnegative integer powers of maps "
                             "without bump terms are smooth-safe")
        return SmoothMap(self.expr**n, self.d)

    @property
    def is_constant(self) -> bool:
        return not self.bumps and not self.expr.free_symbols

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("not a constant map")
        return float(self.expr)

    def __repr__(self):
        return f"SmoothMap(d={self.d}, {self.expr}, bumps={self.bumps})"


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
