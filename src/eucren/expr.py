"""Closed-form smooth functions on R^d, around one bump.

The bump of radius r and amplitude A is g(u) = A*E(t), with
E(t) = exp(-1/t) and t = 1 - u/r^2, in the *squared* distance
u = |x-c|^2, which keeps every radial formula (notably the Laplacian
4*u*g'' + 2*d*g') free of 1/|x-c| singularities at the center.
``bump_u`` gives its k-th u-derivative

    g^(k)(u) = A * (-1/r^2)^k * E(t) * p_k(1/t),

with integer polynomials p_0 = 1, p_(k+1)(s) = s^2 (p_k(s) - p_k'(s)),
and 0 for t <= 0; p_k is evaluated only where E(t) > 0, so no
0*inf = nan appears at the boundary.  ``BumpProfile`` is g itself with
its integral in u, from the antiderivative of E,

    Q(t) = t E(t) - E_1(1/t) = t^2 E(t) k(t),

k a rational fitted on [0, 1] (``bumpcore_integral``).
``bump_partial`` gives the Cartesian partials of g(|x-c|^2), ``step``
the C-infinity step E(1-s)/(E(1-s) + E(s)) and ``plateau_u`` the cutoff
step in u.

``SmoothMap``, the field configuration phi of the functional calculus,
is an expression tree in x1..xd plus bump terms;
``SmoothMap.from_expression`` reads the field-expression grammar of
config files (an ``ast`` whitelist; the text is never evaluated).  The
tree takes exact derivatives by the chain and product rules and is
evaluated with numpy; integer and rational numbers in it are exact
``Fraction``s, floats are float64.
"""

from __future__ import annotations

import ast
import itertools
import math
import numbers
import re
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


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


# k(t) = (1 - x e^x E_1(x)) / t at x = 1/t, smooth on [0, 1] with
# k(0) = 1, as c + sum_j a_j / (1 + b_j t), every term positive; within
# 4e-16 relative (tools/fit_e1.py)
_E1_C = 0.0007310963394993491
_E1_A = (
    1.0496558658997202e-05, 0.000761234387662001, 0.010951149755820884,
    0.0202846794686718, 0.05921818027341262, 0.07884933054261904,
    0.15894175451704354, 0.17144964196181714, 0.24848966319210442,
    0.2503127730026902)
_E1_B = (
    16.1362351269049, 10.98297474443037, 7.580729991785393,
    0.13042462336183694, 5.176836392736313, 0.3703001626267115,
    3.4520981372704584, 0.7613288559628638, 2.220397546713589,
    1.3546571682261634)


def _e1_k(t):
    """k(t) = (1 - x e^x E_1(x)) / t at x = 1/t, for an array t in [0, 1]."""
    k = np.full_like(t, _E1_C)
    for a, b in zip(_E1_A, _E1_B):
        k += a / (1.0 + b * t)
    return k


def bumpcore_integral(x):
    """Q(t) = int_0^t E(s) ds = t E(t) - E_1(1/t) at t = 1/x, for an
    array x >= 1 (0 at x = inf), as Q = E(t) t^2 k(t): the exponential
    integral E_1 on [1, inf) without its cancellation."""
    t = 1.0 / x
    q = _e1_k(t)
    q *= t * t
    q *= np.exp(-x)
    return q


class BumpProfile:
    """The squared-radius profile g(u) = A*E(1 - u/r^2) of a bump, the
    callable of ``bump_u`` at k = 0, with its integral in u."""

    __slots__ = ("radius", "amplitude")

    def __init__(self, radius: float, amplitude: float = 1.0):
        self.radius, self.amplitude = float(radius), float(amplitude)

    def __call__(self, u):
        return bump_u(u, self.radius, self.amplitude)

    def integral(self, lo, hi):
        """int g(u) du over [lo, hi] for matching arrays lo <= hi:
        A r^2 [Q(t(lo)) - Q(t(hi))] with t(u) = 1 - u/r^2 (0 beyond the
        support) and Q of ``bumpcore_integral``.  The antiderivative
        G(u) = A r^2 [Q(1) - Q(t(u))] would carry the constant Q(1) into
        both ends; the difference of the Q values leaves it out."""
        r2 = self.radius * self.radius
        room = r2 - np.stack([lo, hi])
        x = np.divide(r2, room, out=np.full_like(room, np.inf),
                      where=room > 0.0)
        q = bumpcore_integral(x)
        return (self.amplitude * r2) * (q[0] - q[1])


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


# -- the field-expression tree ----------------------------------------------
# A tree is a number (an exact Fraction, or a float64) or a tuple:
# ("x", i) for x_(i+1), ("+", *terms) with any number last,
# ("*", number, *factors), ("**", base, exponent), or (f, argument) for f
# in exp, sin, cos, log.  ``add``, ``mul``, ``power`` and ``call`` build
# it in sympy's canonical form (sums and products flatten, numbers fold,
# like terms and like bases collect, a number distributes over a sum, an
# integer power over a product) and in sympy's print order, which
# ``_value`` evaluates as the printed form does.

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "log": np.log}


def _is_num(a) -> bool:
    return not isinstance(a, tuple)


def _float(a) -> float:
    try:
        return float(a)
    except OverflowError:  # a Fraction beyond the float range
        return math.copysign(math.inf, a)


def _flat(args, op):
    for a in args:
        if isinstance(a, tuple) and a[0] == op:
            yield from a[1:]
        else:
            yield Fraction(a) if isinstance(a, int) else a


def _order(term):
    """sympy's print order: descending powers of x1, then of x2, ..."""
    powers = [f[1:] if f[0] == "**" else (f, 1)
              for f in (term[2:] if term[0] == "*" else (term,))]
    return sorted((b[1], -e) for b, e in powers if isinstance(b, tuple)
                  and b[0] == "x" and _is_num(e)) + [(math.inf, 0)], repr(term)


def add(*args):
    """The sum of trees."""
    const, groups = Fraction(0), {}
    for a in _flat(args, "+"):
        if _is_num(a):
            const += a
        else:
            fs = a[2:] if a[0] == "*" else (a,)
            groups[fs] = groups.get(fs, 0) + (a[1] if a[0] == "*" else 1)
    terms = sorted((mul(c, *fs) for fs, c in groups.items() if c != 0),
                   key=_order) + ([const] if const != 0 else [])
    return ("+", *terms) if len(terms) > 1 else terms[0] if terms else const


def mul(*args):
    """The product of trees."""
    coef, bases = Fraction(1), {}
    for a in _flat(args, "*"):
        if _is_num(a):
            coef *= a
        else:  # exp(a)*exp(b) = exp(a + b): exp collects under None
            b, e = ((None, a[1]) if a[0] == "exp"
                    else a[1:] if a[0] == "**" else (a, 1))
            bases.setdefault(b, []).append(e)
    nodes = []
    for f in _flat((call("exp", add(*es)) if b is None else power(b, add(*es))
                    for b, es in bases.items()), "*"):
        if _is_num(f):
            coef *= f
        else:
            nodes.append(f)
    if coef == 0 or not nodes:
        return coef
    if len(nodes) == 1 and (coef == 1 or nodes[0][0] == "+"):
        return nodes[0] if coef == 1 else add(*(mul(coef, t)
                                                for t in nodes[0][1:]))
    return ("*", coef, *sorted(nodes, key=_order))  # coordinates first


def power(b, e):
    """b**e; integer and rational powers of numbers stay exact."""
    b, e = (Fraction(v) if isinstance(v, int) else v for v in (b, e))
    if _is_num(b) and _is_num(e):
        try:  # a large exact power goes through floats
            return (float(b) if abs(e) > 1024 else b) ** e
        except ZeroDivisionError:
            return math.nan
        except OverflowError:
            return math.inf
    if e == 0 or e == 1:
        return b if e == 1 else Fraction(1)
    if (isinstance(e, Fraction) and e.denominator == 1 and not _is_num(b)
            and b[0] in ("*", "**", "exp")):
        return (mul(*(power(f, e) for f in b[1:])) if b[0] == "*"
                else power(b[1], mul(b[2], e)) if b[0] == "**"
                else call("exp", mul(b[1], e)))
    return ("**", b, e)


def call(f: str, a):
    """f(a); a number folds in float64, as numpy evaluates it."""
    if not _is_num(a):
        return (f, a)
    with np.errstate(all="ignore"):
        return float(_FUNCS[f](_float(a)))


def _diff(e, i: int):
    """The exact partial derivative of a tree in x_(i+1)."""
    if _is_num(e):
        return Fraction(0)
    op, a = e[0], e[1]
    if op == "x":
        return Fraction(a == i)
    if op == "+":
        return add(*(_diff(t, i) for t in e[1:]))
    if op == "*":
        return add(*(mul(*e[1:k], _diff(e[k], i), *e[k + 1:])
                     for k in range(2, len(e))))
    if op == "**" and _is_num(e[2]):
        return mul(e[2], power(a, add(e[2], -1)), _diff(a, i))
    if op == "**":
        return mul(e, add(mul(_diff(e[2], i), call("log", a)),
                          mul(e[2], _diff(a, i), power(a, -1))))
    return mul(_diff(a, i), e if op == "exp" else call("cos", a) if op == "sin"
               else mul(-1, call("sin", a)) if op == "cos" else power(a, -1))


def _value(e, xs):
    """A tree at the coordinate arrays xs."""
    if _is_num(e):
        return _float(e)
    if e[0] == "x":
        return xs[e[1]]
    if e[0] in _FUNCS:
        return _FUNCS[e[0]](_value(e[1], xs))
    if e[0] == "**":
        return _value(e[1], xs) ** _value(e[2], xs)
    args = e[1:] if e[0] == "+" else e[2:]
    out = _value(args[0], xs)
    if e[0] == "*" and e[1] != 1:
        out = _float(e[1]) * out
    for a in args[1:]:
        out = out + _value(a, xs) if e[0] == "+" else out * _value(a, xs)
    return out


def _depth(e) -> int:
    return 1 + max(map(_depth, e[1:])) if isinstance(e, tuple) else 0


class SmoothMap:
    """A smooth function R^d -> R: an expression tree ``expr`` in x1..xd
    (numbers, polynomials, exp, sin, cos) plus ``bumps``, terms
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
        self.expr = (expr if isinstance(expr, (tuple, Fraction))
                     else Fraction(expr) if isinstance(expr, numbers.Integral)
                     else float(expr))
        if support_ball is not None:
            center, radius = support_ball
            support_ball = (tuple(float(c) for c in center), float(radius))
        self.support_ball = support_ball
        self.bumps = tuple(bumps)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value, d: int) -> "SmoothMap":
        return SmoothMap(value, d)

    @staticmethod
    def zero(d: int) -> "SmoothMap":
        return SmoothMap(0, d, support_ball=((0.0,) * d, 1e-12))

    @staticmethod
    def coordinate(i: int, d: int) -> "SmoothMap":
        if not 0 <= i < d:
            raise ValueError(f"coordinate index {i} out of range for d={d}")
        return SmoothMap(("x", i), d)

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
        unary + and -, one-argument exp, sin and cos) and the tree is
        built node by node.  A float literal is rounded once, from its
        source digits.  Anything else raises ValueError.
        """
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"invalid field expression: {exc.msg}")
        expr = _field_expr(tree.body, text.strip(), d)
        if _depth(expr) > _MAX_DEPTH:
            raise ValueError(f"field expression nests deeper than "
                             f"{_MAX_DEPTH} levels")
        return SmoothMap(expr, d)

    # -- evaluation ----------------------------------------------------

    def __call__(self, points):
        """Evaluate at points of shape (..., d) (or scalars when d == 1)."""
        pts = np.asarray(points, dtype=float)
        if self.d == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., None]
        with np.errstate(all="ignore"):
            out = _float(self.expr) if _is_num(self.expr) else _value(
                self.expr, np.moveaxis(pts, -1, 0))
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
        for i, a in enumerate(alpha):
            for _ in range(a):
                e = _diff(e, i)
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
        return SmoothMap(add(self.expr, o.expr), self.d, self._merged_ball(o),
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
            return SmoothMap(mul(self.expr, o.expr), self.d)
        return SmoothMap(mul(self.expr, o.expr), self.d, kept.support_ball,
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
        return SmoothMap(power(self.expr, n), self.d)

    @property
    def is_constant(self) -> bool:
        return not self.bumps and _is_num(self.expr)

    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("not a constant map")
        return _float(self.expr)

    def __repr__(self):
        return f"SmoothMap(d={self.d}, {self.expr!r}, bumps={self.bumps})"


_BINARY_OPS = {ast.Add: add, ast.Sub: lambda a, b: add(a, mul(-1, b)),
               ast.Mult: mul, ast.Div: lambda a, b: mul(a, power(b, -1)),
               ast.Pow: power}
_FIELD_FUNCS = ("exp", "sin", "cos")
# the height of a parsed tree; derivatives and evaluation recurse along
# their trees, a few times as high, and differentiating an x1**x1**...
# tower twice takes time that grows faster than the cube of its height
_MAX_DEPTH = 24


def _field_expr(node: ast.AST, text: str, d: int):
    """The tree of one whitelisted syntax-tree node.  Numeric
    subexpressions must be finite and real, a numeric divisor nonzero,
    and a power of two numbers has an exponent of at most 1024 in
    magnitude: an exact integer power such as 10**10**8 would take
    unbounded time."""
    segment = ast.get_source_segment(text, node)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        expr = (Fraction(node.value) if isinstance(node.value, int)
                else float(segment))
    elif isinstance(node, ast.Name):
        match = re.fullmatch(r"x([1-9]\d*)", node.id)
        if match is None or int(match.group(1)) > d:
            raise ValueError(f"unknown name {node.id!r} in field expression")
        return ("x", int(match.group(1)) - 1)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        left = _field_expr(node.left, text, d)
        right = _field_expr(node.right, text, d)
        if isinstance(node.op, ast.Pow) and _is_num(left) and _is_num(right) \
                and abs(right) > 1024:
            raise ValueError(
                f"exponent in {segment!r} exceeds 1024 in magnitude")
        if isinstance(node.op, ast.Div) and _is_num(right) and right == 0:
            raise ValueError(f"{segment!r} divides by zero")
        expr = _BINARY_OPS[type(node.op)](left, right)
    elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        expr = _field_expr(node.operand, text, d)
        if isinstance(node.op, ast.USub):
            expr = mul(-1, expr)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FIELD_FUNCS and len(node.args) == 1
            and not node.keywords):
        expr = call(node.func.id, _field_expr(node.args[0], text, d))
    else:
        raise ValueError(f"unsupported syntax {segment!r} in field expression")
    if _is_num(expr) and (isinstance(expr, complex)
                          or not math.isfinite(_float(expr))):
        raise ValueError(f"{segment!r} has no finite real value")
    return expr
