"""Batch front-end: plain-text run configurations in, deterministic
reports out.

A configuration is whitespace-separated ``key=value`` tokens plus
``[functional NAME]`` section headers; unknown keys are rejected with a
line/column diagnostic rather than silently ignored.  ``run`` dispatches
on the ``command`` key and returns a report that embeds the full
effective configuration (defaults included) so a stored report is
reproducible from its own header.  Nothing time- or host-dependent goes
into the report body; identical configurations render byte-identical
text.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random import default_rng  # at import, not in the first job

from . import __version__
from .errors import DomainError, EucrenError, ParseError, exit_code_for
from .functionals import (FieldConfiguration, LocalFunctional, MonomialTerm,
                          TestFunction, additivity_check)
from .graphs import (conjugated_merge_series, cross_edge_series,
                     enumerate_graphs, expansion_terms, symmetry_factor)
from .kernels import CutoffFunction, ExtensionSpec, PropFactor, ScalarDistribution
from .propagator import green_function, pair, verify_fundamental_solution
from .quadrature import DEFAULT_SCHEME
from .renorm import (DEFAULT_LAMBDAS, classify_theory, degree_of_divergence,
                     recursive_renormalize, scaling_degree_analytic,
                     scaling_degree_numeric)
from .tordered import E_n, block_product, product_expansion, star_E

__all__ = [
    "FunctionalSpec",
    "RunConfig",
    "Report",
    "ReportSection",
    "parse_config",
    "run",
    "main",
    "console_main",
]

COMMANDS = ("graphs", "expand", "product", "renormalize", "classify",
            "verify")


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class FunctionalSpec:
    """One monomial functional: prefactor * integral f (d^a phi)...(d^a phi)."""

    name: str
    center: Tuple[float, ...]
    power: int = 1
    derivs: Tuple[Tuple[int, ...], ...] = ()
    radius: float = 1.0
    amplitude: float = 1.0
    prefactor: Fraction = Fraction(1)

    def test_function(self, d: int) -> TestFunction:
        return TestFunction(d, self.center, self.radius, self.amplitude)


@dataclass(frozen=True)
class RunConfig:
    command: str
    d: int
    m: float = 1.0
    order: int = 2
    n: int = 3
    k: int = 4
    n_max: int = 5
    background: str = "0"
    rtol: float = 1e-9
    atol: float = 1e-12
    gauss_n: int = 12
    angular_n: int = 96
    lambdas: Tuple[float, ...] = DEFAULT_LAMBDAS
    factors: Tuple[Tuple[int, int, int], ...] = ()
    pair_radius: float = 1.0
    pair_c0: float = 0.0
    overall_radius: float = 1.0
    overall_c0: float = 0.0
    bare: bool = False
    tolerance: float = 1e-4
    seed: int = 0
    out: str = ""
    functionals: Tuple[FunctionalSpec, ...] = ()

    def scheme(self):
        return replace(DEFAULT_SCHEME, rtol=self.rtol, atol=self.atol,
                       gauss_n=self.gauss_n, angular_n=self.angular_n)


# value converters; each raises ValueError with a bare message and the
# parser attaches the location


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")
    if not np.isfinite(val):
        raise ValueError(f"expected a finite number, got {text!r}")
    return val


def _bounded_int(lo: int, what: str) -> Callable[[str], int]:
    def conv(text: str) -> int:
        val = _int(text)
        if val < lo:
            raise ValueError(f"{what} must be >= {lo}, got {val}")
        return val
    return conv


def _positive_float(what: str) -> Callable[[str], float]:
    def conv(text: str) -> float:
        val = _float(text)
        if not val > 0:
            raise ValueError(f"{what} must be positive, got {text}")
        return val
    return conv


def _nonneg_float(what: str) -> Callable[[str], float]:
    def conv(text: str) -> float:
        val = _float(text)
        if val < 0:
            raise ValueError(f"{what} must be >= 0, got {text}")
        return val
    return conv


def _bool(text: str) -> bool:
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _command(text: str) -> str:
    if text not in COMMANDS:
        raise ValueError(
            f"unknown command {text!r}; one of {', '.join(COMMANDS)}")
    return text


def _float_list(text: str) -> Tuple[float, ...]:
    if not text:
        raise ValueError("empty list")
    return tuple(_float(part.strip()) for part in text.split(","))


def _lambda_list(text: str) -> Tuple[float, ...]:
    vals = _float_list(text)
    for v in vals:
        if not 0.0 < v < 1.0:
            raise ValueError(f"lambda values must lie in (0, 1), got {v}")
    if len(vals) < 6:
        # the scaling fit drops the two largest and needs four more
        raise ValueError(f"need at least six lambda values, got {len(vals)}")
    return vals


def _fraction(text: str) -> Fraction:
    # Fraction builds 1eN as the exact integer 10**N: bound N first
    _, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > 1024:
            raise ValueError
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"expected a rational number in the float range, "
                         f"exponent at most 1024 in magnitude, got {text!r}")
    return value


_FACTOR_RE = re.compile(r"(\d+)-(\d+):(\d+)")


def _factor_list(text: str) -> Tuple[Tuple[int, int, int], ...]:
    """``0-1:3,0-2:2`` -> ((0, 1, 3), (0, 2, 2))."""
    out = []
    seen = set()
    for part in text.split(","):
        match = _FACTOR_RE.fullmatch(part)
        if match is None:
            raise ValueError(
                f"expected i-j:power entries, got {part!r}")
        i, j, power = (int(g) for g in match.groups())
        if i >= j:
            raise ValueError(f"factor vertices must satisfy i < j: {part!r}")
        if power < 1:
            raise ValueError(f"factor power must be >= 1: {part!r}")
        if (i, j) in seen:
            raise ValueError(f"duplicate factor pair {i}-{j}")
        seen.add((i, j))
        out.append((i, j, power))
    return tuple(out)


_DERIV_RE = re.compile(r"\(([0-9,]*)\)")


def _deriv_list(text: str) -> Tuple[Tuple[int, ...], ...]:
    """``(1,0,0)(0,0,0)`` -> ((1, 0, 0), (0, 0, 0))."""
    if _DERIV_RE.sub("", text):
        raise ValueError(f"expected (a,b,...) groups, got {text!r}")
    out = []
    for group in _DERIV_RE.findall(text):
        if not group:
            raise ValueError("empty derivative multi-index")
        out.append(tuple(_int(p) for p in group.split(",")))
    return tuple(out)


_TOP_KEYS: Dict[str, Callable[[str], object]] = {
    "command": _command,
    "d": _bounded_int(1, "dimension"),
    "m": _nonneg_float("mass"),
    "order": _bounded_int(0, "order"),
    "n": _bounded_int(1, "n"),
    "k": _bounded_int(1, "k"),
    "n_max": _bounded_int(1, "n_max"),
    "background": str,
    "rtol": _positive_float("rtol"),
    "atol": _positive_float("atol"),
    "gauss_n": _bounded_int(2, "gauss_n"),
    "angular_n": _bounded_int(2, "angular_n"),
    "lambdas": _lambda_list,
    "factors": _factor_list,
    "pair_radius": _positive_float("pair_radius"),
    "pair_c0": _float,
    "overall_radius": _positive_float("overall_radius"),
    "overall_c0": _float,
    "bare": _bool,
    "tolerance": _positive_float("tolerance"),
    "seed": _bounded_int(0, "seed"),
    "out": str,
}

_FUNC_KEYS: Dict[str, Callable[[str], object]] = {
    "power": _bounded_int(1, "power"),
    "derivs": _deriv_list,
    "center": _float_list,
    "radius": _positive_float("radius"),
    "amplitude": _float,
    "prefactor": _fraction,
}

_SECTION_RE = re.compile(r"\[functional\s+([A-Za-z_]\w*)\]")
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*=\S*")
_LINE_RE = re.compile(r"^(\s*)([A-Za-z_]\w*)\s*=\s*(.*?)\s*$")


@dataclass
class _Assignment:
    value: object
    line: int
    column: int


def _line_assignments(line: str, lineno: int):
    """Either a run of key=value tokens or a single ``key = value`` whose
    value may contain spaces (expressions, lists).  Yields the column of
    the key and of the value for diagnostics."""
    tokens = list(re.finditer(r"\S+", line))
    if all(_TOKEN_RE.fullmatch(t.group(0)) for t in tokens):
        for t in tokens:
            key, _, value = t.group(0).partition("=")
            col = t.start() + 1
            yield key, value, lineno, col, col + len(key) + 1
        return
    match = _LINE_RE.match(line)
    if match is None:
        bad = tokens[0]
        raise ParseError(f"expected key=value, got {bad.group(0)!r}",
                         lineno, bad.start() + 1)
    yield (match.group(2), match.group(3), lineno,
           len(match.group(1)) + 1, match.start(3) + 1)


def _parse_lines(text: str):
    """Tokenize into top-level and per-section assignment maps."""
    top: Dict[str, _Assignment] = {}
    sections: List[Tuple[str, Dict[str, _Assignment], int]] = []
    current: Optional[Dict[str, _Assignment]] = None
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            match = _SECTION_RE.fullmatch(stripped)
            if match is None:
                raise ParseError(f"malformed section header {stripped!r}",
                                 lineno, line.index("[") + 1)
            name = match.group(1)
            if name in names:
                raise ParseError(f"duplicate functional name {name!r}",
                                 lineno, line.index("[") + 1)
            names.add(name)
            current = {}
            sections.append((name, current, lineno))
            continue
        for key, value, lno, col, valcol in _line_assignments(line, lineno):
            table = _TOP_KEYS if current is None else _FUNC_KEYS
            target = top if current is None else current
            if key not in table:
                where = "" if current is None else " in a functional section"
                raise ParseError(f"unknown key {key!r}{where}", lno, col)
            if key in target:
                raise ParseError(f"duplicate key {key!r}", lno, col)
            try:
                parsed = table[key](value)
            except ValueError as exc:
                raise ParseError(str(exc), lno, valcol)
            target[key] = _Assignment(parsed, lno, col)
    return top, sections


def parse_config(text: str) -> RunConfig:
    """Parse and validate; every diagnostic carries a location when one
    exists in the source text."""
    top, sections = _parse_lines(text)
    for required in ("command", "d"):
        if required not in top:
            raise ParseError(f"missing required key {required!r}")
    values = {key: a.value for key, a in top.items()}

    d = values["d"]
    specs = []
    for name, table, lineno in sections:
        if "center" not in table:
            raise ParseError(
                f"functional {name!r} has no center", lineno, 1)
        center = table["center"]
        kwargs = {key: a.value for key, a in table.items()}
        spec = FunctionalSpec(name=name, **kwargs)
        # TestFunction's errors point at the center, MonomialTerm's at derivs
        at = center
        try:
            f = spec.test_function(d)
            at = table.get("derivs", center)
            _build_functional(spec, f)
        except ValueError as exc:
            raise ParseError(f"functional {name!r}: {exc}", at.line, at.column)
        specs.append(spec)
    values["functionals"] = tuple(specs)

    config = RunConfig(**values)
    if config.command == "product" and not config.functionals:
        raise ParseError(
            "command 'product' needs at least one [functional ...] section")
    if config.command == "renormalize" and not config.factors:
        raise ParseError("command 'renormalize' needs a factors=... key")
    if "lambdas" in top:
        lam = top["lambdas"]
        for v in config.lambdas:
            try:
                v ** -d
            except OverflowError:
                raise ParseError(
                    f"lambda {v!r} scales a test amplitude by "
                    f"lambda**-{d}, beyond the float range",
                    lam.line, lam.column)
    if "background" in top:
        bg = top["background"]
        try:
            FieldConfiguration.from_expression(config.background, d)
        except Exception as exc:
            raise ParseError(f"bad background expression: {exc}",
                             bg.line, bg.column)
    return config


# -- reports ---------------------------------------------------------------


@dataclass(frozen=True)
class ReportSection:
    name: str
    pairs: Tuple[Tuple[str, str], ...] = ()
    table: Tuple[Tuple[str, ...], ...] = ()  # first row is the header


@dataclass(frozen=True)
class Report:
    """Rendered bottom-up from pure values; no wall-clock content."""

    sections: Tuple[ReportSection, ...]
    ok: bool = True

    def render(self) -> str:
        lines = ["eucren report", f"version = {__version__}"]
        for section in self.sections:
            lines.append("")
            lines.append(f"[{section.name}]")
            for key, value in section.pairs:
                lines.append(f"{key} = {value}")
            if section.table:
                widths = [max(len(row[c]) for row in section.table)
                          for c in range(len(section.table[0]))]
                for row in section.table:
                    lines.append("  ".join(
                        cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        lines.append("")
        lines.append("[status]")
        lines.append(f"ok = {'true' if self.ok else 'false'}")
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    """The one format of every reported number.  A non-finite value
    fails the run instead of reaching the report."""
    x = float(x)
    if not np.isfinite(x):
        raise DomainError(f"the run produced a non-finite value ({x})")
    return f"{x:.12e}"


def _echo(key: str, value) -> str:
    """A key's value as a config file writes it."""
    if key == "factors":
        return ",".join(f"{i}-{j}:{p}" for i, j, p in value)
    if key == "derivs":
        return "".join("(" + ",".join(str(a) for a in alpha) + ")"
                       for alpha in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _config_section(config: RunConfig) -> ReportSection:
    """Every field of the config and of its functionals, defaults
    included, keyed as the config file names it."""
    owners = [("", config)] + [(f"functional.{spec.name}.", spec)
                               for spec in config.functionals]
    pairs = [(prefix + f.name, _echo(f.name, getattr(obj, f.name)))
             for prefix, obj in owners for f in fields(obj)
             if f.name not in ("name", "functionals")]
    return ReportSection("config", tuple(sorted(pairs)))


# -- command implementations -----------------------------------------------


def _build_functional(spec: FunctionalSpec, f: TestFunction) -> LocalFunctional:
    derivs = spec.derivs if spec.derivs else ((0,) * f.d,) * spec.power
    return LocalFunctional([MonomialTerm(spec.power, derivs, f,
                                         spec.prefactor)])


def _run_graphs(config: RunConfig) -> List[ReportSection]:
    graphs = enumerate_graphs(config.n, config.order)
    rows = [("index", "graph", "sym", "weight")]
    for idx, graph in enumerate(graphs):
        sym = symmetry_factor(graph)
        rows.append((str(idx), graph.to_text(), str(sym),
                     str(Fraction(1, sym))))
    section = ReportSection(
        "graphs",
        pairs=(("n", str(config.n)), ("edges", str(config.order)),
               ("count", str(len(graphs)))),
        table=tuple(rows))
    return [section]


def _run_expand(config: RunConfig) -> List[ReportSection]:
    terms = expansion_terms(config.n, config.order)
    rows = [("index", "order", "weight", "graph")]
    for idx, term in enumerate(terms):
        rows.append((str(idx), str(term.order), str(term.weight),
                     term.graph.to_text()))
    section = ReportSection(
        "expansion",
        pairs=(("n", str(config.n)), ("max_order", str(config.order)),
               ("count", str(len(terms)))),
        table=tuple(rows))
    return [section]


def _run_product(config: RunConfig) -> List[ReportSection]:
    d = config.d
    functionals = [_build_functional(s, s.test_function(d))
                   for s in config.functionals]
    phi = FieldConfiguration.from_expression(config.background, d)
    scheme = config.scheme()
    sections = []
    if len(functionals) == 1:
        series = E_n(functionals, phi, config.m, config.order, scheme)
    else:
        result = product_expansion(functionals, phi, config.m, config.order,
                                   scheme)
        series = result.series
        rows = [("order", "weight", "graph", "value")]
        for order, graph, weight, value in result.contributions:
            rows.append((str(order), str(weight), graph.to_text(),
                         _num(value)))
        sections.append(ReportSection("contributions", table=tuple(rows)))
    rows = [("order", "coefficient")]
    for order in range(config.order + 1):
        rows.append((str(order), _num(series.coefficient(order))))
    sections.insert(0, ReportSection("series", table=tuple(rows)))
    return sections


def _run_renormalize(config: RunConfig) -> List[ReportSection]:
    d, m = config.d, config.m
    n_points = 1 + max(max(i, j) for i, j, _ in config.factors)
    t = ScalarDistribution(
        n_points, d, m,
        tuple(PropFactor(i, j, p) for i, j, p in config.factors))
    scheme = config.scheme()
    prop = green_function(d, m)

    if config.bare:
        out = t
    else:
        zero = (0,) * d
        pair_spec = ExtensionSpec.make(CutoffFunction(d, config.pair_radius),
                                       {zero: config.pair_c0})
        overall_spec = ExtensionSpec.make(
            CutoffFunction(d, config.overall_radius),
            {zero: config.overall_c0})
        specs = {(i, j): pair_spec for i, j, _ in config.factors}
        specs["overall"] = overall_spec
        out = recursive_renormalize(t, specs)

    rows = [("locus", "power", "sd", "status")]
    for factor in out.factors:
        status = "extended" if factor.renormalized else "bare"
        rows.append((f"{factor.i}-{factor.j}", str(factor.power),
                     str(prop.edge_sd(factor)), status))
    pairs = [
        ("n_points", str(out.n_points)),
        ("overall_divergence", str(degree_of_divergence(out))),
        ("overall_extension",
         "present" if out.overall is not None else "absent"),
    ]
    sections = [ReportSection("kernel", pairs=tuple(pairs),
                              table=tuple(rows))]

    if out.n_points == 2 and len(out.factors) == 1:
        sweep = TestFunction(d, (0.0,) * d, 1.0)
        fit = scaling_degree_numeric(out, sweep, config.lambdas, scheme)
        analytic = scaling_degree_analytic(t)
        sections.append(ReportSection("scaling", pairs=(
            ("analytic", str(analytic.value)),
            ("log_factor", "true" if analytic.log_flag else "false"),
            ("estimate", _num(fit.estimate)),
            ("residual", _num(fit.residual)),
        )))

    if config.functionals:
        if len(config.functionals) != out.n_points:
            raise DomainError(
                f"pairing a {out.n_points}-point kernel needs "
                f"{out.n_points} functional sections, got "
                f"{len(config.functionals)}")
        tests = tuple(s.test_function(d) for s in config.functionals)
        value = pair(out, tests, scheme)
        sections.append(ReportSection("pairing", pairs=(
            ("tests", ",".join(s.name for s in config.functionals)),
            ("value", _num(value)),
        )))
    return sections


def _run_classify(config: RunConfig) -> List[ReportSection]:
    result = classify_theory(config.d, config.k, config.n_max)
    rows = [("n", "rho_max")]
    for n, rho in result.table:
        rows.append((str(n), str(rho)))
    section = ReportSection(
        "classification",
        pairs=(("verdict", result.classification),
               ("asymptotic_slope", str(result.asymptotic_slope))),
        table=tuple(rows))
    return [section]


# -- the invariant suite ---------------------------------------------------


def _series_rel_diff(a, b) -> float:
    keys = set(a.as_dict()) | set(b.as_dict())
    scale = max([abs(v) for v in a.as_dict().values()]
                + [abs(v) for v in b.as_dict().values()] + [1.0])
    worst = 0.0
    for key in keys:
        x, y = a.coefficient(key), b.coefficient(key)
        floor = 1e-12 * scale
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), floor))
    return worst


def _verify_background(rng, d: int) -> FieldConfiguration:
    c = float(rng.uniform(0.6, 1.4))
    slope = float(rng.uniform(-0.25, 0.25))
    return FieldConfiguration.from_expression(f"{c:.6f} + {slope:.6f}*x1", d)


def _verify_functionals(rng, d: int, centers) -> List[LocalFunctional]:
    out = []
    for c in centers:
        f = TestFunction(d, (float(c),) + (0.0,) * (d - 1),
                         float(rng.uniform(0.8, 1.1)),
                         float(rng.uniform(0.5, 1.5)))
        out.append(LocalFunctional.phi_power(int(rng.integers(2, 4)), f))
    return out


def _run_verify(config: RunConfig) -> List[ReportSection]:
    d, m, tol = config.d, config.m, config.tolerance
    scheme = config.scheme()
    rng = default_rng(config.seed)
    rows = [("check", "value", "threshold", "status")]
    ok = True

    def record(name: str, value: float, threshold: float):
        nonlocal ok
        passed = value < threshold
        ok = ok and passed
        rows.append((name, _num(value), _num(threshold),
                     "PASS" if passed else "FAIL"))

    P = green_function(d, m)
    for idx in range(2):
        radius = float(rng.uniform(0.8, 1.5))
        center = tuple(float(c) for c in rng.uniform(-0.3, 0.3, size=d)
                       * radius)
        bump = TestFunction(d, center, radius, float(rng.uniform(0.5, 2.0)))
        res = verify_fundamental_solution(P, bump, scheme)
        record(f"fundamental_solution.{idx}",
               res / abs(float(bump(np.zeros(d)))), tol)

    phi = _verify_background(rng, d)
    F, G, H = _verify_functionals(rng, d, (-3.0, 0.0, 3.0))
    shifted = replace(scheme, gauss_n=scheme.gauss_n + 4)
    lhs = star_E(F, G, phi, m, config.order, scheme)
    rhs = star_E(G, F, phi, m, config.order, shifted)
    record("commutativity", _series_rel_diff(lhs, rhs), tol)

    left = block_product([F, G, H], {0, 1}, phi, m, config.order, scheme)
    right = block_product([F, G, H], {1, 2}, phi, m, config.order, shifted)
    record("associativity", _series_rel_diff(left, right), tol)

    worst = 0.0
    d_add = min(d, 3)
    for _ in range(20):
        power = int(rng.integers(1, 4))
        f = TestFunction(d_add,
                         tuple(float(c) for c in
                               rng.uniform(-0.5, 0.5, size=d_add)),
                         float(rng.uniform(0.8, 1.6)),
                         float(rng.uniform(0.5, 2.0)))
        F_add = LocalFunctional.phi_power(power, f)
        gap = float(rng.uniform(2.5, 4.0))
        pad = (0.0,) * (d_add - 1)
        phi_a = FieldConfiguration.bump(d_add, (-gap,) + pad,
                                        float(rng.uniform(0.7, 1.2)),
                                        float(rng.normal()))
        chi = FieldConfiguration.bump(d_add, (gap,) + pad,
                                      float(rng.uniform(0.7, 1.2)),
                                      float(rng.normal()))
        psi = FieldConfiguration.bump(
            d_add, tuple(float(c) for c in rng.uniform(-0.3, 0.3, size=d_add)),
            float(rng.uniform(1.5, 3.0)), float(rng.normal()))
        worst = max(worst, additivity_check(F_add, phi_a, psi, chi, scheme))
    record("additivity", worst, tol)

    tadpole_free = conjugated_merge_series(2) == cross_edge_series(2)
    record("tadpole_cancellation", 0.0 if tadpole_free else 1.0, 1.0)

    section = ReportSection("verify", pairs=(
        ("checks", str(len(rows) - 1)),
        ("result", "PASS" if ok else "FAIL"),
    ), table=tuple(rows))
    return [section], ok


_RUNNERS = {
    "graphs": _run_graphs,
    "expand": _run_expand,
    "product": _run_product,
    "renormalize": _run_renormalize,
    "classify": _run_classify,
}


def run(config: RunConfig) -> Report:
    """Execute the configured command and assemble the report."""
    ok = True
    if config.command == "verify":
        sections, ok = _run_verify(config)
    else:
        sections = _RUNNERS[config.command](config)
    return Report((_config_section(config), *sections), ok=ok)


# -- entry point -----------------------------------------------------------


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call of ``main``
    and kept for the later calls of the process.  Building one searches
    for message catalogs, and the first imports ``locale``; neither
    belongs in ``import eucren.cli``."""
    parser = argparse.ArgumentParser(
        prog="eucren",
        description="Euclidean perturbative renormalization toolbox")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--tolerance", metavar="X",
                        help="override the verify threshold")
    parser.add_argument("--seed", metavar="N",
                        help="seed for randomized checks")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return exit_code_for(ParseError(""))

    try:
        config = parse_config(text)
        for key in ("tolerance", "seed"):
            flag = getattr(args, key)
            if flag is not None:
                try:
                    config = replace(config, **{key: _TOP_KEYS[key](flag)})
                except ValueError as exc:
                    raise ParseError(f"--{key}: {exc}")
        report = run(config)
    except EucrenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)

    rendered = report.render()
    out_path = args.out or config.out
    if out_path:
        Path(out_path).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
