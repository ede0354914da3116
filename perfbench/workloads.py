"""The benchmark's workloads: batches of eucren CLI jobs made from a seed,
and the check each job's report must pass.

A job is one configuration file run by ``eucren --config``.  The checks
read numbers from the reports and compare them with ``oracles``, which
computes them without eucren.  Nothing in this module imports eucren.
"""

from __future__ import annotations

import functools
import math
import re
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracles

M = 1.0
Z = oracles.Z_LIMIT
# relative tolerance of the deterministic property checks
PROPERTY_RTOL = 1e-6
TRIANGLE_RTOL = 1e-3
C0 = 0.37
D1_SEEDS = tuple(range(12))


@dataclass
class Job:
    name: str
    config: str
    # check(reports) -> list of (passed, message); reports maps job names
    # to report text
    check: Callable[[Dict[str, str]], List[Tuple[bool, str]]] = field(repr=False)


# -- reading reports ------------------------------------------------------


def sections(text):
    """{section: [line, ...]} of a rendered report."""
    out, current = {}, None
    for line in text.splitlines():
        match = re.fullmatch(r"\[(\w+)\]", line)
        if match:
            current = out.setdefault(match.group(1), [])
        elif current is not None and line:
            current.append(line)
    return out


def pairs(text, section):
    return dict(line.split(" = ", 1) for line in sections(text)[section]
                if " = " in line)


def table(text, section):
    """Rows of the section's table, header row dropped."""
    rows = [line.split() for line in sections(text)[section] if " = " not in line]
    return rows[1:]


def non_finite(text):
    """True when a result section reports nan or inf."""
    for name, lines in sections(text).items():
        if name == "config":
            continue
        for line in lines:
            if re.search(r"(?<![A-Za-z_])[-+]?(nan|inf)(?![A-Za-z_])", line, re.I):
                return True
    return False


def pairing_value(text):
    return float(pairs(text, "pairing")["value"])


def series(text):
    return {int(order): float(value) for order, value in table(text, "series")}


# -- checks -----------------------------------------------------------------


def within_stderr(what, value, estimate, stderr):
    z = abs(value - estimate) / stderr if stderr > 0 else math.inf
    return (z <= Z, f"{what}: {value:.9e} vs Monte Carlo {estimate:.9e} "
                    f"+- {stderr:.2e} ({z:.2f} standard errors)")


def within_rel(what, value, reference, rtol):
    rel = abs(value - reference) / abs(reference)
    return (rel <= rtol, f"{what}: {value:.12e} vs {reference:.12e} "
                         f"(relative {rel:.2e}, limit {rtol:.0e})")


def verify_rows(text):
    """Every row of a verify report reads PASS with its value below the
    threshold."""
    out = []
    for check, value, threshold, status in table(text, "verify"):
        value, threshold = float(value), float(threshold)
        ok = status == "PASS" and math.isfinite(value) and value < threshold
        out.append((ok, f"verify {check}: {value:.3e} < {threshold:.3e} {status}"))
    out.append((pairs(text, "verify")["result"] == "PASS", "verify result PASS"))
    return out


# -- building jobs ----------------------------------------------------------


def _fmt(x):
    return repr(float(x))


def _point(center):
    return ",".join(_fmt(c) for c in center)


def _functional(name, center, radius, amplitude, power=None):
    lines = [f"[functional {name}]"]
    if power is not None:
        lines.append(f"power={power}")
    lines += [f"center={_point(center)}", f"radius={_fmt(radius)}",
              f"amplitude={_fmt(amplitude)}"]
    return "\n".join(lines)


def _rng(workload, seed):
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _verify_job(d, seed):
    name = f"verify-d{d}-s{seed}"
    return Job(name, f"command=verify d={d} m={_fmt(M)} seed={seed}\n",
               lambda reports: verify_rows(reports[name]))


def _product_job(d, rng, mc_seed):
    """phi^3 x phi^3 at order 2 on two disjoint balls of radius 0.9."""
    pad = (0.0,) * (d - 1)
    f = ((0.0,) + pad, 0.9, float(rng.uniform(0.8, 1.25)))
    g = ((float(rng.uniform(2.4, 2.7)),) + pad, 0.9, float(rng.uniform(0.8, 1.25)))
    c, s = float(rng.uniform(0.8, 1.2)), float(rng.uniform(-0.2, 0.2))
    name = f"product-d{d}"
    config = "\n".join([
        f"command=product d={d} m={_fmt(M)} order=2",
        f"background = {_fmt(c)} + {_fmt(s)}*x1",
        _functional("F", *f, power=3), _functional("G", *g, power=3), ""])

    ref = functools.cache(lambda: oracles.product_coefficients(
        d, M, f, g, (c, s), (3, 3), (0, 1, 2), 4_000_000, mc_seed))

    def check(reports):
        got, ref_k = series(reports[name]), ref()
        return [within_stderr(f"{name} order {k}", got[k], *ref_k[k])
                for k in (0, 1, 2)]
    return Job(name, config, check)


def _renormalize(name, d, factors, tests, extra=""):
    head = f"command=renormalize d={d} m={_fmt(M)} factors={factors}"
    if extra:
        head += " " + extra
    body = [_functional(label, *t) for label, t in zip("ABC", tests)]
    return "\n".join([head, *body, ""])


def _radial_jobs(rng, seed):
    amp = lambda: float(rng.uniform(0.8, 1.25))  # noqa: E731
    jobs = []

    # P^2 in d = 3 on overlapping tests: integrable, no extension
    p2 = (((0.0, 0.0, 0.0), 1.0, amp()), ((0.7, 0.0, 0.0), 0.9, amp()))

    ref_p2 = functools.cache(
        lambda: oracles.radial_pairing(3, M, 2, *p2, 1_500_000, seed))

    def check_p2(reports):
        return [within_stderr("P^2 d=3", pairing_value(reports["p2-d3"]), *ref_p2())]
    jobs.append(Job("p2-d3", _renormalize("p2-d3", 3, "0-1:2", p2), check_p2))

    # P^3 in d = 3: degree 0, extended with the default cutoff; the two
    # jobs share their tests and differ only in the counterterm C_0
    p3 = (((0.0, 0.0, 0.0), 1.0, amp()), ((0.5, 0.3, 0.0), 0.8, amp()))
    jobs.append(Job("p3-d3-c0", _renormalize("p3-d3-c0", 3, "0-1:3", p3),
                    lambda reports: []))

    overlap = functools.cache(lambda: oracles.overlap_integral(*p3))
    ref_p3 = functools.cache(lambda: oracles.radial_pairing(
        3, M, 3, *p3, 500_000, seed + 1, cut_radius=1.0))

    def check_c0(reports):
        lo = pairing_value(reports["p3-d3-c0"])
        hi = pairing_value(reports["p3-d3-c037"])
        est, err = ref_p3()
        return [
            within_stderr("P^3 d=3 C_0=0.37", hi, est + C0 * overlap(), err),
            within_rel("C_0 shift", hi - lo, C0 * overlap(), PROPERTY_RTOL),
        ]
    jobs.append(Job("p3-d3-c037", _renormalize("p3-d3-c037", 3, "0-1:3", p3,
                                               f"pair_c0={_fmt(C0)}"), check_c0))

    # a P^2-P path: the P^2 leg joins disjoint tests, the P leg
    # overlapping ones
    path = (((-2.2, 0.0, 0.0), 0.9, amp()), ((0.0, 0.0, 0.0), 1.0, amp()),
            ((0.8, 0.3, 0.0), 0.8, amp()))

    ref_path = functools.cache(lambda: oracles.path_pairing(M, path, 600_000, seed + 2))

    def check_path(reports):
        return [within_stderr("P^2-P path", pairing_value(reports["path-d3"]), *ref_path())]
    jobs.append(Job("path-d3", _renormalize("path-d3", 3, "0-1:2,1-2:1", path),
                    check_path))

    # the worked triangle on concentric tests, before and after a change
    # of both cutoffs compensated by the counterterm shifts
    a = amp()
    tri = (((0.0, 0.0, 0.0), 1.0, a), ((0.0, 0.0, 0.0), 0.9, 1.2 * a),
           ((0.0, 0.0, 0.0), 0.8, 0.8 * a))
    c_pair = oracles.pair_cutoff_shift(M, 0.6, 1.0)
    c_over = oracles.triangle_overall_shift(M, 1.0, c_pair, 0.8, 1.1)
    factors = "0-1:3,0-2:2,1-2:1"
    jobs.append(Job("triangle-old", _renormalize(
        "triangle-old", 3, factors, tri, "pair_radius=0.6 overall_radius=0.8"),
        lambda reports: []))

    def check_triangle(reports):
        return [within_rel("triangle under a cutoff change",
                           pairing_value(reports["triangle-new"]),
                           pairing_value(reports["triangle-old"]), TRIANGLE_RTOL)]
    jobs.append(Job("triangle-new", _renormalize(
        "triangle-new", 3, factors, tri,
        f"pair_radius=1.0 pair_c0={_fmt(c_pair)} overall_radius=1.1 "
        f"overall_c0={_fmt(c_over)}"), check_triangle))

    # P^3 in d = 2 on overlapping tests: integrable, P through K_0
    p3d2 = (((0.0, 0.0), 1.0, amp()), ((0.7, 0.0), 0.9, amp()))

    ref_p3d2 = functools.cache(
        lambda: oracles.radial_pairing(2, M, 3, *p3d2, 1_500_000, seed + 3))

    def check_p3d2(reports):
        return [within_stderr("P^3 d=2", pairing_value(reports["p3-d2"]), *ref_p3d2())]
    jobs.append(Job("p3-d2", _renormalize("p3-d2", 2, "0-1:3", p3d2), check_p3d2))
    return jobs


def build(workload, seed):
    """The jobs of one round of ``workload`` for ``seed``, in run order."""
    rng = _rng(workload, seed)
    if workload in ("verify-d3", "verify-d2"):
        d = int(workload[-1])
        return [_verify_job(d, 3), _product_job(d, rng, seed)]
    if workload == "verify-d1-sweep":
        order = rng.permutation(len(D1_SEEDS))
        return [_verify_job(1, D1_SEEDS[i]) for i in order]
    if workload == "radial":
        return _radial_jobs(rng, seed)
    raise KeyError(workload)


WORKLOADS = ("verify-d3", "verify-d2", "verify-d1-sweep", "radial")

# rounds a run makes at least.  radial and verify-d1-sweep spend their
# time in the interpreter (QUADPACK callbacks, sympy), whose speed on a
# shared host drifts by up to a third for minutes at a time; averaging
# three rounds narrows the spread between runs (see README.md)
ROUNDS = {"verify-d3": 1, "verify-d2": 1, "verify-d1-sweep": 3, "radial": 3}
