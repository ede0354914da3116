"""End-to-end acceptance suite: one test per advertised guarantee.

Each test checks a stated tolerance or exactness claim and prints a
single summary line on success; the pytest verbose listing is the
pass/fail record.  Heavier randomized checks (algebra laws, causality)
share one geometry generator with disjointness by construction.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from eucren.cli import main
from eucren.functionals import (FieldConfiguration, LocalFunctional,
                                MonomialTerm, TestFunction, additivity_check)
from eucren.graphs import (conjugated_merge_series, cross_edge_series,
                           expansion_terms)
from eucren.kernels import (CutoffFunction, DeltaKernel, ExtensionSpec,
                            PropFactor, ScalarDistribution)
from eucren.propagator import Propagator, pair, verify_fundamental_solution
from eucren.quadrature import DEFAULT_SCHEME, QuadratureScheme, ball_rule
from eucren.renorm import (classify_theory, counterterm_count,
                           counterterm_shift, degree_of_divergence, extend,
                           recursive_renormalize, scaling_degree_analytic,
                           scaling_degree_numeric)
from eucren.tordered import block_product, causal_factorization_check, star_E
from eucren.triple import analytic_field, triple_pairing

from coproduct_oracle import conjugated_product
from test_renorm import brute_rho_max

M = 1.0
SCHEME = QuadratureScheme(gauss_n=12)


def _line(num: int, detail: str):
    print(f"criterion {num:02d}: PASS  {detail}")


def _random_disjoint_triple(rng):
    """Three monomial functionals on pairwise disjoint balls plus a
    seeded affine background."""
    centers = ((0.0, 0.0, 0.0),
               (2.4 + rng.uniform(0.0, 0.4), 0.0, 0.0),
               (rng.uniform(-0.3, 0.3), 2.5 + rng.uniform(0.0, 0.4), 0.0))
    functionals = []
    for c in centers:
        f = TestFunction(3, c, float(rng.uniform(0.75, 0.95)),
                         float(rng.uniform(0.6, 1.1)))
        functionals.append(LocalFunctional.phi_power(int(rng.integers(2, 4)),
                                                     f))
    phi = FieldConfiguration.from_expression(
        f"{rng.uniform(0.7, 1.2):.4f} + {rng.uniform(-0.1, 0.1):.4f}*x1", 3)
    return functionals, phi


def _series_rel(a, b, order: int) -> float:
    worst = 0.0
    for k in range(order + 1):
        x, y = a.coefficient(k), b.coefficient(k)
        scale = max(abs(x), abs(y))
        if scale:
            worst = max(worst, abs(x - y) / scale)
    return worst


def test_criterion_01_graph_expansion_exactness():
    start = time.perf_counter()
    terms = expansion_terms(3, 2)
    first = [t for t in terms if t.order == 1]
    second = [t for t in terms if t.order == 2]
    assert len(first) == 3
    assert all(t.weight == Fraction(1) for t in first)
    assert len(second) == 6
    assert sorted(t.weight for t in second) == sorted(
        [Fraction(1, 2), Fraction(1), Fraction(1),
         Fraction(1, 2), Fraction(1), Fraction(1, 2)])
    # structural correspondence: a doubled propagator carries 1/2, the
    # two-edge paths carry 1
    for t in second:
        doubled = max(t.graph.mult) == 2
        assert t.weight == (Fraction(1, 2) if doubled else Fraction(1))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(1, f"3 terms at order 1, 6 at order 2, exact weights "
             f"({elapsed:.3f}s)")


def test_criterion_02_no_tadpole_oracle():
    start = time.perf_counter()
    engine = conjugated_merge_series(2)
    assert engine == cross_edge_series(2)
    assert engine == conjugated_product(2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _line(2, f"conjugated merge equals the pure cross-edge series "
             f"through order 2, symbolically ({elapsed:.3f}s)")


def test_criterion_03_fundamental_solution_residuals():
    start = time.perf_counter()
    bumps = ((0.0, 1.0, 1.0), (0.2, 1.3, 1.7), (-0.15, 0.85, 0.6))
    worst = 0.0
    for d in (1, 2, 3):
        for m in (0.5, 1.0, 2.0):
            P = Propagator(d, m)
            for offset, radius, amplitude in bumps:
                center = (offset,) + (0.0,) * (d - 1)
                phi = TestFunction(d, center, radius, amplitude)
                residual = verify_fundamental_solution(P, phi, DEFAULT_SCHEME)
                worst = max(worst,
                            residual / abs(float(phi(np.zeros(d)))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 60.0
    _line(3, f"27 combinations, worst relative residual {worst:.2e} "
             f"({elapsed:.1f}s)")


def test_criterion_04_partial_algebra_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_comm = worst_assoc = 0.0
    shifted = replace(SCHEME, gauss_n=SCHEME.gauss_n + 4)
    for _ in range(10):
        (F, G, H), phi = _random_disjoint_triple(rng)
        comm = _series_rel(
            star_E(F, G, phi, M, 2, SCHEME),
            star_E(G, F, phi, M, 2, shifted), 2)
        assoc = _series_rel(
            block_product([F, G, H], {0, 1}, phi, M, 2, SCHEME),
            block_product([F, G, H], {1, 2}, phi, M, 2, shifted), 2)
        worst_comm = max(worst_comm, comm)
        worst_assoc = max(worst_assoc, assoc)
    elapsed = time.perf_counter() - start
    assert worst_comm < 1e-4
    assert worst_assoc < 1e-4
    assert elapsed < 300.0
    _line(4, f"10 triples: commutativity {worst_comm:.2e}, "
             f"associativity {worst_assoc:.2e} ({elapsed:.0f}s)")


def test_criterion_05_euclidean_causality():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        functionals, phi = _random_disjoint_triple(rng)
        for i in range(3):
            res = causal_factorization_check(functionals, [i], phi, M, 2,
                                             SCHEME)
            worst = max(worst, max(res.coefficient(k) for k in range(3)))
    assert worst < 1e-4
    _line(5, f"5 triples x 3 singleton splits, worst residual "
             f"{worst:.2e} ({time.perf_counter() - start:.0f}s)")


def test_criterion_06_scaling_degrees():
    probe = TestFunction(3, (1.5, 0.0, 0.0), 1.0)
    lams = tuple(2.0 ** -k for k in range(5, 16))
    residuals = []
    for j in (1, 2, 3):
        t = ScalarDistribution.single_power(3, M, j)
        report = scaling_degree_numeric(t, probe, lambdas=lams)
        assert abs(report.estimate - j) < 0.1
        residuals.append(report.residual)
    # the point-evaluation kernel: t(phi^lambda) = lambda^(-d) phi(0),
    # so the symbolic slope in lambda is exactly -d
    for d in (1, 2, 3):
        sd = scaling_degree_analytic(DeltaKernel(d))
        assert -sd.value == -d
        assert not sd.log_flag
    _line(6, "P, P^2, P^3 estimates within 0.1; fit residuals "
             + ", ".join(f"{r:.1e}" for r in residuals)
             + "; delta slope exact")


def test_criterion_07_extension_uniqueness_branch():
    f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    g = TestFunction(3, (0.5, 0.0, 0.0), 0.9, 1.3)
    far = TestFunction(3, (2.3, 0.0, 0.0), 1.0, 0.8)
    scheme = QuadratureScheme(gauss_n=16)
    t = ScalarDistribution.single_power(3, M, 2)

    v_a = pair(extend(t, ExtensionSpec(CutoffFunction(3, 0.6))), (f, g),
               scheme)
    v_b = pair(extend(t, ExtensionSpec(CutoffFunction(3, 1.1))), (f, g),
               scheme)
    cutoff_rel = abs(v_a - v_b) / abs(v_a)
    assert cutoff_rel < 1e-4

    bare = pair(t, (f, far), scheme)
    crossed = pair(t, (f, far), scheme, method="tensor")
    extended = pair(extend(t, ExtensionSpec(CutoffFunction(3, 0.6))),
                    (f, far), scheme)
    bare_rel = max(abs(crossed - bare), abs(extended - bare)) / abs(bare)
    assert bare_rel < 1e-4
    _line(7, f"P^2 cutoff independence {cutoff_rel:.1e}; bare agreement "
             f"off the diagonal {bare_rel:.1e}")


def test_criterion_08_extension_freedom_branch():
    f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    g = TestFunction(3, (0.5, 0.0, 0.0), 0.9, 1.3)
    scheme = QuadratureScheme(gauss_n=16)
    cutoff = CutoffFunction(3, 1.0)

    def value(c0):
        spec = ExtensionSpec.make(cutoff, {(0, 0, 0): c0})
        t = ScalarDistribution.single_power(3, M, 3, spec)
        return pair(t, (f, g), scheme)

    p0, p1, px = value(0.0), value(1.0), value(0.37)
    # linearity in C_0 holds on the symbolic layer, so the float results
    # agree to machine precision
    assert abs((px - p0) - 0.37 * (p1 - p0)) <= 1e-12 * abs(p1 - p0)

    pts, wts = ball_rule(3, f.center, f.radius, 24)
    phi_at_zero = float(wts @ (f(pts) * g(pts)))
    delta_rel = abs((p1 - p0) - phi_at_zero) / abs(phi_at_zero)
    assert delta_rel < 1e-6
    _line(8, f"C_0 shift acts as (delta C_0) phi(0): linear exactly, "
             f"value match {delta_rel:.1e}")


def test_criterion_09_worked_triangle():
    start = time.perf_counter()
    triangle = ScalarDistribution(3, 3, M, (
        PropFactor(0, 1, 3), PropFactor(0, 2, 2), PropFactor(1, 2, 1)))
    f = TestFunction(3, (0.0, 0.0, 0.0), 1.0)
    g = TestFunction(3, (0.0, 0.0, 0.0), 0.9, 1.2)
    h = TestFunction(3, (0.0, 0.0, 0.0), 0.8, 0.8)

    def renormalized_value(w_rad, c_p, W_rad, c_o):
        pair_spec = ExtensionSpec.make(CutoffFunction(3, w_rad),
                                       {(0, 0, 0): c_p})
        over_spec = ExtensionSpec.make(CutoffFunction(3, W_rad),
                                       {(0, 0, 0): c_o})
        out = recursive_renormalize(
            triangle, {(0, 1): pair_spec, "overall": over_spec})
        return out, pair(out, (f, g, h), SCHEME)

    out, v_old = renormalized_value(0.6, 0.0, 0.8, 0.0)
    status = {(fa.i, fa.j): fa.renormalized for fa in out.factors}
    assert status == {(0, 1): True, (0, 2): False, (1, 2): False}
    assert out.overall is not None
    # counterterm counts: one for the P^3 pair locus, none for P^2, one
    # for the overall locus (both divergences are exactly logarithmic)
    prop = Propagator(3, M)
    assert counterterm_count(3 * prop.sd - 3, 3) == 1
    assert counterterm_count(2 * prop.sd - 3, 3) == 0
    assert degree_of_divergence(out) == 0 and counterterm_count(0, 3) == 1
    assert np.isfinite(v_old) and v_old != 0.0

    c_p = counterterm_shift(ScalarDistribution.single_power(3, M, 3),
                            CutoffFunction(3, 0.6), CutoffFunction(3, 1.0))
    W_old, W_new = CutoffFunction(3, 0.8), CutoffFunction(3, 1.1)
    dV = lambda r: (np.asarray(W_new.profile(r), dtype=float)
                    - np.asarray(W_old.profile(r), dtype=float))
    c_o = triple_pairing(
        M, (3, 2, 1),
        ExtensionSpec.make(CutoffFunction(3, 1.0), {(0, 0, 0): c_p}),
        None, analytic_field(dV, 1.1, 1.1, (W_old.plateau_radius, W_old.radius,
                                            W_new.plateau_radius, W_new.radius)))
    _, v_new = renormalized_value(1.0, c_p, 1.1, c_o)
    rel = abs(v_new - v_old) / abs(v_old)
    elapsed = time.perf_counter() - start
    assert rel < 1e-3
    assert elapsed < 600.0
    _line(9, f"triangle renormalizes, pairs to {v_old:.3e}, two-cutoff "
             f"stability {rel:.1e} ({elapsed:.1f}s)")


def test_criterion_10_power_counting_classification():
    marginal = classify_theory(4, 4, 8)
    assert marginal.classification == "renormalizable"
    assert all(rho == 4 for _, rho in marginal.table)

    soft = classify_theory(3, 4, 5)
    assert soft.classification == "superrenormalizable"
    assert all(rho == 3 - n for n, rho in soft.table)

    hard = classify_theory(4, 6, 5)
    assert hard.classification == "unrenormalizable"
    assert all(rho == 2 * n + 4 for n, rho in hard.table)

    for d, k in ((4, 4), (3, 4), (4, 6)):
        expected = classify_theory(d, k, 5)
        for n, rho in expected.table:
            assert brute_rho_max(d, k, n) == rho
    _line(10, "three theories classified; exhaustive enumeration matches "
              "the closed form for n <= 5")


def test_criterion_11_additivity_suite():
    tight = QuadratureScheme(gauss_n=48)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        zero = (0,) * d
        derivs_pool = [zero, tuple(np.eye(d, dtype=int)[0])]
        power = int(rng.integers(1, 4))
        derivs = tuple(derivs_pool[i]
                       for i in rng.integers(0, 2, size=power))
        f = TestFunction(d, tuple(rng.uniform(-0.5, 0.5, size=d)),
                         float(rng.uniform(0.8, 1.6)),
                         float(rng.uniform(0.5, 2.0)))
        F = LocalFunctional([MonomialTerm(power, derivs, f,
                                          Fraction(1, power))])
        gap = rng.uniform(2.5, 4.0)
        pad = (0.0,) * (d - 1)
        phi = FieldConfiguration.bump(d, (-gap,) + pad,
                                      float(rng.uniform(0.7, 1.2)),
                                      float(rng.normal()))
        chi = FieldConfiguration.bump(d, (gap,) + pad,
                                      float(rng.uniform(0.7, 1.2)),
                                      float(rng.normal()))
        psi = FieldConfiguration.bump(
            d, tuple(rng.uniform(-0.3, 0.3, size=d)),
            float(rng.uniform(1.5, 3.0)), float(rng.normal()))
        worst = max(worst, additivity_check(F, phi, psi, chi, tight))
    assert worst <= 1e-5
    _line(11, f"20 randomized cases, worst residual {worst:.2e}")


def test_criterion_12_deterministic_verify(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("command=verify d=3 m=1 seed=3\n")
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["--config", str(cfg), "--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert b"result = PASS" in bytes_a
    _line(12, f"two verify runs byte-identical ({len(bytes_a)} bytes)")
