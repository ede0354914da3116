"""Configuration parsing diagnostics, command dispatch, report shape,
exit codes, and report determinism, plus property tests that fuzz the
parser with arbitrary text and ``run`` with valid configurations.

Slow commands (product, renormalize, verify) run at d=1 or small rules
where possible; the full-size runs live in the acceptance suite.
"""

from fractions import Fraction
from types import SimpleNamespace

import argparse
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eucren import cli
from eucren.cli import Report, RunConfig, main, parse_config, run
from eucren.errors import (EucrenError, IllConditionedFit, NotPrimitive,
                           ParseError, exit_code_for)
from eucren.functionals import FieldConfiguration, LocalFunctional, TestFunction
from eucren.quadrature import DEFAULT_SCHEME
from eucren.tordered import star_E


def _rows(report: Report, section: str):
    for s in report.sections:
        if s.name == section:
            return s.table
    raise AssertionError(f"no section {section!r}")


def _pairs(report: Report, section: str):
    for s in report.sections:
        if s.name == section:
            return dict(s.pairs)
    raise AssertionError(f"no section {section!r}")


class TestParse:
    def test_minimal_single_line(self):
        config = parse_config("d=3 m=1 command=graphs n=3 order=2")
        assert config.d == 3
        assert config.m == 1.0
        assert config.command == "graphs"
        assert config.n == 3
        assert config.order == 2

    def test_defaults_populated(self):
        config = parse_config("command=classify d=4")
        assert config.tolerance == 1e-4
        assert config.seed == 0
        assert config.gauss_n == 12
        assert config.background == "0"
        assert config.functionals == ()

    def test_zero_dimension_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_config("d=0 command=graphs")
        assert err.value.line == 1
        assert "dimension" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=graphs\nd=3\nmasss=1")
        assert err.value.line == 3
        assert err.value.column == 1
        assert "masss" in str(err.value)

    def test_spaced_assignment_form(self):
        config = parse_config(
            "command = product\nd = 2\n"
            "background = 1 + 0.5*x1\n"
            "[functional F]\ncenter = 0, 0\npower = 2\n")
        assert config.background == "1 + 0.5*x1"
        assert config.functionals[0].center == (0.0, 0.0)

    def test_comments_and_blanks_skipped(self):
        config = parse_config(
            "# run\ncommand=graphs d=3  # inline\n\nn=2\n")
        assert config.n == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=graphs d=3 d=4")
        assert "duplicate" in str(err.value)

    def test_missing_required_keys(self):
        with pytest.raises(ParseError):
            parse_config("command=graphs")
        with pytest.raises(ParseError):
            parse_config("d=3")

    def test_bad_command(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=expandd d=3")
        assert "unknown command" in str(err.value)

    def test_malformed_token(self):
        with pytest.raises(ParseError) as err:
            parse_config("command=graphs d=3\n!!=1 n=2")
        assert err.value.line == 2

    def test_malformed_section_header(self):
        with pytest.raises(ParseError):
            parse_config("command=graphs d=3\n[functional]")

    def test_duplicate_section_name(self):
        text = ("command=product d=3\n"
                "[functional F]\ncenter=0,0,0\n"
                "[functional F]\ncenter=3,0,0\n")
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "duplicate functional" in str(err.value)

    def test_functional_key_at_top_level(self):
        with pytest.raises(ParseError):
            parse_config("command=graphs d=3 radius=1.0")

    def test_top_key_inside_section(self):
        text = "command=product d=3\n[functional F]\ncenter=0,0,0\nm=2\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "functional section" in str(err.value)

    def test_center_length_checked(self):
        text = "command=product d=3\n[functional F]\ncenter=0,0\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "components" in str(err.value)
        assert "line 3, column 1" in str(err.value)

    def test_center_length_checked_beside_derivs(self):
        # a bad center is reported at the center, not at the derivs that
        # MonomialTerm would otherwise have checked against it
        text = ("command=product d=3\n[functional F]\ncenter=0,0\n"
                "power=1\nderivs=(1,0,0)\n")
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "components" in str(err.value)
        assert "line 3, column 1" in str(err.value)

    def test_missing_center(self):
        text = "command=product d=3\n[functional F]\npower=2\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "center" in str(err.value)

    def test_deriv_count_must_match_power(self):
        text = ("command=product d=2\n[functional F]\n"
                "center=0,0\npower=2\nderivs=(1,0)\n")
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "multi-indices" in str(err.value)

    def test_deriv_parsing(self):
        text = ("command=product d=2\n[functional F]\n"
                "center=0,0\npower=2\nderivs=(1,0)(0,0)\n")
        config = parse_config(text)
        assert config.functionals[0].derivs == ((1, 0), (0, 0))

    def test_factor_parsing(self):
        config = parse_config(
            "command=renormalize d=3 factors=0-1:3,0-2:2,1-2:1")
        assert config.factors == ((0, 1, 3), (0, 2, 2), (1, 2, 1))

    def test_factor_garbage(self):
        for bad in ("1-0:3", "0-1:0", "0-1:2,0-1:3", "x"):
            with pytest.raises(ParseError):
                parse_config(f"command=renormalize d=3 factors={bad}")

    def test_lambda_range_checked(self):
        with pytest.raises(ParseError):
            parse_config("command=graphs d=3 lambdas=0.5,1.5")

    def test_product_needs_sections(self):
        with pytest.raises(ParseError):
            parse_config("command=product d=3")

    def test_renormalize_needs_factors(self):
        with pytest.raises(ParseError):
            parse_config("command=renormalize d=3")

    def test_bad_background_reported_at_its_line(self):
        text = "command=graphs\nd=3\nbackground = 1 +* x1\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == 3

    def test_prefactor_fraction(self):
        text = ("command=product d=3\n[functional F]\n"
                "center=0,0,0\npower=3\nprefactor=1/6\n")
        config = parse_config(text)
        assert config.functionals[0].prefactor == Fraction(1, 6)


class TestReportShape:
    def test_config_echo_includes_defaults(self):
        report = run(parse_config("d=3 command=graphs"))
        echo = _pairs(report, "config")
        for key in ("d", "m", "order", "gauss_n", "tolerance", "seed",
                    "lambdas", "background", "bare"):
            assert key in echo
        assert echo["m"] == "1.0"
        assert echo["command"] == "graphs"

    def test_render_starts_with_version(self):
        report = run(parse_config("d=3 command=graphs"))
        lines = report.render().splitlines()
        assert lines[0] == "eucren report"
        assert lines[1].startswith("version = ")

    def test_functional_echo(self):
        text = ("command=product d=2\n[functional F]\n"
                "center=0,0\npower=2\n[functional G]\ncenter=3,0\n")
        echo = _pairs(run(parse_config(text)), "config")
        assert echo["functional.F.power"] == "2"
        assert echo["functional.G.center"] == "3.0,0.0"

    def test_config_section_golden(self):
        text = ("command=graphs d=2 n=2 order=1 tolerance=0.01 bare=true "
                "factors=0-1:2,0-2:1\nbackground = 1 + 0.5*x2\n"
                "[functional F]\ncenter=0,1.5\npower=2\n"
                "derivs=(1,0)(0,2)\nprefactor=-3/4\n"
                "[functional G]\ncenter=2.5,-1e-3\namplitude=1.3\n"
                "radius=0.8\nderivs=(0,1)\n")
        sections = run(parse_config(text)).render().split("\n\n")
        assert sections[1].splitlines() == [
            "[config]",
            "angular_n = 96",
            "atol = 1e-12",
            "background = 1 + 0.5*x2",
            "bare = true",
            "command = graphs",
            "d = 2",
            "factors = 0-1:2,0-2:1",
            "functional.F.amplitude = 1.0",
            "functional.F.center = 0.0,1.5",
            "functional.F.derivs = (1,0)(0,2)",
            "functional.F.power = 2",
            "functional.F.prefactor = -3/4",
            "functional.F.radius = 1.0",
            "functional.G.amplitude = 1.3",
            "functional.G.center = 2.5,-0.001",
            "functional.G.derivs = (0,1)",
            "functional.G.power = 1",
            "functional.G.prefactor = 1",
            "functional.G.radius = 0.8",
            "gauss_n = 12",
            "k = 4",
            "lambdas = 0.5,0.25,0.125,0.0625,0.03125,0.015625,0.0078125,"
            "0.00390625",
            "m = 1.0",
            "n = 2",
            "n_max = 5",
            "order = 1",
            "out = ",
            "overall_c0 = 0.0",
            "overall_radius = 1.0",
            "pair_c0 = 0.0",
            "pair_radius = 1.0",
            "rtol = 1e-09",
            "seed = 0",
            "tolerance = 0.01",
        ]

    def test_byte_identical_for_identical_config(self):
        text = "d=3 command=graphs n=3 order=2"
        a = run(parse_config(text)).render()
        b = run(parse_config(text)).render()
        assert a == b


class TestGraphsCommand:
    def test_three_vertex_two_edge_table(self):
        report = run(parse_config("d=3 command=graphs n=3 order=2"))
        rows = _rows(report, "graphs")[1:]
        assert len(rows) == 6
        assert sorted(row[2] for row in rows) == ["1", "1", "1", "2", "2", "2"]
        weights = [row[3] for row in rows]
        assert weights.count("1/2") == 3 and weights.count("1") == 3

    def test_single_edge_row(self):
        report = run(parse_config("d=3 command=graphs n=2 order=1"))
        rows = _rows(report, "graphs")[1:]
        assert rows == (("0", "2; 1", "1", "1"),)


class TestExpandCommand:
    def test_term_count_through_order_two(self):
        report = run(parse_config("d=3 command=expand n=3 order=2"))
        assert _pairs(report, "expansion")["count"] == "10"
        rows = _rows(report, "expansion")[1:]
        by_order = {}
        for row in rows:
            by_order.setdefault(row[1], []).append(row[2])
        assert by_order["0"] == ["1"]
        assert by_order["1"] == ["1", "1", "1"]
        assert sorted(by_order["2"]) == ["1", "1", "1", "1/2", "1/2", "1/2"]


class TestProductCommand:
    TEXT = ("command=product d=1 m=1 order=2\n"
            "background = 1 + 0.2*x1\n"
            "[functional F]\ncenter=0\npower=3\nradius=1\n"
            "[functional G]\ncenter=2.5\npower=3\nradius=1\n")

    def test_series_matches_direct_call(self):
        config = parse_config(self.TEXT)
        report = run(config)
        rows = {row[0]: float(row[1]) for row in _rows(report, "series")[1:]}
        f = TestFunction(1, (0.0,), 1.0)
        g = TestFunction(1, (2.5,), 1.0)
        F = LocalFunctional.phi_power(3, f)
        G = LocalFunctional.phi_power(3, g)
        phi = FieldConfiguration.from_expression("1 + 0.2*x1", 1)
        series = star_E(F, G, phi, 1.0, 2, config.scheme())
        for order in range(3):
            np.testing.assert_allclose(rows[str(order)],
                                       series.coefficient(order), rtol=1e-12)

    def test_contributions_table_present(self):
        report = run(parse_config(self.TEXT))
        rows = _rows(report, "contributions")[1:]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert rows[2][1] == "1/2"

    def test_overlapping_supports_rejected(self):
        text = ("command=product d=1\n"
                "[functional F]\ncenter=0\npower=2\n"
                "[functional G]\ncenter=0.5\npower=2\n")
        from eucren.errors import DomainError
        with pytest.raises(DomainError):
            run(parse_config(text))


class TestRenormalizeCommand:
    def test_triangle_structure(self):
        text = ("command=renormalize d=3 m=1 factors=0-1:3,0-2:2,1-2:1\n"
                "pair_radius=0.6 overall_radius=0.8\n")
        report = run(parse_config(text))
        info = _pairs(report, "kernel")
        assert info["overall_extension"] == "present"
        status = {row[0]: row[3] for row in _rows(report, "kernel")[1:]}
        assert status == {"0-1": "extended", "0-2": "bare", "1-2": "bare"}

    def test_pair_kernel_scaling_and_pairing(self):
        text = ("command=renormalize d=3 m=1 factors=0-1:3\n"
                "[functional f]\ncenter=0,0,0\nradius=0.8\n"
                "[functional g]\ncenter=0.5,0,0\nradius=0.8\n")
        report = run(parse_config(text))
        fit = _pairs(report, "scaling")
        assert fit["analytic"] == "3"
        assert abs(float(fit["estimate"]) - 3.0) < 0.2
        value = float(_pairs(report, "pairing")["value"])
        assert np.isfinite(value) and value != 0.0

    def test_zero_amplitude_pairs_to_zero(self):
        # a zero amplitude gives both tests the zero profile, so their
        # correlation profile and the pairing are exact zeros, not nan
        text = ("command=renormalize d=2 m=0.5 factors=0-1:1 bare=true\n"
                "[functional f]\ncenter=0,0\nradius=1\namplitude=0\n"
                "[functional g]\ncenter=0,0\nradius=1\namplitude=0\n")
        report = run(parse_config(text))
        assert float(_pairs(report, "pairing")["value"]) == 0.0

    def test_pairing_needs_matching_test_count(self):
        text = ("command=renormalize d=3 factors=0-1:3,0-2:2,1-2:1\n"
                "[functional f]\ncenter=0,0,0\n")
        from eucren.errors import DomainError
        with pytest.raises(DomainError):
            run(parse_config(text))


class TestClassifyCommand:
    def test_marginal_theory(self):
        report = run(parse_config("command=classify d=4 k=4 n_max=8"))
        info = _pairs(report, "classification")
        assert info["verdict"] == "renormalizable"
        rows = _rows(report, "classification")[1:]
        assert all(row[1] == "4" for row in rows)
        assert [row[0] for row in rows] == [str(n) for n in range(2, 9)]


class TestVerifyCommand:
    def test_low_dimension_suite_passes(self):
        report = run(parse_config("d=1 m=1 command=verify"))
        assert report.ok
        info = _pairs(report, "verify")
        assert info["result"] == "PASS"
        rows = _rows(report, "verify")[1:]
        assert {row[0].split(".")[0] for row in rows} == {
            "fundamental_solution", "commutativity", "associativity",
            "additivity", "tadpole_cancellation"}

    def test_reports_byte_identical(self):
        text = "d=1 m=1 command=verify seed=5"
        a = run(parse_config(text)).render()
        b = run(parse_config(text)).render()
        assert a == b

    def test_impossible_tolerance_fails(self):
        report = run(parse_config("d=1 m=1 command=verify tolerance=1e-300"))
        assert not report.ok


class TestMain:
    def test_graphs_to_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "report.txt"
        cfg.write_text("d=3 command=graphs n=3 order=2\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        assert "3; 0,1,1" in out.read_text()

    def test_missing_file_is_parse_exit(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=graphs d=0\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_domain_error_exit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command=product d=1\n"
            "[functional F]\ncenter=0\npower=2\n"
            "[functional G]\ncenter=0.5\npower=2\n")
        assert main(["--config", str(cfg)]) == 3

    def test_graph_count_over_budget_exit(self, tmp_path, capsys):
        # C(64, 20), about 2e16 graphs: refused by their count before
        # any is listed
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "report.txt"
        cfg.write_text("command=graphs d=3 n=10 order=20\n")
        assert main(["--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "n=10" in err and "order=20" in err
        assert not out.exists()

    def test_nonintegrable_exit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command=renormalize d=3 factors=0-1:3 bare=true\n"
            "[functional f]\ncenter=0,0,0\nradius=0.8\n"
            "[functional g]\ncenter=0.5,0,0\nradius=0.8\n")
        assert main(["--config", str(cfg)]) == 4

    def test_massless_low_dimension_exit(self, tmp_path, capsys):
        # no decaying massless propagator exists in d = 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command=product d=2 m=0 order=1\n"
            "[functional F]\ncenter=0,0\npower=2\nradius=0.9\n"
            "[functional G]\ncenter=2.5,0\npower=2\nradius=0.9\n")
        assert main(["--config", str(cfg)]) == 6
        assert "ok = true" not in capsys.readouterr().out

    def test_verify_beyond_ball_rules_exit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=verify d=4 m=1\n")
        assert main(["--config", str(cfg)]) == 6

    def test_background_never_executed(self, tmp_path):
        target = tmp_path / "written.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command=graphs d=3\n"
            f'background = __import__("pathlib").Path("{target}")'
            '.write_text("x")\n')
        assert main(["--config", str(cfg)]) == 2
        assert not target.exists()

    def test_infinite_radius_is_parse_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=renormalize d=3 factors=0-1:3 pair_radius=inf\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_derivative_above_cap_is_parse_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=product d=3\n[functional F]\n"
                       "center=0,0,0\npower=1\nderivs=(3,0,0)\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_nonfinite_result_is_domain_exit(self, tmp_path, capsys):
        # the square root of the background is nan on half the support
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=product d=1 order=0\n"
                       "background = x1**0.5\n"
                       "[functional F]\ncenter=0\npower=2\n")
        assert main(["--config", str(cfg)]) == 3
        assert "ok = true" not in capsys.readouterr().out

    @pytest.mark.parametrize("background, code", [
        ("-" * 900 + "x1", 0),  # -(-a) folds to a
        ("-" * 990 + "x1", 2),  # beyond the parser's recursion
        ("+".join(["x1"] * 3000), 2),
        ("x1**100000", 0),
        ("exp(exp(exp(exp(x1))))", 3),
        ("2**-1025*x1", 2),
        ("(-1)**0.5", 2),
        ("x1/0", 2),
        ("x1**" * 70 + "x1", 2),  # a tree higher than 24 levels
        ("x1**" * 24 + "x1", 2),  # overflows (exit 3) unless refused
    ], ids=["neg900", "neg990", "sum3000", "pow100000", "exp4", "tiny",
            "sqrt-1", "div0", "tower70", "tower24"])
    def test_hostile_background_exit(self, tmp_path, background, code):
        # phi^2 on B(0, 0.9) in d = 1: every background ends in a
        # documented exit code, never in a traceback, and without a
        # numpy RuntimeWarning (an overflow is reported as exit 3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command=product d=1 order=1\nbackground = {background}\n"
                       "[functional F]\ncenter=0\nradius=0.9\npower=2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(cfg), "--out",
                         str(tmp_path / "report.txt")]) == code
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        # the parser is built on the first call of main, not at import,
        # and every later call reuses it
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return argparse.ArgumentParser(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse",
                            SimpleNamespace(ArgumentParser=counting))
        cli._parser.cache_clear()
        try:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("d=3 command=graphs n=2 order=1\n")
            for _ in range(2):
                assert main(["--config", str(cfg), "--out",
                             str(tmp_path / "report.txt")]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_huge_exact_power_is_parse_exit(self, tmp_path, capsys):
        # building the exact integer 10**(10**7) alone takes seconds
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=graphs d=1\nbackground = 10**10**7\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_overflowing_background_is_parse_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=product d=1 order=1\nbackground = 2**2000\n"
                       "[functional F]\ncenter=0\n[functional G]\ncenter=3\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_overlapping_divergence_is_unsupported_exit(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=renormalize d=3 factors=0-1:3,1-2:3\n")
        assert main(["--config", str(cfg)]) == 6

    def test_short_lambda_sweep_is_parse_exit(self, tmp_path, capsys):
        # the fit drops two lambdas and needs four
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "command=renormalize d=3 factors=0-1:2 lambdas=0.5,0.25,0.125\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_huge_prefactor_exponent_is_parse_exit(self, tmp_path, capsys):
        # Fraction builds 1e3000000 as the exact integer 10**3000000
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=graphs d=1\n[functional F]\ncenter=0\n"
                       "prefactor=1e3000000\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_overflowing_prefactor_is_parse_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=product d=1 order=1\n[functional F]\n"
                       "center=0\nprefactor=1e400\n[functional G]\n"
                       "center=3\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 4" in capsys.readouterr().err

    def test_overflowing_lambda_is_parse_exit(self, tmp_path, capsys):
        # 1e-300 ** -3 is beyond the float range
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command=renormalize d=3 factors=0-1:2 "
                       "lambdas=0.5,0.25,0.125,1e-100,1e-200,1e-300\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (IllConditionedFit("fit"), 5), (NotPrimitive("forest"), 6)])
    def test_library_errors_have_exit_codes(self, exc, code):
        assert exit_code_for(exc) == code

    def test_flag_overrides_echoed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "report.txt"
        cfg.write_text("d=3 command=graphs\n")
        main(["--config", str(cfg), "--out", str(out),
              "--tolerance", "0.5", "--seed", "9"])
        text = out.read_text()
        assert "tolerance = 0.5" in text
        assert "seed = 9" in text

    @pytest.mark.parametrize("command, flag, value", [
        ("verify d=1", "--seed", "-1"),
        ("verify d=1", "--tolerance", "nan"),
        ("graphs d=3", "--tolerance", "0"),
    ])
    def test_bad_flag_is_parse_exit(self, tmp_path, capsys, command, flag,
                                    value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command={command}\n")
        assert main(["--config", str(cfg), flag, value]) == 2
        assert f"error: {flag}: " in capsys.readouterr().err

    def test_seed_flag_changes_verify_draws(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1 m=1 command=verify\n")
        main(["--config", str(cfg), "--seed", "1"])
        first = capsys.readouterr().out
        main(["--config", str(cfg), "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second
        assert main(["--config", str(cfg), "--seed", "1"]) == 0


_KEYS = sorted(cli._TOP_KEYS) + sorted(cli._FUNC_KEYS) + ["x1", "bogus"]
_ATOMS = ["0", "1", "-2", "0.5", "3", "10", "1e308", "1e-320", "inf", "nan",
          "x1", "x2", "x4", "(1,0,0)", "0-1:3", "1/0", "true", "verify",
          "product", "renormalize", "graphs"]


def _values():
    atoms = st.one_of(st.sampled_from(_ATOMS),
                      st.integers(-10**6, 10**6).map(str),
                      st.floats(allow_nan=True, allow_infinity=True).map(repr))
    ops = st.sampled_from(["+", "-", "*", "/", "**", ",", ":", " ", ""])
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, ops, inner).map("".join),
        st.tuples(st.sampled_from(["", "-", "exp", "sin", "log"]), inner)
        .map(lambda p: f"{p[0]}({p[1]})")), max_leaves=8)


def _lines():
    pair = st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", " = "]),
                     st.one_of(_values(), st.text(max_size=12)))
    return st.one_of(
        pair.map("".join),
        st.lists(pair.map(lambda p: f"{p[0]}={p[2]}"), max_size=4).map(" ".join),
        st.sampled_from(["[functional F]", "[functional G]", "[functional]",
                         "[other F]", "# comment", ""]),
        st.text(max_size=20))


class TestParseFuzz:
    @settings(max_examples=300, deadline=None, database=None)
    @example("command=graphs d=1", "background = 10**10**8")
    @example("command=graphs d=1", "[functional F]\nprefactor=1e3000000")
    @example("command=graphs d=1", "[functional F]\nprefactor=1e400")
    @example("command=product d=1 order=1",
             "background = 2**2000\n[functional F]\ncenter=0\n"
             "[functional G]\ncenter=3")
    @given(st.sampled_from(["", "command=graphs d=1", "command=product d=2",
                            "command=renormalize d=3 factors=0-1:2"]),
           st.lists(_lines(), max_size=8).map("\n".join))
    def test_only_parse_errors(self, head, body):
        try:
            parse_config(head + "\n" + body)
        except ParseError:
            pass


def _run_configs():
    """Valid configurations of the commands that need no functional
    sections: the graph commands, classify, verify, and bare or
    renormalized kernels on two or three points."""
    graphs = st.builds("command={} d={} n={} order={}".format,
                       st.sampled_from(["graphs", "expand"]),
                       st.integers(1, 5), st.integers(1, 4), st.integers(0, 3))
    classify = st.builds("command=classify d={} k={} n_max={}".format,
                         st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    factors = st.dictionaries(st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                              st.integers(1, 5), min_size=1).map(
        lambda powers: ",".join(f"{i}-{j}:{p}"
                                for (i, j), p in sorted(powers.items())))
    renormalize = st.builds(
        "command=renormalize d={} m={} factors={} bare={} gauss_n={}".format,
        st.integers(1, 5), st.sampled_from(["0", "0.5", "1"]), factors,
        st.sampled_from(["true", "false"]), st.integers(2, 6))
    verify = st.builds(
        "command=verify d={} m={} order={} gauss_n={} seed={}".format,
        st.integers(1, 3), st.sampled_from(["0", "0.3", "1", "2.5"]),
        st.integers(0, 2), st.integers(2, 12), st.integers(0, 999))
    return st.one_of(graphs, classify, renormalize, verify)


def _point(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


@st.composite
def _product_configs(draw):
    """Products of two functionals on disjoint balls: d 1-3, order <= 2,
    gauss_n <= 6, with or without derivative decorations."""
    d = draw(st.integers(1, 3))
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    alphas = [(0,) * d] + [tuple(int(i == j) * k for j in range(d))
                           for i in range(d) for k in (1, 2)]
    radii = [draw(floats(0.3, 1.5)) for _ in range(2)]
    direction = np.array([draw(floats(-1.0, 1.0)) for _ in range(d)])
    norm = float(np.linalg.norm(direction))
    direction = direction / norm if norm > 0.1 else np.eye(d)[0]
    first = np.array([draw(floats(-1.0, 1.0)) for _ in range(d)])
    gap = sum(radii) + draw(floats(0.05, 2.0))
    lines = ["command=product d={} m={} order={} gauss_n={}".format(
        d, draw(st.sampled_from(["0", "0.5", "1"])), draw(st.integers(0, 2)),
        draw(st.integers(2, 6))),
        "background = {!r} + {!r}*x1".format(draw(floats(-2.0, 2.0)),
                                             draw(floats(-0.5, 0.5)))]
    for name, center, radius in (("F", first, radii[0]),
                                 ("G", first + gap * direction, radii[1])):
        power = draw(st.integers(1, 3))
        lines += [f"[functional {name}]", f"power={power}",
                  f"center={_point(center)}", f"radius={radius!r}",
                  f"amplitude={draw(floats(-2.0, 2.0))!r}"]
        if draw(st.booleans()):
            derivs = draw(st.lists(st.sampled_from(alphas), min_size=power,
                                   max_size=power))
            lines.append("derivs=" + "".join(
                "(" + ",".join(map(str, a)) + ")" for a in derivs))
    return "\n".join(lines) + "\n"


@st.composite
def _pairing_configs(draw):
    """renormalize on two points with two functional sections: d 2-3,
    gauss_n <= 6, overlapping or disjoint tests, with or without a
    counterterm pair_c0."""
    d = draw(st.integers(2, 3))
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False)  # noqa: E731
    head = "command=renormalize d={} m={} factors=0-1:{} bare={} gauss_n={}".format(
        d, draw(st.sampled_from(["0", "0.5", "1"])), draw(st.integers(1, 3)),
        draw(st.sampled_from(["true", "false"])), draw(st.integers(2, 6)))
    if draw(st.booleans()):
        head += f" pair_c0={draw(floats(-1.0, 1.0))!r}"
    lines = [head]
    for name in ("A", "B"):
        center = [draw(floats(-1.0, 1.0)) for _ in range(d)]
        lines += [f"[functional {name}]", f"center={_point(center)}",
                  f"radius={draw(floats(0.3, 1.2))!r}",
                  f"amplitude={draw(floats(-2.0, 2.0))!r}"]
    return "\n".join(lines) + "\n"


class TestRunFuzz:
    @staticmethod
    def check_run(text):
        """A finite report, or an EucrenError with a documented exit
        code."""
        try:
            report = run(parse_config(text))
        except EucrenError as exc:
            assert 2 <= exit_code_for(exc) <= 6, repr(exc)
            return
        for section in report.sections:
            if section.name == "config":
                continue
            cells = [value for _, value in section.pairs]
            cells += [cell for row in section.table for cell in row]
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (section.name, cell)

    @settings(max_examples=200)
    @given(_run_configs())
    def test_finite_report_or_documented_error(self, text):
        self.check_run(text)

    @settings(max_examples=100)
    @given(_product_configs())
    def test_product_finite_or_documented_error(self, text):
        self.check_run(text)

    @settings(max_examples=30)
    @given(_pairing_configs())
    def test_pairing_finite_or_documented_error(self, text):
        self.check_run(text)


class TestRunConfigScheme:
    def test_scheme_override(self):
        config = RunConfig(command="graphs", d=3, gauss_n=8, rtol=1e-6)
        scheme = config.scheme()
        assert scheme.gauss_n == 8
        assert scheme.rtol == 1e-6
        assert scheme.angular_n == DEFAULT_SCHEME.angular_n
