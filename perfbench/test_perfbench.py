"""Tests of the benchmark itself: its checks, its independence from eucren
and the transparency of tracing.

    python3 -m pytest perfbench -q

from the root of the checkout (about a minute on two cores).
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 5


def run_jobs(tmp_path, tag, jobs, trace=False):
    """Run ``jobs`` in one worker process; returns {name: report text}."""
    plan = {"jobs": [], "trace": str(tmp_path / f"{tag}.npz") if trace else None}
    for job in jobs:
        config = tmp_path / f"{job.name}.cfg"
        config.write_text(job.config)
        plan["jobs"].append([str(config), str(tmp_path / f"{tag}.{job.name}.report")])
    plan_path = tmp_path / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan))
    result_path = tmp_path / f"{tag}.result.json"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), ROOT,
                    str(plan_path), str(result_path)], check=True, timeout=300)
    result = json.loads(result_path.read_text())
    assert result["exits"] == [0] * len(jobs), result["errors"]
    return {job.name: (tmp_path / f"{tag}.{job.name}.report").read_text()
            for job in jobs}, result


def scale_value(text, section, key, factor):
    """The report with one number scaled: ``key`` is a ``k = v`` key or
    the first cell of a table row."""
    lines = text.splitlines(keepends=True)
    current = None
    for i, line in enumerate(lines):
        header = re.fullmatch(r"\[(\w+)\]\n?", line)
        if header:
            current = header.group(1)
            continue
        if current != section:
            continue
        if line.startswith(f"{key} = "):
            value = float(line.split(" = ")[1])
            lines[i] = f"{key} = {value * factor:.12e}\n"
            return "".join(lines)
        cells = line.split()
        if cells and cells[0] == key:
            value = float(cells[1])
            lines[i] = line.replace(cells[1], f"{value * factor:.12e}")
            return "".join(lines)
    raise KeyError((section, key))


# the numbers each checked job reads: (job, section, key)
CHECKED_VALUES = {
    "verify-d3": [("product-d3", "series", k) for k in ("0", "1", "2")],
    "verify-d2": [("product-d2", "series", k) for k in ("0", "1", "2")],
    "radial": [("p2-d3", "pairing", "value"), ("p3-d3-c0", "pairing", "value"),
               ("p3-d3-c037", "pairing", "value"), ("path-d3", "pairing", "value"),
               ("triangle-old", "pairing", "value"),
               ("triangle-new", "pairing", "value"), ("p3-d2", "pairing", "value")],
}


def outcomes(jobs, reports):
    return [ok for job in jobs for ok, _ in job.check(reports)]


@pytest.fixture(scope="module")
def radial_reports(tmp_path_factory):
    jobs = workloads.build("radial", SEED)
    reports, _ = run_jobs(tmp_path_factory.mktemp("radial"), "plain", jobs)
    return jobs, reports


@pytest.mark.parametrize("workload", ["verify-d3", "verify-d2", "radial"])
def test_checks_pass_and_reject_a_one_percent_error(workload, tmp_path, radial_reports):
    if workload == "radial":
        jobs, reports = radial_reports
    else:
        jobs = [j for j in workloads.build(workload, SEED)
                if not j.name.startswith("verify")]
        reports, _ = run_jobs(tmp_path, "plain", jobs)
    assert all(outcomes(jobs, reports))
    for name, section, key in CHECKED_VALUES[workload]:
        for factor in (1.01, 0.99):
            bad = dict(reports)
            bad[name] = scale_value(reports[name], section, key, factor)
            assert not all(outcomes(jobs, bad)), (name, key, factor)


def test_verify_rows_need_pass_below_threshold():
    job = workloads.build("verify-d1-sweep", SEED)[0]
    text = ("eucren report\n\n[verify]\nchecks = 2\nresult = PASS\n"
            "check  value  threshold  status\n"
            "a  1.0e-05  1.0e-04  PASS\nb  0.0e+00  1.0e+00  PASS\n\n"
            "[status]\nok = true\n")
    assert all(ok for ok, _ in job.check({job.name: text}))
    for bad in (text.replace("b  0.0e+00  1.0e+00  PASS", "b  0.0e+00  1.0e+00  FAIL"),
                text.replace("a  1.0e-05", "a  2.0e-04"),
                text.replace("a  1.0e-05", "a  nan"),
                text.replace("result = PASS", "result = FAIL")):
        assert not all(ok for ok, _ in job.check({job.name: bad}))


def test_non_finite_values_are_found():
    text = "[config]\nbackground = inf_x\n\n[pairing]\nvalue = {}\n"
    assert not workloads.non_finite(text.format("1.0e+00"))
    for value in ("nan", "inf", "-inf"):
        assert workloads.non_finite(text.format(value))


def test_traced_reports_equal_untraced_reports(tmp_path, radial_reports):
    jobs, plain = radial_reports
    product = [j for j in workloads.build("verify-d2", SEED) if j.name == "product-d2"]
    traced, result = run_jobs(tmp_path, "traced", jobs, trace=True)
    assert traced == plain
    plain_product, _ = run_jobs(tmp_path, "plain", product)
    traced_product, _ = run_jobs(tmp_path, "traced", product, trace=True)
    assert traced_product == plain_product
    metrics = result["metrics"]
    assert metrics["quadrature.quad_calls"]["value"] > 0
    assert metrics["quadrature.integrand_evals"]["value"] > metrics["quadrature.quad_calls"]["value"]
    assert metrics["triple.pair_three_s"]["value"] > 0
    assert (tmp_path / "traced.npz").exists()


def test_jobs_depend_on_the_seed_only():
    for workload in workloads.WORKLOADS:
        a = [j.config for j in workloads.build(workload, 1)]
        assert a == [j.config for j in workloads.build(workload, 1)]
        assert a != [j.config for j in workloads.build(workload, 2)]


def test_oracle_code_imports_nothing_from_eucren():
    for name in ("oracles.py", "workloads.py", "run.py"):
        tree = ast.parse(open(os.path.join(HERE, name)).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "eucren" for a in node.names)
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "eucren"
    code = ("import sys; sys.path.insert(0, {!r}); import workloads, oracles; "
            "[workloads.build(w, 0) for w in workloads.WORKLOADS]; "
            "print(any(m.split('.')[0] == 'eucren' for m in sys.modules))").format(HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
