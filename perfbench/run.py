"""Benchmark of the eucren command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One round of a workload is a
batch of ``eucren`` jobs (see ``workloads.py``) run in order in one fresh
worker process, so the module caches start empty as they do for a
command-line user.  A run makes whole rounds, one after another: at
least the workload's ``workloads.ROUNDS``, and more until they have
measured at least ``--seconds``.  ``run_s`` is the mean time of a round.
Processes that only import ``eucren.cli`` make up the set-up samples to
``SETUP_SAMPLES``; set-up time is the median of their import times and
those of the rounds.

Every report is checked after the timing ends against values computed
without eucren (``oracles.py``).  A job fails when it exits non-zero,
reports a non-finite value, or fails its check; a failed check also
makes ``correct`` false.  With ``--trace 1`` the run makes one untraced
and one traced round, reports the per-module metrics of ``tracer.py``
and requires the traced reports to equal the untraced ones byte for
byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
# one BLAS thread: on two cores verify-d3 took 34.6 s with one and
# 34.3 s with two, and one leaves the other core to the rest of the host
BLAS_THREADS = 1


def _nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    # eucren comes from the checkout's src; its bytecode is cached there,
    # as for an installed package, whatever the caller's environment says
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(root, workdir, tag, jobs, trace_path=None):
    """One fresh worker process; returns its result dict."""
    plan_path = os.path.join(workdir, f"{tag}.plan.json")
    result_path = os.path.join(workdir, f"{tag}.result.json")
    with open(plan_path, "w") as fh:
        json.dump({"jobs": jobs, "trace": trace_path}, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), root, plan_path, result_path],
        env=worker_env(), timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def write_round(workdir, tag, jobs):
    """Write the configs of one round; returns [[config, report], ...]."""
    paths = []
    for job in jobs:
        config = os.path.join(workdir, f"{job.name}.cfg")
        with open(config, "w") as fh:
            fh.write(job.config)
        paths.append([config, os.path.join(workdir, f"{tag}.{job.name}.report")])
    return paths


def read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eucren", "cli.py")):
        print("error: run from the root of a checkout that holds src/eucren",
              file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    workdir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    if args.trace:
        # a traced run reports per-module metrics only: one untraced
        # round to set beside the traced one, and no set-up samples
        min_rounds, import_only = 1, 0
    else:
        min_rounds = workloads.ROUNDS[args.workload]
        import_only = max(0, SETUP_SAMPLES - min_rounds)
    setup = [run_worker(root, workdir, f"import{i}", [])["setup_s"]
             for i in range(import_only)]
    rounds, measured = [], 0.0
    while len(rounds) < min_rounds or measured < args.seconds:
        tag = f"round{len(rounds)}"
        result = run_worker(root, workdir, tag, write_round(workdir, tag, jobs))
        result["tag"] = tag
        rounds.append(result)
        setup.append(result["setup_s"])
        measured += result["run_s"]

    traced = None
    if args.trace:
        trace_path = os.path.join(workdir, "spans.npz")
        traced = run_worker(root, workdir, "traced",
                            write_round(workdir, "traced", jobs), trace_path)
        traced["tag"] = "traced"

    # checks: outside every timed region
    attempted = failed = 0
    correct = True
    log = []
    first = rounds[0]
    for result in rounds + ([traced] if traced else []):
        reports = {job.name: read(os.path.join(workdir, f"{result['tag']}.{job.name}.report"))
                   for job in jobs}
        for index, job in enumerate(jobs):
            attempted += 1
            text = reports[job.name]
            problem = None
            if result["exits"][index] != 0:
                problem = f"exit {result['exits'][index]} {result['errors'][index]}"
            elif text is None or workloads.non_finite(text):
                problem = "non-finite value or no report"
            elif result is not first:
                reference = read(os.path.join(workdir, f"{first['tag']}.{job.name}.report"))
                if text != reference:
                    problem = "report differs from the first round's"
                    correct = False
            else:
                try:
                    outcomes = job.check(reports)
                except (KeyError, ValueError, TypeError) as exc:
                    outcomes = [(False, f"unreadable report: {exc!r}")]
                for ok, message in outcomes:
                    log.append(f"{result['tag']} {job.name}: {'ok' if ok else 'FAIL'} {message}")
                if not all(ok for ok, _ in outcomes):
                    problem = "check failed"
                    correct = False
            if problem:
                failed += 1
                log.append(f"{result['tag']} {job.name}: FAILED {problem}")

    with open(os.path.join(workdir, "checks.log"), "w") as fh:
        fh.write("\n".join(log) + "\n")
    for line in log:
        print(line, file=sys.stderr)

    run_s = statistics.mean(r["run_s"] for r in rounds)
    if args.trace:
        metrics = dict(traced["metrics"])
        metrics["trace.run_s"] = {"value": traced["run_s"], "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": run_s, "unit": "s"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
