"""One fresh process of a benchmark run.

    python3 worker.py ROOT PLAN RESULT

ROOT is the source checkout (its ``src`` holds the eucren package), PLAN
a JSON file ``{"jobs": [[config, report], ...], "trace": path or null}``
and RESULT the JSON file this process writes.  With no jobs the process
only imports ``eucren.cli``, which measures set-up time.

The jobs run in order through ``eucren.cli.main`` exactly as
``eucren --config CONFIG --out REPORT`` would run them, so the module
caches start empty as they do for a command-line user.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(root, plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    from eucren import cli
    setup_s = time.perf_counter() - _T0

    tracer = None
    if plan.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    exits, errors, job_s = [], [], []
    start = time.perf_counter()
    for index, (config, report) in enumerate(plan["jobs"]):
        if tracer is not None:
            tracer.job_id = index
        t0 = time.perf_counter()
        try:
            code = cli.main(["--config", config, "--out", report])
            error = ""
        except Exception:  # a traceback is a failed job, not a failed run
            code = None
            error = traceback.format_exc(limit=3)
        job_s.append(time.perf_counter() - t0)
        exits.append(code)
        errors.append(error)
    run_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "job_s": job_s,
        "exits": exits,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["spans"] = len(tracer.start)
        tracer.write(plan["trace"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
