"""One benchmark pass, run in a fresh interpreter by `run.py`.

Usage: python3 bench/one_pass.py PLAN.json SPAWN_TIME

PLAN.json holds {"jobs": [argv, ...], "out_dir": DIR, "trace": bool,
"result": PATH}.  SPAWN_TIME is the parent's `time.monotonic()` just before
it started this interpreter (the clock is system-wide on Linux), so the set-up
time covers interpreter start plus `import cyclochern.cli`.  Each job runs
through `cyclochern.cli.main(argv + ["--out", DIR/job<i>.json])`; the result
file gets the set-up time, each job's exit code and seconds, the pass wall
time, max RSS, CPU time and, when traced, the per-layer metrics.
"""
import time

import cyclochern.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run(plan: dict, spawn_time: float) -> dict:
    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    main = cyclochern.cli.main
    jobs = []
    t_pass = time.perf_counter()
    for i, argv in enumerate(plan["jobs"]):
        out = os.path.join(plan["out_dir"], f"job{i}.json")
        t0 = time.perf_counter()
        try:
            code = main(argv + ["--out", out])
        except Exception:  # a traceback is a failed job, not a failed pass
            traceback.print_exc()
            code = "uncaught exception"
        jobs.append({"argv": argv, "exit": code, "out": out,
                     "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - t_pass
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": READY - spawn_time,
        "wall_s": wall,
        "jobs": jobs,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (me.ru_maxrss + kids.ru_maxrss) / 1024,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
    }
    if tracer is not None:
        from spans import per_layer_metrics
        result["layers"] = per_layer_metrics(tracer, wall)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    result = run(plan, float(sys.argv[2]))
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
