"""Benchmark of the cyclochern CLI on the shipped data.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {hp,cyclic,index} --seed N --seconds S --trace {0,1}

Load is a closed loop: one client, one process, the workload's jobs one after
another, each through `cyclochern.cli.main(argv)` with a temp `--out` report
that is checked (see checker.py).  Every pass runs in a fresh interpreter
(one_pass.py), because every CLI user pays a cold process.  Passes repeat
until S seconds have gone, at least one pass; metrics are medians over passes.

--trace 0 prints the end-to-end metrics: wall_s (one pass), job_max_s (the
slowest job of a pass), setup_s (interpreter start to `import cyclochern.cli`
done, median over many starts) and peak_rss_mb.  Failed jobs over attempted
jobs (failed_frac) is carried by the `failed` and `attempted` fields of the
result line, next to `correct`, which is false if any job failed.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced pass with the median wall time (spans.py), plus
process.cpu_s and trace.overhead_s.  It also checks that traced reports are
byte-identical to untraced ones and that the spans named in REQUIRED_SPANS
recorded calls.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Without the cyclochern sources and data in the checkout it exits
with 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checker import judge, load_golden
from workloads import WORKLOADS, jobs

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 30      # fresh interpreters started only to time set-up
RUN_BUDGET_S = 170     # a run that would take longer is stopped and fails
REQUIRED_SPANS = {
    "hp": "linalg.SparseRank.add_column",
    "cyclic": "chains.co_S",
    "index": "spectral.TwistedTriple.tau",
}
END_TO_END_UNITS = {"wall_s": "s", "job_max_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout():
    missing = [p for p in ("src/cyclochern/cli.py", "data/scenarios", "data/triples",
                           "data/geometries") if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a cyclochern checkout, missing: {', '.join(missing)}")
    probe = subprocess.run(
        [sys.executable, "-c", "import cyclochern, sys; sys.stdout.write(cyclochern.__file__)"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise BenchError(f"cannot import cyclochern: {probe.stderr.strip()}")
    if Path(probe.stdout).resolve().parent != (ROOT / "src" / "cyclochern").resolve():
        raise BenchError(f"cyclochern resolved outside the checkout: {probe.stdout}")


class Runner:
    """Starts passes in fresh interpreters inside a private work directory."""

    def __init__(self, work: Path, budget_s: float = RUN_BUDGET_S):
        self.work = work
        self.deadline = time.monotonic() + budget_s
        self.count = 0

    def one_pass(self, job_list: list[list[str]], trace: bool) -> dict:
        self.count += 1
        tag = self.work / f"pass{self.count}"
        tag.mkdir()
        plan = {"jobs": job_list, "out_dir": str(tag), "trace": trace,
                "result": str(tag / "result.json")}
        (tag / "plan.json").write_text(json.dumps(plan))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "one_pass.py"), str(tag / "plan.json"),
             repr(t0)],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
            timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0:
            raise BenchError(f"pass interpreter exited with {proc.returncode}")
        result = json.loads((tag / "result.json").read_text())
        for job in result["jobs"]:
            out = Path(job.pop("out"))
            job["report"] = out.read_bytes() if out.exists() else None
        shutil.rmtree(tag)
        return result


def _judge_pass(result: dict, golden: dict) -> list[str]:
    failures = []
    for job in result["jobs"]:
        why = judge(job["argv"], job["exit"], job["report"], golden)
        if why is not None:
            failures.append(f"{' '.join(job['argv'])}: {why}")
    return failures


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    golden = load_golden()
    job_list = jobs(workload, seed)
    runner.one_pass([], False)   # warm-up: byte-compile the sources once
    untraced, traced, failures = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        untraced.append(runner.one_pass(job_list, False))
        if trace:
            traced.append(runner.one_pass(job_list, True))
        if time.monotonic() >= deadline:
            break

    for p in untraced + traced:
        failures += _judge_pass(p, golden)
    attempted = sum(len(p["jobs"]) for p in untraced + traced)
    failed = len(failures)

    if not trace:
        setup = [runner.one_pass([], False)["setup_s"] for _ in range(SETUP_STARTS)]
        setup += [p["setup_s"] for p in untraced]
        metrics = {
            "wall_s": median([p["wall_s"] for p in untraced]),
            "job_max_s": median([max(j["seconds"] for j in p["jobs"]) for p in untraced]),
            "setup_s": median(setup),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        }
        units = END_TO_END_UNITS
        return failures, attempted, failed, {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    for u, t in zip(untraced, traced):
        for ju, jt in zip(u["jobs"], t["jobs"]):
            if ju["report"] != jt["report"]:
                failures.append(f"{' '.join(jt['argv'])}: traced report differs")
    required = REQUIRED_SPANS[workload]
    for t in traced:
        if not t["spans"].get(required, [0])[0]:
            failures.append(f"span {required} recorded no calls")
    walls = sorted(traced, key=lambda p: p["wall_s"])
    chosen = walls[(len(walls) - 1) // 2]
    layers = dict(chosen["layers"])
    layers["process.cpu_s"] = chosen["cpu_s"]
    layers["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                  - median([p["wall_s"] for p in untraced]))
    _print_spans(chosen["spans"])
    return failures, attempted, failed, {
        k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layers.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "geometry.s":
        return "s"
    if name.endswith(("_fill", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def _print_spans(spans: dict):
    rows = sorted(spans.items(), key=lambda kv: -kv[1][2])
    print(f"{'span':<40} {'calls':>10} {'total_s':>10} {'self_s':>10}", file=sys.stderr)
    for name, (calls, total, self_s) in rows:
        if calls:
            print(f"{name:<40} {calls:>10} {total:>10.3f} {self_s:>10.3f}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        check_checkout()
        work.mkdir(parents=True)
        failures, attempted, failed, metrics = measure(
            Runner(work), args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    for f in failures:
        print(f"bench: FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
