"""Record the baseline: python3 bench/record_baseline.py COMMIT

Runs bench/run.py on every workload at SEEDS, untraced and traced, for the
run length in BENCHMARK.json, and writes baseline.json: the commit measured,
the machine (Python and numpy versions, cores, CPU model), each workload's
why and job list, and every metric of every run.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import numpy

from run import ROOT
from workloads import jobs

SEEDS = [7, 13]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{out.stderr}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main() -> int:
    commit = sys.argv[1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {
        "commit": commit,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "platform": platform.platform(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for seed in SEEDS:
            runs[str(seed)] = {"end_to_end": _run(spec, name, seed, 0),
                               "per_layer": _run(spec, name, seed, 1)}
            print(f"{name} seed {seed} done", file=sys.stderr)
        baseline["workloads"][name] = {
            "why": w["why"],
            "jobs_at_seed_7": [" ".join(argv) for argv in jobs(name, 7)],
            "runs": runs,
        }
    path = ROOT / "bench" / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
