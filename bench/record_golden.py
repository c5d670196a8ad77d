"""Record golden report digests: python3 bench/record_golden.py

Runs every workload once at each seed in SEEDS (hp once, as it takes no
seed) and writes the sha256 of every passing report to golden.json, keyed by
the job's argv.  Run it only on a commit whose reports are known good.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from checker import GOLDEN_PATH, digest, job_key, judge
from run import ROOT, Runner, check_checkout
from workloads import jobs

SEEDS = [0, 7, 13]


def main() -> int:
    check_checkout()
    work = ROOT / ".bench_work" / f"golden{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, budget_s=900)
    golden = {}
    try:
        plans = [jobs("hp", 0)] + [jobs(w, s) for w in ("cyclic", "index") for s in SEEDS]
        for job_list in plans:
            for job in runner.one_pass(job_list, False)["jobs"]:
                why = judge(job["argv"], job["exit"], job["report"], {})
                if why is not None:
                    print(f"{job_key(job['argv'])}: {why}", file=sys.stderr)
                    return 1
                golden[job_key(job["argv"])] = digest(job["report"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
