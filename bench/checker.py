"""Correctness check of one benchmark job.

A job fails if its exit code is not 0, if it wrote no JSON report, if the
report does not say `"passed": true`, or if a golden digest is recorded for
its exact argv and the report bytes differ from it.  Golden digests are
recorded for the `hp` jobs (which take no seed) and for the seeded jobs at
seeds 0, 7 and 13; at any other seed the suites' own exact checks decide.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)


def judge(argv: list[str], exit_code, report: bytes | None,
          golden: dict[str, str]) -> str | None:
    """Why the job failed, or None if it is correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if report is None:
        return "no report written"
    try:
        data = json.loads(report)
    except ValueError:
        return "report is not JSON"
    if not isinstance(data, dict) or data.get("passed") is not True:
        return 'report does not say "passed": true'
    want = golden.get(job_key(argv))
    if want is not None and digest(report) != want:
        return "report differs from its golden digest"
    return None
