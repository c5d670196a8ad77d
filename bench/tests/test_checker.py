"""Every kind of failed job is counted in the benchmark's `failed` field."""
import json

import pytest

import run
from checker import digest, job_key, judge, load_golden
from workloads import jobs

OK = b'{"passed": true}\n'


class CannedRunner:
    """Stands in for run.Runner: every pass returns the same job outcomes."""

    def __init__(self, outcomes):
        self.outcomes = outcomes   # i -> (exit code, report bytes)

    def one_pass(self, job_list, trace):
        out = []
        for i, argv in enumerate(job_list):
            code, report = self.outcomes.get(i, (0, OK))
            out.append({"argv": argv, "exit": code, "report": report, "seconds": 0.1})
        return {"setup_s": 0.05, "wall_s": 0.1 * len(job_list), "jobs": out,
                "peak_rss_mb": 40.0, "cpu_s": 0.1}


def _measure(outcomes, seed):
    return run.measure(CannedRunner(outcomes), "index", seed, 0, False)


def test_all_jobs_pass_off_golden_seeds():
    failures, attempted, failed, _ = _measure({}, seed=5)
    assert (failures, attempted, failed) == ([], 6, 0)


@pytest.mark.parametrize("outcome, why", [
    ((1, OK), "exit code 1"),
    ((2, None), "exit code 2"),
    (("uncaught exception", None), "exit code uncaught exception"),
    ((0, None), "no report written"),
    ((0, b'{"passed": false}\n'), '"passed": true'),
    ((0, b"not json"), "not JSON"),
])
def test_each_failure_counts(outcome, why):
    failures, attempted, failed, _ = _measure({2: outcome}, seed=5)
    assert (attempted, failed) == (6, 1)
    assert why in failures[0]


def test_report_differing_from_golden_counts():
    # At seed 0 every index job has a golden digest; {"passed": true} is not it.
    failures, attempted, failed, _ = _measure({}, seed=0)
    assert failed == attempted == 6
    assert all("golden digest" in f for f in failures)


def test_golden_covers_hp_and_baseline_seeds():
    golden = load_golden()
    for workload, seed in [("hp", 1), ("cyclic", 0), ("cyclic", 7), ("cyclic", 13),
                           ("index", 0), ("index", 7), ("index", 13)]:
        for argv in jobs(workload, seed):
            assert job_key(argv) in golden


def test_tampered_real_report_fails(tmp_path):
    argv = jobs("index", 0)[-1]           # `invariant` on t2_invariant, fast
    runner = run.Runner(tmp_path)
    job = runner.one_pass([argv], False)["jobs"][0]
    golden = load_golden()
    assert judge(argv, job["exit"], job["report"], golden) is None
    data = json.loads(job["report"])
    data["runs"][0]["direct"]["re"] += "1"
    tampered = json.dumps(data, indent=2, sort_keys=True).encode() + b"\n"
    assert digest(tampered) != digest(job["report"])
    assert judge(argv, 0, tampered, golden) == "report differs from its golden digest"
