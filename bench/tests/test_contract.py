"""BENCHMARK.json names exactly the metrics and workloads that run.py reports."""
import json
import subprocess

import pytest

import run
import spans
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert set(run.REQUIRED_SPANS) == set(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_metrics_match():
    tracer = spans.Tracer()
    names = set(spans.per_layer_metrics(tracer, 1.0)) | {"process.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == names
    for m in SPEC["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"]), m["name"]


def test_required_spans_are_traced():
    traced = {f"{mod}.{qual}" for mod, qual, _ in spans.SPANS}
    assert set(run.REQUIRED_SPANS.values()) <= traced


def test_pass_over_the_run_budget_is_stopped(tmp_path):
    runner = run.Runner(tmp_path, budget_s=0)
    argv = ["hp", "--q-max", "1", "--scenario", "data/scenarios/z2z2.json"]
    with pytest.raises(subprocess.TimeoutExpired):
        runner.one_pass([argv], False)
