"""Job lists of the benchmark workloads.

A job is the argv of one `cyclochern` CLI invocation, run in-process through
`cyclochern.cli.main`.  Paths are relative to the checkout root, so the
report bytes (which echo the input paths) are the same in every checkout.
Why each workload was chosen is recorded in BENCHMARK.json.
"""
from __future__ import annotations

SCENARIOS = ["z2swap", "z2trivial", "z3rot", "s3", "z2z2"]
TRIPLES = ["micro", "asym"]
GEOMETRIES = ["s2_rotation", "s2xt2", "t2_invariant"]
WORKLOADS = ["hp", "cyclic", "index"]


def _flags(flag: str, paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        out += [flag, p]
    return out


def _scenarios() -> list[str]:
    return _flags("--scenario", [f"data/scenarios/{s}.json" for s in SCENARIOS])


def _triples() -> list[str]:
    return _flags("--triple", [f"data/triples/{t}.json" for t in TRIPLES])


def _geometries() -> list[str]:
    return _flags("--geometry", [f"data/geometries/{g}.json" for g in GEOMETRIES])


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The argv of every job of `workload`, in run order.

    `hp` takes no seed: its jobs have no randomness.  The other workloads
    pass the seed to every job as `--seed`.
    """
    s = ["--seed", str(seed)]
    if workload == "hp":
        return [["hp", "--q-max", "1", "--scenario", f"data/scenarios/{sc}.json"]
                for sc in SCENARIOS]
    if workload == "cyclic":
        return [["verify", "--suite", "cyclic", *s, *_scenarios()]]
    if workload == "index":
        return [
            ["verify", "--suite", "spectral", *s, *_triples()],
            ["index", "--q-max", "3", *s, *_triples()],
            ["pair", "--q-max", "2", *s, *_triples()],
            ["verify", "--suite", "crossed", *s, *_scenarios()],
            ["verify", "--suite", "geometry", *s, *_geometries()],
            ["invariant", *s, "--geometry", "data/geometries/t2_invariant.json"],
        ]
    raise ValueError(f"unknown workload {workload!r}")
