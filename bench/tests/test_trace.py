"""The traced pass: exact counts, unchanged reports, complete accounting."""
import pytest

import run
import spans

JOBS = [
    ["hp", "--q-max", "1", "--scenario", "data/scenarios/z2swap.json"],
    ["verify", "--suite", "cyclic", "--seed", "7", "--scenario", "data/scenarios/z2swap.json"],
    ["verify", "--suite", "spectral", "--seed", "7", "--triple", "data/triples/micro.json"],
]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    runner = run.Runner(tmp_path_factory.mktemp("passes"))
    untraced = runner.one_pass(JOBS, False)
    return untraced, runner.one_pass(JOBS, True), runner.one_pass(JOBS, True)


def _counts(layers):
    return {k: v for k, v in layers.items() if run._layer_unit(k) != "s"}


def test_counts_repeat_exactly(passes):
    _, a, b = passes
    counts = _counts(a["layers"])
    assert counts == _counts(b["layers"])
    for name in ("homology.columns", "homology.col_nnz", "homology.tot_dim",
                 "homology.d2_columns", "chains.cochain_tuples", "scalars.mul_calls",
                 "linalg.sparse_columns", "linalg.pivot_nnz", "linalg.mat_mul_calls"):
        assert counts[name] > 0, name
    assert 0 < counts["homology.block_fill"] < 1


def test_traced_reports_are_byte_identical(passes):
    untraced, a, _ = passes
    assert [j["exit"] for j in a["jobs"]] == [0, 0, 0]
    assert [j["report"] for j in a["jobs"]] == [j["report"] for j in untraced["jobs"]]


def test_required_spans_record_calls(passes):
    _, a, _ = passes
    for name in run.REQUIRED_SPANS.values():
        assert a["spans"][name][0] > 0, name


def test_self_times_account_for_the_pass(passes):
    _, a, _ = passes
    layers = a["layers"]
    parts = [layers[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert all(p >= 0 for p in parts)
    assert layers["trace.unattributed_s"] >= 0
    assert sum(parts) + layers["trace.unattributed_s"] == pytest.approx(layers["trace.wall_s"])


def test_install_then_uninstall_restores_the_library():
    import cyclochern.cli
    from cyclochern import chains, homology, verify

    before = (verify.co_S, homology.mu_phi, chains.Cochain, cyclochern.cli.main)
    tracer = spans.Tracer().install()
    try:
        assert verify.co_S is not before[0] and verify.co_S.__wrapped__ is before[0]
        assert homology.mu_phi.__wrapped__ is before[1]
    finally:
        tracer.uninstall()
    assert (verify.co_S, homology.mu_phi, chains.Cochain, cyclochern.cli.main) == before
