import json
from pathlib import Path

from cyclochern.cli import main

REPO = Path(__file__).resolve().parent.parent
SCEN = str(REPO / "data" / "scenarios")
TRIP = str(REPO / "data" / "triples")
GEO = str(REPO / "data" / "geometries")


def run(argv):
    return main(argv)


def test_verify_requires_inputs(capsys):
    assert run(["verify", "--suite", "cyclic"]) == 2


def test_verify_crossed_passes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run(["verify", "--suite", "crossed",
                "--scenario", f"{SCEN}/z2swap.json", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert all(c["passed"] for c in rep["checks"])


def test_verify_spectral_passes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run(["verify", "--suite", "spectral",
                "--triple", f"{TRIP}/micro.json", "--seed", "7",
                "--out", str(out)])
    assert code == 0


def test_verify_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["verify", "--suite", "cyclic", "--scenario", str(bad)]) == 2


def test_hp_report_schema(tmp_path, capsys):
    out = tmp_path / "hp.json"
    code = run(["hp", "--scenario", f"{SCEN}/z2trivial.json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    run0 = rep["runs"][0]
    assert set(run0) >= {"scenario", "parity", "q_max", "flavors", "routes_agree"}
    blocks = run0["flavors"]["twisted"]["blocks"]
    assert all(set(b) == {"class", "computed", "predicted", "stable"} for b in blocks)
    assert run0["flavors"]["twisted"]["total_computed"] == 2


def test_index_command(tmp_path, capsys):
    out = tmp_path / "index.json"
    code = run(["index", "--triple", f"{TRIP}/asym.json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    by_name = {r["idempotent"]: r for r in rep["runs"]}
    assert by_name["delta_x0"]["index"] == "1"
    assert by_name["delta_x0"]["pairing"] == "1"
    assert by_name["one"]["index"] == "0"


def test_pair_command(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code = run(["pair", "--triple", f"{TRIP}/asym.json", "--q-max", "1",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert all(r["q_stable"] for r in rep["runs"])


def test_invariant_command(tmp_path, capsys):
    out = tmp_path / "inv.json"
    code = run(["invariant", "--geometry", f"{GEO}/t2_invariant.json",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    entry = rep["runs"][0]
    assert entry["direct"]["im"].startswith("-6.2831853")
    assert entry["pairing"]["im"].startswith("-6.2831853")


def test_thread_determinism(tmp_path, capsys):
    texts = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"rep{threads}.json"
        code = run(["verify", "--suite", "crossed",
                    "--scenario", f"{SCEN}/z2swap.json", "--seed", "11",
                    "--threads", threads, "--out", str(out)])
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] == texts[2]


def test_bad_flags(capsys):
    assert run(["verify", "--suite", "cyclic", "--scenario", "x.json",
                "--threads", "0"]) == 2
    assert run(["verify", "--suite", "cyclic", "--scenario", "x.json",
                "--tol", "-1"]) == 2


def test_hp_negative_q_max_is_usage(capsys):
    assert run(["hp", "--scenario", f"{SCEN}/z2trivial.json", "--q-max", "-1"]) == 2


def test_index_negative_q_max_is_usage(capsys):
    assert run(["index", "--triple", f"{TRIP}/asym.json", "--q-max", "-3"]) == 2


def test_hp_q_max_zero_is_valid(capsys):
    assert run(["hp", "--scenario", f"{SCEN}/z2trivial.json", "--q-max", "0"]) == 0


def test_index_q_max_zero_is_usage(capsys):
    assert run(["index", "--triple", f"{TRIP}/asym.json", "--q-max", "0"]) == 2


def test_pair_q_max_zero_is_usage(capsys):
    assert run(["pair", "--triple", f"{TRIP}/asym.json", "--q-max", "0"]) == 2


def test_verify_q_max_zero_is_usage(capsys):
    assert run(["verify", "--suite", "spectral", "--triple", f"{TRIP}/micro.json",
                "--q-max", "0"]) == 2


def _malformed_triple(tmp_path, edit):
    data = json.loads(Path(f"{TRIP}/asym.json").read_text())
    edit(data)
    path = tmp_path / "bad_triple.json"
    path.write_text(json.dumps(data))
    return str(path)


def _drop_d_row(data):
    data["D"].pop()


def _drop_d_column(data):
    data["D"] = [row[:-1] for row in data["D"]]


def _truncate_rep(data):
    data["rep"][1].pop()


def test_index_malformed_triple_is_usage(tmp_path, capsys):
    assert run(["index", "--triple", _malformed_triple(tmp_path, _drop_d_row)]) == 2
    assert "D must be 6 x 6" in capsys.readouterr().err


def test_pair_malformed_triple_is_usage(tmp_path, capsys):
    assert run(["pair", "--triple", _malformed_triple(tmp_path, _drop_d_column)]) == 2
    assert "D must be 6 x 6" in capsys.readouterr().err


def test_verify_spectral_malformed_triple_is_usage(tmp_path, capsys):
    assert run(["verify", "--suite", "spectral",
                "--triple", _malformed_triple(tmp_path, _truncate_rep)]) == 2
    assert "rep[1] must be 6 x 6" in capsys.readouterr().err
