import json
from pathlib import Path

import pytest

from cyclochern import serde
from cyclochern.chains import random_sparse_chain
from cyclochern.suite import asym_triple, micro_triple, swap_cocycle, z2_swap_scenario

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def test_scenario_roundtrip(tmp_path):
    cpa = z2_swap_scenario()
    coc = swap_cocycle(cpa)
    data = serde.scenario_to_dict(cpa, coc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    cpa2, coc2 = serde.load_scenario(str(path))
    assert cpa2.dim == cpa.dim
    assert cpa2.mul_table == cpa.mul_table
    assert coc2.values == coc.values


def test_chain_roundtrip():
    import random

    cpa = z2_swap_scenario()
    eta = random_sparse_chain(cpa, 2, random.Random(3), 4)
    data = serde.chain_to_dict(eta)
    eta2 = serde.chain_from_dict(data, cpa)
    assert eta2 == eta
    # deterministic term order on output
    assert data == serde.chain_to_dict(eta)


def test_triple_roundtrip(tmp_path):
    triple, coc = micro_triple()
    data = serde.triple_to_dict(triple, coc, sigma_kind="cocycle")
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(data))
    triple2, ctx = serde.load_triple(str(path))
    assert triple2.D == triple.D
    assert triple2.rep == triple.rep
    # the loaded triple lives over a fresh algebra instance; compare values
    for q in (0, 1):
        assert triple2.tau(q).values == triple.tau(q).values


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(serde.ParseError) as err:
        serde.load_scenario(str(path))
    assert str(path) in str(err.value)


def test_shipped_data_files_load():
    for name in ("z2swap", "z2trivial", "z3rot", "s3", "z2z2", "point"):
        cpa, _ = serde.load_scenario(str(DATA / "scenarios" / f"{name}.json"))
        assert cpa.dim >= 1
    for name in ("micro", "asym"):
        triple, _ = serde.load_triple(str(DATA / "triples" / f"{name}.json"))
        assert triple.is_invertible()
    for name in ("t2_invariant", "s2_rotation"):
        scn, phi, omega, _ = serde.load_geometry(str(DATA / "geometries" / f"{name}.json"))
        assert scn.dim == 2


def test_float_formatting():
    assert serde.fmt_float(3.14159265358979) == "3.14159265359"
    assert serde.fmt_complex(1 + 2j) == {"re": "1", "im": "2"}


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(dim_plus="3"), "non-negative integers"),
    (lambda d: d.update(D=5), "bad triple"),
    (lambda d: d["rep"].pop(), "one representation matrix per basis vector"),
    (lambda d: d["D"][0].__setitem__(3, "5"), "D must be self-adjoint"),
])
def test_malformed_triple_raises_parse_error(edit, message):
    data = serde.triple_to_dict(asym_triple())
    edit(data)
    with pytest.raises(serde.ParseError) as err:
        serde.triple_from_dict(data, "t.json")
    assert message in str(err.value)
