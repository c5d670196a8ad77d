"""JSON file formats for scenarios, triples, geometries, and chains.

All exact numbers serialize as strings ("p/q" for rationals, "p/q+r/s i"
for Gaussian rationals); reports use 12-significant-digit decimal strings
for floats.  Output key order is canonical (sorted) so reports diff cleanly.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    ConformalCocycle,
    CrossedProductAlgebra,
    sigma_from_cocycle,
    identity_automorphism,
    AlgebraAutomorphism,
    ValidationError,
)
from .chains import Chain
from .geometry import GeometryScenario, parse_form, AXIS_NAMES
from .groups import FiniteGroup, GAction
from .linalg import mat
from .scalars import Scalar, format_scalar, parse_scalar
from .spectral import GradedSpace, TwistedTriple


class ParseError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(path, str(exc)) from None


# -- scenarios ---------------------------------------------------------------


def scenario_from_dict(data, path="<scenario>"):
    try:
        g = data["group"]
        order = g["order"]
        flat = list(g["mul"])
        mul = tuple(tuple(flat[i * order:(i + 1) * order]) for i in range(order))
        names = tuple(g.get("names", ()))
        group = FiniteGroup(mul, names)
        act_rows = tuple(tuple(row) for row in data["action"])
        points = tuple(data.get("points", [str(x) for x in range(len(act_rows[0]))]))
        action = GAction(group, points, act_rows)
    except (KeyError, ValueError, IndexError) as exc:
        raise ParseError(path, f"bad scenario: {exc}") from None
    cpa = CrossedProductAlgebra(action)
    cocycle = None
    if data.get("cocycle") is not None:
        rows = []
        for gi in range(group.order):
            row = data["cocycle"][str(gi)] if isinstance(data["cocycle"], dict) \
                else data["cocycle"][gi]
            rows.append(tuple(Fraction(v) for v in row))
        cocycle = ConformalCocycle(action, tuple(rows))
    return cpa, cocycle


def load_scenario(path):
    return scenario_from_dict(_load(path), path)


def scenario_to_dict(cpa: CrossedProductAlgebra, cocycle=None) -> dict:
    g = cpa.group
    out = {
        "group": {
            "order": g.order,
            "mul": [g.mul[i][j] for i in range(g.order) for j in range(g.order)],
            "names": list(g.names),
        },
        "points": list(cpa.action.points),
        "action": [list(row) for row in cpa.action.act],
    }
    if cocycle is not None:
        out["cocycle"] = {str(gi): [str(v) for v in row]
                          for gi, row in enumerate(cocycle.values)}
    return out


# -- chains ------------------------------------------------------------------


def chain_to_dict(chain: Chain) -> dict:
    cpa = chain.algebra
    terms = []
    for t in sorted(chain.terms):
        c = chain.terms[t]
        terms.append({
            "tuple": [list(cpa.basis_pair(i)) if isinstance(cpa, CrossedProductAlgebra)
                      else [i] for i in t],
            "re": str(c.re),
            "im": str(c.im),
        })
    return {"degree": chain.degree, "terms": terms}


def chain_from_dict(data, algebra) -> Chain:
    terms = {}
    for item in data["terms"]:
        idxs = []
        for entry in item["tuple"]:
            if isinstance(algebra, CrossedProductAlgebra) and len(entry) == 2:
                idxs.append(algebra.basis_index(entry[0], entry[1]))
            else:
                idxs.append(entry[0] if isinstance(entry, list) else entry)
        terms[tuple(idxs)] = Scalar(Fraction(item["re"]), Fraction(item["im"]))
    return Chain(algebra, data["degree"], terms)


# -- twisted triples ---------------------------------------------------------


def _parse_matrix(rows):
    return mat([[parse_scalar(v) for v in row] for row in rows])


def _format_matrix(m):
    return [[format_scalar(v) for v in row] for row in m]


def triple_from_dict(data, path="<triple>") -> tuple[TwistedTriple, dict]:
    """Returns (triple, context) where context carries scenario and cocycle."""
    try:
        cpa, cocycle = scenario_from_dict(data["scenario"], path)
        dim_plus = data["dim_plus"]
        dim_minus = data["dim_minus"]
        rep = [_parse_matrix(m) for m in data["rep"]]
        D = _parse_matrix(data["D"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(path, f"bad triple: {exc}") from None
    if not all(type(d) is int and d >= 0 for d in (dim_plus, dim_minus)):
        raise ParseError(path, "bad triple: dim_plus and dim_minus must be "
                               "non-negative integers")
    n = dim_plus + dim_minus
    for name, m in [("D", D)] + [(f"rep[{i}]", r) for i, r in enumerate(rep)]:
        if len(m) != n or any(len(row) != n for row in m):
            raise ParseError(path, f"bad triple: {name} must be {n} x {n}")
    sigma_spec = data.get("sigma")
    if sigma_spec is None:
        sigma = identity_automorphism(cpa)
    elif sigma_spec == "cocycle":
        if cocycle is None:
            raise ParseError(path, "sigma: 'cocycle' needs a scenario cocycle")
        sigma = sigma_from_cocycle(cpa, cocycle)
    else:
        images = [{int(k): parse_scalar(v) for k, v in img.items()}
                  for img in sigma_spec]
        sigma = AlgebraAutomorphism(cpa, [AlgebraElement(cpa, im) for im in images])
    try:
        triple = TwistedTriple(cpa, GradedSpace(dim_plus, dim_minus), rep, D, sigma,
                               label=data.get("label", ""))
    except ValidationError as exc:
        raise ParseError(path, f"bad triple: {exc}") from None
    return triple, {"cpa": cpa, "cocycle": cocycle, "data": data}


def load_triple(path):
    return triple_from_dict(_load(path), path)


def triple_to_dict(triple: TwistedTriple, cocycle=None, sigma_kind="table") -> dict:
    cpa = triple.algebra
    out = {
        "scenario": scenario_to_dict(cpa, cocycle),
        "dim_plus": triple.space.dim_plus,
        "dim_minus": triple.space.dim_minus,
        "rep": [_format_matrix(m) for m in triple.rep],
        "D": _format_matrix(triple.D),
        "label": triple.label,
    }
    if sigma_kind == "cocycle":
        out["sigma"] = "cocycle"
    elif triple.sigma.is_identity():
        out["sigma"] = None
    else:
        out["sigma"] = [
            {str(i): format_scalar(c) for i, c in img.coeffs.items()}
            for img in triple.sigma.images
        ]
    return out


# -- geometries ----------------------------------------------------------------


def geometry_from_dict(data, path="<geometry>"):
    try:
        manifold = data["manifold"]
        shifts = [tuple(Fraction(s) for s in row) for row in data.get("group", [])]
        quad_n = int(data.get("quadrature", {}).get("N", 64))
        scn = GeometryScenario(manifold, shifts, quad_n=quad_n,
                               label=data.get("label", ""))
    except (KeyError, ValueError) as exc:
        raise ParseError(path, f"bad geometry: {exc}") from None
    omega = None
    if data.get("omega"):
        omega = parse_form(data["omega"], AXIS_NAMES[manifold])
    phi = None
    if data.get("phi") is not None:
        from .geometry import Isometry
        phi = Isometry(tuple(Fraction(s) for s in data["phi"]))
        scn.require_member(phi)
    return scn, phi, omega, data


def load_geometry(path):
    return geometry_from_dict(_load(path), path)


# -- reports -------------------------------------------------------------------


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def fmt_complex(z: complex) -> dict:
    return {"re": fmt_float(z.real), "im": fmt_float(z.imag)}


def dump_report(report: dict, out_path=None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text
