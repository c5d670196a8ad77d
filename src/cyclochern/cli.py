"""Batch command-line front end.

Subcommands load scenario/triple/geometry JSON files, run the named
verification suites or computations, and emit canonical JSON reports
(sorted keys, all numbers as strings) so outputs are diffable and
byte-identical across runs and thread counts for a fixed seed.

Exit codes: 0 all checks pass, 1 check failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

from . import serde
from .homology import (
    FULL_ROUTE_PRODUCT_CAP,
    SizeCapError,
    full_route_allowed,
    hp_report,
)
from .serde import ParseError, dump_report, fmt_complex, fmt_float
from .spectral import tau_bar_chern_pairing, verify_index_pairing
from .verify import (
    Check,
    chern_suite,
    crossed_suite,
    cyclic_suite,
    geometry_suite,
    index_suite,
    spectral_suite,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


def _ordered_map(executor, fn, items):
    """Map preserving order; identical results for any thread count."""
    if executor is None:
        return [fn(x) for x in items]
    return list(executor.map(fn, items))


def _finish(report: dict, out_path, failed: bool) -> int:
    text = dump_report(report, out_path)
    print(text)
    return FAIL_EXIT if failed else 0


def cmd_verify(args) -> int:
    checks: list[tuple[str, Check]] = []
    suite = args.suite
    if not (args.scenario or args.triple or args.geometry):
        print("verify: at least one --scenario/--triple/--geometry is required",
              file=sys.stderr)
        return USAGE_EXIT

    executor = ThreadPoolExecutor(max_workers=args.threads) if args.threads > 1 else None

    def scenario_checks(path):
        cpa, cocycle = serde.load_scenario(path)
        out = []
        if suite in ("crossed", "all"):
            out += [(path, c) for c in crossed_suite(cpa, cocycle, seed=args.seed)]
        if suite in ("cyclic", "all"):
            out += [(path, c) for c in cyclic_suite(cpa, seed=args.seed)]
            if cpa.dim <= 6:
                out += [(path, c) for c in chern_suite(cpa, seed=args.seed, count=3)]
        return out

    def triple_checks(path):
        triple, ctx = serde.load_triple(path)
        out = [(path, c) for c in spectral_suite(triple, ctx.get("cocycle"),
                                                 seed=args.seed)]
        out += [(path, c) for c in index_suite(triple, q=args.q_max)]
        return out

    def geometry_checks(path):
        scn, phi, omega, _ = serde.load_geometry(path)
        return [(path, c) for c in geometry_suite(scn, phi, omega, tol=args.tol,
                                                  seed=args.seed)]

    try:
        if suite in ("crossed", "cyclic", "all"):
            for group in _ordered_map(executor, scenario_checks, args.scenario or []):
                checks += group
        if suite in ("spectral", "all"):
            for group in _ordered_map(executor, triple_checks, args.triple or []):
                checks += group
        if suite in ("geometry", "all"):
            for group in _ordered_map(executor, geometry_checks, args.geometry or []):
                checks += group
    except ParseError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return USAGE_EXIT
    finally:
        if executor is not None:
            executor.shutdown()

    if not checks:
        print(f"verify: suite {suite!r} had no applicable inputs", file=sys.stderr)
        return USAGE_EXIT
    report = {
        "command": "verify",
        "suite": suite,
        "seed": args.seed,
        "checks": [dict(c.as_dict(), input=path) for path, c in checks],
        "passed": bool(all(c.passed for _, c in checks)),
    }
    return _finish(report, args.out, not report["passed"])


def cmd_hp(args) -> int:
    if not args.scenario:
        print("hp: at least one --scenario is required", file=sys.stderr)
        return USAGE_EXIT
    runs = []
    failed = False
    for path in args.scenario:
        try:
            cpa, _ = serde.load_scenario(path)
        except ParseError as exc:
            print(f"hp: {exc}", file=sys.stderr)
            return USAGE_EXIT
        for parity in (0, 1):
            q_max = args.q_max if parity == 0 else max(0, args.q_max - 1)
            flavors = ["twisted", "g-normalized"]
            if full_route_allowed(cpa, args.full_cap):
                flavors.append("full")
            entry = {"scenario": path, "parity": parity, "q_max": q_max, "flavors": {}}
            reports = {}
            for flavor in flavors:
                try:
                    rep = hp_report(cpa, flavor, parity, q_max, path)
                except SizeCapError as exc:
                    entry["flavors"][flavor] = {"skipped": str(exc)}
                    continue
                reports[flavor] = rep
                entry["flavors"][flavor] = {
                    "blocks": [
                        {"class": b.class_label, "computed": b.computed,
                         "predicted": b.predicted, "stable": b.stable}
                        for b in rep.blocks
                    ],
                    "total_computed": rep.total_computed,
                    "total_predicted": rep.total_predicted,
                    "matches_prediction": rep.matches_prediction,
                }
                failed |= not rep.matches_prediction
            totals = {f: r.total_computed for f, r in reports.items()}
            entry["routes_agree"] = len(set(totals.values())) <= 1
            failed |= not entry["routes_agree"]
            runs.append(entry)
    report = {"command": "hp", "runs": runs, "passed": not failed}
    return _finish(report, args.out, failed)


def cmd_index(args) -> int:
    if not args.triple:
        print("index: at least one --triple is required", file=sys.stderr)
        return USAGE_EXIT
    runs = []
    failed = False
    for path in args.triple:
        try:
            triple, _ = serde.load_triple(path)
        except ParseError as exc:
            print(f"index: {exc}", file=sys.stderr)
            return USAGE_EXIT
        cpa = triple.algebra
        idems = {"one": [[cpa.one()]]}
        if hasattr(cpa, "delta_u"):
            idems["delta_x0"] = [[cpa.delta_u(0, cpa.group.id)]]
        q = args.q_max
        for name, e in idems.items():
            resid, pairing_value, ind = verify_index_pairing(triple, e, q)
            runs.append({
                "triple": path,
                "idempotent": name,
                "q": q,
                "pairing": str(pairing_value),
                "index": str(ind.value),
                "residual": str(resid),
                "passed": not resid,
            })
            failed |= bool(resid)
    report = {"command": "index", "runs": runs, "passed": not failed}
    return _finish(report, args.out, failed)


def cmd_pair(args) -> int:
    if not args.triple:
        print("pair: at least one --triple is required", file=sys.stderr)
        return USAGE_EXIT
    runs = []
    failed = False
    for path in args.triple:
        try:
            triple, _ = serde.load_triple(path)
        except ParseError as exc:
            print(f"pair: {exc}", file=sys.stderr)
            return USAGE_EXIT
        cpa = triple.algebra
        idems = {"one": [[cpa.one()]]}
        if hasattr(cpa, "delta_u"):
            idems["delta_x0"] = [[cpa.delta_u(0, cpa.group.id)]]
        q = args.q_max
        for name, e in idems.items():
            v1 = tau_bar_chern_pairing(triple, q, e)
            v2 = tau_bar_chern_pairing(triple, q + 1, e)
            stable = v1 == v2
            runs.append({"triple": path, "idempotent": name, "q": q,
                         "pairing_q": str(v1), "pairing_q_plus_1": str(v2),
                         "q_stable": stable})
            failed |= not stable
    report = {"command": "pair", "runs": runs, "passed": not failed}
    return _finish(report, args.out, failed)


def cmd_invariant(args) -> int:
    if not args.geometry:
        print("invariant: at least one --geometry is required", file=sys.stderr)
        return USAGE_EXIT
    from .geometry import conformal_invariant, conformal_invariant_direct, GeometryError

    runs = []
    failed = False
    for path in args.geometry:
        try:
            scn, phi, omega, data = serde.load_geometry(path)
        except ParseError as exc:
            print(f"invariant: {exc}", file=sys.stderr)
            return USAGE_EXIT
        if omega is None:
            print(f"invariant: {path} carries no omega", file=sys.stderr)
            return USAGE_EXIT
        iso = phi if phi is not None else scn.identity()
        a = int(data.get("component_dim", scn.dim))
        try:
            direct, paired, resid = conformal_invariant(scn, iso, a, omega)
        except GeometryError as exc:
            print(f"invariant: {path}: {exc}", file=sys.stderr)
            return USAGE_EXIT
        d2 = conformal_invariant_direct(scn, iso, a, omega, quad_n=2 * scn.quad_n,
                                        check=False)
        rel = abs(d2 - direct) / max(abs(direct), 1e-30)
        entry = {
            "geometry": path,
            "component_dim": a,
            "direct": fmt_complex(direct),
            "doubling_rel_change": fmt_float(rel),
        }
        ok = rel < 1e-6
        if paired is not None:
            entry["pairing"] = fmt_complex(paired)
            entry["route_residual"] = fmt_float(resid)
            ok &= resid < 1e-4
        entry["passed"] = ok
        failed |= not ok
        runs.append(entry)
    report = {"command": "invariant", "runs": runs, "passed": not failed}
    return _finish(report, args.out, failed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cyclochern",
        description="Exact workbench for crossed-product cyclic homology, "
                    "twisted spectral triples, and equivariant index densities.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", action="append", default=[], metavar="PATH")
        sp.add_argument("--triple", action="append", default=[], metavar="PATH")
        sp.add_argument("--geometry", action="append", default=[], metavar="PATH")
        sp.add_argument("--q-max", type=int, default=1, dest="q_max")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--out", default=None, metavar="PATH")

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", default="all",
                    choices=["crossed", "cyclic", "spectral", "geometry", "all"])
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("hp", help="periodic cyclic homology reports")
    common(sp)
    sp.add_argument("--full-cap", type=int, default=FULL_ROUTE_PRODUCT_CAP,
                    dest="full_cap", help="max |X||G| for the full-flavor route")
    sp.set_defaults(fn=cmd_hp)

    sp = sub.add_parser("index", help="index pairing reports")
    common(sp)
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("pair", help="tau-bar/Chern pairings with q-stability")
    common(sp)
    sp.set_defaults(fn=cmd_pair)

    sp = sub.add_parser("invariant", help="conformal invariants, both routes")
    common(sp)
    sp.set_defaults(fn=cmd_invariant)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    if args.threads < 1:
        print("--threads must be positive", file=sys.stderr)
        return USAGE_EXIT
    if args.tol <= 0:
        print("--tol must be positive", file=sys.stderr)
        return USAGE_EXIT
    # The pairings need q >= 1; hp reads HP_0 already at q_max = 0.
    q_min = 1 if args.command in ("verify", "index", "pair") else 0
    if args.q_max < q_min:
        print(f"--q-max must be at least {q_min}", file=sys.stderr)
        return USAGE_EXIT
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
