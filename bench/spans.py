"""Span tracer installed around the public functions of each cyclochern layer.

`Tracer.install()` wraps every function named in `SPANS` and rebinds the
wrapper under each name that points at the original, in every loaded
cyclochern module, so a name bound by `from .chains import co_S` is traced
as well.  Methods are wrapped on their class.

A span covers one call.  Spans are aggregated in memory per name (calls,
total time, self time) and per group (calls, time of the outermost span of
the group), so a pass with millions of calls keeps a small table.  Self time
is the span's duration minus the time covered by its direct child spans.

`Scalar`, `AlgebraElement`, `Chain` arithmetic and `GAction.apply` are too
fine-grained for spans: their time stays in the self time of the calling
layer, and `Scalar` products are counted instead.
"""
from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ["cli", "serde", "verify", "homology", "chains", "linalg", "spectral",
          "geometry"]

_CHAIN_OPS = ["hochschild_b", "cyclic_T", "op_A", "op_B0", "connes_B",
              "periodicity_S", "cyclic_projection", "theta", "g_normalize",
              "normalized_project", "psi_star", "psi_star_mj", "point_action",
              "twisted_b", "twisted_T", "twisted_A", "twisted_B", "chi_tilde",
              "chi_phi"]
# These also accept a Cochain and then delegate to the co_* operators.
_DUAL_OPS = {"hochschild_b", "cyclic_T", "op_A", "op_B0", "connes_B"}
_COCHAIN_OPS = ["co_b", "co_T", "co_A", "co_B0", "co_S", "co_g_normalize",
                "cochain_is_normalized", "cochain_is_g_normalized"]
_DENSE = ["mat_mul", "mat_inverse", "mat_rank", "kernel_basis", "solve_in_span",
          "column_space_basis", "_echelon"]

# (module, qualified name, group or None)
SPANS = (
    [("cli", "main", None)]
    + [("serde", n, "serde.load") for n in ("load_scenario", "load_triple",
                                           "load_geometry")]
    + [("serde", "dump_report", "serde.dump")]
    + [("verify", n, None) for n in ("crossed_suite", "cyclic_suite", "chern_suite",
                                     "spectral_suite", "geometry_suite",
                                     "index_suite")]
    + [("homology", "hp_report", None), ("homology", "verify_pi_star", None),
       ("homology", "flavor_hp", None), ("homology", "bn_predict_block", None),
       ("homology", "FullFlavor.space", None),
       ("homology", "assemble", "homology.assemble"),
       ("homology", "homology_dims", "homology.rank")]
    + [("chains", n, "chains.chain_op") for n in _CHAIN_OPS]
    + [("chains", n, "chains.mu_lambda") for n in ("mu_phi", "lambda_phi")]
    + [("chains", n, "chains.cochain_op") for n in _COCHAIN_OPS]
    + [("chains", n, None) for n in ("chern_character", "chern_pairing",
                                     "antisymmetrize", "random_sparse_chain")]
    + [("linalg", "SparseRank.add_column", "linalg.sparse_rank"),
       ("linalg", "sparse_rank", "linalg.sparse_rank")]
    + [("linalg", n, "linalg.dense") for n in _DENSE]
    + [("spectral", "TwistedTriple.tau", "spectral.tau"),
       ("spectral", "TwistedTriple.transgression", "spectral.tau")]
    + [("spectral", n, "spectral.pairing") for n in ("tau_bar_chern_pairing",
                                                     "verify_index_pairing",
                                                     "index")]
    + [("spectral", n, None) for n in ("tau_bar", "invertible_double", "d_nabla",
                                       "conformal_deform", "unitary_conjugate")]
    + [("geometry", n, "geometry") for n in ("cm_cocycle_eval", "conformal_invariant",
                                             "conformal_invariant_direct",
                                             "conformal_invariant_pairing",
                                             "fixed_point_cancellation",
                                             "fixed_point_contributions")]
)

COUNTERS = ["serde.report_bytes", "homology.columns", "homology.col_nnz",
            "homology.tot_dim", "homology.d2_columns", "homology.block_kept",
            "homology.block_tuples", "chains.cochain_tuples", "chains.cochain_nnz",
            "chains.cochain_dense_tuples", "linalg.pivot_nnz", "scalars.mul_calls",
            "scalars.mul_integral"]


class Tracer:
    """Aggregated spans and counts of one process."""

    def __init__(self):
        self.stack = [0.0]             # child time covered, per open span
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        # group -> [calls, time of its outermost spans, open depth]
        self.groups: dict[str, list] = {g: [0, 0.0, 0] for _, _, g in SPANS if g}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, group, pick_group=None, before=None, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        groups = self.groups
        fixed = groups[group] if group is not None else None

        def wrapper(*args, **kwargs):
            gs = fixed if pick_group is None else groups[pick_group(args)]
            if gs is not None:
                gs[0] += 1
                gs[2] += 1
            token = before(args) if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if gs is not None:
                    gs[2] -= 1
                    if gs[2] == 0:
                        gs[1] += dt
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every span in `SPANS` and install the counters."""
        from cyclochern.chains import Cochain
        from cyclochern.scalars import Scalar

        def by_argument(args):
            return "chains.cochain_op" if isinstance(args[0], Cochain) else "chains.chain_op"

        hooks = _hooks(self.counts)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cyclochern" or n.startswith("cyclochern.")) and m is not None]
        for mod_name, qual, group in SPANS:
            module = sys.modules[f"cyclochern.{mod_name}"]
            name = f"{mod_name}.{qual}"
            before, after = hooks.get(name, (None, None))
            pick = by_argument if qual in _DUAL_OPS else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, name, group, pick, before, after))
                continue
            orig = getattr(module, qual)
            wrapper = self._wrap(orig, name, group, pick, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)
        self._count_scalar_products(Scalar)
        return self

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def _count_scalar_products(self, scalar_cls):
        counts = self.counts
        orig = scalar_cls.__dict__["__mul__"]

        def __mul__(a, b):
            r = orig(a, b)
            counts["scalars.mul_calls"] += 1
            if not r.im and r.re.denominator == 1:
                counts["scalars.mul_integral"] += 1
            return r

        self._set(scalar_cls, "__mul__", __mul__)
        self._set(scalar_cls, "__rmul__", __mul__)

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.spans.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _hooks(counts: dict) -> dict:
    """Count hooks per span name: (before(args) -> token, after(args, kwargs, result, token))."""

    def dump_after(args, kwargs, text, _):
        counts["serde.report_bytes"] += len(text.encode("utf-8")) + 1

    def assemble_after(args, kwargs, tc, _):
        cols = tc.d_columns
        counts["homology.columns"] += sum(len(c) for c in cols.values())
        counts["homology.col_nnz"] += sum(len(col) for c in cols.values() for col in c)
        counts["homology.tot_dim"] += sum(tc.tot_dims.values())
        check_d2 = kwargs.get("check_d2", args[3] if len(args) > 3 else True)
        if check_d2:
            counts["homology.d2_columns"] += len(cols[tc.top_degree + 1])

    def space_before(args):
        flavor, m = args[0], args[1]
        return flavor.block is not None and m >= 0 and m not in flavor._spaces

    def space_after(args, kwargs, keys, fresh):
        if fresh:
            flavor, m = args[0], args[1]
            counts["homology.block_kept"] += len(keys)
            counts["homology.block_tuples"] += flavor.algebra.dim ** (m + 1)

    def add_column_before(args):
        return len(args[0].pivots)

    def add_column_after(args, kwargs, grew, n_before):
        pivots = args[0].pivots
        if len(pivots) > n_before:
            counts["linalg.pivot_nnz"] += len(next(reversed(pivots.values())))

    def cochain_hook(tuples_of, dense: bool):
        def after(args, kwargs, result, _):
            phi = args[0]
            n = tuples_of(phi.algebra, phi.degree)
            counts["chains.cochain_tuples"] += n
            if dense:
                counts["chains.cochain_dense_tuples"] += n
                counts["chains.cochain_nnz"] += len(result.values)
        return None, after

    return {
        "serde.dump_report": (None, dump_after),
        "homology.assemble": (None, assemble_after),
        "homology.FullFlavor.space": (space_before, space_after),
        "linalg.SparseRank.add_column": (add_column_before, add_column_after),
        "chains.co_b": cochain_hook(lambda A, m: A.dim ** (m + 2), True),
        "chains.co_B0": cochain_hook(lambda A, m: A.dim ** m, True),
        "chains.co_S": cochain_hook(lambda A, m: A.dim ** (m + 3), True),
        "chains.co_g_normalize": cochain_hook(lambda A, m: A.dim ** (m + 1), True),
        "chains.cochain_is_normalized": cochain_hook(lambda A, m: A.dim ** m, False),
        "chains.cochain_is_g_normalized": cochain_hook(
            lambda A, m: A.group.order * (m + 1) * A.dim ** (m + 1), False),
    }


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer metric values of one traced pass of `wall_s` seconds."""
    sp, gr, c = tracer.spans, tracer.groups, tracer.counts

    def group_s(g):
        return gr.get(g, [0, 0.0])[1]

    def calls(name):
        return sp.get(name, [0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": v for layer, v in tracer.self_seconds().items()}
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(tracer.self_seconds().values())
    out.update({
        "serde.load_s": group_s("serde.load"),
        "serde.dump_s": group_s("serde.dump"),
        "serde.report_bytes": c["serde.report_bytes"],
        "homology.assemble_s": group_s("homology.assemble"),
        "homology.rank_s": group_s("homology.rank"),
        "homology.columns": c["homology.columns"],
        "homology.col_nnz": c["homology.col_nnz"],
        "homology.tot_dim": c["homology.tot_dim"],
        "homology.d2_columns": c["homology.d2_columns"],
        "homology.block_fill": ratio(c["homology.block_kept"], c["homology.block_tuples"]),
        "chains.chain_op_s": group_s("chains.chain_op"),
        "chains.chain_op_calls": gr.get("chains.chain_op", [0])[0],
        "chains.mu_lambda_s": group_s("chains.mu_lambda"),
        "chains.cochain_op_s": group_s("chains.cochain_op"),
        "chains.cochain_tuples": c["chains.cochain_tuples"],
        "chains.cochain_fill": ratio(c["chains.cochain_nnz"], c["chains.cochain_dense_tuples"]),
        "chains.co_S_calls": calls("chains.co_S"),
        "linalg.sparse_rank_s": group_s("linalg.sparse_rank"),
        "linalg.sparse_columns": calls("linalg.SparseRank.add_column"),
        "linalg.pivot_nnz": c["linalg.pivot_nnz"],
        "linalg.dense_s": group_s("linalg.dense"),
        "linalg.mat_mul_calls": calls("linalg.mat_mul"),
        "scalars.mul_calls": c["scalars.mul_calls"],
        "scalars.integral_share": ratio(c["scalars.mul_integral"], c["scalars.mul_calls"]),
        "spectral.tau_s": group_s("spectral.tau"),
        "spectral.tau_calls": calls("spectral.TwistedTriple.tau"),
        "spectral.pairing_s": group_s("spectral.pairing"),
        "geometry.s": group_s("geometry"),
    })
    return out
