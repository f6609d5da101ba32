"""Command-line surface.

Subcommands: generate | gpset construct/verify/max | cover
construct/verify/bounds | report.  Every run prints exactly one JSON
document to stdout (including failure paths) and emits a run manifest
with input/output digests and timing; the result JSON itself carries no
timestamps, so identical inputs and node budget reproduce it byte for
byte.

`--out F` writes a command's product, the graph, set or cover file that
another command reads, once its check has passed, and the result then
names F as `path` instead of carrying the product: `generate` (graph),
`gpset construct` and `gpset max` (set) and `cover construct` (cover)
take it.  F may not be a file the run reads.  The verifiers and `report`
write nothing, their document on stdout being all they produce, so
`--out` is a usage error there.  `report`'s exact column is verified as
`gpset max`'s set is, by one shared step.

Exit codes: 0 success/verified, 1 verification failed, 2 usage, parse
or io error (including a butterfly dimension above graphs.MAX_BUTTERFLY_R,
a graph other than the canonical butterfly with more than
geodesy.MAX_TABLE_VERTICES vertices, any graph with more than
graphs.MAX_VERTICES vertices, a search pool with more than
genpos.MAX_SEARCH_TRIPLES collinear triples, and, as a last resort, a
MemoryError or RecursionError), 3 inconclusive (`gpset max` ran out of
budget before proving optimality).  An exit-2 document's error says
where: invalid JSON by its line and column, a cover member that is not
a walk as `cycle #i` or `path #i` with the position in it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import reprlib
import sys
import time
from datetime import datetime, timezone

from . import cycle_cover as cc
from . import genpos, geodesy, graph_io, graphs
from .budget import DEFAULT_SOLVER_NODES, Budget
from .errors import BfgpError, GraphParseError, TooLargeError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits; we need a JSON document on stdout instead
    def error(self, message):
        raise _UsageError(message)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """Tracks file digests and emits the result document plus the manifest."""

    def __init__(self, argv: list[str], args: argparse.Namespace):
        self.argv = argv
        self.args = args
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.t0 = time.perf_counter()

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as f:
            data = f.read()
        self.inputs[path] = _sha256(data)
        return data

    def owns(self, path: str) -> bool:
        """True if path is, by real path, a file this run reads or writes."""
        return os.path.realpath(path) in map(os.path.realpath, [*self.inputs, *self.outputs])

    def write_product(self, result: dict, product) -> None:
        """Write the product, its bytes or a JSON document, to --out; result names it as path."""
        path = self.args.out
        if self.owns(path):
            raise _UsageError(f"--out path {path} is a file this run reads")
        data = product if isinstance(product, bytes) else _dumps(product).encode()
        with open(path, "wb") as f:
            f.write(data)
        self.outputs[path] = _sha256(data)
        result["path"] = path

    def note(self, line: str) -> None:
        if not getattr(self.args, "quiet", False):
            print(line, file=sys.stderr)

    def finish(self, result: dict, exit_code: int) -> int:
        """Write the manifest, then print the one result document.

        A manifest path that is one of the run's own inputs or outputs
        (same real path) is a usage error, and an unwritable one an io
        error: either way the manifest goes to stderr and the run exits 2,
        unless it already failed with exit 2, whose document then stands.
        """
        manifest = {
            "command": self.argv,
            "node_budget": getattr(self.args, "node_budget", None),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "started_at": self.started_at,
            "elapsed_s": time.perf_counter() - self.t0,
            "exit_code": exit_code,
            "result_summary": _summarize(result),
        }
        target = getattr(self.args, "manifest", None)
        if target is None and getattr(self.args, "out", None):
            target = self.args.out + ".manifest.json"
        error = None
        if target and self.owns(target):
            error = {"error": f"manifest path {target} is a file this run reads or writes",
                     "kind": "usage"}
        elif target:
            try:
                with open(target, "w") as f:
                    f.write(_dumps(manifest))
            except OSError as e:
                error = {"error": str(e), "kind": "io"}
        if error:
            target = None
            if exit_code != EXIT_USAGE:
                result, exit_code = error, EXIT_USAGE
                manifest.update(exit_code=exit_code, result_summary=_summarize(result))
        if not target:
            print("manifest: " + json.dumps(manifest), file=sys.stderr)
        sys.stdout.write(_dumps(result))
        return exit_code


def _summarize(result: dict) -> dict:
    keep = ("command", "status", "size", "optimal", "num_vertices", "num_edges",
            "cycles", "passes", "bounds", "error")
    return {k: result[k] for k in keep if k in result}


# generate's families: the builder and the one flag that sizes it
_GENERATE = {
    "butterfly": (graphs.build_butterfly, "r"),
    "cycle": (graphs.build_cycle, "n"),
    "path": (graphs.build_path, "n"),
}


def _add_common(p: argparse.ArgumentParser, product: str = "") -> None:
    if product:
        p.add_argument("--out", help=f"write the {product} file here; the result names it as path")
    p.add_argument("--manifest", help="write the run manifest to this path")
    p.add_argument("--quiet", action="store_true", help="suppress stderr chatter")


def _add_budget(p: argparse.ArgumentParser) -> None:
    """The budget flag, for the subcommands that run a search."""
    p.add_argument("--node-budget", type=int, default=DEFAULT_SOLVER_NODES,
                   help="deterministic search node limit")


def build_parser() -> _Parser:
    parser = _Parser(prog="bfgp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a graph file")
    p.add_argument("family", choices=list(_GENERATE))
    param = p.add_mutually_exclusive_group()
    param.add_argument("--r", type=int, help="butterfly dimension")
    param.add_argument("--n", type=int, help="cycle/path order")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_common(p, "graph")

    p = sub.add_parser("gpset", help="general position sets")
    gsub = p.add_subparsers(dest="action", required=True)

    q = gsub.add_parser("construct", help="write the built-in optimal butterfly set")
    q.add_argument("--r", type=int, required=True)
    _add_common(q, "set")

    q = gsub.add_parser("verify", help="check a set for general position")
    q.add_argument("--graph", required=True)
    q.add_argument("--set", dest="set_path", required=True)
    _add_common(q)

    q = gsub.add_parser("max", help="exact maximum general position set")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--r", type=int, help="solve on BF(r) without a graph file")
    q.add_argument("--pool", default="all",
                   help="'all', 'deg2', or 'file:PATH' with a vertex-set JSON")
    _add_common(q, "set")
    _add_budget(q)

    p = sub.add_parser("cover", help="isometric cycle covers")
    csub = p.add_subparsers(dest="action", required=True)

    q = csub.add_parser("construct", help="build the butterfly cycle cover")
    q.add_argument("--r", type=int, required=True)
    _add_common(q, "cover")

    q = csub.add_parser("verify", help="verify a cover file")
    q.add_argument("--graph", required=True)
    q.add_argument("--cover", required=True)
    _add_common(q)

    q = csub.add_parser("bounds", help="certified gp upper bounds from a cover")
    q.add_argument("--graph", required=True)
    q.add_argument("--cover", required=True)
    _add_common(q)

    p = sub.add_parser("report", help="summary table across butterfly dimensions")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--exact-max-r", type=int, default=3,
                   help="run the exact solver for r up to this value")
    _add_common(p)
    _add_budget(p)

    return parser


def _load_graph(run: Run, path: str) -> graphs.Graph:
    return graph_io.import_graph(run.read_bytes(path))


def _read_claim(run: Run, path: str, g: graphs.Graph, from_dict):
    """A set, pool or cover file; a graph_ref other than "" (no claim) must hash g's edges."""
    obj = from_dict(graph_io.parse_json(run.read_bytes(path)))
    if obj.graph_ref != "" and obj.graph_ref.rpartition("#")[2] != g.ref().rpartition("#")[2]:
        raise GraphParseError(f"{path} claims graph_ref {reprlib.repr(obj.graph_ref)}, "
                              f"but the graph's is {reprlib.repr(g.ref())}")
    return obj


def cmd_generate(run: Run) -> int:
    args = run.args
    build, flag = _GENERATE[args.family]
    if getattr(args, flag) is None:
        raise _UsageError(f"{args.family} needs --{flag}")
    g = build(getattr(args, flag))
    result = {
        "command": "generate",
        "family": g.family,
        "param": g.family_param,
        "num_vertices": g.n,
        "num_edges": g.num_edges,
        "graph_ref": g.ref(),
    }
    if args.out:
        run.write_product(result, graph_io.export_graph(g, args.format))
    elif args.format == "dot":
        result["dot"] = graph_io.export_dot(g)
    else:
        result["graph"] = graph_io.graph_to_dict(g)
    run.note(f"{g.family}({g.family_param}): {g.n} vertices, {g.num_edges} edges")
    return run.finish(result, EXIT_OK)


def cmd_gpset_construct(run: Run) -> int:
    args = run.args
    s = genpos.construct_butterfly_gp_set(args.r)
    doc = genpos.vertex_set_to_dict(s)
    result = {"command": "gpset-construct", "r": args.r, "size": len(s)}
    if args.out:
        run.write_product(result, doc)
    else:
        result["set"] = doc
    run.note(f"BF({args.r}) general position set of size {len(s)}")
    return run.finish(result, EXIT_OK)


def cmd_gpset_verify(run: Run) -> int:
    args = run.args
    g = _load_graph(run, args.graph)
    s = _read_claim(run, args.set_path, g, genpos.vertex_set_from_dict)
    dm = geodesy.all_pairs_distances(g)
    witness = genpos.verify_general_position(g, dm, s)
    result = {"command": "gpset-verify", "size": len(s), "status": witness.status,
              "witness": genpos.witness_to_dict(witness)}
    run.note(f"set of size {len(s)}: {witness.status}")
    return run.finish(result, EXIT_OK if witness.ok else EXIT_VERIFY_FAILED)


def _resolve_pool(run: Run, g: graphs.Graph):
    spec = run.args.pool
    if spec == "all":
        return None, "all"
    if spec == "deg2":
        return [v for v in range(g.n) if g.degree(v) == 2], "deg2"
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        s = _read_claim(run, path, g, genpos.vertex_set_from_dict)
        return sorted(s.members), f"file:{path}"
    raise _UsageError(f"unknown pool {spec!r}")


def _solve(g: graphs.Graph, dm, pool, node_budget: int):
    """The exact search, and verify_general_position's witness on the set it found."""
    res = genpos.max_general_position(g, dm, pool=pool, budget=Budget(node_limit=node_budget))
    return res, genpos.verify_general_position(g, dm, res.best_set)


def cmd_gpset_max(run: Run) -> int:
    args = run.args
    g = _load_graph(run, args.graph) if args.r is None else graphs.build_butterfly(args.r)
    pool, pool_desc = _resolve_pool(run, g)
    res, witness = _solve(g, geodesy.all_pairs_distances(g), pool, args.node_budget)
    ref = res.best_set.graph_ref  # g.ref(), not hashed again from a non-butterfly's edges
    doc = {"command": "gpset-max", "graph_ref": ref, "pool": pool_desc, "size": res.size,
           "optimal": res.optimal, "nodes_explored": res.nodes_explored,
           "budget_exhausted": not res.optimal}
    if not args.out:
        doc["set"] = genpos.vertex_set_to_dict(res.best_set)
    elif witness.ok:
        run.write_product(doc, genpos.vertex_set_to_dict(res.best_set))
    code = EXIT_OK if res.optimal else EXIT_INCONCLUSIVE
    if not witness.ok:
        code = EXIT_VERIFY_FAILED
        doc.update(status="verify-failed", witness=genpos.witness_to_dict(witness))
    run.note(f"max general position on {ref} pool={pool_desc}: "
             f"size {res.size} optimal={res.optimal}")
    return run.finish(doc, code)


def cmd_cover_construct(run: Run) -> int:
    args = run.args
    cover = cc.construct_bf_cycle_cover(args.r)
    g = graphs.build_butterfly(args.r)
    dm = geodesy.all_pairs_distances(g)
    report = cc.verify_bf_cover(g, dm, cover)
    result = {
        "command": "cover-construct",
        "r": args.r,
        "status": "ok" if report.passes else "verify-failed",
        "cycles": len(cover),
        "cycle_length": 4 * args.r,
        "passes": report.passes,
        "report": cc.report_to_dict(report),
    }
    if args.out and report.passes:
        run.write_product(result, cc.cover_to_dict(cover))
    run.note(f"BF({args.r}) cover: {len(cover)} cycles of length {4 * args.r}, "
             f"verified={report.passes}")
    return run.finish(result, EXIT_OK if report.passes else EXIT_VERIFY_FAILED)


def cmd_cover_verify(run: Run) -> int:
    args = run.args
    g = _load_graph(run, args.graph)
    cover = _read_claim(run, args.cover, g, cc.cover_from_dict)
    dm = geodesy.all_pairs_distances(g)
    report = cc.verify_cover(g, dm, cover)
    result = {"command": "cover-verify", "cycles": len(cover), "passes": report.passes,
              "report": cc.report_to_dict(report)}
    run.note(f"cover of {len(cover)} members: passes={report.passes}")
    return run.finish(result, EXIT_OK if report.passes else EXIT_VERIFY_FAILED)


def cmd_cover_bounds(run: Run) -> int:
    args = run.args
    g = _load_graph(run, args.graph)
    cover = _read_claim(run, args.cover, g, cc.cover_from_dict)
    dm = geodesy.all_pairs_distances(g)
    report = cc.verify_cover(g, dm, cover)
    if report.bounds:
        result = {"command": "cover-bounds", "cover_size": len(cover), "bounds": report.bounds}
    else:
        result = {"command": "cover-bounds", "error": cc.UNVERIFIED}
    result["report"] = cc.report_to_dict(report)
    for name, value in report.bounds.items():
        run.note(f"gp <= {value}  ({name} from a verified cover of {len(cover)})")
    return run.finish(result, EXIT_OK if report.bounds else EXIT_VERIFY_FAILED)


def cmd_report(run: Run) -> int:
    args = run.args
    if args.r_min < 2 or args.r_max < args.r_min:
        raise _UsageError("need 2 <= r-min <= r-max")
    if args.r_max > graphs.MAX_BUTTERFLY_R:
        raise TooLargeError(f"--r-max {args.r_max} exceeds the butterfly cap "
                            f"r <= {graphs.MAX_BUTTERFLY_R}")
    rows, certified = [], True
    for r in range(args.r_min, args.r_max + 1):
        g = graphs.build_butterfly(r)
        dm = geodesy.all_pairs_distances(g)
        s = genpos.construct_butterfly_gp_set(r)
        set_ok = genpos.verify_general_position(g, dm, s).ok
        cover = cc.construct_bf_cycle_cover(r)
        report = cc.verify_bf_cover(g, dm, cover)
        res = None
        if r <= args.exact_max_r:
            res, witness = _solve(g, dm, None, args.node_budget)
            certified &= witness.ok
        certified &= set_ok and report.passes
        row = {"r": r, "set_size": len(s), "set_verified": set_ok,
               "cover_cycles": len(cover), "cover_verified": report.passes,
               "gp_upper_bound": report.bounds.get("from_ic"),
               "gp_exact": res and res.size, "exact_optimal": res and res.optimal}
        rows.append(row)
        run.note(f"r={r}: set {len(s)} verified={set_ok} cover {len(cover)} "
                 f"bound {row['gp_upper_bound']} exact {row['gp_exact']}")
    return run.finish({"command": "report", "rows": rows},
                      EXIT_OK if certified else EXIT_VERIFY_FAILED)


_DISPATCH = {
    ("generate", None): cmd_generate,
    ("gpset", "construct"): cmd_gpset_construct,
    ("gpset", "verify"): cmd_gpset_verify,
    ("gpset", "max"): cmd_gpset_max,
    ("cover", "construct"): cmd_cover_construct,
    ("cover", "verify"): cmd_cover_verify,
    ("cover", "bounds"): cmd_cover_bounds,
    ("report", None): cmd_report,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        sys.stdout.write(_dumps({"error": str(e), "kind": "usage"}))
        return EXIT_USAGE
    run = Run(argv, args)
    handler = _DISPATCH[(args.command, getattr(args, "action", None))]
    try:
        return handler(run)
    except _UsageError as e:
        return run.finish({"error": str(e), "kind": "usage"}, EXIT_USAGE)
    except OSError as e:
        return run.finish({"error": str(e), "kind": "io"}, EXIT_USAGE)
    except BfgpError as e:
        return run.finish({"error": str(e), "kind": type(e).__name__}, EXIT_USAGE)
    except (MemoryError, RecursionError) as e:
        # last resort; finishing after the except clause lets the frames of
        # the failed command, and what they hold, be freed first
        last = {"error": str(e) or type(e).__name__, "kind": type(e).__name__}
    return run.finish(last, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
