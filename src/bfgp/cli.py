"""Command-line surface.

Subcommands: generate | gpset construct/verify/max | cover
construct/verify/bounds | report.  Every run prints exactly one JSON
document to stdout (including failure paths) and emits a run manifest
with input/output digests and timing; the result JSON itself carries no
timestamps, so identical inputs and node budget reproduce it byte for
byte.

`main` alone applies the `--out` rule, writes the manifest and prints;
each handler returns its document, exit code and product.  A product is
the graph, set or cover file that another command reads, made by
`generate`, `gpset construct`, `gpset max` and `cover construct`.
`--out F` writes it unless the run exits 1, so a set or cover is written
only once its check has passed, and the result names F as `path`;
without `--out` the product is inlined (a cover is not).  Reading F as
an input is refused, before any work.  The verifiers and `report`
produce only their stdout document, so `--out` is a usage error there.
`--node-budget` below 1 is a usage error when the arguments are parsed.

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
        """Read an input, refusing one that is --out by real path before any work is done on it."""
        out = getattr(self.args, "out", None)
        if out and os.path.realpath(path) == os.path.realpath(out):
            raise _UsageError(f"--out path {out} is a file this run reads")
        with open(path, "rb") as f:
            data = f.read()
        self.inputs[path] = _sha256(data)
        return data

    def write_product(self, result: dict, product) -> None:
        """Write the product, text or a JSON document, to --out; result names it as path."""
        path = self.args.out
        data = (product if isinstance(product, str) else graph_io.json_text(product)).encode()
        with open(path, "wb") as f:
            f.write(data)
        self.outputs[path] = _sha256(data)
        result["path"] = path

    def note(self, line: str) -> None:
        if not getattr(self.args, "quiet", False):
            print(line, file=sys.stderr)

    def finish(self, result: dict, exit_code: int) -> tuple[dict, int]:
        """Write the manifest; return the result document to print and the exit code.

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
        owned = map(os.path.realpath, [*self.inputs, *self.outputs])
        if target and os.path.realpath(target) in owned:
            error = {"error": f"manifest path {target} is a file this run reads or writes",
                     "kind": "usage"}
        elif target:
            try:
                with open(target, "w") as f:
                    f.write(graph_io.json_text(manifest))
            except OSError as e:
                error = {"error": str(e), "kind": "io"}
        if error:
            target = None
            if exit_code != EXIT_USAGE:
                result, exit_code = error, EXIT_USAGE
                manifest.update(exit_code=exit_code, result_summary=_summarize(result))
        if not target:
            print("manifest: " + json.dumps(manifest), file=sys.stderr)
        return result, exit_code


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


def _add_common(p: argparse.ArgumentParser, handler, product: str = "") -> None:
    p.set_defaults(handler=handler)
    if product:
        p.add_argument("--out", help=f"write the {product} file here; the result names it as path")
    p.add_argument("--manifest", help="write the run manifest to this path")
    p.add_argument("--quiet", action="store_true", help="suppress stderr chatter")


def _node_budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_budget(p: argparse.ArgumentParser) -> None:
    """The budget flag, for the subcommands that run a search; checked as it is parsed."""
    p.add_argument("--node-budget", type=_node_budget, default=DEFAULT_SOLVER_NODES,
                   help="deterministic search node limit, at least 1")


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
    _add_common(p, cmd_generate, "graph")

    p = sub.add_parser("gpset", help="general position sets")
    gsub = p.add_subparsers(dest="action", required=True)

    q = gsub.add_parser("construct", help="write the built-in optimal butterfly set")
    q.add_argument("--r", type=int, required=True)
    _add_common(q, cmd_gpset_construct, "set")

    q = gsub.add_parser("verify", help="check a set for general position")
    q.add_argument("--graph", required=True)
    q.add_argument("--set", dest="set_path", required=True)
    _add_common(q, cmd_gpset_verify)

    q = gsub.add_parser("max", help="exact maximum general position set")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--r", type=int, help="solve on BF(r) without a graph file")
    q.add_argument("--pool", default="all",
                   help="'all', 'deg2', or 'file:PATH' with a vertex-set JSON")
    _add_common(q, cmd_gpset_max, "set")
    _add_budget(q)

    p = sub.add_parser("cover", help="isometric cycle covers")
    csub = p.add_subparsers(dest="action", required=True)

    q = csub.add_parser("construct", help="build the butterfly cycle cover")
    q.add_argument("--r", type=int, required=True)
    _add_common(q, cmd_cover_construct, "cover")

    q = csub.add_parser("verify", help="verify a cover file")
    q.add_argument("--graph", required=True)
    q.add_argument("--cover", required=True)
    _add_common(q, cmd_cover_verify)

    q = csub.add_parser("bounds", help="certified gp upper bounds from a cover")
    q.add_argument("--graph", required=True)
    q.add_argument("--cover", required=True)
    _add_common(q, cmd_cover_bounds)

    p = sub.add_parser("report", help="summary table across butterfly dimensions")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--exact-max-r", type=int, default=3,
                   help="run the exact solver for r up to this value")
    _add_common(p, cmd_report)
    _add_budget(p)

    return parser


def _read_claim(run: Run, path: str, g: graphs.Graph, from_dict):
    """A set, pool or cover file; a graph_ref other than "" (no claim) must hash g's edges."""
    obj = from_dict(graph_io.parse_json(run.read_bytes(path)))
    if obj.graph_ref != "" and obj.graph_ref.rpartition("#")[2] != g.ref().rpartition("#")[2]:
        raise GraphParseError(f"{path} claims graph_ref {reprlib.repr(obj.graph_ref)}, "
                              f"but the graph's is {reprlib.repr(g.ref())}")
    return obj


def _claim(run: Run, path: str, from_dict):
    """The --graph file, its distances, and the claim file at path read against it."""
    g = graph_io.import_graph(run.read_bytes(run.args.graph))
    obj = _read_claim(run, path, g, from_dict)
    return g, geodesy.all_pairs_distances(g), obj


def _made(r: int, construct, verify, bf=None):
    """BF(r)'s closed-form set or cover, its verifier's verdict, and bf.

    bf is BF(r) and its distances, built here unless given.  The object
    is made first, so that it, not the graph, refuses r < 2.
    """
    obj = construct(r)
    if bf is None:
        g = graphs.build_butterfly(r)
        bf = g, geodesy.all_pairs_distances(g)
    return obj, verify(*bf, obj), bf


def _set_verdict(doc: dict, witness, code: int) -> int:
    """code if the set passed verify_general_position; else exit 1, the witness in doc."""
    if witness.ok:
        return code
    doc.update(status="verify-failed", witness=genpos.witness_to_dict(witness))
    return EXIT_VERIFY_FAILED


def cmd_generate(run: Run):
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
    run.note(f"{g.family}({g.family_param}): {g.n} vertices, {g.num_edges} edges")
    if args.format == "dot":
        return result, EXIT_OK, ("dot", graph_io.export_dot(g))
    return result, EXIT_OK, ("graph", graph_io.graph_to_dict(g))


def cmd_gpset_construct(run: Run):
    r = run.args.r
    s, witness, _ = _made(r, genpos.construct_butterfly_gp_set, genpos.verify_general_position)
    result = {"command": "gpset-construct", "r": r, "size": len(s)}
    run.note(f"BF({r}) general position set of size {len(s)}")
    return result, _set_verdict(result, witness, EXIT_OK), ("set", genpos.vertex_set_to_dict(s))


def cmd_gpset_verify(run: Run):
    g, dm, s = _claim(run, run.args.set_path, genpos.vertex_set_from_dict)
    witness = genpos.verify_general_position(g, dm, s)
    result = {"command": "gpset-verify", "size": len(s), "status": witness.status,
              "witness": genpos.witness_to_dict(witness)}
    run.note(f"set of size {len(s)}: {witness.status}")
    return result, EXIT_OK if witness.ok else EXIT_VERIFY_FAILED, None


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


def cmd_gpset_max(run: Run):
    args = run.args
    g = (graph_io.import_graph(run.read_bytes(args.graph)) if args.r is None
         else graphs.build_butterfly(args.r))
    pool, pool_desc = _resolve_pool(run, g)
    res, witness = _solve(g, geodesy.all_pairs_distances(g), pool, args.node_budget)
    ref = res.best_set.graph_ref  # g.ref(), not hashed again from a non-butterfly's edges
    doc = {"command": "gpset-max", "graph_ref": ref, "pool": pool_desc, "size": res.size,
           "optimal": res.optimal, "nodes_explored": res.nodes_explored,
           "budget_exhausted": not res.optimal}
    run.note(f"max general position on {ref} pool={pool_desc}: "
             f"size {res.size} optimal={res.optimal}")
    code = _set_verdict(doc, witness, EXIT_OK if res.optimal else EXIT_INCONCLUSIVE)
    return doc, code, ("set", genpos.vertex_set_to_dict(res.best_set))


def cmd_cover_construct(run: Run):
    r = run.args.r
    cover, report, _ = _made(r, cc.construct_bf_cycle_cover, cc.verify_cover)
    result = {
        "command": "cover-construct",
        "r": r,
        "status": "ok" if report.passes else "verify-failed",
        "cycles": len(cover),
        "cycle_length": 4 * r,
        "passes": report.passes,
        "report": cc.report_to_dict(report),
    }
    run.note(f"BF({r}) cover: {len(cover)} cycles of length {4 * r}, verified={report.passes}")
    return (result, EXIT_OK if report.passes else EXIT_VERIFY_FAILED,
            (None, cc.cover_to_dict(cover)))


def cmd_cover_verify(run: Run):
    g, dm, cover = _claim(run, run.args.cover, cc.cover_from_dict)
    report = cc.verify_cover(g, dm, cover)
    result = {"command": "cover-verify", "cycles": len(cover), "passes": report.passes,
              "report": cc.report_to_dict(report)}
    run.note(f"cover of {len(cover)} members: passes={report.passes}")
    return result, EXIT_OK if report.passes else EXIT_VERIFY_FAILED, None


def cmd_cover_bounds(run: Run):
    g, dm, cover = _claim(run, run.args.cover, cc.cover_from_dict)
    report = cc.verify_cover(g, dm, cover)
    if report.bounds:
        result = {"command": "cover-bounds", "cover_size": len(cover), "bounds": report.bounds}
    else:
        result = {"command": "cover-bounds", "error": cc.UNVERIFIED}
    result["report"] = cc.report_to_dict(report)
    for name, value in report.bounds.items():
        run.note(f"gp <= {value}  ({name} from a verified cover of {len(cover)})")
    return result, EXIT_OK if report.bounds else EXIT_VERIFY_FAILED, None


def cmd_report(run: Run):
    args = run.args
    if args.r_min < 2 or args.r_max < args.r_min:
        raise _UsageError("need 2 <= r-min <= r-max")
    if args.r_max > graphs.MAX_BUTTERFLY_R:
        raise TooLargeError(f"--r-max {args.r_max} exceeds the butterfly cap "
                            f"r <= {graphs.MAX_BUTTERFLY_R}")
    rows, certified = [], True
    for r in range(args.r_min, args.r_max + 1):
        s, witness, bf = _made(r, genpos.construct_butterfly_gp_set,
                               genpos.verify_general_position)
        cover, report, _ = _made(r, cc.construct_bf_cycle_cover, cc.verify_cover, bf)
        res = None
        if r <= args.exact_max_r:
            res, exact = _solve(*bf, None, args.node_budget)
            certified &= exact.ok
        certified &= witness.ok and report.passes
        row = {"r": r, "set_size": len(s), "set_verified": witness.ok,
               "cover_cycles": len(cover), "cover_verified": report.passes,
               "gp_upper_bound": report.bounds.get("from_ic"),
               "gp_exact": res and res.size, "exact_optimal": res and res.optimal}
        rows.append(row)
        run.note(f"r={r}: set {len(s)} verified={witness.ok} cover {len(cover)} "
                 f"bound {row['gp_upper_bound']} exact {row['gp_exact']}")
    return {"command": "report", "rows": rows}, EXIT_OK if certified else EXIT_VERIFY_FAILED, None


def main(argv=None) -> int:
    """Parse argv, run its handler, apply the --out rule, finish the run, print its document."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        sys.stdout.write(graph_io.json_text({"error": str(e), "kind": "usage"}))
        return EXIT_USAGE
    run = Run(argv, args)
    try:
        result, code, product = args.handler(run)
        if product and args.out:
            if code != EXIT_VERIFY_FAILED:
                run.write_product(result, product[1])
        elif product and product[0]:
            result[product[0]] = product[1]
    except _UsageError as e:
        result, code = {"error": str(e), "kind": "usage"}, EXIT_USAGE
    except OSError as e:
        result, code = {"error": str(e), "kind": "io"}, EXIT_USAGE
    except BfgpError as e:
        result, code = {"error": str(e), "kind": type(e).__name__}, EXIT_USAGE
    except (MemoryError, RecursionError) as e:
        # last resort; finishing after the except clause lets the frames of
        # the failed command, and what they hold, be freed first
        result = {"error": str(e) or type(e).__name__, "kind": type(e).__name__}
        code = EXIT_USAGE
    result, code = run.finish(result, code)
    sys.stdout.write(graph_io.json_text(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
