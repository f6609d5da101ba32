"""Spans around the benchmark's calls into the library's layers.

The library is not edited.  In a traced run the public functions listed
in WRAPPED are replaced, in every loaded `bfgp` module that holds them,
by wrappers that record a span (name, start, end, parent, op id) and the
exact counts visible at that boundary.  The measured code looks its
callees up as module globals, so calls between layers are caught too,
e.g. `cli.main` -> `cycle_cover.construct_bf_cycle_cover` ->
`geodesy.all_pairs_distances`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from oracle import triples_examined

LAYERS = ("graphs", "graph_io", "geodesy", "genpos", "cycle_cover", "cli")

WRAPPED = {
    "graphs": ("build_butterfly", "build_cycle"),
    "graph_io": ("export_graph", "import_graph"),
    "geodesy": ("all_pairs_distances",),
    "genpos": ("construct_butterfly_gp_set", "verify_general_position",
               "max_general_position", "collinear_triples", "greedy_gp_lower_bound"),
    "cycle_cover": ("construct_bf_cycle_cover", "verify_bf_cover", "gp_upper_bounds"),
    "cli": ("main",),
}


def _counts(name: str, args, result) -> dict:
    """Exact counts read at the call boundary from arguments and results."""
    if name == "genpos.verify_general_position":
        return {"triples": triples_examined(args[2].members, result.triple),
                "accept": int(result.ok)}
    if name == "genpos.max_general_position":
        return {"nodes": result.nodes_explored, "size": result.size,
                "optimal": int(result.optimal)}
    if name == "genpos.collinear_triples":
        return {"count": len(result)}
    if name == "genpos.greedy_gp_lower_bound":
        return {"size": len(result.members)}
    if name == "graph_io.export_graph":
        return {"bytes": len(result)}
    if name == "graph_io.import_graph":
        return {"bytes": len(args[0])}
    if name == "cycle_cover.verify_bf_cover":
        return {"accept": int(result.passes)}
    if name == "cycle_cover.construct_bf_cycle_cover":
        return {"cycles": len(result.cycles)}
    return {}


class Tracer:
    """Records spans while `active`; a disabled tracer costs one flag test per call."""

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: str | None = None

    def install(self, lib) -> None:
        """Wrap the WRAPPED functions in every loaded bfgp module that refers to them."""
        modules = [m for k, m in sys.modules.items() if k == "bfgp" or k.startswith("bfgp.")]
        for layer, names in WRAPPED.items():
            mod = getattr(lib, layer)
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    if getattr(m, fname, None) is original:
                        setattr(m, fname, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
                rec["counts"] = _counts(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield {}
            return
        rec = {"name": name, "op": self._op,
               "parent": self._stack[-1] if self._stack else None, "counts": {}}
        idx = len(self.spans)
        self.spans.append(rec)
        self._stack.append(idx)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: str, kind: str):
        """Root span of one operation; the tracer is active only inside it."""
        self.active = True
        self._op = op_id
        try:
            with self.span(f"bench.{kind}"):
                yield
        finally:
            self.active = False
            self._op = None


def self_times(spans) -> list[float]:
    """Duration of each span minus the part covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
