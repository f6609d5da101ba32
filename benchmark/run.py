#!/usr/bin/env python3
"""Benchmark of the bfgp library and CLI.

Run from the repository root:

    python3 benchmark/run.py --workload certify-bf7 --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --sweep

A workload run sets up three to nine times (reporting the median), then runs
rounds of operations, one at a time, until another round would end past
`--seconds`; every operation's answer is checked.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` every
operation runs once untraced and once with spans around the calls into
each layer, and the metrics are the per-layer ones.  The spans are
written to .bench_out/.  In-process times are scaled to a reference host
speed (see speed.py).  `--sweep` prints one ungated JSON record per
(layer, r) for r = 2..8.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# standard modules the library imports, loaded once so that every set-up
# repetition times the same work: the library's own modules
import dataclasses  # noqa: E402,F401
import datetime  # noqa: E402,F401
import hashlib  # noqa: E402,F401
import itertools  # noqa: E402,F401
import random  # noqa: E402,F401

from speed import Scaled, Speed  # noqa: E402
from tracer import LAYERS, Tracer, layer_of, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up runs at least SETUP_MIN times, and again while under SETUP_BUDGET_S
# seconds, up to SETUP_MAX times; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
SWEEP_R = range(2, 9)
SWEEP_REPEATS = 3
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"


def load_library() -> SimpleNamespace:
    """Import the library afresh from src/, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "bfgp" or m.startswith("bfgp.")]:
        del sys.modules[name]
    importlib.import_module("bfgp")
    return SimpleNamespace(**{name: importlib.import_module(f"bfgp.{name}")
                              for name in LAYERS + ("budget",)})


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped at p90."""
    return min(0.9, max(0.0, (n - 10) / n)) if n else 0.0


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as e:  # an unexpected exception is a failed operation
        out, err = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, out, err


def _checked(op, out, err):
    if err is not None:
        return err
    try:
        return op.check(out)
    except Exception as e:  # a result the check cannot read is a wrong answer
        return f"unreadable result ({type(e).__name__}: {e})"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, kind: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{kind}: {reason}")


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    ctx = SimpleNamespace(src=str(SRC), work_root=str(WORK_DIR))
    setups = Scaled(Speed(child=not wl.in_process))
    setup_times = setups.raw
    st = None
    while len(setup_times) < (1 if trace else SETUP_MIN) or (
            not trace and len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S):
        if st is not None:
            wl.cleanup(st)
        st = None
        gc.collect()
        t0 = time.perf_counter()
        lib = load_library()
        tracer = Tracer()
        if trace:
            tracer.install(lib)
            with tracer.op("setup", "setup"):
                st = wl.setup(lib, tracer, seed, ctx)
        else:
            st = wl.setup(lib, tracer, seed, ctx)
        setups.add(time.perf_counter() - t0)
        setups.flush()
    try:
        wl.prepare(st)
        if trace:
            result = _traced_loop(wl, st, tracer, seconds)
            _probes(wl, st, lib, result["metrics"], result["detail"])
            return result
        return _loop(wl, st, seconds, setups)
    finally:
        wl.cleanup(st)


def _rounds(wl, st, seconds):
    """Rounds of operations until another round would end after `seconds`."""
    t_loop = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - t_loop
        if index and elapsed * (index + 1) / index > seconds:
            return
        yield index, wl.round(st, index)
        index += 1


def _loop(wl, st, seconds, setups) -> dict:
    tally = Tally()
    ops = Scaled(setups.speed)
    for _, round_ops in _rounds(wl, st, seconds):
        for op in round_ops:
            dt, out, err = _timed(op.run)
            tally.add(op.kind, _checked(op, out, err))
            ops.add(dt)
    ops.flush()
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    rss_kib = resource.getrusage(who).ru_maxrss
    ok_ops = tally.attempted - tally.failed
    metrics = {
        "setup_s": (statistics.median(setups.scaled), "s"),
        "ops_per_s": (ok_ops / sum(ops.scaled), "1/s"),
        "op_p50_s": (statistics.median(ops.scaled), "s"),
        "op_p90_s": (percentile(ops.scaled, 0.9), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    n = len(ops.scaled)
    beyond = n - math.ceil(0.9 * n)
    print(f"# {wl.name}: {n} ops; p90 is nearest-rank with {beyond} samples beyond it "
          f"(highest percentile with >= 10 beyond: p{100 * tail_percentile(n):.0f}); "
          f"failed_frac {tally.failed / max(1, tally.attempted):.4f}")
    speed = setups.speed
    print(f"# raw (unscaled): setup_s {statistics.median(setups.raw):.6g} "
          f"ops_per_s {ok_ops / sum(ops.raw):.6g} op_p50_s {statistics.median(ops.raw):.6g} "
          f"op_p90_s {percentile(ops.raw, 0.9):.6g}; speed probes median "
          f"{statistics.median(speed.probes):.6g} s (reference {speed.reference_s} s, "
          f"{len(speed.probes)} probes)")
    return {"tally": tally, "metrics": metrics}


def _traced_loop(wl, st, tracer, seconds) -> dict:
    tally = Tally()
    base, traced, proc_overhead = [], [], {}
    for index, ops in _rounds(wl, st, seconds):
        for k, op in enumerate(ops):
            fn = op.inproc or op.run

            def untraced():
                dt, out, err = _timed(fn)
                tally.add(op.kind, _checked(op, out, err))
                return dt

            def with_spans():
                with tracer.op(f"r{index}.{k}", op.kind):
                    dt, out, err = _timed(fn)
                tally.add(op.kind, _checked(op, out, err))
                return dt

            if op.inproc is not None:
                dt_child, out, err = _timed(op.run)
                tally.add(op.kind, _checked(op, out, err))
            # alternate which run goes first, so a warm second run is not read as overhead
            if (index + k) % 2:
                t = with_spans()
                b = untraced()
            else:
                b = untraced()
                t = with_spans()
            base.append(b)
            traced.append(t)
            if op.inproc is not None:
                proc_overhead.setdefault(op.kind, []).append(dt_child - b)
    metrics, detail = summarize_spans(tracer.spans)
    ratios = [t / b - 1 for b, t in zip(base, traced)]
    metrics["trace.overhead_frac"] = (statistics.median(ratios), "fraction")
    detail["trace"] = {"untraced_s": sum(base), "traced_s": sum(traced),
                       "overhead_s": sum(traced) - sum(base),
                       "overhead_frac_median": statistics.median(ratios), "ops": len(traced)}
    if proc_overhead:
        detail["cli.process_overhead_s"] = {
            kind: statistics.median(v) for kind, v in sorted(proc_overhead.items())}
        detail["cli.process_overhead_s"]["all"] = statistics.median(
            [x for v in proc_overhead.values() for x in v])
    return {"tally": tally, "metrics": metrics, "detail": detail, "spans": tracer.spans}


def summarize_spans(spans) -> tuple[dict, dict]:
    """Per-layer metrics (for the result line) and a per-function breakdown."""
    own = self_times(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    funcs: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        layer_self[layer_of(s["name"])] += self_s
        f = funcs.setdefault(s["name"], {"durations": [], "self_s": 0.0, "accept": [], "reject": []})
        dur = s["end"] - s["start"]
        f["durations"].append(dur)
        f["self_s"] += self_s
        if "accept" in s["counts"]:
            f["accept" if s["counts"]["accept"] else "reject"].append(dur)

    def calls(name):
        return [(s, s["end"] - s["start"]) for s in spans if s["name"] == name]

    def first_round(name, key):
        return sum(s["counts"][key] for s, _ in calls(name) if (s["op"] or "").startswith("r0."))

    def rate(name, key):
        total = sum(d for _, d in calls(name))
        return sum(s["counts"][key] for s, _ in calls(name)) / total if total else 0.0

    def median_call(name):
        ds = [d for _, d in calls(name)]
        return statistics.median(ds) if ds else 0.0

    solves = calls("genpos.max_general_position")
    gap = sum(spans[s["parent"]]["counts"]["size"] - s["counts"]["size"]
              for s, _ in calls("genpos.greedy_gp_lower_bound")
              if (s["op"] or "").startswith("r0.") and s["parent"] is not None
              and spans[s["parent"]]["name"] == "genpos.max_general_position")
    metrics = {f"{layer}.self_frac": (layer_self[layer] / roots, "fraction") for layer in LAYERS}
    metrics.update({
        "graphs.build_butterfly.s": (median_call("graphs.build_butterfly"), "s"),
        "geodesy.all_pairs_distances.s": (median_call("geodesy.all_pairs_distances"), "s"),
        "genpos.verify_general_position.triples":
            (first_round("genpos.verify_general_position", "triples"), "count"),
        "genpos.verify_general_position.triples_per_s":
            (rate("genpos.verify_general_position", "triples"), "1/s"),
        "genpos.max_general_position.nodes": (first_round("genpos.max_general_position", "nodes"), "count"),
        "genpos.max_general_position.nodes_per_s": (rate("genpos.max_general_position", "nodes"), "1/s"),
        "genpos.max_general_position.optimal_frac":
            (sum(s["counts"]["optimal"] for s, _ in solves) / len(solves) if solves else 0.0, "fraction"),
        "genpos.collinear_triples.count": (first_round("genpos.collinear_triples", "count"), "count"),
        "genpos.greedy_gp_lower_bound.gap": (gap, "count"),
        "graph_io.export_graph.bytes": (first_round("graph_io.export_graph", "bytes"), "B"),
        "graph_io.import_graph.bytes": (first_round("graph_io.import_graph", "bytes"), "B"),
    })
    detail = {
        "layer_self_s": layer_self,
        "traced_root_s": roots,
        "functions": {
            name: {"calls": len(f["durations"]), "total_s": sum(f["durations"]),
                   "median_s": statistics.median(f["durations"]), "self_s": f["self_s"],
                   **({"accept_s": statistics.median(f["accept"])} if f["accept"] else {}),
                   **({"reject_s": statistics.median(f["reject"])} if f["reject"] else {})}
            for name, f in sorted(funcs.items())
        },
    }
    covers = calls("cycle_cover.construct_bf_cycle_cover")
    if covers:
        cycles = covers[0][0]["counts"]["cycles"]
        # computed, not counted: 2^(r-1) cycles kept out of 4^(r-1) candidates screened
        detail["cycle_cover.construct_bf_cycle_cover.useful_ratio_computed"] = 1 / cycles
    by_kind: dict[str, list[float]] = {}
    for s in spans:
        if s["name"] == "cli.main":
            kind = spans[s["parent"]]["name"].removeprefix("bench.cli-")
            by_kind.setdefault(kind, []).append(s["end"] - s["start"])
    if by_kind:
        detail["cli.main.s"] = {k: statistics.median(v) for k, v in sorted(by_kind.items())}
    return metrics, detail


def _probes(wl, st, lib, metrics, detail) -> None:
    """Measurements taken once after a traced run, outside every span."""
    g = wl.table_graph(st)
    tracemalloc.start()
    lib.geodesy.all_pairs_distances(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics["geodesy.all_pairs_distances.alloc_mib"] = (peak / 2**20, "MiB")
    if wl.name == "cli-files":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        samples = {"import": [], "bare": []}
        for _ in range(5):
            for key, code in (("bare", "pass"), ("import", "import bfgp.cli")):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=env, check=True)
                samples[key].append(time.perf_counter() - t0)
        detail["cli.import_s"] = statistics.median(samples["import"]) - statistics.median(samples["bare"])


def write_trace(workload: str, seed: int, result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "detail": result["detail"],
                   "spans": result["spans"]}, f)
    return path


def sweep() -> int:
    """One child process per r, so each record's peak RSS belongs to that r alone."""
    for r in SWEEP_R:
        proc = subprocess.run([sys.executable, __file__, "--sweep-r", str(r)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
    return 0


def sweep_one(r: int) -> None:
    lib = load_library()
    g = lib.graphs.build_butterfly(r)
    dm = lib.geodesy.all_pairs_distances(g)
    s = lib.genpos.construct_butterfly_gp_set(r)
    cover = lib.cycle_cover.construct_bf_cycle_cover(r)
    payload = lib.graph_io.export_graph(g)
    steps = [
        ("graphs.build_butterfly", lambda: lib.graphs.build_butterfly(r)),
        ("graph_io.export_graph", lambda: lib.graph_io.export_graph(g)),
        ("graph_io.import_graph", lambda: lib.graph_io.import_graph(payload)),
        ("geodesy.all_pairs_distances", lambda: lib.geodesy.all_pairs_distances(g)),
        ("genpos.construct_butterfly_gp_set", lambda: lib.genpos.construct_butterfly_gp_set(r)),
        ("genpos.verify_general_position", lambda: lib.genpos.verify_general_position(g, dm, s)),
        ("cycle_cover.construct_bf_cycle_cover", lambda: lib.cycle_cover.construct_bf_cycle_cover(r)),
        ("cycle_cover.verify_bf_cover", lambda: lib.cycle_cover.verify_bf_cover(g, dm, cover)),
    ]
    if r <= 3:
        steps.append(("genpos.max_general_position", lambda: lib.genpos.max_general_position(g, dm)))
    for layer, fn in steps:
        times = []
        for _ in range(SWEEP_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        print(json.dumps({"layer": layer, "r": r, "n": g.n, "median_s": statistics.median(times),
                          "runs": SWEEP_REPEATS,
                          "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true", help="print the per-(layer, r) report")
    ap.add_argument("--sweep-r", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bfgp" / "__init__.py").is_file():
        print(f"error: no bfgp package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.sweep_r is not None:
        sweep_one(args.sweep_r)
        return 0
    if args.sweep:
        return sweep()
    if args.workload is None:
        ap.error("--workload or --sweep is required")

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    tally = result["tally"]
    for reason in tally.reasons:
        print(f"# failed {reason}", file=sys.stderr)
    if args.trace:
        path = write_trace(args.workload, args.seed, result)
        print(f"# spans and per-function detail: {path.relative_to(ROOT)}")
        detail = result["detail"]
        print("# layer self time (s): " + json.dumps(
            {k: round(v, 6) for k, v in detail["layer_self_s"].items()}))
        print("# trace: " + json.dumps(detail["trace"]))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
