"""The four workloads: inputs from a seed, timed operations, and their checks.

Every workload is one closed-loop client: the next operation starts when
the previous one has finished and been checked.  An operation's `run`
is timed; its `check` is not, and returns None or the reason it failed.
Inputs come only from the seed, so two runs with one seed send the
program the same inputs in the same order.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import oracle


# Each workload class names itself (`name`), says whether its operations run
# in this process (`in_process`), and provides setup, prepare, round,
# table_graph and cleanup.


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # cli-files only: the same command through cli.main in this process
    inproc: Callable[[], object] | None = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _collinear_pair(dv, members, rows):
    """Members a < b with {v, a, b} collinear, from BFS rows; None if v is free."""
    for i, a in enumerate(members):
        ra = rows[a]
        da = dv[a]
        for b in members[i + 1:]:
            if oracle.collinear(da, dv[b], ra[b]):
                return a, b
    return None


def gp_mutation(rng, kind, members, nonmembers, g, bfs, rows):
    """A set that is not in general position and whose every violation holds v.

    "add" is the set plus one non-member v (a maximality probe); "swap"
    trades a member for v, keeping a collinear pair {a, b} with v.  Both
    start from a set in general position, so each violation contains v.
    """
    while True:
        v = rng.choice(nonmembers)
        pair = _collinear_pair(bfs(g, v), members, rows)
        if pair is None:
            continue
        if kind == "add":
            return tuple(sorted(members + [v])), v
        drop = rng.choice([m for m in members if m not in pair])
        return tuple(sorted([m for m in members if m != drop] + [v])), v


def cover_mutation(rng, r, edge_sets):
    """Replace one cycle by another 4r-cycle of the same family.

    The cover is an edge partition, so the newcomer reuses an edge of
    some other cycle; the verifier stops at the first cycle, in order,
    whose edges were already seen, which is returned as `expected`.
    """
    half = 1 << (r - 1)
    while True:
        i = rng.randrange(len(edge_sets))
        uc, vc = 2 * rng.randrange(half), rng.randrange(half)
        if vc == uc >> 1:
            continue
        new = oracle.cover_cycle(r, uc, vc)
        if len(set(new)) != len(new):
            continue
        ne = oracle.cycle_edges(new)
        hits = [j for j, es in enumerate(edge_sets) if j != i and es & ne]
        if hits:
            return i, new, (i if hits[0] < i else hits[0])


def _gp_reject_check(lib, g, members, v):
    def check(w):
        if w.ok:
            return f"accepted a set with violating vertex {v}"
        return oracle.witness_error(lib.geodesy.bfs_distances, g, w.triple, v)
    return check


class CertifyBf7:
    """Certify BF(7) from scratch: set, its verification, cover, its verification, bound."""

    name = "certify-bf7"
    in_process = True
    r = 7

    def setup(self, lib, tracer, seed, ctx):
        return SimpleNamespace(lib=lib)

    def prepare(self, st):
        st.expected_set = oracle.closed_form_set(self.r)

    def table_graph(self, st):
        return st.lib.graphs.build_butterfly(self.r)

    def round(self, st, index):
        return [Op("certify", lambda: self._certify(st.lib), lambda out: self._check(st, out))]

    def _certify(self, lib):
        r = self.r
        g = lib.graphs.build_butterfly(r)
        dm = lib.geodesy.all_pairs_distances(g)
        s = lib.genpos.construct_butterfly_gp_set(r)
        witness = lib.genpos.verify_general_position(g, dm, s)
        cover = lib.cycle_cover.construct_bf_cycle_cover(r)
        report = lib.cycle_cover.verify_bf_cover(g, dm, cover)
        bounds = lib.cycle_cover.gp_upper_bounds(cover, report)
        return g.edges, s, witness, cover, report, bounds

    def _check(self, st, out):
        r = self.r
        edges, s, witness, cover, report, bounds = out
        if len(s) != oracle.gp_set_size(r) or tuple(sorted(s.members)) != st.expected_set:
            return f"constructed set differs from the closed form (size {len(s)})"
        if not witness.ok:
            return f"closed-form set rejected at {witness.triple}"
        if not report.passes:
            return f"cover rejected: {report.first_failure}"
        err = oracle.cover_partition_error(r, cover.cycles, edges)
        if err:
            return err
        if bounds != {"from_ic": oracle.gp_upper_bound(r)}:
            return f"bound {bounds}, expected {oracle.gp_upper_bound(r)}"
        return None

    def cleanup(self, st):
        pass


class ScreenBf8:
    """Reject a seeded stream of bad sets and covers against a prebuilt BF(8) table."""

    name = "screen-bf8"
    in_process = True
    r = 8
    per_kind = 8  # operations of each kind per round

    def setup(self, lib, tracer, seed, ctx):
        r = self.r
        g = lib.graphs.build_butterfly(r)
        dm = lib.geodesy.all_pairs_distances(g)
        s = lib.genpos.construct_butterfly_gp_set(r)
        cover = lib.cycle_cover.CycleCover(kind=lib.cycle_cover.KIND_CYCLE,
                                           cycles=oracle.closed_form_cover(r),
                                           graph_ref=g.ref())
        report = lib.cycle_cover.verify_bf_cover(g, dm, cover)
        if not report.passes:
            raise RuntimeError(f"set-up cover rejected: {report.first_failure}")
        return SimpleNamespace(lib=lib, g=g, dm=dm, s=s, cover=cover,
                               rng=_rng(self.name, seed))

    def prepare(self, st):
        bfs = st.lib.geodesy.bfs_distances
        st.members = sorted(st.s.members)
        if tuple(st.members) != oracle.closed_form_set(self.r):
            raise RuntimeError("constructed set differs from the closed form")
        member_set = set(st.members)
        st.nonmembers = [v for v in range(st.g.n) if v not in member_set]
        st.rows = {m: bfs(st.g, m) for m in st.members}
        st.edge_sets = [oracle.cycle_edges(c) for c in st.cover.cycles]

    def table_graph(self, st):
        return st.g

    def round(self, st, index):
        kinds = ["add", "swap", "cover"] * self.per_kind
        st.rng.shuffle(kinds)
        return [self._op(st, kind) for kind in kinds]

    def _op(self, st, kind):
        lib = st.lib
        if kind == "cover":
            i, new, expected = cover_mutation(st.rng, self.r, st.edge_sets)
            cycles = st.cover.cycles[:i] + (new,) + st.cover.cycles[i + 1:]
            bad = lib.cycle_cover.CycleCover(kind=st.cover.kind, cycles=cycles,
                                             graph_ref=st.cover.graph_ref)

            def check(rep):
                ff = rep.first_failure or {}
                if rep.passes or rep.flags["edge_disjoint"]:
                    return f"cover with cycle {i} replaced was not rejected as overlapping"
                if ff.get("check") != "edge_disjoint" or ff.get("cycle_index") != expected:
                    return f"witness {ff}, expected edge_disjoint at cycle {expected}"
                return None
            return Op("reject-cover",
                      lambda: lib.cycle_cover.verify_bf_cover(st.g, st.dm, bad), check)
        ids, v = gp_mutation(st.rng, kind, st.members, st.nonmembers, st.g,
                             lib.geodesy.bfs_distances, st.rows)
        bad = lib.genpos.VertexSet(members=ids)
        return Op(f"reject-{kind}",
                  lambda: lib.genpos.verify_general_position(st.g, st.dm, bad),
                  _gp_reject_check(lib, st.g, ids, v))

    def cleanup(self, st):
        pass


class ExactSmall:
    """Exact optima on small instances, canonical and relabelled, plus one budgeted BF(4) solve.

    An operation is one pass over the instance list, in canonical labels or
    in a fresh seeded relabelling, or the budgeted solve.
    """

    name = "exact-small"
    in_process = True
    # name, family, parameter, deg-2 pool only
    INSTANCES = (("bf2", "butterfly", 2, False), ("bf3", "butterfly", 3, False),
                 ("bf3-deg2", "butterfly", 3, True), ("bf4-deg2", "butterfly", 4, True),
                 ("c12", "cycle", 12, False))
    BUDGET_R = 4
    BUDGET_NODES = 1500

    @staticmethod
    def expected(family, param, deg2):
        if family == "cycle":
            return oracle.GP_CYCLE
        return oracle.deg2_cap(param) if deg2 else oracle.GP_BF[param]

    def setup(self, lib, tracer, seed, ctx):
        shapes = {}
        for _, family, param, _ in self.INSTANCES:
            if (family, param) not in shapes:
                g = self._build(lib, family, param)
                shapes[(family, param)] = (g.n, g.edges)
        return SimpleNamespace(lib=lib, tracer=tracer, shapes=shapes,
                               rng=_rng(self.name, seed))

    def prepare(self, st):
        pass

    def table_graph(self, st):
        return st.lib.graphs.build_butterfly(self.BUDGET_R)

    @staticmethod
    def _build(lib, family, param):
        if family == "cycle":
            return lib.graphs.build_cycle(param)
        return lib.graphs.build_butterfly(param)

    def round(self, st, index):
        canonical, relabelled = [], []
        for name, family, param, deg2 in self.INSTANCES:
            want = self.expected(family, param, deg2)
            pool = oracle.deg2_vertices(param) if deg2 else None
            canonical.append((name, lambda f=family, p=param: self._build(st.lib, f, p), pool, want))
            n, edges = st.shapes[(family, param)]
            perm = list(range(n))
            st.rng.shuffle(perm)
            redges = [(perm[u], perm[v]) for u, v in edges]
            rpool = sorted(perm[v] for v in pool) if pool is not None else None
            relabelled.append((name, lambda n=n, e=redges: self._custom(st, n, e), rpool, want))
        st.rng.shuffle(canonical)
        st.rng.shuffle(relabelled)
        ops = [self._solve_all(st, "canonical", canonical),
               self._solve_all(st, "relabelled", relabelled), self._budgeted(st)]
        st.rng.shuffle(ops)
        return ops

    @staticmethod
    def _custom(st, n, edges):
        with st.tracer.span("graphs.Graph"):
            return st.lib.graphs.Graph(n, edges)

    def _solve_all(self, st, kind, cases):
        """One pass over the instance list: build, table, and a proven optimum for each."""
        lib = st.lib

        def run():
            out = []
            for _, build, pool, _ in cases:
                g = build()
                dm = lib.geodesy.all_pairs_distances(g)
                out.append((g, lib.genpos.max_general_position(g, dm, pool=pool)))
            return out

        def check(out):
            for (name, _, pool, want), (g, res) in zip(cases, out, strict=True):
                if not res.optimal or res.size != want:
                    return f"{name}: size {res.size} optimal={res.optimal}, expected proven {want}"
                err = self._set_error(lib, g, res, pool)
                if err:
                    return f"{name}: {err}"
            return None
        return Op(f"solve-{kind}", run, check)

    def _budgeted(self, st):
        lib = st.lib
        r = self.BUDGET_R
        lo, hi = oracle.deg2_cap(r), oracle.gp_set_size(r)

        def run():
            g = lib.graphs.build_butterfly(r)
            dm = lib.geodesy.all_pairs_distances(g)
            budget = lib.budget.Budget(node_limit=self.BUDGET_NODES)
            return g, lib.genpos.max_general_position(g, dm, budget=budget)

        def check(out):
            g, res = out
            if not lo <= res.size <= hi or (res.optimal and res.size != hi):
                return f"size {res.size} optimal={res.optimal}, expected {lo}..{hi}"
            return self._set_error(lib, g, res, None)
        return Op(f"solve-bf{r}-budget", run, check)

    @staticmethod
    def _set_error(lib, g, res, pool):
        members = res.best_set.members
        if len(members) != res.size:
            return f"set has {len(members)} members, size says {res.size}"
        if pool is not None and not set(members) <= set(pool):
            return "set leaves the pool"
        bad = oracle.gp_violation(lib.geodesy.bfs_distances, g, members)
        return f"returned set has collinear triple {bad}" if bad else None

    def cleanup(self, st):
        pass


def _one_json(text: str):
    """The single JSON object on stdout; raises ValueError otherwise."""
    body = text.strip()
    doc, end = json.JSONDecoder().raw_decode(body)
    if body[end:].strip() or not isinstance(doc, dict):
        raise ValueError("stdout is not exactly one JSON object")
    return doc


class CliFiles:
    """The bfgp command, one child process at a time, through files at r = 6."""

    name = "cli-files"
    in_process = False
    r = 6
    max_r = 3
    report_r = 5

    def setup(self, lib, tracer, seed, ctx):
        work = os.path.join(ctx.work_root, f"{self.name}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (ctx.src, env.get("PYTHONPATH")) if p)
        return SimpleNamespace(lib=lib, work=work, env=env, rng=_rng(self.name, seed))

    def prepare(self, st):
        lib, r = st.lib, self.r
        st.g = lib.graphs.build_butterfly(r)
        st.members = list(oracle.closed_form_set(r))
        member_set = set(st.members)
        st.nonmembers = [v for v in range(st.g.n) if v not in member_set]
        st.rows = {m: lib.geodesy.bfs_distances(st.g, m) for m in st.members}
        st.g_max = lib.graphs.build_butterfly(self.max_r)

    def table_graph(self, st):
        return st.g

    def path(self, st, name):
        return os.path.join(st.work, name)

    def round(self, st, index):
        r = self.r
        P = lambda name: self.path(st, name)  # noqa: E731
        kind = st.rng.choice(["add", "swap"])
        bad_ids, v = gp_mutation(st.rng, kind, st.members, st.nonmembers, st.g,
                                 st.lib.geodesy.bfs_distances, st.rows)
        with open(P("bad.json"), "w") as f:
            json.dump({"graph_ref": "", "ids": list(bad_ids), "provenance": "user"}, f)
        graph, gpset, cover = P("graph.json"), P("set.json"), P("cover.json")
        blocks = [
            [self._op(st, "gpset-construct", ["gpset", "construct", "--r", str(r), "--out", gpset],
                      0, self._check_construct),
             self._op(st, "gpset-verify", ["gpset", "verify", "--graph", graph, "--set", gpset],
                      0, self._check_verified)],
            [self._op(st, "gpset-verify", ["gpset", "verify", "--graph", graph, "--set", P("bad.json")],
                      1, lambda s, d: self._check_rejected(s, d, v))],
            [self._op(st, "cover-construct", ["cover", "construct", "--r", str(r), "--out", cover],
                      0, self._check_cover_construct),
             self._op(st, "cover-verify", ["cover", "verify", "--graph", graph, "--cover", cover],
                      0, lambda s, d: None if d.get("passes") is True else "cover not verified"),
             self._op(st, "cover-bounds", ["cover", "bounds", "--graph", graph, "--cover", cover],
                      0, self._check_bounds)],
            [self._op(st, "gpset-max", ["gpset", "max", "--r", str(self.max_r)], 0, self._check_max)],
            [self._op(st, "report", ["report", "--r-max", str(self.report_r)], 0, self._check_report)],
        ]
        st.rng.shuffle(blocks)
        first = self._op(st, "generate", ["generate", "butterfly", "--r", str(r), "--out", graph],
                         0, self._check_generate)
        return [first] + [op for block in blocks for op in block]

    def _op(self, st, kind, argv, want_code, check_doc):
        argv = argv + ["--quiet", "--manifest", self.path(st, "manifest.json")]

        def child():
            proc = subprocess.run([sys.executable, "-m", "bfgp", *argv], cwd=st.work,
                                  env=st.env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout

        def inproc():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = st.lib.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, stdout = result
            try:
                doc = _one_json(stdout)
            except ValueError as e:
                return f"{kind}: {e}"
            if code != want_code:
                return f"{kind}: exit {code}, expected {want_code}: {doc.get('error')}"
            return check_doc(st, doc)
        return Op(f"cli-{kind}", child, check, inproc)

    def _check_generate(self, st, doc):
        r = self.r
        if (doc.get("num_vertices"), doc.get("num_edges")) != (oracle.num_vertices(r), oracle.num_edges(r)):
            return f"generate reported {doc.get('num_vertices')} vertices, {doc.get('num_edges')} edges"
        with open(self.path(st, "graph.json")) as f:
            edges = json.load(f)["edges"]
        if sorted(map(tuple, edges)) != list(st.g.edges):
            return "graph file edges differ from BF(r)"
        return None

    def _check_construct(self, st, doc):
        with open(self.path(st, "set.json")) as f:
            ids = json.load(f)["ids"]
        if doc.get("size") != oracle.gp_set_size(self.r) or sorted(ids) != st.members:
            return "constructed set differs from the closed form"
        return None

    @staticmethod
    def _check_verified(st, doc):
        if doc.get("status") != "verified-general-position":
            return f"closed-form set rejected: {doc.get('witness')}"
        return None

    @staticmethod
    def _check_rejected(st, doc, v):
        witness = doc.get("witness") or {}
        if doc.get("status") != "violation":
            return "corrupted set accepted"
        return oracle.witness_error(st.lib.geodesy.bfs_distances, st.g, witness.get("triple"), v)

    def _check_cover_construct(self, st, doc):
        r = self.r
        if (doc.get("cycles"), doc.get("cycle_length"), doc.get("passes")) != (
                oracle.cover_cycles(r), oracle.cycle_length(r), True):
            return f"cover construct reported {doc.get('cycles')} cycles, passes={doc.get('passes')}"
        with open(self.path(st, "cover.json")) as f:
            cycles = [tuple(c) for c in json.load(f)["cycles"]]
        return oracle.cover_partition_error(r, cycles, st.g.edges)

    def _check_bounds(self, st, doc):
        if doc.get("bounds") != {"from_ic": oracle.gp_upper_bound(self.r)}:
            return f"bounds {doc.get('bounds')}"
        return None

    def _check_max(self, st, doc):
        ids = (doc.get("set") or {}).get("ids") or []
        if (doc.get("size"), doc.get("optimal"), len(ids)) != (oracle.GP_BF[self.max_r], True,
                                                               oracle.GP_BF[self.max_r]):
            return f"gpset max gave size {doc.get('size')} optimal={doc.get('optimal')}"
        bad = oracle.gp_violation(st.lib.geodesy.bfs_distances, st.g_max, ids)
        return f"gpset max set has collinear triple {bad}" if bad else None

    def _check_report(self, st, doc):
        rows = doc.get("rows") or []
        want_rs = list(range(2, self.report_r + 1))
        if [row.get("r") for row in rows] != want_rs:
            return f"report rows for r={[row.get('r') for row in rows]}"
        for row in rows:
            r = row["r"]
            exact = oracle.GP_BF.get(r)
            want = {"set_size": oracle.gp_set_size(r), "set_verified": True,
                    "cover_cycles": oracle.cover_cycles(r), "cover_verified": True,
                    "gp_upper_bound": oracle.gp_upper_bound(r), "gp_exact": exact,
                    "exact_optimal": None if exact is None else True}
            got = {k: row.get(k) for k in want}
            if got != want:
                return f"report row r={r}: {got}"
        return None

    def cleanup(self, st):
        shutil.rmtree(st.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CertifyBf7(), ScreenBf8(), ExactSmall(), CliFiles())}
