"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines inline).  Every tolerance is exact integer equality or an exact
integer comparison; nothing here is calibrated after the fact.
"""

import json
from itertools import combinations

import numpy as np

from bfgp.cli import main as cli_main
from bfgp.cycle_cover import (
    KIND_CYCLE,
    CycleCover,
    construct_bf_cycle_cover,
    gp_upper_bounds,
    verify_cover,
)
from bfgp.errors import InvalidCoverError
from bfgp.genpos import (
    brute_force_max_gp,
    construct_butterfly_gp_set,
    max_general_position,
    verify_general_position,
)
from bfgp.geodesy import all_pairs_distances, lies_between
from bfgp.graphs import build_butterfly, build_cycle, build_path
from corpus import (
    connected,
    isometric_cycles,
    min_cover,
    named_corpus,
    on_some_geodesic,
    random_corpus,
)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def cli_json(capsys, *argv):
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_exact_gp_small_r(capsys):
    # gp(BF(2)) = 5 and gp(BF(3)) = 10, proven optimal by the solver
    code2, doc2 = cli_json(capsys, "gpset", "max", "--r", "2", "--quiet")
    code3, doc3 = cli_json(capsys, "gpset", "max", "--r", "3", "--quiet")
    ok = (code2 == 0 and doc2["size"] == 5 and doc2["optimal"]
          and code3 == 0 and doc3["size"] == 10 and doc3["optimal"])
    verdict(1, ok, f"gpset max: BF(2) -> {doc2['size']} (optimal={doc2['optimal']}), "
                   f"BF(3) -> {doc3['size']} (optimal={doc3['optimal']})")


def test_criterion_2_constructed_sets_r2_to_r8():
    sizes = {}
    for r in range(2, 9):
        g = build_butterfly(r)
        dm = all_pairs_distances(g)
        s = construct_butterfly_gp_set(r)
        expected = 2 ** r + 2 ** (r - 2)
        assert len(s) == expected, (r, len(s))
        assert verify_general_position(g, dm, s).ok, r
        sizes[r] = len(s)
    verdict(2, True, f"constructed sets verified, sizes {sizes}")


def test_criterion_3_cycle_covers_r2_to_r6():
    outcomes = {}
    for r in range(2, 7):
        cover = construct_bf_cycle_cover(r)
        g = build_butterfly(r)
        dm = all_pairs_distances(g)
        report = verify_cover(g, dm, cover)
        assert report.passes, (r, report.first_failure)
        assert len(cover) == 2 ** (r - 1)
        assert all(len(c) == 4 * r for c in cover.cycles)
        outcomes[r] = f"{len(cover)}x{4 * r}"
    verdict(3, True, f"covers verified for every r, {outcomes}")


def test_criterion_4_bound_sandwich(bf2, bf3):
    results = {}
    for r, (g, dm) in ((2, bf2), (3, bf3)):
        cover = construct_bf_cycle_cover(r)
        report = verify_cover(g, dm, cover)
        bound = gp_upper_bounds(cover, report)["from_ic"]
        exact = max_general_position(g, dm)
        assert exact.optimal
        assert bound == 3 * 2 ** (r - 1)
        assert bound >= exact.size, (r, bound, exact.size)
        results[r] = (bound, exact.size)
    verdict(4, True, f"3*2^(r-1) >= gp: {results}")


def test_criterion_5_deg2_pool(capsys):
    code2, doc2 = cli_json(capsys, "gpset", "max", "--r", "2", "--pool", "deg2", "--quiet")
    code3, doc3 = cli_json(capsys, "gpset", "max", "--r", "3", "--pool", "deg2", "--quiet")
    ok = (code2 == 0 and doc2["optimal"] and doc2["size"] <= 4
          and code3 == 0 and doc3["optimal"] and doc3["size"] <= 8)
    verdict(5, ok, f"deg2 pool: BF(2) -> {doc2['size']} <= 4, BF(3) -> {doc3['size']} <= 8")


def test_criterion_6_cycle_calibration():
    for n in range(5, 13):
        g = build_cycle(n)
        dm = all_pairs_distances(g)
        res = max_general_position(g, dm)
        assert res.optimal and res.size == 3, (n, res.size)
        assert min_cover(g.n, isometric_cycles(g)) == 1, n
    verdict(6, True, "gp(C_n) = 3 and ic(C_n) = 1 for n = 5..12")


def test_criterion_7a_solver_equals_brute_force():
    corpus = named_corpus(max_n=9) + random_corpus(100, seed=20240, max_n=9)
    checked = 0
    for name, g in corpus:
        if not connected(g):
            continue
        dm = all_pairs_distances(g)
        expect, _ = brute_force_max_gp(g, dm)
        res = max_general_position(g, dm)
        assert res.optimal, name
        assert res.size == expect, (name, res.size, expect)
        assert verify_general_position(g, dm, res.best_set).ok, name
        checked += 1
    verdict(7, True, f"(a) solver == 2^n enumeration on {checked} graphs")


def test_criterion_7b_lies_between_equals_enumeration():
    corpus = named_corpus(max_n=10) + [("BF2", build_butterfly(2))]
    checked = 0
    for name, g in corpus:
        if not connected(g):
            continue
        dm = all_pairs_distances(g)
        for x, y, z in combinations(range(g.n), 3):
            for mid, (a, b) in ((x, (y, z)), (y, (x, z)), (z, (x, y))):
                assert lies_between(dm, a, mid, b) == on_some_geodesic(g, a, mid, b), \
                    (name, a, mid, b)
                checked += 1
    verdict(7, True, f"(b) lies_between == geodesic enumeration on {checked} triples")


def test_criterion_7c_metric_axioms_up_to_200():
    graphs = [g for _, g in named_corpus()]
    graphs += [build_butterfly(r) for r in range(2, 6)]        # BF(5) has 192 vertices
    graphs += [build_cycle(50), build_cycle(200), build_path(100), build_path(200)]
    for g in graphs:
        assert g.n <= 200
        dm = all_pairs_distances(g)
        d = np.array([[dm.dist(u, v) for v in range(g.n)] for u in range(g.n)],
                     dtype=np.int32)
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = True
        assert ((d == 1) == adj).all()
        reach = d >= 0
        for k in range(g.n):    # triangle inequality over reachable triples
            via = d[:, k][:, None] + d[k, :][None, :]
            mask = reach[:, k][:, None] & reach[k, :][None, :] & reach
            assert (d[mask] <= via[mask]).all()
    verdict(7, True, f"(c) metric axioms on {len(graphs)} graphs up to 200 vertices")


def test_criterion_7d_mutation_kill(bf2, bf3):
    killed = tried = 0
    for r, (g, dm) in ((2, bf2), (3, bf3)):
        base = construct_bf_cycle_cover(r)
        assert verify_cover(g, dm, base).passes
        for ci, seq in enumerate(base.cycles):
            for pos in range(len(seq)):
                for replacement in range(0, g.n, 3 if r == 3 else 1):
                    if replacement == seq[pos]:
                        continue
                    cycles = list(base.cycles)
                    mutated = list(seq)
                    mutated[pos] = replacement
                    cycles[ci] = tuple(mutated)
                    tried += 1
                    try:
                        report = verify_cover(g, dm, CycleCover(
                            kind=KIND_CYCLE, cycles=tuple(cycles)))
                    except InvalidCoverError:
                        killed += 1
                        continue
                    if not report.passes:
                        killed += 1
    verdict(7, killed == tried, f"(d) {killed}/{tried} single-vertex mutations killed")
