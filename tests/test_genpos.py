import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfgp.budget import Budget
from bfgp import genpos
from bfgp.errors import GraphParseError, InvalidParameterError, NotConnectedError, TooLargeError
from bfgp.genpos import (
    PROVENANCE_CONSTRUCTION,
    VERIFIED,
    VIOLATION,
    VertexSet,
    brute_force_max_gp,
    collinear_triples,
    construct_butterfly_gp_set,
    greedy_gp_lower_bound,
    max_general_position,
    verify_general_position,
    vertex_set_from_dict,
    vertex_set_to_dict,
    witness_to_dict,
)
from bfgp.geodesy import (
    all_pairs_distances,
    iter_collinear,
    row_xor_stabilizer,
)
from bfgp.graphs import Graph, build_butterfly, build_cycle, build_path
from corpus import (
    connected,
    list_scan_branch_and_bound,
    named_corpus,
    oracle_collinear,
    random_connected_graph,
)


def test_small_sets_are_vacuously_verified():
    g = build_path(5)
    dm = all_pairs_distances(g)
    assert verify_general_position(g, dm, VertexSet(())).ok
    assert verify_general_position(g, dm, VertexSet((0, 4))).ok


def test_consecutive_path_triple_violates():
    g = build_path(5)
    dm = all_pairs_distances(g)
    w = verify_general_position(g, dm, VertexSet((1, 2, 3)))
    assert w.status == VIOLATION
    assert w.triple == (1, 2, 3)
    assert w.middle == 2


def test_first_violation_is_lexicographic():
    g = build_path(5)
    dm = all_pairs_distances(g)
    w = verify_general_position(g, dm, VertexSet((0, 1, 2, 3)))
    assert w.triple == (0, 1, 2)
    assert w.middle == 1


def test_verify_rejects_bad_sets():
    g = build_path(3)
    dm = all_pairs_distances(g)
    with pytest.raises(InvalidParameterError):
        verify_general_position(g, dm, VertexSet((0, 9)))
    disc = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        verify_general_position(disc, all_pairs_distances(disc), VertexSet((0, 2, 3)))
    # the first unreachable pair in combinations order is named
    with pytest.raises(NotConnectedError, match="members 0 and 2 "):
        verify_general_position(disc, all_pairs_distances(disc), VertexSet((3, 1, 0, 2)))


def test_constructed_set_r2_golden():
    s = construct_butterfly_gp_set(2)
    assert s.members == (1, 3, 4, 10, 11)
    assert s.provenance == PROVENANCE_CONSTRUCTION


def test_constructed_set_r3_golden():
    s = construct_butterfly_gp_set(3)
    assert s.members == (1, 3, 5, 7, 8, 10, 28, 29, 30, 31)


@pytest.mark.parametrize("r", range(2, 9))
def test_constructed_set_size_formula(r):
    s = construct_butterfly_gp_set(r)
    assert len(s) == 2 ** r + 2 ** (r - 2)
    nrows = 1 << r
    level0 = [v for v in s.members if v < nrows]
    level1 = [v for v in s.members if nrows <= v < 2 * nrows]
    levelr = [v for v in s.members if v >= r * nrows]
    assert len(level0) == 2 ** (r - 1)
    assert len(levelr) == 2 ** (r - 1)
    assert len(level1) == 2 ** (r - 2)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_constructed_set_verifies(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    s = construct_butterfly_gp_set(r)
    assert verify_general_position(g, dm, s).status == VERIFIED


def test_constructed_set_needs_r2():
    with pytest.raises(InvalidParameterError):
        construct_butterfly_gp_set(1)


BUTTERFLIES = {r: (g, all_pairs_distances(g)) for r in range(2, 8) for g in (build_butterfly(r),)}


@st.composite
def mutated_closed_form_sets(draw):
    """(r, set, whole): BF(r)'s closed-form set, or one orbit of its group, after a few edits.

    The group is the set's row-XOR stabilizer.  When whole, every edit
    adds or drops a whole orbit of the current set's group, which so
    stays non-trivial; otherwise an edit adds, swaps or XOR-moves one
    member.
    """
    whole = draw(st.booleans(), label="whole orbits")
    # H is trivial on BF(2)'s closed-form set and 2^(r-2) strong above it
    r = draw(st.integers(3 if whole else 2, 7), label="r")
    g, dm = BUTTERFLIES[r]
    members = set(construct_butterfly_gp_set(r).members)
    vertex = st.integers(0, g.n - 1)
    if draw(st.booleans(), label="one orbit"):
        v = draw(vertex)
        members = {v ^ c for c in row_xor_stabilizer(dm, members)}
    for _ in range(draw(st.integers(1, 3), label="edits")):
        if whole:
            v = draw(vertex)
            orbit = {v ^ c for c in row_xor_stabilizer(dm, members)}
            members = members - orbit if draw(st.booleans()) else members | orbit
            continue
        edit = draw(st.sampled_from(["add", "swap", "xor"]))
        old = draw(st.sampled_from(sorted(members)))
        if edit == "add":
            members.add(draw(vertex))
        elif edit == "swap":
            members = members - {old} | {draw(vertex)}
        else:
            members = members - {old} | {old ^ draw(st.integers(1, (1 << r) - 1))}
    return r, tuple(sorted(members)), whole


@settings(deadline=None, max_examples=120)
@given(mutated_closed_form_sets())
def test_reduced_and_full_scans_agree(case):
    r, members, whole = case
    g, dm = BUTTERFLIES[r]
    if whole and len(members) >= 3:
        assert len(row_xor_stabilizer(dm, members)) > 1
    w = verify_general_position(g, dm, VertexSet(members))
    first = next(iter_collinear(dm, members), None)
    assert w.ok == (first is None)
    assert w.triple == first
    if first is not None:
        x, y, z = first
        others = {x: (y, z), y: (x, z), z: (x, y)}[w.middle]
        assert dm.dist(*others) == dm.dist(others[0], w.middle) + dm.dist(w.middle, others[1])


@pytest.mark.parametrize("n", range(5, 13))
def test_cycle_gp_is_three(n):
    g = build_cycle(n)
    dm = all_pairs_distances(g)
    res = max_general_position(g, dm)
    assert res.size == 3
    assert res.optimal


def test_triangle_has_no_collinear_triples():
    g = build_cycle(3)
    dm = all_pairs_distances(g)
    assert collinear_triples(dm, range(3)) == []
    res = max_general_position(g, dm)
    assert res.size == 3


def test_collinear_triples_match_path_oracle():
    for name, g in named_corpus():
        dm = all_pairs_distances(g)
        expected = [t for t in combinations(range(g.n), 3) if oracle_collinear(g, *t)]
        assert collinear_triples(dm, range(g.n)) == expected, name


def test_bf2_exact(bf2):
    g, dm = bf2
    res = max_general_position(g, dm)
    assert res.size == 5
    assert res.optimal
    assert res.best_set.members == (1, 3, 4, 10, 11)
    assert verify_general_position(g, dm, res.best_set).ok


def test_bf2_pool_restricted(bf2):
    g, dm = bf2
    pool = [v for v in range(g.n) if g.degree(v) == 2]
    res = max_general_position(g, dm, pool=pool)
    assert res.optimal
    assert res.size == 4    # 2^r with r=2
    assert set(res.best_set.members) <= set(pool)


def test_bf3_pool_restricted(bf3):
    g, dm = bf3
    pool = [v for v in range(g.n) if g.degree(v) == 2]
    res = max_general_position(g, dm, pool=pool)
    assert res.optimal
    assert res.size == 8    # 2^r with r=3
    assert res.size <= 2 ** 3


def test_solver_errors(bf2):
    g, dm = bf2
    with pytest.raises(InvalidParameterError):
        max_general_position(Graph(0, []), dm)
    with pytest.raises(InvalidParameterError):
        max_general_position(g, dm, pool=[0, 99])
    disc = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        max_general_position(disc, all_pairs_distances(disc))
    # only the pool must be mutually reachable, not the whole graph
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert max_general_position(two_paths, all_pairs_distances(two_paths),
                                pool=[0, 1, 2]).size == 2


# a bool or float would pass a positivity check alone and be read as a node
# count; "5" and None must not escape as a bare TypeError
@pytest.mark.parametrize("node_limit", [0, -1, True, False, 1.5, 5.0, "5", None])
def test_budget_refuses_a_node_limit_that_is_not_a_positive_int(node_limit):
    with pytest.raises(InvalidParameterError):
        Budget(node_limit=node_limit)


def test_budget_exhaustion_returns_best_found(bf3):
    g, dm = bf3
    res = max_general_position(g, dm, budget=Budget(node_limit=1))
    assert not res.optimal
    assert res.size >= 1
    assert verify_general_position(g, dm, res.best_set).ok
    # deterministic under the same node budget
    res2 = max_general_position(g, dm, budget=Budget(node_limit=1))
    assert res2.best_set.members == res.best_set.members
    assert res2.nodes_explored == res.nodes_explored


def _deg2(g):
    return [v for v in range(g.n) if g.degree(v) == 2]


# (graph, pool, node limit) -> (size, optimal, nodes_explored, members); the node
# counts pin the search tree itself, not only the optimum it reaches
SEARCH_PINS = {
    "BF(3)": ((build_butterfly(3), None, None),
              (10, True, 647, (1, 3, 5, 7, 8, 10, 28, 29, 30, 31))),
    "BF(3) deg2": ((build_butterfly(3), _deg2, None),
                   (8, True, 49, (0, 1, 2, 3, 4, 5, 6, 7))),
    "BF(4) 300 nodes": ((build_butterfly(4), None, 300),
                        (16, False, 301, tuple(range(16)))),
    # the two searches the exact-small benchmark times
    "BF(4) deg2": ((build_butterfly(4), _deg2, None),
                   (16, True, 1169, tuple(range(16)))),
    "BF(4) 1500 nodes": ((build_butterfly(4), None, 1500),
                         (19, False, 1501, (2, 4, 6, 10, 12, 14, 16, 17, 19, 21, 23,
                                            72, 73, 74, 75, 76, 77, 78, 79))),
    "C_30": ((build_cycle(30), None, None), (3, True, 1505, (0, 3, 17))),
    "P_30": ((build_path(30), None, None), (2, True, 811, (0, 29))),
}


def _solve_pinned(name):
    (g, pool, nodes), _ = SEARCH_PINS[name]
    res = max_general_position(g, all_pairs_distances(g), pool=pool(g) if pool else None,
                               budget=Budget(nodes) if nodes else None)
    return res.size, res.optimal, res.nodes_explored, res.best_set.members


@pytest.mark.parametrize("name", list(SEARCH_PINS))
def test_search_tree_is_pinned(name):
    assert _solve_pinned(name) == SEARCH_PINS[name][1]


@pytest.mark.parametrize("name", ["C_30", "P_30"])
def test_search_depth_is_not_bounded_by_recursion_limit(name):
    # the search tree is about as deep as the pool is large; 20 frames cover only
    # the calls around the search, so one frame per tree level would not fit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        got = _solve_pinned(name)
    finally:
        sys.setrecursionlimit(limit)
    assert got == SEARCH_PINS[name][1]


def _both_kernels(g, pool, node_limit):
    dm = all_pairs_distances(g)
    pool_ids = tuple(sorted(pool))
    args = (pool_ids, collinear_triples(dm, pool_ids),
            greedy_gp_lower_bound(g, dm, pool=pool_ids).members, node_limit)
    return genpos._branch_and_bound(*args), list_scan_branch_and_bound(*args)


NODE_LIMITS = [1, 5, 50, Budget().node_limit]


@settings(deadline=None, max_examples=150)
@given(st.integers(3, 14), st.floats(0.15, 0.7), st.integers(0, 10_000),
       st.sampled_from(NODE_LIMITS), st.data())
def test_bitset_kernel_walks_the_list_scan_tree(n, p, seed, node_limit, data):
    g = random_connected_graph(n, p, seed)
    pool = data.draw(st.sets(st.integers(0, n - 1)), label="pool")
    bitset, list_scan = _both_kernels(g, pool, node_limit)
    # (members, nodes, stopped): the same incumbent after the same nodes
    assert bitset == list_scan


@pytest.mark.parametrize("seed", range(5))
def test_bitset_kernel_walks_the_list_scan_tree_on_relabelled_bf3(seed):
    bf3 = build_butterfly(3)
    perm = list(range(bf3.n))
    random.Random(seed).shuffle(perm)
    g = Graph(bf3.n, [(perm[u], perm[v]) for u, v in bf3.edges])
    for pool, node_limit in ((range(g.n), NODE_LIMITS[-1]), (range(g.n), 50),
                             ([perm[v] for v in _deg2(bf3)], NODE_LIMITS[-1])):
        bitset, list_scan = _both_kernels(g, pool, node_limit)
        assert bitset == list_scan, (seed, node_limit)


def test_triple_ceiling_is_exact(bf2, monkeypatch):
    g, dm = bf2
    count = len(collinear_triples(dm, range(g.n)))
    monkeypatch.setattr(genpos, "MAX_SEARCH_TRIPLES", count)
    assert len(collinear_triples(dm, range(g.n))) == count
    assert max_general_position(g, dm).size == 5
    monkeypatch.setattr(genpos, "MAX_SEARCH_TRIPLES", count - 1)
    with pytest.raises(TooLargeError):
        collinear_triples(dm, range(g.n))
    with pytest.raises(TooLargeError):
        max_general_position(g, dm)


def test_solver_matches_brute_force_on_sample():
    sample = [g for _, g in named_corpus(max_n=8)][:12]
    for g in sample:
        dm = all_pairs_distances(g)
        if not connected(g):
            continue
        expect, _ = brute_force_max_gp(g, dm)
        res = max_general_position(g, dm)
        assert res.optimal
        assert res.size == expect, g


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_solver_matches_brute_force_random(seed):
    g = random_connected_graph(7, 0.4, seed)
    dm = all_pairs_distances(g)
    expect, _ = brute_force_max_gp(g, dm)
    res = max_general_position(g, dm)
    assert res.optimal
    assert res.size == expect


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.sets(st.integers(0, 6), min_size=1))
def test_pool_monotonicity(seed, sub):
    g = random_connected_graph(7, 0.5, seed)
    dm = all_pairs_distances(g)
    small = max_general_position(g, dm, pool=sorted(sub)).size
    full = max_general_position(g, dm).size
    assert small <= full


def test_greedy_p2_takes_both():
    g = build_path(2)
    dm = all_pairs_distances(g)
    assert greedy_gp_lower_bound(g, dm).members == (0, 1)


def test_greedy_rejects_disconnected_graph():
    disc = Graph(4, [(0, 1), (2, 3)])
    dm = all_pairs_distances(disc)
    with pytest.raises(NotConnectedError):
        greedy_gp_lower_bound(disc, dm)
    with pytest.raises(NotConnectedError):
        greedy_gp_lower_bound(disc, dm, pool=[0, 1, 2])
    # two vertices form no triple, so nothing is tested
    assert greedy_gp_lower_bound(disc, dm, pool=[0, 2]).members == (0, 2)


def test_greedy_rejects_repeated_pool_ids(bf2):
    g, dm = bf2
    with pytest.raises(InvalidParameterError):
        greedy_gp_lower_bound(g, dm, pool=[0, 1, 1])


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_greedy_matches_pairwise_scan(seed):
    g = random_connected_graph(9, 0.4, seed)
    dm = all_pairs_distances(g)
    chosen = []
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        if not any(oracle_collinear(g, a, b, v) for a, b in combinations(chosen, 2)):
            chosen.append(v)
    assert greedy_gp_lower_bound(g, dm).members == tuple(sorted(chosen))


def _greedy_by_full_scan(g, dm, pool):
    # the rule the greedy replaced: scan every triple of [v, *chosen]
    chosen = []
    for v in sorted(pool, key=lambda v: (g.degree(v), v)):
        if next(iter_collinear(dm, [v, *chosen]), None) is None:
            chosen.append(v)
    return tuple(sorted(chosen))


@pytest.mark.parametrize("name,g", [(f"BF({r})", build_butterfly(r)) for r in range(2, 6)]
                         + named_corpus())
def test_greedy_matches_the_full_scan_rule(name, g):
    dm = all_pairs_distances(g)
    for pool in (range(g.n), _deg2(g)):
        expected = _greedy_by_full_scan(g, dm, pool)
        assert greedy_gp_lower_bound(g, dm, pool=list(pool)).members == expected, name


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_greedy_is_verified_and_below_optimum(seed):
    g = random_connected_graph(7, 0.45, seed)
    dm = all_pairs_distances(g)
    s = greedy_gp_lower_bound(g, dm)
    assert verify_general_position(g, dm, s).ok
    assert len(s) <= max_general_position(g, dm).size


def test_vertex_set_json_round_trip():
    s = construct_butterfly_gp_set(2)
    doc = vertex_set_to_dict(s)
    assert doc["ids"] == [1, 3, 4, 10, 11]
    back = vertex_set_from_dict(doc)
    assert back.members == s.members
    assert back.provenance == s.provenance


def test_vertex_set_graph_ref_must_be_a_string():
    for ref in ([1, 2], None, 5):
        with pytest.raises(GraphParseError, match="'graph_ref' must be a string"):
            vertex_set_from_dict({"ids": [0], "graph_ref": ref})
    assert vertex_set_from_dict({"ids": [0]}).graph_ref == ""


def test_witness_json_shape(bf2):
    g, dm = bf2
    w = verify_general_position(g, dm, VertexSet((0, 4, 8)))
    doc = witness_to_dict(w)
    assert doc["status"] == VIOLATION
    assert doc["triple"] == [0, 4, 8]
    assert doc["middle"] == 4
