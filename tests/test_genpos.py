import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfgp.budget import Budget
from bfgp import genpos, geodesy
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
)
from bfgp.geodesy import (
    all_pairs_distances,
    checked_members,
    false_twin_firsts,
    iter_collinear,
    row_xor_stabilizer,
)
from bfgp.graph_io import vertex_set_from_dict, vertex_set_to_dict, witness_to_dict
from bfgp.graphs import Graph, build_butterfly, build_cycle, build_path
from corpus import (
    _star,
    connected,
    level_xor_permutations,
    list_scan_branch_and_bound,
    named_corpus,
    oracle_collinear,
    random_connected_graph,
    reference_search_tables,
    twin_classes,
    whole_level_pools,
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


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# (graph, pool, node limit) -> (size, optimal, nodes_explored, members); the node
# counts pin the search tree itself, not only the optimum it reaches
SEARCH_PINS = {
    "BF(3)": ((build_butterfly(3), None, None),
              (10, True, 81, (1, 3, 5, 7, 8, 10, 28, 29, 30, 31))),
    "BF(3) deg2": ((build_butterfly(3), _deg2, None),
                   (8, True, 7, (0, 1, 2, 3, 4, 5, 6, 7))),
    "BF(4) 300 nodes": ((build_butterfly(4), None, 300),
                        (19, False, 301, (2, 4, 6, 10, 12, 14, 16, 17, 19, 21, 23,
                                          72, 73, 74, 75, 76, 77, 78, 79))),
    # the two searches the exact-small benchmark times
    "BF(4) deg2": ((build_butterfly(4), _deg2, None),
                   (16, True, 11, tuple(range(16)))),
    "BF(4) 1500 nodes": ((build_butterfly(4), None, 1500),
                         (20, True, 937, (1, 3, 5, 7, 9, 11, 13, 15, 16, 18, 20, 22,
                                          72, 73, 74, 75, 76, 77, 78, 79))),
    # the relabelled trees exact-small times (a relabelling keeps degrees, so
    # the deg-2 pool is the image of BF(4)'s)
    "BF(3) relabelled 0": ((_relabelled(build_butterfly(3), 0), None, None),
                           (10, True, 359, (0, 1, 3, 8, 12, 15, 16, 19, 29, 30))),
    "BF(3) relabelled 1": ((_relabelled(build_butterfly(3), 1), None, None),
                           (10, True, 327, (1, 2, 3, 4, 10, 14, 17, 20, 24, 31))),
    "BF(3) relabelled 2": ((_relabelled(build_butterfly(3), 2), None, None),
                           (10, True, 309, (0, 2, 3, 7, 11, 16, 17, 18, 29, 30))),
    "BF(4) relabelled 0 deg2": ((_relabelled(build_butterfly(4), 0), _deg2, None),
                                (16, True, 47, (1, 5, 24, 33, 37, 38, 42, 49, 51, 53,
                                                56, 62, 65, 66, 68, 75))),
    "BF(4) relabelled 1 deg2": ((_relabelled(build_butterfly(4), 1), _deg2, None),
                                (16, True, 43, (0, 2, 3, 4, 7, 12, 19, 26, 30, 48, 49,
                                                55, 62, 69, 75, 77))),
    "BF(4) relabelled 2 deg2": ((_relabelled(build_butterfly(4), 2), _deg2, None),
                                (16, True, 101, (0, 3, 6, 9, 13, 17, 18, 25, 30, 36, 37,
                                                 38, 52, 61, 66, 71))),
    # 557,089 nodes with no generators, 20,793 with the twin swaps alone
    "BF(5) deg2": ((build_butterfly(5), _deg2, None),
                   (32, True, 19, tuple(range(32)))),
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


def _greedy(g, dm, pool=None):
    # the warm start as the search builds it: the checked pool and its pair table
    pool_ids = checked_members(dm, range(g.n) if pool is None else pool, "pool members")
    return greedy_gp_lower_bound(g, pool_ids, genpos._search_tables(dm, pool_ids)[1])


def _both_kernels(g, pool, node_limit):
    dm = all_pairs_distances(g)
    pool_ids = tuple(sorted(pool))
    warm = _greedy(g, dm, pool_ids).members
    bitset = genpos._branch_and_bound(pool_ids, genpos._search_tables(dm, pool_ids), warm,
                                      node_limit, geodesy.pool_automorphisms(g, pool_ids))
    list_scan = list_scan_branch_and_bound(pool_ids, collinear_triples(dm, pool_ids),
                                           twin_classes(g), level_xor_permutations(g, pool_ids),
                                           warm, node_limit)
    return bitset, list_scan


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


# a cycle is vertex-transitive, so every vertex ties at the root and the
# smallest-id rule picks each branch vertex; relabelling moves which id that is
@pytest.mark.parametrize("n, seed", [(n, None) for n in range(5, 17)] + [(12, 0), (12, 1)])
def test_bitset_kernel_walks_the_list_scan_tree_when_every_count_ties(n, seed):
    g = build_cycle(n) if seed is None else _relabelled(build_cycle(n), seed)
    for node_limit in NODE_LIMITS:
        bitset, list_scan = _both_kernels(g, range(g.n), node_limit)
        assert bitset == list_scan, node_limit


def _planted_twin_graph(seed):
    """(g, pool): a seeded random graph with planted false-twin classes of 2 to 4 members.

    Each planted class copies one vertex's neighbourhood one to three
    times, and a shuffle spreads its ids.  Odd seeds draw a pool that
    may hold only some of a class.
    """
    rng = random.Random(seed)
    base = random_connected_graph(rng.randint(5, 10), rng.choice([0.2, 0.3, 0.5]), seed)
    adj = [set(a) for a in base.adj]
    for v in rng.sample(range(base.n), rng.randint(1, 3)):
        for _ in range(rng.randint(1, 3)):
            adj.append(set(adj[v]))
            for w in adj[v]:
                adj[w].add(len(adj) - 1)
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    g = Graph(len(adj), [(perm[u], perm[v]) for u in range(len(adj)) for v in adj[u] if u < v])
    pool = range(g.n) if seed % 2 == 0 else rng.sample(range(g.n), rng.randint(g.n // 2, g.n))
    return g, pool


@pytest.mark.parametrize("seed", range(40))
def test_bitset_kernel_walks_the_list_scan_tree_on_planted_twin_classes(seed):
    # the search's twin swaps and the reference's own twin cut: one tree
    g, pool = _planted_twin_graph(seed)
    assert twin_classes(g)
    for node_limit in NODE_LIMITS:
        bitset, list_scan = _both_kernels(g, pool, node_limit)
        assert bitset == list_scan, node_limit


@pytest.mark.parametrize("r", [2, 3])
def test_bitset_kernel_walks_the_list_scan_tree_on_whole_level_pools(r):
    # the pools that get generators: both kernels branch over the same orbits
    g = build_butterfly(r)
    for pool in whole_level_pools(r):
        assert level_xor_permutations(g, pool)
        for node_limit in NODE_LIMITS:
            bitset, list_scan = _both_kernels(g, pool, node_limit)
            assert bitset == list_scan, (pool, node_limit)


@pytest.mark.parametrize("levels", [(0,), (2,), (0, 4), (0, 1), (1, 2, 3)])
def test_bitset_kernel_walks_the_list_scan_tree_on_bf4_levels(levels):
    g = build_butterfly(4)
    pool = [v for v in range(g.n) if v >> 4 in levels]
    for node_limit in NODE_LIMITS:
        bitset, list_scan = _both_kernels(g, pool, node_limit)
        assert bitset == list_scan, node_limit


@pytest.mark.parametrize("r", [2, 3, 4])
def test_orbits_keep_the_optimum_on_every_whole_level_pool(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    for pool in whole_level_pools(r):
        tables = genpos._search_tables(dm, pool)
        gens = geodesy.pool_automorphisms(g, pool)
        # more generators than twin swaps: the level XORs are among them
        assert len(gens) > sum(f != i for i, f in enumerate(false_twin_firsts(g, pool)))
        # no warm start, so the search alone finds the optimum; the plain side
        # breaks no symmetry at all
        members, _, stopped = genpos._branch_and_bound(pool, tables, (), 10 ** 6, gens)
        plain, _, plain_stopped = genpos._branch_and_bound(pool, tables, (), 10 ** 6, ())
        assert not stopped and not plain_stopped
        assert len(members) == len(plain), pool
        assert set(members) <= set(pool)
        assert verify_general_position(g, dm, VertexSet(members)).ok
        if len(pool) <= 20:
            assert len(members) == brute_force_max_gp(g, dm, pool=pool)[0], pool


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


@pytest.mark.parametrize("g, pool", [
    (build_butterfly(3), range(32)),
    (build_butterfly(4), _deg2(build_butterfly(4))),
    (_relabelled(build_butterfly(3), 0), range(32)),
    (build_cycle(3), range(3)),
], ids=["BF(3)", "BF(4) deg2", "BF(3) relabelled", "C_3"])
def test_one_pass_tables_equal_the_listed_triples(g, pool):
    dm = all_pairs_distances(g)
    pool = tuple(pool)
    triples = collinear_triples(dm, pool)
    assert genpos._search_tables(dm, pool) == (
        *reference_search_tables(pool, triples), len(triples) - 1)


# each side of a complete bipartite graph is one false-twin class
TWIN_GRAPHS = {
    "K_{1,4}": Graph(5, [(0, i) for i in range(1, 5)]),
    "K_{2,3}": Graph(5, [(i, j) for i in range(2) for j in range(2, 5)]),
    "K_{3,3}": Graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
}


@pytest.mark.parametrize("name", list(TWIN_GRAPHS))
def test_twin_cut_matches_brute_force_on_every_pool(name):
    g = TWIN_GRAPHS[name]
    dm = all_pairs_distances(g)
    assert max(map(len, twin_classes(g))) >= 3
    for size in range(1, g.n + 1):
        for pool in combinations(range(g.n), size):
            expect = brute_force_max_gp(g, dm, pool=pool)[0]
            res = max_general_position(g, dm, pool=pool)
            assert res.optimal
            assert res.size == expect, pool
            assert set(res.best_set.members) <= set(pool)
            assert verify_general_position(g, dm, res.best_set).ok
            # the greedy warm start is often optimal here: the search alone must be too
            members, _, stopped = genpos._branch_and_bound(
                pool, genpos._search_tables(dm, pool), (), Budget().node_limit,
                geodesy.pool_automorphisms(g, pool))
            assert not stopped
            assert len(members) == expect, pool
            assert verify_general_position(g, dm, VertexSet(members)).ok


@pytest.mark.parametrize("name,g", [(f"BF({r})", build_butterfly(r)) for r in range(2, 5)]
                         + [("BF(3) relabelled", _relabelled(build_butterfly(3), 0))]
                         + named_corpus() + list(TWIN_GRAPHS.items()))
def test_twin_later_follows_the_twin_classes(name, g):
    # the search builds its twin swaps from these positions
    pool = tuple(v for v in range(g.n) if v % 3)  # drops one twin of some classes
    index = {v: i for i, v in enumerate(pool)}
    expected = list(range(len(pool)))
    for cls in twin_classes(g):
        held = [index[v] for v in cls if v in index]
        for i in held:
            expected[i] = held[0]
    assert false_twin_firsts(g, pool) == expected, name


def test_bf3_deg2_pool_matches_brute_force(bf3):
    g, dm = bf3
    pool = _deg2(g)
    assert len(pool) == 16
    res = max_general_position(g, dm, pool=pool)
    assert res.optimal
    assert res.size == brute_force_max_gp(g, dm, pool=pool)[0] == 8


@settings(deadline=None, max_examples=30)
@given(st.sets(st.integers(0, 31), max_size=12))
def test_solver_matches_brute_force_on_bf3_pools(pool):
    # a drawn pool often holds one twin of a level-0 or level-3 pair, not both
    g, dm = BUTTERFLIES[3]
    res = max_general_position(g, dm, pool=pool)
    assert res.optimal
    assert res.size == brute_force_max_gp(g, dm, pool=pool)[0]


def test_brute_force_refuses_more_than_20_pool_vertices():
    g = build_butterfly(3)
    with pytest.raises(InvalidParameterError, match="limited to 20 pool vertices, got 21"):
        brute_force_max_gp(g, all_pairs_distances(g), pool=range(21))


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
@given(st.integers(0, 10_000), st.sets(st.integers(0, 6), min_size=1))
def test_solver_matches_brute_force_random(seed, pool):
    g = random_connected_graph(7, 0.4, seed)
    dm = all_pairs_distances(g)
    for p in (None, sorted(pool)):
        expect, _ = brute_force_max_gp(g, dm, pool=p)
        res = max_general_position(g, dm, pool=p)
        assert res.optimal
        assert res.size == expect, p


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
    assert _greedy(g, dm).members == (0, 1)


# the greedy reads a pool the search has checked, so the search's entry is its gate
def test_greedy_rejects_disconnected_graph():
    disc = Graph(4, [(0, 1), (2, 3)])
    dm = all_pairs_distances(disc)
    with pytest.raises(NotConnectedError):
        max_general_position(disc, dm)
    with pytest.raises(NotConnectedError):
        max_general_position(disc, dm, pool=[0, 1, 2])
    # two vertices form no triple, so nothing is tested
    assert max_general_position(disc, dm, pool=[0, 2]).size == 2


def test_greedy_rejects_repeated_pool_ids(bf2):
    g, dm = bf2
    with pytest.raises(InvalidParameterError):
        max_general_position(g, dm, pool=[0, 1, 1])


@pytest.mark.parametrize("g,pool", [(build_butterfly(3), None),
                                    (build_butterfly(4), _deg2(build_butterfly(4))),
                                    (_star(40), None)],
                         ids=["BF(3)", "BF(4)-deg2", "star40"])
def test_one_scan_per_search(monkeypatch, g, pool):
    # the warm start reads the search's triple tables instead of scanning again
    calls = []
    scan = geodesy._scan
    monkeypatch.setattr(geodesy, "_scan", lambda *args: calls.append(args) or scan(*args))
    max_general_position(g, all_pairs_distances(g), pool=pool)
    assert len(calls) == 1


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_greedy_matches_pairwise_scan(seed):
    g = random_connected_graph(9, 0.4, seed)
    dm = all_pairs_distances(g)
    chosen = []
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        if not any(oracle_collinear(g, a, b, v) for a, b in combinations(chosen, 2)):
            chosen.append(v)
    assert _greedy(g, dm).members == tuple(sorted(chosen))


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
        assert _greedy(g, dm, list(pool)).members == expected, name


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_greedy_is_verified_and_below_optimum(seed):
    g = random_connected_graph(7, 0.45, seed)
    dm = all_pairs_distances(g)
    s = _greedy(g, dm)
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
