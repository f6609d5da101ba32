import random
from itertools import combinations, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfgp.errors import InvalidParameterError, NotConnectedError, TooLargeError
from bfgp import geodesy
from bfgp.genpos import (
    VertexSet,
    brute_force_max_gp,
    collinear_triples,
    construct_butterfly_gp_set,
    max_general_position,
    verify_general_position,
)
from bfgp.geodesy import (
    MAX_TABLE_VERTICES,
    UNREACHABLE,
    DistanceMatrix,
    all_pairs_distances,
    bfs_distances,
    check_walk,
    false_twin_firsts,
    first_collinear,
    iter_collinear,
    lies_between,
    pool_automorphisms,
    row_xor_stabilizer,
    walk_violation,
)
from bfgp.graphs import Graph, build_butterfly, build_cycle, build_path
from corpus import (
    _complete_bipartite,
    _grid,
    _reference_walk_edges,
    _star,
    bfs_dist,
    butterfly_distance,
    connected,
    level_xor_permutations,
    named_corpus,
    oracle_collinear,
    on_some_geodesic,
    random_connected_graph,
    reference_butterfly_rows,
    reference_walk_defect,
    reference_walk_violation,
    twin_classes,
    twin_reduced_general_position,
    whole_level_pools,
)


def test_metric_axioms_on_corpus():
    for name, g in named_corpus():
        dm = all_pairs_distances(g)
        edge_set = set(g.edges)
        for u in range(g.n):
            assert dm.dist(u, u) == 0
            for v in range(u + 1, g.n):
                assert dm.dist(u, v) == dm.dist(v, u)
                assert (dm.dist(u, v) == 1) == ((u, v) in edge_set), (name, u, v)
        for u, v, w in combinations(range(g.n), 3):
            assert dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w), name


@pytest.mark.parametrize("r", range(1, 8))
def test_butterfly_distances_match_fresh_bfs(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    assert len(dm.rows) == r + 1
    assert max(map(max, dm.rows)) == dm.bound == 2 * r  # the diameter sizes the kernel's fields
    for u in range(g.n):
        assert [dm.dist(u, v) for v in range(g.n)] == bfs_distances(g, u), (r, u)


def test_distance_fill_follows_the_edges_not_the_tag():
    bf3 = build_butterfly(3)
    untagged = Graph(bf3.n, bf3.edges)
    assert len(all_pairs_distances(untagged).rows) == 4
    # swapping ids 0 and 9 breaks the row-XOR symmetry, so the butterfly
    # tag is refused and the swapped edges, untagged, get a full table
    swap = {0: 9, 9: 0}
    edges = [(swap.get(u, u), swap.get(v, v)) for u, v in bf3.edges]
    with pytest.raises(InvalidParameterError):
        Graph(bf3.n, edges, bf3.family, bf3.family_param)
    relabeled = Graph(bf3.n, edges)
    assert relabeled.butterfly_r is None
    dm = all_pairs_distances(relabeled)
    assert len(dm.rows) == relabeled.n
    for u in range(relabeled.n):
        assert [dm.dist(u, v) for v in range(relabeled.n)] == bfs_distances(relabeled, u)


def test_distance_table_is_capped(monkeypatch):
    # rows are counted, not built, so no test here pays for a table
    sources = []
    monkeypatch.setattr(geodesy, "bfs_distances", lambda g, s: sources.append(s) or [0])
    with pytest.raises(TooLargeError):
        all_pairs_distances(Graph(MAX_TABLE_VERTICES + 1, []))
    assert sources == []
    assert all_pairs_distances(build_path(MAX_TABLE_VERTICES)).n == MAX_TABLE_VERTICES
    assert len(sources) == MAX_TABLE_VERTICES
    # the canonical butterfly keeps r + 1 rows, so it is not held to the cap,
    # and fills them from the closed form: no search at all, tag or no tag
    sources.clear()
    bf10 = build_butterfly(10)
    assert all_pairs_distances(bf10).n == 11 << 10 > MAX_TABLE_VERTICES
    assert len(all_pairs_distances(Graph(bf10.n, bf10.edges)).rows) == 11
    assert sources == []


@pytest.mark.parametrize("r", range(1, 13))
def test_butterfly_rows_match_the_bfs_rows(r):
    g = build_butterfly(r)
    rows, expected = all_pairs_distances(g).rows, reference_butterfly_rows(g)
    assert len(rows) == r + 1
    for l in range(r + 1):
        assert type(rows[l]) is bytes and list(rows[l]) == expected[l], (r, l)


@pytest.mark.parametrize("r", range(1, 13))
def test_chunk_tables_are_the_rows_cut_every_256_ids(r):
    # one table per 2^c consecutive ids, c = min(r, 8): up to r = 8 a chunk
    # is a level, above it a level holds 2^(r-8) chunks
    dm = all_pairs_distances(build_butterfly(r))
    c = min(r, 8)
    assert len(dm.blocks) == r + 1
    for l, row in enumerate(dm.rows):
        assert len(dm.blocks[l]) == len(row) >> c, (r, l)
        for b, table in enumerate(dm.blocks[l]):
            assert len(table) == 256 and table[:1 << c] == row[b << c:b + 1 << c], (r, l, b)
    assert all_pairs_distances(build_cycle(5)).blocks is None


@pytest.mark.parametrize("r", range(1, 15))
def test_butterfly_distances_match_the_closed_form(r):
    # the two reads of a pair come from different rows unless u and v share
    # a level, so the symmetry check crosses the row builder with itself
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    rng = random.Random(r)
    for _ in range(300):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        assert dm.dist(u, v) == butterfly_distance(r, u, v) == dm.dist(v, u), (r, u, v)
        if r <= 9:
            assert dm.dist(u, v) == bfs_distances(g, u)[v], (r, u, v)


@pytest.mark.parametrize("r", range(1, 10))
def test_level_reflection_is_an_automorphism(r):
    # (l, x) -> (r - l, x read backwards), from the bit string of the row
    g = build_butterfly(r)

    def reflect(v):
        level, row = divmod(v, 1 << r)
        return (r - level) << r | int(format(row, f"0{r}b")[::-1], 2)

    assert sorted(tuple(sorted(map(reflect, e))) for e in g.edges) == list(g.edges)


def test_kernel_fields_must_hold_two_distances():
    # a table graph's bound is the largest distance its rows hold
    rows = [[0, MAX_TABLE_VERTICES - 1, UNREACHABLE]]
    assert DistanceMatrix(MAX_TABLE_VERTICES, rows).bound == MAX_TABLE_VERTICES - 1
    with pytest.raises(TooLargeError):
        DistanceMatrix(1 << 15, [[0, 1 << 14]])


@pytest.mark.parametrize("g, diameter", [
    (build_path(200), 199), (build_cycle(150), 75), (_star(600), 2),
    (Graph(4, [(0, 1), (2, 3)]), 1), (Graph(0, []), 0),
], ids=["P_200", "C_150", "K_{1,600}", "2K_2", "empty"])
def test_table_bound_is_the_largest_finite_distance(g, diameter):
    assert all_pairs_distances(g).bound == diameter


def _plain_collinear(g, ms):
    """Every collinear triple of ms in combinations order, one triple at a time from fresh BFS."""
    d = {v: bfs_dist(g, v) for v in ms}
    return [(x, y, z) for x, y, z in combinations(ms, 3)
            if d[x][y] + d[y][z] == d[x][z] or d[x][y] + d[x][z] == d[y][z]
            or d[x][z] + d[y][z] == d[x][y]]


def _kernel_cases():
    rng = random.Random(7)
    for r in range(2, 7):
        g = build_butterfly(r)
        yield f"BF{r}-sample", g, sorted(rng.sample(range(g.n), min(g.n, 64)))
    g = build_butterfly(4)
    yield "BF4-all", g, list(range(g.n))
    gp = list(construct_butterfly_gp_set(5).members)
    yield "BF5-set-plus-one", build_butterfly(5), sorted(gp + [2 << 5])
    # distances up to 199 and 75 take 16-bit fields
    for g in (build_path(200), build_cycle(150)):
        yield f"n={g.n}", g, sorted(rng.sample(range(g.n), 60))
        yield f"n={g.n}-shuffled", g, rng.sample(range(g.n), 40)
    # a table graph of diameter below 64 takes 8-bit fields, whatever its size
    yield "grid-12x12", _grid(12, 12), sorted(rng.sample(range(144), 60))
    # BF(7) and BF(8) gather a level per chunk table, BF(9) and BF(10) 2 and 4;
    # shuffled members break the chunks into many runs
    rng = random.Random(8)
    for r in range(7, 11):
        g = build_butterfly(r)
        yield f"BF{r}-sample", g, sorted(rng.sample(range(g.n), 64))
    for r in range(3, 9):
        g = build_butterfly(r)
        yield f"BF{r}-shuffled", g, rng.sample(range(g.n), min(g.n, 48))


@pytest.mark.parametrize("case", list(_kernel_cases()), ids=lambda case: case[0])
def test_kernel_matches_plain_triple_loop(case):
    name, g, ms = case
    dm = all_pairs_distances(g)
    expected = _plain_collinear(g, ms)
    assert list(iter_collinear(dm, ms)) == expected, name
    assert first_collinear(g, dm, ms) == next(iter(expected), None), name


@pytest.mark.parametrize("r", range(2, 9))
def test_closed_form_stabilizer(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    members = construct_butterfly_gp_set(r).members
    # every c with bits a_1 and a_r clear, 2^(r-2) of them
    msb = 1 << (r - 1)
    assert row_xor_stabilizer(dm, members) == tuple(c for c in range(1 << r) if not c & (msb | 1))
    assert row_xor_stabilizer(dm, members + ((1 << r) + 1,)) == (0,)
    assert row_xor_stabilizer(dm, ()) == (0,)


def _stabilizer_cases(r, n):
    """The closed-form set, then seeded random sets, some closed under one or two XORs."""
    yield construct_butterfly_gp_set(r).members
    rng = random.Random(r)
    for _ in range(60):
        members = set(rng.sample(range(n), rng.randint(1, min(n, 10))))
        for c in rng.sample(range(1, 1 << r), rng.randint(0, 2)):
            members |= {v ^ c for v in members}
        yield tuple(sorted(members))


@pytest.mark.parametrize("r", range(2, 6))
def test_stabilizer_is_the_span_of_the_single_bits_that_fix_the_set(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    multi_bit = 0
    for members in _stabilizer_cases(r, g.n):
        fixes = lambda c: {v ^ c for v in members} == set(members)
        span = [0]
        for c in (1 << k for k in range(r)):
            if fixes(c):
                span += [h ^ c for h in span]
        group = row_xor_stabilizer(dm, members)
        assert all(fixes(c) for c in group), members
        assert group == tuple(sorted(span)), members
        brute = tuple(c for c in range(1 << r) if fixes(c))
        if all(fixes(1 << k) for c in brute for k in range(r) if c >> k & 1):
            assert group == brute, members  # the whole stabilizer
        else:
            multi_bit += 1
            assert set(group) < set(brute), members
        assert first_collinear(g, dm, members) == next(iter_collinear(dm, members), None), members
    assert multi_bit  # some sets are fixed by a multi-bit XOR alone


def test_stabilizer_leaves_out_a_multi_bit_symmetry():
    # {(1, 0), (1, 3)} on BF(3) is fixed by 3 but by neither of its bits
    dm = all_pairs_distances(build_butterfly(3))
    assert tuple(c for c in range(8) if {8 ^ c, 11 ^ c} == {8, 11}) == (0, 3)
    assert row_xor_stabilizer(dm, (8, 11)) == (0,)


def test_relabelled_butterfly_takes_the_full_scan(monkeypatch):
    bf4 = build_butterfly(4)
    perm = list(range(bf4.n))
    random.Random(4).shuffle(perm)
    relabelled = Graph(bf4.n, [(perm[u], perm[v]) for u, v in bf4.edges])
    assert relabelled.butterfly_r is None
    members = sorted(perm[v] for v in construct_butterfly_gp_set(4).members)
    dm = all_pairs_distances(relabelled)
    assert row_xor_stabilizer(dm, members) == (0,)
    scans = []
    real = geodesy.iter_collinear
    monkeypatch.setattr(geodesy, "iter_collinear", lambda dm, ms: scans.append(ms) or real(dm, ms))
    assert verify_general_position(relabelled, dm, VertexSet(tuple(members))).ok
    assert scans == [members]
    # the canonical copy is proved by the 3 orbit representatives of its
    # members less their twins
    scans.clear()
    assert verify_general_position(bf4, all_pairs_distances(bf4),
                                   construct_butterfly_gp_set(4)).ok
    assert scans == []


def _record_scans(monkeypatch):
    """Lists of the (members, leads, coset) sizes of every _scan and the members of every full scan."""
    scans, full = [], []
    real_scan, real_iter = geodesy._scan, geodesy.iter_collinear
    monkeypatch.setattr(geodesy, "_scan", lambda dm, ms, leads, coset=1: (
        scans.append((len(ms), len(leads), coset)) or real_scan(dm, ms, leads, coset)))
    monkeypatch.setattr(geodesy, "iter_collinear", lambda dm, ms: full.append(ms) or real_iter(dm, ms))
    return scans, full


@pytest.mark.parametrize("r", range(2, 11))
def test_closed_form_set_is_accepted_without_the_full_scan(monkeypatch, r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    s = construct_butterfly_gp_set(r)
    scans, full = _record_scans(monkeypatch)
    assert verify_general_position(g, dm, s).ok
    if r == 2:
        # BF(2)'s set is 2 twin pairs and (1, 0): one member per level
        # remains, so the stabilizer is trivial and the whole set is scanned
        assert full == [list(s.members)] and scans == [(5, 5, 1)]
    else:
        # one member per twin pair: 3 orbits of 2^(r-2), each led once
        q = 1 << (r - 2)
        assert full == [] and scans == [(3 * q, 3, q)]


@pytest.mark.parametrize("r", range(1, 10))
def test_butterfly_false_twins_are_the_end_level_pairs(r):
    g = build_butterfly(r)
    msb, top = 1 << (r - 1), r << r
    level0 = [[x, x ^ msb] for x in range(1 << r) if not x & msb]
    levelr = [[top + y, top + y + 1] for y in range(0, 1 << r, 2)]
    assert twin_classes(g) == sorted(level0 + levelr)
    # the shared rule points each later twin at its class's first, on every vertex
    first = list(range(g.n))
    for cls in twin_classes(g):
        for v in cls:
            first[v] = cls[0]
    assert false_twin_firsts(g, range(g.n)) == first


def _level_maps(r):
    """[P_0, S_0, P_1, S_1, ...]: P_j XORs 2^j on the levels below r - j, S_j on the rest."""
    return [[v ^ 1 << j if ((v >> r) < r - j) == below else v for v in range((r + 1) << r)]
            for j in range(r) for below in (True, False)]


def _swap_map(gen, pool):
    """The block swap gen = (half, s) on pool's positions, as a map on its ids."""
    half, s = gen
    assert s > 0 and half and not half & half << s
    assert (half | half << s) >> len(pool) == 0  # the pool onto itself
    f = {}
    for p in range(len(pool)):
        if half >> p & 1:
            f[pool[p]], f[pool[p + s]] = pool[p + s], pool[p]
    return f


def _maps_edges_onto_edges(g, f):
    return {tuple(sorted((f.get(u, u), f.get(v, v)))) for u, v in g.edges} == set(g.edges)


def _twin_swaps(g, pool):
    """(2^p, i - p) for each false twin i of pool and the member p before it in its class, by i."""
    index = {v: i for i, v in enumerate(pool)}
    pairs = sorted(((p, i) for cls in twin_classes(g)
                    for p, i in pairwise([index[v] for v in cls if v in index])),
                   key=lambda pi: pi[1])
    return [(1 << p, i - p) for p, i in pairs]


@pytest.mark.parametrize("r", range(1, 9))
def test_bf_automorphisms_are_the_2r_level_xors_then_the_end_level_twin_swaps(r):
    g = build_butterfly(r)
    pool = tuple(range(g.n))
    maps = _level_maps(r)
    twins = false_twin_firsts(g, pool)
    for k, f in enumerate(maps):
        assert _maps_edges_onto_edges(g, dict(enumerate(f))), k
    # P_(r-1) and S_0 swap end-level twins, and are generators like the rest
    assert {k for k, f in enumerate(maps)
            if any(f[v] != v and twins[f[v]] == twins[v] for v in pool)} == {2 * r - 2, 1}
    gens = pool_automorphisms(g, pool)
    assert len(gens) == 2 * r + (1 << r)
    swapped = [_swap_map(gen, pool) for gen in gens[:2 * r]]
    assert [[f.get(v, v) for v in pool] for f in swapped] == maps
    assert list(gens[2 * r:]) == _twin_swaps(g, pool)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_automorphisms_of_whole_level_pools_map_edges_and_pool_onto_themselves(r):
    # a level XOR moves levels outside a pool too: the generator is its action on the pool
    g = build_butterfly(r)
    maps = [dict(enumerate(f)) for f in _level_maps(r)]
    for f in maps:
        assert _maps_edges_onto_edges(g, f)
    for pool in whole_level_pools(r):
        gens = pool_automorphisms(g, pool)
        # the level XORs that move some level of the pool, in order, then the twin swaps
        moving = [f for f in maps if any(f[v] != v for v in pool)]
        swaps = _twin_swaps(g, pool)
        assert len(gens) == len(moving) + len(swaps) and list(gens[len(moving):]) == swaps
        for gen, f in zip(gens, moving):
            assert {f[v] for v in pool} == set(pool), pool
            assert _swap_map(gen, pool) == {v: f[v] for v in pool if f[v] != v}, (pool, gen)
        for gen in swaps:
            assert _maps_edges_onto_edges(g, _swap_map(gen, pool)), (pool, gen)


BF3 = build_butterfly(3)
TWINS_ALONE = {
    "BF(3) relabelled": (Graph(BF3.n, [(31 - u, 31 - v) for u, v in BF3.edges]), range(32)),
    "BF(3) less a row": (BF3, range(31)),  # level 3 without its last row
    "BF(3) half levels": (BF3, range(4, 12)),  # eight ids, half of levels 0 and 1
    "BF(3) empty": (BF3, ()),
    "C_8": (build_cycle(8), range(8)),
    "K_{1,4}": (_star(4), range(5)),
    "K_{1,4} v % 3": (_star(4), (1, 2, 4)),
    "K_{3,3}": (_complete_bipartite(3, 3), range(6)),
    "K_{3,3} v % 3": (_complete_bipartite(3, 3), (1, 2, 4, 5)),
    # dropping every third id drops one twin of some classes
    **{f"BF({r}) v % 3": (build_butterfly(r), [v for v in range((r + 1) << r) if v % 3])
       for r in range(2, 7)},
}


@pytest.mark.parametrize("name", list(TWINS_ALONE))
def test_other_graphs_and_partial_pools_get_the_twin_swaps_alone(name):
    g, pool = TWINS_ALONE[name]
    pool = tuple(pool)
    gens = pool_automorphisms(g, pool)
    assert list(gens) == _twin_swaps(g, pool)
    assert level_xor_permutations(g, pool) == []
    for gen in gens:
        assert _maps_edges_onto_edges(g, _swap_map(gen, pool)), gen


@pytest.mark.parametrize("r", range(2, 11))
def test_closed_form_set_reduces_to_the_module_notes_set(monkeypatch, r):
    # S': level-0 rows with a_r = 1 and a_1 = 0, the level-1 rows, and
    # level-r rows with a_1 = 1 and a_r = 0 (a_1 is row bit r - 1, a_r bit 0)
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    rows, msb = 1 << r, 1 << (r - 1)
    level0 = [x for x in range(rows) if x & 1 and not x & msb]
    levelr = [r * rows + y for y in range(rows) if y & msb and not y & 1]
    level1 = [rows + x for x in range(rows) if not x & (msb | 1)]
    reduced = []
    real = geodesy.row_xor_stabilizer
    monkeypatch.setattr(geodesy, "row_xor_stabilizer",
                        lambda dm, ms: reduced.append(list(ms)) or real(dm, ms))
    assert verify_general_position(g, dm, construct_butterfly_gp_set(r)).ok
    assert reduced == [level0 + level1 + levelr]


@st.composite
def planted_twins(draw):
    """(g, members): a random connected graph with copies of some vertices' neighbourhoods.

    Each planted vertex gets the neighbourhood of an earlier vertex, a
    planted one included, so classes of three occur.  Members are drawn
    at random, or hold one planted pair and none of its neighbours, the
    case the lemma reduces without a violation.
    """
    n = draw(st.integers(3, 8), label="n")
    g = random_connected_graph(n, draw(st.sampled_from([0.3, 0.5, 0.7])),
                               draw(st.integers(0, 10_000), label="seed"))
    adj = [list(a) for a in g.adj]
    pairs = []
    for m in range(n, n + draw(st.integers(1, 4), label="planted")):
        v = draw(st.integers(0, m - 1))
        adj.append(list(adj[v]))
        for w in adj[v]:
            adj[w].append(m)
        pairs.append((v, m))
    g = Graph(len(adj), [(u, v) for u, a in enumerate(adj) for v in a if u < v])
    members = draw(st.lists(st.integers(0, g.n - 1), unique=True), label="members")
    if draw(st.booleans(), label="one pair, no neighbour"):
        v, m = draw(st.sampled_from(pairs))
        members = [u for u in members if u not in g.adj[m] and u not in (v, m)] + [v, m]
    return g, members


@settings(deadline=None, max_examples=150)
@given(planted_twins())
def test_twin_lemma_oracle_matches_the_full_scan(case):
    g, members = case
    assert twin_classes(g)
    dm = all_pairs_distances(g)
    first = next(iter_collinear(dm, members), None)
    assert twin_reduced_general_position(g, members) == (first is None)
    assert first_collinear(g, dm, members) == first


SMALL_BUTTERFLIES = {r: (g, all_pairs_distances(g)) for r in range(1, 6) for g in (build_butterfly(r),)}


@st.composite
def butterfly_twin_sets(draw):
    """(r, members): a few of BF(r)'s twin pairs held whole, some of their neighbours, a few more."""
    r = draw(st.integers(1, 5), label="r")
    rows, top = 1 << r, r << r
    members = set()
    for _ in range(draw(st.integers(1, 3), label="pairs")):
        if draw(st.booleans(), label="level 0"):
            x = draw(st.integers(0, rows - 1))
            pair, step = (x, x ^ (rows >> 1)), rows
        else:
            y = draw(st.integers(0, rows - 1))
            pair, step = (top + y, top + (y ^ 1)), -rows
        members.update(pair)
        members.update(v + step for v in draw(st.sets(st.sampled_from(pair)), label="neighbours"))
    members.update(draw(st.sets(st.integers(0, (r + 1) * rows - 1), max_size=4), label="others"))
    return r, sorted(members)


@settings(deadline=None, max_examples=150)
@given(butterfly_twin_sets())
def test_butterfly_twin_sets_match_the_full_scan(case):
    r, members = case
    g, dm = SMALL_BUTTERFLIES[r]
    first = next(iter_collinear(dm, members), None)
    assert first_collinear(g, dm, members) == first
    assert twin_reduced_general_position(g, members) == (first is None)


@pytest.mark.parametrize("r", range(3, 9))
def test_twin_edits_of_the_closed_form_give_the_full_scan_witness(monkeypatch, r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    closed = set(construct_butterfly_gp_set(r).members)
    group = row_xor_stabilizer(dm, closed)
    rows, msb = 1 << r, 1 << (r - 1)
    x, y = 1, (r << r) + msb  # a level-0 and a level-r twin pair, both held whole
    neighbours = {"level-0 pair's": (rows + x, rows + (x ^ msb)),
                  "level-r pair's": (y - rows, (y ^ 1) - rows)}
    cases = {}
    for pair, hubs in neighbours.items():
        for which, hub in zip(("", "other "), hubs):
            # a common neighbour of a whole pair makes it collinear; with its
            # orbit the members less their twins keep a non-trivial group
            cases[f"{pair} {which}neighbour"] = closed | {hub}
            cases[f"{pair} {which}neighbour's orbit"] = closed | {hub ^ c for c in group}
    # so does a neighbour of a pair alone, one member per pair being 2
    # vertices, in general position
    cases["level-0 pair and its neighbour"] = {x, x ^ msb, rows + (x ^ msb)}
    cases["level-r pair and its neighbour"] = {y, y ^ 1, (y ^ 1) - rows}
    # a subset of a set in general position is one
    cases["level-0 pair less its smaller"] = closed - {x}
    cases["level-0 pair less its larger"] = closed - {x ^ msb}
    cases["level-r pair less its smaller"] = closed - {y}
    cases["level-r pair less its larger"] = closed - {y ^ 1}
    scans, _ = _record_scans(monkeypatch)
    for name, members in cases.items():
        members = tuple(sorted(members))
        first = next(iter_collinear(dm, members), None)  # the unrecorded full scan
        scans.clear()
        assert first_collinear(g, dm, members) == first, (r, name)
        w = verify_general_position(g, dm, VertexSet(members))
        assert (w.ok, w.triple) == (first is None, first), (r, name)
        if "neighbour" in name:
            # no orbit scan: the full scan names the witness at once
            assert first is not None and {s[2] for s in scans} == {1}, (r, name)


@pytest.mark.parametrize("r", range(3, 11))
def test_orbit_of_a_non_member_gives_the_full_scan_witness(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    closed = construct_butterfly_gp_set(r).members
    group = row_xor_stabilizer(dm, closed)
    rng = random.Random(r)
    for level in (0, 1, 2, r):
        v = rng.choice([v for v in range(level << r, (level + 1) << r) if v not in closed])
        members = sorted({*closed, *(v ^ c for c in group)})
        assert row_xor_stabilizer(dm, members) == group, (r, level)
        first = next(iter_collinear(dm, members), None)
        assert first is not None, (r, level)
        assert first_collinear(g, dm, members) == first, (r, level)
        assert verify_general_position(g, dm, VertexSet(tuple(members))).triple == first
        # members orbit by orbit, each from its least member: rows built by
        # block swaps within each orbit are the rows gathered from dm
        order, seen = [], set()
        for u in members:
            if u not in seen:
                order += [u ^ c for c in group]
                seen.update(order[-len(group):])
        leads = range(0, len(order), len(group))
        assert (list(geodesy._scan(dm, order, leads, len(group)))
                == list(geodesy._scan(dm, order, leads))), (r, level)


class _UnreadRows:
    """A stand-in for dm.rows that fails the test on any access."""

    def __getitem__(self, i):
        raise AssertionError(f"dm.rows[{i!r}] read")

    def __len__(self):
        raise AssertionError("len(dm.rows) read")


@pytest.mark.parametrize("r", [9, 10])
def test_butterfly_scans_read_the_chunk_tables_alone(r):
    # above r = 8 a source's row label has bits past the byte, which pick
    # the chunk table; dm.rows itself is never read by a scan
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    closed = construct_butterfly_gp_set(r).members
    rng = random.Random(r)
    v = rng.choice([v for v in range(g.n) if v not in closed])
    sample = sorted(rng.sample(range(g.n), 64))
    d = {(x, y): butterfly_distance(r, x, y) for x, y in combinations(sample, 2)}
    expected = [(x, y, z) for x, y, z in combinations(sample, 3)
                if 2 * max(d[x, y], d[y, z], d[x, z]) == d[x, y] + d[y, z] + d[x, z]]
    plus_one = sorted(closed + (v,))
    cases = [(plus_one, next(iter_collinear(dm, plus_one))), (sample, expected[0])]
    assert v in cases[0][1]
    dm.rows = _UnreadRows()
    assert list(iter_collinear(dm, sample)) == expected
    for ms, first in cases:
        assert first_collinear(g, dm, ms) == next(iter_collinear(dm, ms)) == first, (r, len(ms))


def test_known_distances():
    g, dm = build_butterfly(2), None
    dm = all_pairs_distances(g)
    assert dm.dist(0, 8) == 2          # [00,0] to [00,2]
    c8 = build_cycle(8)
    assert all_pairs_distances(c8).dist(0, 4) == 4


def test_unreachable_sentinel():
    g = Graph(4, [(0, 1), (2, 3)])
    dm = all_pairs_distances(g)
    assert dm.dist(0, 2) == UNREACHABLE
    assert not dm.reachable(1, 3)
    assert not connected(g)
    assert connected(build_path(4))


def test_lies_between_basics():
    p3 = build_path(3)
    dm = all_pairs_distances(p3)
    assert lies_between(dm, 0, 1, 2)
    assert not lies_between(dm, 1, 0, 2)

    c6 = build_cycle(6)
    dm6 = all_pairs_distances(c6)
    assert not lies_between(dm6, 0, 3, 1)   # 3 + 2 != 1

    bf2 = build_butterfly(2)
    dmb = all_pairs_distances(bf2)
    assert lies_between(dmb, 0, 4, 8)       # [00,0]-[00,1]-[00,2]


def test_lies_between_errors():
    dm = all_pairs_distances(build_path(3))
    with pytest.raises(InvalidParameterError):
        lies_between(dm, 0, 0, 2)
    disc = all_pairs_distances(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotConnectedError):
        lies_between(disc, 0, 1, 3)


# every public function that reads distances for vertices a caller supplies
GATED = {
    "verify_general_position":
        lambda g, dm, ids: verify_general_position(g, dm, VertexSet(tuple(ids))),
    "max_general_position": lambda g, dm, ids: max_general_position(g, dm, pool=ids),
    "brute_force_max_gp": lambda g, dm, ids: brute_force_max_gp(g, dm, pool=ids),
    "collinear_triples": lambda g, dm, ids: collinear_triples(dm, ids),
    "lies_between": lambda g, dm, ids: lies_between(dm, *ids),
}


@pytest.mark.parametrize("name", list(GATED))
def test_vertex_lists_pass_the_gate(name):
    call = GATED[name]
    disc = Graph(4, [(0, 1), (2, 3)])
    dm = all_pairs_distances(disc)
    for ids in ([-1, 0, 1], [0, 1, disc.n], [0, 0, 1]):
        with pytest.raises(InvalidParameterError):
            call(disc, dm, ids)
    with pytest.raises(NotConnectedError):
        call(disc, dm, [0, 1, 2])


def test_collinear_triangle_is_free():
    k3 = build_cycle(3)
    dm = all_pairs_distances(k3)
    assert not any(iter_collinear(dm, (0, 1, 2)))


def test_lies_between_agrees_with_path_enumeration():
    corpus = named_corpus(max_n=10) + [("BF2", build_butterfly(2))]
    for name, g in corpus:
        dm = all_pairs_distances(g)
        if not connected(g):
            continue
        for x, y, z in combinations(range(g.n), 3):
            assert lies_between(dm, x, y, z) == on_some_geodesic(g, x, y, z), (name, x, y, z)
            assert any(iter_collinear(dm, (x, y, z))) == oracle_collinear(g, x, y, z), name


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.data())
def test_collinear_is_order_invariant(seed, data):
    g = random_connected_graph(6, 0.45, seed)
    dm = all_pairs_distances(g)
    x, y, z = data.draw(st.permutations(range(3)).map(tuple))
    base = any(iter_collinear(dm, (0, 1, 2)))
    assert any(iter_collinear(dm, (x, y, z))) == base


def walk_defect_of(g, seq, closed):
    return check_walk(g, seq, closed, bytearray(g.n))[0]


def test_isometric_cycle_identity():
    for n in (4, 5, 8):
        g = build_cycle(n)
        dm = all_pairs_distances(g)
        assert walk_defect_of(g, list(range(n)), True) is None
        assert walk_violation(dm, list(range(n)), True) is None


def test_isometric_cycle_bf2_diamond(bf2):
    g, dm = bf2
    # two parallel level-0/1 edges: [00,0]-[00,1]-[10,0]-[10,1]
    assert walk_defect_of(g, [0, 4, 2, 6], True) is None
    assert walk_violation(dm, [0, 4, 2, 6], True) is None
    assert dm.dist(4, 6) == 2


def test_isometric_cycle_chord_violation():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    dm = all_pairs_distances(g)
    assert walk_violation(dm, [0, 1, 2, 3, 4, 5], True) == (0, 3)


def test_first_violating_pair_follows_the_walk():
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)])
    dm = all_pairs_distances(g)
    assert walk_violation(dm, [0, 1, 2, 3, 4, 5], True) == (0, 3)
    # walked from 1, the chord (1, 4) is read first, though (0, 3) is the smaller off pair
    assert walk_violation(dm, [1, 2, 3, 4, 5, 0], True) == (1, 4)


def all_pairs_walk_violations(dm, seq, closed):
    """Every pair, as (smaller id, larger id), off its walk distance, by the
    definition: all L(L - 1)/2 pairs of the walk, k steps apart along it
    being k apart on a path and min(k, L - k) apart round a cycle."""
    L = len(seq)
    off = set()
    for i, j in combinations(range(L), 2):
        along = min(j - i, L - j + i) if closed else j - i
        if dm.dist(seq[i], seq[j]) != along:
            off.add((min(seq[i], seq[j]), max(seq[i], seq[j])))
    return off


def test_violating_pair_is_first_along_the_walk():
    # C_8 with chord 1-5 walked from 2: 2 and 6, half the cycle apart, are 3
    # apart through the chord, and are named before the smaller off pair (0, 4)
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(1, 5)])
    dm = all_pairs_distances(g)
    seq = [2, 3, 4, 5, 6, 7, 0, 1]
    assert walk_defect_of(g, seq, True) is None
    assert walk_violation(dm, seq, True) == (2, 6)
    assert min(all_pairs_walk_violations(dm, seq, True)) == (0, 4)
    # on a path the first vertex is read against each later one: 2 and 5
    assert walk_violation(dm, [2, 3, 4, 5], False) == (2, 5)


def test_invalid_cycles():
    g = build_cycle(6)
    big = 10**4000  # named by reprlib, so the defect stays short
    short = "100000000000000000...0000000000000000000"
    # an id out of range is named only first; later, it fails adjacency
    for seq, defect in (([0, 1], "needs >= 3 vertices, got 2"),
                        ([0, 1, 2, 1], "repeated vertex 1 at position 3"),
                        ([0, 1, 3], "1 and 3 are not adjacent at position 1"),
                        ([6, 0, 1], "vertex 6 out of range at position 0"),
                        ([-1, 0, 1], "vertex -1 out of range at position 0"),
                        ([0, 1, 7], "1 and 7 are not adjacent at position 1"),
                        ([big, 0, 1], f"vertex {short} out of range at position 0"),
                        ([0, 1, big], f"1 and {short} are not adjacent at position 1"),
                        ([0, big, 1, big], f"repeated vertex {short} at position 3")):
        assert walk_defect_of(g, seq, True) == defect


def test_isometric_path():
    g = build_path(5)
    dm = all_pairs_distances(g)
    for path in ([0, 1], [0, 1, 2, 3, 4]):
        assert walk_defect_of(g, path, False) is None
        assert walk_violation(dm, path, False) is None

    bf2 = build_butterfly(2)
    dmb = all_pairs_distances(bf2)
    assert walk_defect_of(bf2, [0, 4, 8], False) is None
    assert walk_violation(dmb, [0, 4, 8], False) is None

    c6 = build_cycle(6)
    dm6 = all_pairs_distances(c6)
    # d(0,4)=2 < 4, and no smaller pair is off its distance along the path
    assert walk_violation(dm6, [0, 1, 2, 3, 4], False) == (0, 4)


def test_invalid_paths():
    g = build_path(4)
    assert walk_defect_of(g, [0, 2], False) == "0 and 2 are not adjacent at position 0"
    assert walk_defect_of(g, [0, 1, 0], False) == "repeated vertex 0 at position 2"
    assert walk_defect_of(g, [], False) == "needs >= 1 vertices, got 0"


def test_wrap_around_edge_only_when_closed():
    p4 = build_path(4)
    assert walk_defect_of(p4, [0, 1, 2, 3], False) is None
    assert walk_defect_of(p4, [0, 1, 2, 3], True) == "3 and 0 are not adjacent at position 3"
    c4 = build_cycle(4)
    assert walk_defect_of(c4, [0, 1, 2, 3], False) is None
    assert walk_defect_of(c4, [0, 1, 2, 3], True) is None


def _random_sequences(g, rng, count):
    """Seeded sequences on g: self-avoiding walks, some of which close, and
    mutants of them with an id out of range, a repeat, a stray id or a cut."""
    n = g.n
    for _ in range(count):
        seq = [rng.randrange(n)]
        for _ in range(rng.randrange(n + 1)):
            free = [w for w in g.adj[seq[-1]] if w not in seq]
            if not free:
                break
            seq.append(rng.choice(free))
        what = rng.randrange(6)
        i = rng.randrange(len(seq))
        if what == 1:
            seq[i] = rng.choice((-1, n, n + 7, rng.randrange(n)))
        elif what == 2:
            seq.append(rng.choice(seq))
        elif what == 3:
            seq = seq[:i]
        yield seq


def _walk_cases():
    """Named defects, each on the graph it is read against, then seeded sequences."""
    bf2, c6, p4 = build_butterfly(2), build_cycle(6), build_path(4)
    yield bf2, [0, 4, 8, 13], False          # a later vertex out of range
    yield c6, [0, 1, 2, 3, 4, 9], True       # ... and on a cycle
    yield c6, [-1, 0, 1], True               # a first vertex of -1
    yield p4, [-1], False
    yield c6, [6, 0, 1], True                # a first vertex of n
    yield bf2, [12, 4, 8], False
    yield c6, [0, 1, 2, 1], True             # a repeated vertex
    yield p4, [0, 1, 0], False
    yield p4, [0, 1, 2, 3], True             # a missing closing edge
    yield c6, [0, 1], True                   # too short
    yield p4, [], False
    rng = random.Random(44)
    graphs = [build_butterfly(r) for r in (2, 3, 4)]
    graphs += [build_cycle(n) for n in (3, 4, 7)] + [build_path(n) for n in (1, 2, 6)]
    for g in graphs:
        for seq in _random_sequences(g, rng, 60):
            for closed in (False, True):
                yield g, seq, closed


def test_check_walk_matches_the_reference_walk_check():
    # one loop checks the walk, lists its edge keys and marks its vertices:
    # its defect is the reference's, and a valid walk's keys are the
    # reference's edges, in walk order
    outcomes = set()
    for g, seq, closed in _walk_cases():
        covered = bytearray(g.n)
        defect, keys = check_walk(g, seq, closed, covered)
        assert defect == reference_walk_defect(g, seq, closed), (g, seq, closed)
        if defect is not None:
            assert keys == []
            outcomes.add(defect.split()[0] if defect[0].isalpha() else "adjacency")
            continue
        ends = seq[1:] + seq[:1] if closed else seq[1:]
        in_order = [(min(u, v), max(u, v)) for u, v in zip(seq, ends)]
        assert [divmod(key, g.n) for key in keys] == in_order, (g, seq, closed)
        assert frozenset(in_order) == _reference_walk_edges(seq, closed)
        assert covered == bytearray(v in seq for v in range(g.n))
        outcomes.add("closed" if closed else "open")
    assert outcomes == {"needs", "repeated", "vertex", "adjacency", "closed", "open"}


def _simple_paths(g):
    stack = [[v] for v in range(g.n)]
    while stack:
        path = stack.pop()
        yield path
        stack.extend(path + [w] for w in g.adj[path[-1]] if w not in path)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 7), st.integers(0, 10_000))
def test_open_walk_violation_matches_endpoint_rule(n, seed):
    # a path is isometric iff it is a geodesic, i.e. d(first, last) = length
    g = random_connected_graph(n, 0.4, seed)
    dm = all_pairs_distances(g)
    for path in _simple_paths(g):
        expected = dm.dist(path[0], path[-1]) == len(path) - 1
        assert (walk_violation(dm, path, False) is None) == expected, path


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10_000))
def test_walk_violation_matches_all_pairs_oracle(n, seed):
    # every simple path of the graph, and every simple cycle, in each rotation
    # and direction: the verdict is the definition's, and a named pair is off
    g = random_connected_graph(n, 0.45, seed)
    dm = all_pairs_distances(g)
    for path in _simple_paths(g):
        closes = len(path) >= 3 and path[0] in g.adj[path[-1]]
        for closed in (False, True) if closes else (False,):
            off = all_pairs_walk_violations(dm, path, closed)
            pair = walk_violation(dm, path, closed)
            assert (pair is None) == (not off), (path, closed)
            assert pair is None or pair in off, (path, closed, pair)


def test_half_cycle_read_names_the_full_loops_pair():
    # every simple cycle of a dozen random graphs, in each rotation and
    # direction: walk_violation, which reads half of an even cycle, names the
    # pair the L-pair loop names, and that pair is off by the definition
    parities = set()
    for seed in range(12):
        g = random_connected_graph(7, 0.5, seed)
        dm = all_pairs_distances(g)
        for path in _simple_paths(g):
            if len(path) >= 3 and path[0] in g.adj[path[-1]]:
                pair = reference_walk_violation(dm, path, True)
                assert walk_violation(dm, path, True) == pair, (seed, path)
                if pair is not None:
                    assert pair in all_pairs_walk_violations(dm, path, True), (seed, path)
                    parities.add(len(path) % 2)
    assert parities == {0, 1}  # violations on even and on odd cycles were both met


def test_isometric_cycle_subpaths_are_geodesics(bf2):
    # contiguous arcs of at most half the cycle stay shortest
    g, dm = bf2
    cycle = [0, 4, 8, 5, 1, 7, 10, 6]
    assert walk_defect_of(g, cycle, True) is None
    assert walk_violation(dm, cycle, True) is None
    L = len(cycle)
    for start in range(L):
        for length in range(1, L // 2 + 1):
            sub = [cycle[(start + k) % L] for k in range(length + 1)]
            assert walk_violation(dm, sub, False) is None
