import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfgp.errors import (
    GraphParseError,
    InvalidParameterError,
    TooLargeError,
)
from bfgp import cli, cycle_cover, genpos, graphs
from bfgp.graph_io import (
    cover_from_dict,
    export_dot,
    export_graph,
    graph_to_dict,
    import_graph,
    vertex_set_from_dict,
)
from bfgp.graphs import (
    BUTTERFLY_HASHES,
    FAMILY_BUTTERFLY,
    FAMILY_CUSTOM,
    FAMILY_CYCLE,
    FAMILY_PATH,
    MAX_BUTTERFLY_R,
    MAX_VERTICES,
    Graph,
    build_butterfly,
    build_cycle,
    build_path,
    butterfly_edges,
    butterfly_ref,
)
from corpus import bfs_dist, named_corpus, random_connected_graph


@pytest.mark.parametrize("r,nv,ne", [(1, 4, 4), (2, 12, 16), (3, 32, 48)])
def test_butterfly_counts(r, nv, ne):
    g = build_butterfly(r)
    assert g.n == nv
    assert g.num_edges == ne


def test_butterfly_r1_is_a_4cycle():
    g = build_butterfly(1)
    assert all(g.degree(v) == 2 for v in range(4))
    assert g.num_edges == 4


@pytest.mark.parametrize("r", range(2, 9))
def test_butterfly_degree_census(r):
    g = build_butterfly(r)
    degs = [g.degree(v) for v in range(g.n)]
    assert degs.count(2) == 2 ** (r + 1)
    assert degs.count(4) == (r - 1) * 2 ** r
    assert set(degs) == {2, 4}


@pytest.mark.parametrize("r", range(2, 9))
def test_butterfly_connected(r):
    g = build_butterfly(r)
    assert -1 not in bfs_dist(g, 0)


def test_adjacency_symmetry_everywhere():
    for _, g in named_corpus() + [("BF3", build_butterfly(3))]:
        for v in range(g.n):
            for w in g.adj[v]:
                assert v in g.adj[w]


@pytest.mark.parametrize("r", range(1, 11))
def test_butterfly_edges_and_ref_without_a_graph(r):
    # build_butterfly fills its slots unchecked; the checked Graph() of the
    # same edges must agree slot by slot (CI does r = 11..14)
    g = build_butterfly(r)
    checked = Graph((r + 1) << r, butterfly_edges(r), FAMILY_BUTTERFLY, r)
    assert g == checked
    assert g.edges == checked.edges == butterfly_edges(r)
    assert g.adj == checked.adj
    assert g.butterfly_r == checked.butterfly_r == r
    assert g.ref() == checked.ref()
    assert butterfly_ref(r) == graphs._content_ref(g.n, g.edges, FAMILY_BUTTERFLY, r)


def test_build_butterfly_skips_the_input_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_butterfly ran an input check")

    expected = {r: Graph((r + 1) << r, butterfly_edges(r), FAMILY_BUTTERFLY, r)
                for r in range(1, 9)}
    monkeypatch.setattr(graphs, "_butterfly_dim_of", refuse)
    monkeypatch.setattr(Graph, "__init__", refuse)
    for r, checked in expected.items():
        g = build_butterfly(r)
        assert (g, g.adj, g.butterfly_r) == (checked, checked.adj, r)


def test_butterfly_hashes_are_the_one_string_hash():
    # raising the cap without a new entry fails here
    assert len(BUTTERFLY_HASHES) == MAX_BUTTERFLY_R + 1
    for r in range(1, MAX_BUTTERFLY_R + 1):
        n = (r + 1) << r
        joined = f"{n}:" + ",".join(f"{u}-{v}" for u, v in butterfly_edges(r))
        assert BUTTERFLY_HASHES[r] == hashlib.sha256(joined.encode()).hexdigest()[:12], r


def test_no_butterfly_ref_hashes_its_edges(monkeypatch):
    class Hashed(Exception):
        pass

    def refuse(*args):
        raise Hashed

    monkeypatch.setattr(graphs, "_content_ref", refuse)
    for r in range(2, 10):
        ref = butterfly_ref(r)
        assert genpos.construct_butterfly_gp_set(r).graph_ref == ref
        assert cycle_cover.construct_bf_cycle_cover(r).graph_ref == ref
        assert build_butterfly(r).ref() == ref
        assert Graph((r + 1) << r, butterfly_edges(r)).ref() == f"custom#{BUTTERFLY_HASHES[r]}"
    assert cli.main(["report", "--r-max", "5", "--quiet"]) == 0
    # graphs other than BF(r) still hash their edges
    bf4 = build_butterfly(4)
    perm = list(range(bf4.n))
    random.Random(4).shuffle(perm)
    relabelled = Graph(bf4.n, [(perm[u], perm[v]) for u, v in bf4.edges])
    assert relabelled.butterfly_r is None
    for g in (relabelled, build_cycle(9), build_path(5)):
        with pytest.raises(Hashed):
            g.ref()


def test_butterfly_ref_golden():
    assert butterfly_ref(2) == "butterfly:2#6136f66dae6d"
    assert butterfly_ref(7) == "butterfly:7#71a38b60117f"
    # taken when the edges were hashed as one joined string; r = 8 and up span chunks
    assert butterfly_ref(8) == "butterfly:8#1e1a1ca0475e"
    assert butterfly_ref(10) == "butterfly:10#8b03daa02b9d"
    assert butterfly_ref(12) == "butterfly:12#a12e3dec8c4f"


def test_ring_refs_golden():
    # taken when the edges were hashed as one joined string; P_1 has no edges
    assert build_path(1).ref() == "path:1#0758ffe9350a"
    assert build_path(2).ref() == "path:2#5a396e832ceb"
    assert build_cycle(9).ref() == "cycle:9#a4400a6a2763"


@pytest.mark.parametrize("m", [4095, 4096, 4097])
def test_chunked_ref_is_the_one_string_hash(m):
    g = build_path(m + 1)
    assert g.num_edges == m
    joined = f"{g.n}:" + ",".join(f"{u}-{v}" for u, v in g.edges)
    assert g.ref() == f"path:{g.n}#{hashlib.sha256(joined.encode()).hexdigest()[:12]}"


def test_butterfly_invalid_dimension():
    for build in (build_butterfly, butterfly_edges, butterfly_ref):
        with pytest.raises(InvalidParameterError):
            build(0)
        with pytest.raises(InvalidParameterError):
            build(-1)
        with pytest.raises(TooLargeError):
            build(MAX_BUTTERFLY_R + 1)
    assert len(butterfly_edges(MAX_BUTTERFLY_R)) == MAX_BUTTERFLY_R << (MAX_BUTTERFLY_R + 1)


def test_cycle_and_path_builders():
    assert build_cycle(5).num_edges == 5
    assert build_cycle(3).n == 3
    assert build_path(1).num_edges == 0
    assert build_path(2).num_edges == 1
    with pytest.raises(InvalidParameterError):
        build_cycle(2)
    with pytest.raises(InvalidParameterError):
        build_path(0)


def test_cycle_and_path_diameters():
    assert max(bfs_dist(build_cycle(8), 0)) == 4
    assert max(bfs_dist(build_path(5), 0)) == 4


def test_graph_validation():
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 5)])
    # pairs are checked in input order, range first, then self-loop
    with pytest.raises(InvalidParameterError, match=r"edge \(4, 0\) out of range"):
        Graph(3, [(1, 2), (4, 0), (1, 1), (0, 5)])
    with pytest.raises(InvalidParameterError, match="self-loop at vertex 1"):
        Graph(3, [(1, 2), (1, 1), (0, 5), (2, 2)])
    with pytest.raises(InvalidParameterError, match="out of range"):
        Graph(3, [(5, 5)])
    # a duplicate names the smallest repeated edge, whatever the input order
    with pytest.raises(InvalidParameterError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(4, [(2, 3), (0, 1), (3, 2), (1, 0)])
    # a pair that does not unpack to two int ids is named too; a float or a
    # bool id would pass the range check and fail (or be kept) past it
    for edge, shown in (((0, 1, 2), r"\(0, 1, 2\)"), ((0, "a"), r"\(0, 'a'\)"), (5, "5"),
                        ((0, 1.5), r"\(0, 1\.5\)"), ((0, 1.0), r"\(0, 1\.0\)"),
                        ((True, 2), r"\(True, 2\)")):
        with pytest.raises(InvalidParameterError,
                           match=rf"^edge {shown} is not a pair of vertex ids$"):
            Graph(3, [(0, 1), edge])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_edge_order_does_not_matter(seed):
    g = random_connected_graph(9, 0.4, seed)
    adj = tuple(tuple(sorted(w for e in g.edges if v in e for w in e if w != v))
                for v in range(g.n))
    shuffled = list(g.edges)
    random.Random(seed).shuffle(shuffled)
    # sorted tuples, reversed list pairs, a shuffled generator of half-reversed
    # pairs and shuffled list pairs give the same edges and adjacency
    for edges in (g.edges, [[v, u] for u, v in reversed(g.edges)],
                  ((v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(shuffled)),
                  [list(e) for e in shuffled]):
        h = Graph(g.n, edges)
        assert h.edges == g.edges
        assert h.adj == adj
    # an oriented tuple is kept, not copied
    assert all(a is b for a, b in zip(Graph(g.n, g.edges).edges, g.edges))
    # sorted input that repeats an edge, or leaves the range, meets the same checks
    for bad, message in ((g.edges + g.edges[-1:], "duplicate edge"),
                         (g.edges + ((g.n - 1, g.n),), "out of range")):
        with pytest.raises(InvalidParameterError, match=message):
            Graph(g.n, bad)


def test_graph_immutable():
    g = build_cycle(4)
    with pytest.raises(AttributeError):
        g.n = 7


def test_negative_vertex_count_is_refused():
    with pytest.raises(InvalidParameterError, match="vertex count must be >= 0, got -1"):
        Graph(-1, [])


def test_graph_equality_defers_to_other_types():
    g = build_cycle(4)
    assert g.__eq__(g.edges) is NotImplemented
    assert g != g.edges


@pytest.mark.parametrize("r", [2, 3, 4])
def test_classification_counts(r):
    # the degree-2 class X is exactly levels 0 and r, the degree-4 class Y the rest
    g = build_butterfly(r)
    nrows = 1 << r
    x = [v for v in range(g.n) if g.degree(v) == 2]
    y = [v for v in range(g.n) if g.degree(v) == 4]
    assert x == [*range(nrows), *range(r * nrows, (r + 1) * nrows)]
    assert y == list(range(nrows, r * nrows))
    assert len(x) == 2 ** (r + 1) and len(y) == (r - 1) * 2 ** r


def test_json_round_trip():
    for g in (build_butterfly(2), build_cycle(5), build_path(1),
              random_connected_graph(7, 0.4, seed=5)):
        assert import_graph(export_graph(g)) == g


def test_json_round_trip_is_canonical():
    data = export_graph(build_butterfly(2))
    assert export_graph(import_graph(data)) == data


def test_butterfly_json_has_no_labels():
    g = build_butterfly(2)
    doc = graph_to_dict(g)
    assert set(doc) == {"family", "r", "num_vertices", "edges"}
    assert doc["num_vertices"] == 12
    assert all(u < v for u, v in doc["edges"])
    # files written with a labels array still import, whatever the labels say
    right = [{"id": v, "level": v >> 2, "row": format(v & 3, "02b")} for v in range(g.n)]
    wrong = [{"id": 0, "level": "x", "row": 7}, "junk"]
    for labels in (right, wrong):
        assert import_graph(json.dumps({**doc, "labels": labels})) == g


def test_single_vertex_round_trip():
    g = build_path(1)
    assert import_graph(export_graph(g)).n == 1


def _dot_names(dot: str) -> list[str]:
    """The vertex names a DOT file declares, in order."""
    return [line.strip().rstrip(";") for line in dot.splitlines()[1:-1] if "--" not in line]


def test_dot_export():
    dot = export_dot(build_butterfly(2))
    assert dot.startswith("graph butterfly_2 {\n")
    assert _dot_names(dot) == ["L0_00", "L0_01", "L0_10", "L0_11", "L1_00", "L1_01",
                               "L1_10", "L1_11", "L2_00", "L2_01", "L2_10", "L2_11"]
    assert "  L0_00 -- L1_00;\n" in dot
    plain = export_dot(build_cycle(3))
    assert "0 -- 1;" in plain
    # the names follow the edges, not the tag: only the header differs
    bf3 = build_butterfly(3)
    tagged, untagged = export_dot(bf3), export_dot(Graph(bf3.n, bf3.edges))
    assert untagged.startswith("graph custom {\n")
    assert untagged.replace("graph custom {", "graph butterfly_3 {", 1) == tagged


@pytest.mark.parametrize("r", range(1, 7))
def test_dot_names_decode_to_the_vertex_id(r):
    # L<level>_<row>, the row as r bits with a_1 leftmost: id = level * 2^r + row
    names = _dot_names(export_dot(build_butterfly(r)))
    assert len(set(names)) == len(names) == (r + 1) << r
    for v, name in enumerate(names):
        level, row = name[1:].split("_")
        assert len(row) == r and (int(level) << r) + int(row, 2) == v


def test_vertex_count_is_capped():
    # the cap admits the largest butterfly's vertex count and nothing above it
    assert Graph(MAX_VERTICES, ()).n == (MAX_BUTTERFLY_R + 1) << MAX_BUTTERFLY_R
    for build in (lambda n: Graph(n, ()), build_cycle, build_path):
        with pytest.raises(TooLargeError):
            build(MAX_VERTICES + 1)
    with pytest.raises(TooLargeError):
        import_graph(json.dumps({"family": "custom", "num_vertices": MAX_VERTICES + 1,
                                 "edges": []}))


def test_import_rejects_mislabeled_family():
    doc = graph_to_dict(build_cycle(5))
    doc["family"] = "butterfly"
    doc["r"] = 2
    with pytest.raises(GraphParseError):
        import_graph(json.dumps(doc))
    huge_r = graph_to_dict(build_butterfly(2))
    huge_r["r"] = 10**9
    with pytest.raises(GraphParseError):
        import_graph(json.dumps(huge_r))
    bad_n = graph_to_dict(build_cycle(5))
    bad_n["n"] = 7
    with pytest.raises(GraphParseError):
        import_graph(json.dumps(bad_n))


@st.composite
def tagged_graphs(draw):
    """A generator's graph, perhaps with edges dropped, added or ids permuted,
    under any family tag and a parameter near the generator's."""
    base = draw(st.one_of(st.integers(1, 3).map(build_butterfly),
                          st.integers(3, 8).map(build_cycle),
                          st.integers(1, 8).map(build_path)))
    n, edges = base.n, list(base.edges)
    change = draw(st.sampled_from(["none", "drop", "add", "permute"]))
    if change == "drop" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif change == "add" and n >= 2:
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if (min(u, v), max(u, v)) not in base.edges:
            edges.append((u, v))
    elif change == "permute":
        perm = draw(st.permutations(range(n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    family = draw(st.sampled_from([base.family, FAMILY_BUTTERFLY, FAMILY_CYCLE,
                                   FAMILY_PATH, FAMILY_CUSTOM]))
    param = draw(st.sampled_from([base.family_param, base.family_param, None, n, n + 1, 1, 2, 3]))
    return n, edges, family, param


@settings(max_examples=300, deadline=None)
@given(tagged_graphs())
def test_every_graph_that_constructs_round_trips(case):
    n, edges, family, param = case
    try:
        g = Graph(n, edges, family, param)
    except InvalidParameterError:
        return
    # an accepted tag is true of the edges
    if family == FAMILY_BUTTERFLY:
        assert g.butterfly_r == param and g.edges == butterfly_edges(param)
    elif family in (FAMILY_CYCLE, FAMILY_PATH):
        build = build_cycle if family == FAMILY_CYCLE else build_path
        assert param in (None, n) and g.edges == build(n).edges
    assert import_graph(export_graph(g)) == g


def _rotated(g):
    return [((u + 1) % g.n, (v + 1) % g.n) for u, v in g.edges]


@pytest.mark.parametrize("n,edges,family,param", [
    (32, _rotated(build_butterfly(3)), FAMILY_BUTTERFLY, 3),
    (12, build_butterfly(2).edges, FAMILY_BUTTERFLY, 3),
    (12, build_butterfly(2).edges, FAMILY_BUTTERFLY, 10**9),
    (12, build_butterfly(2).edges, FAMILY_BUTTERFLY, None),
    (5, build_cycle(5).edges, FAMILY_BUTTERFLY, 1),
    (4, [(0, 1), (1, 2), (2, 3)], FAMILY_CYCLE, 4),
    (5, _rotated(build_path(5)), FAMILY_PATH, 5),
    (5, build_cycle(5).edges, FAMILY_CYCLE, 7),
    (2, [(0, 1)], FAMILY_CYCLE, None),
    (3, [(0, 2)], FAMILY_PATH, 3),
    (4, build_cycle(4).edges, FAMILY_PATH, 4),
    (0, [], FAMILY_PATH, None),
    (1, [], FAMILY_PATH, True),
    (12, build_butterfly(2).edges, FAMILY_BUTTERFLY, True),
    (2, [(0, 1)], FAMILY_CUSTOM, True),
    (2, [(0, 1)], FAMILY_CUSTOM, "2"),
    (2, [(0, 1)], "tree", None),
])
def test_mismatched_family_tag_is_refused(n, edges, family, param):
    with pytest.raises(InvalidParameterError):
        Graph(n, edges, family, param)


def test_butterfly_dimension_is_read_from_the_edges():
    for r in range(1, 5):
        bf = build_butterfly(r)
        assert bf.butterfly_r == r
        assert Graph(bf.n, bf.edges).butterfly_r == r
        assert Graph(bf.n, bf.edges[1:]).butterfly_r is None
        assert Graph(bf.n, _rotated(bf)).butterfly_r is None
    assert build_cycle(4).butterfly_r is None
    assert Graph(0, []).butterfly_r is None


def _reference_dim(n, edges):
    """r if the edge set equals BF(r)'s, built here from the encoding, else None."""
    r = 1
    while (r + 1) << r < n:
        r += 1
    if (r + 1) << r != n:
        return None
    nrows = 1 << r
    canonical = set()
    for lev in range(r):
        for row in range(nrows):
            u = lev * nrows + row
            for row2 in (row, row ^ (1 << (r - 1 - lev))):
                canonical.add((u, (lev + 1) * nrows + row2))
    return r if {(min(e), max(e)) for e in edges} == canonical else None


@st.composite
def mutated_butterflies(draw):
    """BF(1..6)'s edges with one edge moved, dropped or added, a cross edge
    sent to a wrong bit, or all ids permuted."""
    r = draw(st.integers(1, 6))
    n, edges = (r + 1) << r, list(butterfly_edges(r))
    change = draw(st.sampled_from(["none", "move", "wrong-bit", "permute", "drop", "add"]))
    i = draw(st.integers(0, len(edges) - 1))
    pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if change == "move":
        edges[i] = tuple(pair)
    elif change == "drop":
        del edges[i]
    elif change == "add":
        edges.append(tuple(pair))
    elif change == "wrong-bit" and r >= 2:
        cross = [k for k, (u, v) in enumerate(edges) if v - u != 1 << r]
        u, v = edges[cross[i % len(cross)]]
        lev = u >> r
        bit = draw(st.sampled_from([b for b in range(r) if b != r - 1 - lev]))
        edges[cross[i % len(cross)]] = (u, ((lev + 1) << r) + ((u ^ (1 << bit)) & ((1 << r) - 1)))
    elif change == "permute":
        perm = draw(st.permutations(range(n)))
        edges = [(perm[u], perm[v]) for u, v in edges]
    return n, edges


@settings(max_examples=300, deadline=None)
@given(mutated_butterflies())
def test_butterfly_recognition_matches_the_reference_edges(case):
    n, edges = case
    try:
        g = Graph(n, edges)
    except InvalidParameterError:  # a moved or added edge repeated one, or a self-loop
        return
    assert g.butterfly_r == _reference_dim(n, edges)


def test_butterfly_recognition_builds_no_edge_list(monkeypatch):
    cases = [(build_butterfly(r).n, butterfly_edges(r)) for r in range(1, 7)]

    def refuse(r):
        raise AssertionError("recognition built a reference edge list")
    monkeypatch.setattr(graphs, "butterfly_edges", refuse)
    for r, (n, edges) in enumerate(cases, start=1):
        assert Graph(n, edges).butterfly_r == r
        assert Graph(n, edges, FAMILY_BUTTERFLY, r).butterfly_r == r


def test_parse_errors():
    with pytest.raises(GraphParseError, match="^invalid JSON at line 1, column 2: "):
        import_graph(b"{not json")
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"family": "cycle"}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"num_vertices": 2, "edges": [[0, 1, 2]]}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"num_vertices": 2, "edges": [[0, 5]]}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps([1, 2]))


@pytest.mark.parametrize("edge", [[0, True], [0, 1, 2], [0], "ab", None, [0.5, 1],
                                  {"a": 0, "b": 1}, 5, list(range(200_000))],
                         ids=lambda e: json.dumps(e) if len(json.dumps(e)) < 30 else "200000 ints")
def test_bad_edge_error_is_short(edge):
    doc = {"family": "custom", "num_vertices": 3, "edges": [[0, 1], edge]}
    with pytest.raises(GraphParseError, match="is not a pair of vertex ids") as e:
        import_graph(json.dumps(doc))
    assert len(str(e.value)) < 200


@pytest.mark.parametrize("key,value", [("num_vertices", list(range(200_000))),
                                       ("family", "x" * 200_000), ("n", list(range(200_000)))])
def test_bad_field_error_is_short(key, value):
    with pytest.raises(GraphParseError) as e:
        import_graph(json.dumps({"family": "custom", "num_vertices": 2, key: value}))
    assert len(str(e.value)) < 200


# set and cover documents with two or three bad fields each, and the one
# error each must get: the first bad field in the order the reader checks
MULTI_DEFECT = [
    (vertex_set_from_dict, {"graph_ref": 5}, "vertex set JSON needs an 'ids' array"),
    (vertex_set_from_dict, {"ids": "x", "provenance": 5, "graph_ref": 5},
     "'ids' must be an array of integers"),
    (vertex_set_from_dict, {"ids": [0], "provenance": 5, "graph_ref": 5},
     "'provenance' must be a string"),
    (cover_from_dict, {"kind": "weird", "graph_ref": 5}, "cover JSON needs a 'cycles' array"),
    (cover_from_dict, {"cycles": "no", "kind": "weird"}, "unknown cover kind 'weird'"),
    (cover_from_dict, {"cycles": "no", "graph_ref": 5}, "'cycles' must be an array of id arrays"),
    (cover_from_dict, {"cycles": [[0, 1], [0, "a"]], "graph_ref": 5},
     "cycle #1 must be an array of integers"),
    (cover_from_dict, {"cycles": [[0, None]], "graph_ref": 5},
     "cycle #0 must be an array of integers"),
]


@pytest.mark.parametrize("read, doc, error", MULTI_DEFECT,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(MULTI_DEFECT)])
def test_a_claim_file_with_several_bad_fields_gets_the_first_error(read, doc, error):
    with pytest.raises(GraphParseError) as e:
        read(doc)
    assert str(e.value) == error
