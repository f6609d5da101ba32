import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bfgp.errors import (
    GraphParseError,
    InvalidParameterError,
    TooLargeError,
    UnsupportedFamilyError,
)
from bfgp.graph_io import export_dot, export_graph, graph_to_dict, import_graph
from bfgp.graphs import (
    MAX_BUTTERFLY_R,
    MAX_VERTICES,
    ButterflyLabel,
    Graph,
    build_butterfly,
    build_cycle,
    build_path,
    butterfly_edges,
    butterfly_ref,
    label_of,
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


@pytest.mark.parametrize("r", range(1, 9))
def test_butterfly_edges_and_ref_without_a_graph(r):
    g = build_butterfly(r)
    assert butterfly_edges(r) == g.edges
    assert butterfly_ref(r) == g.ref()


def test_butterfly_ref_golden():
    assert butterfly_ref(2) == "butterfly:2#6136f66dae6d"
    assert butterfly_ref(7) == "butterfly:7#71a38b60117f"


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


def test_graph_immutable():
    g = build_cycle(4)
    with pytest.raises(AttributeError):
        g.n = 7


def label_id(r, label):
    """Inverse of label_of: id = level * 2^r + row, a_1 most significant."""
    return (label.level << r) + int(label.row, 2)


def test_label_golden_values():
    g = build_butterfly(2)
    assert label_of(g, 0) == ButterflyLabel(0, "00")
    assert label_of(g, 7) == ButterflyLabel(1, "11")
    assert label_id(2, ButterflyLabel(1, "11")) == 7


@given(st.integers(min_value=1, max_value=6))
def test_label_bijection(r):
    g = build_butterfly(r)
    labels = [label_of(g, v) for v in range(g.n)]
    assert all(len(lbl.row) == r and 0 <= lbl.level <= r for lbl in labels)
    assert [label_id(r, lbl) for lbl in labels] == list(range(g.n))


def test_label_errors():
    g = build_butterfly(2)
    with pytest.raises(InvalidParameterError):
        label_of(g, 99)
    with pytest.raises(InvalidParameterError):
        label_of(g, -1)
    with pytest.raises(UnsupportedFamilyError):
        label_of(build_cycle(5), 0)


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
        assert import_graph(export_graph(g, "json")) == g


def test_json_round_trip_is_canonical():
    data = export_graph(build_butterfly(2), "json")
    assert export_graph(import_graph(data), "json") == data


def test_butterfly_json_has_labels():
    doc = graph_to_dict(build_butterfly(2))
    assert doc["num_vertices"] == 12
    assert len(doc["labels"]) == 12
    assert doc["labels"][0] == {"id": 0, "level": 0, "row": "00"}
    assert all(u < v for u, v in doc["edges"])


def test_single_vertex_round_trip():
    g = build_path(1)
    assert import_graph(export_graph(g, "json")).n == 1


def test_dot_export():
    dot = export_dot(build_butterfly(2))
    assert "graph butterfly_2 {" in dot
    assert "L0_00" in dot
    assert "--" in dot
    plain = export_dot(build_cycle(3))
    assert "0 -- 1;" in plain


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


def test_parse_errors():
    with pytest.raises(GraphParseError) as e:
        import_graph(b"{not json")
    assert e.value.line is not None
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"family": "cycle"}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"num_vertices": 2, "edges": [[0, 1, 2]]}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps({"num_vertices": 2, "edges": [[0, 5]]}))
    with pytest.raises(GraphParseError):
        import_graph(json.dumps([1, 2]))
