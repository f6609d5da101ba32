import hashlib
import json
import subprocess
import sys

import pytest

from bfgp import cycle_cover as cc
from bfgp import cli, genpos, geodesy, graphs
from bfgp.budget import DEFAULT_SOLVER_NODES
from bfgp.cli import main
from bfgp.graph_io import cover_to_dict, export_dot, export_graph, vertex_set_to_dict
from bfgp.graphs import build_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_generate_butterfly(capsys, tmp_path):
    out = tmp_path / "bf3.json"
    code, doc = run_cli(capsys, "generate", "butterfly", "--r", "3",
                        "--out", str(out), "--quiet")
    assert code == 0
    assert doc["num_vertices"] == 32
    assert doc["num_edges"] == 48
    assert out.exists()
    manifest = json.loads((tmp_path / "bf3.json.manifest.json").read_text())
    assert str(out) in manifest["outputs"]
    assert manifest["exit_code"] == 0


def test_generate_cycle_and_path(capsys):
    code, doc = run_cli(capsys, "generate", "cycle", "--n", "5", "--quiet")
    assert code == 0 and doc["num_vertices"] == 5 and doc["num_edges"] == 5
    code, doc = run_cli(capsys, "generate", "path", "--n", "4", "--quiet")
    assert code == 0 and doc["num_edges"] == 3


def test_generate_rejects_bad_params(capsys):
    code, doc = run_cli(capsys, "generate", "butterfly", "--r", "0", "--quiet")
    assert code == 2
    assert "error" in doc
    code, doc = run_cli(capsys, "generate", "butterfly", "--quiet")
    assert code == 2 and doc["error"] == "butterfly needs --r"
    code, doc = run_cli(capsys, "generate", "path", "--quiet")
    assert code == 2 and doc["error"] == "path needs --n"
    # each family takes its own flag only; the other one is not dropped silently
    for argv in (("butterfly", "--r", "3", "--n", "7"), ("cycle", "--n", "5", "--r", "3"),
                 ("path", "--n", "4", "--r", "9")):
        code, doc = run_cli(capsys, "generate", *argv, "--quiet")
        assert code == 2 and doc["kind"] == "usage"
        assert "not allowed with" in doc["error"]


def test_generate_dot(capsys):
    code, doc = run_cli(capsys, "generate", "butterfly", "--r", "2",
                        "--format", "dot", "--quiet")
    assert code == 0
    assert "L0_00" in doc["dot"]


def test_generate_dot_out_writes_the_dot_file(capsys, tmp_path):
    out = tmp_path / "g.dot"
    code, doc = run_cli(capsys, "generate", "butterfly", "--r", "2", "--format", "dot",
                        "--out", str(out), "--quiet")
    assert code == 0 and doc["path"] == str(out) and "dot" not in doc
    assert out.read_text() == export_dot(graphs.build_butterfly(2))


def test_gpset_construct_verify_flow(capsys, tmp_path):
    graph = tmp_path / "bf3.json"
    gpset = tmp_path / "set3.json"
    assert run_cli(capsys, "generate", "butterfly", "--r", "3",
                   "--out", str(graph), "--quiet")[0] == 0
    code, doc = run_cli(capsys, "gpset", "construct", "--r", "3",
                        "--out", str(gpset), "--quiet")
    assert code == 0
    assert doc["size"] == 10
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(graph),
                        "--set", str(gpset), "--quiet")
    assert code == 0
    assert doc["status"] == "verified-general-position"


def test_gpset_construct_out_names_its_file(capsys, tmp_path):
    path = str(tmp_path / "s.json")
    code, doc = run_cli(capsys, "gpset", "construct", "--r", "10", "--out", path, "--quiet",
                        "--manifest", str(tmp_path / "m.json"))
    assert code == 0
    assert doc == {"command": "gpset-construct", "r": 10, "size": 1280, "path": path}
    nrows, msb = 1 << 10, 1 << 9
    closed_form = ([row for row in range(nrows) if row & 1]
                   + [nrows + row for row in range(0, msb, 2)]
                   + [10 * nrows + row for row in range(msb, nrows)])
    with open(path) as f:
        assert json.load(f)["ids"] == closed_form


def test_gpset_construct_without_out_prints_the_set(capsys, tmp_path):
    code, doc = run_cli(capsys, "gpset", "construct", "--r", "3", "--quiet",
                        "--manifest", str(tmp_path / "m.json"))
    assert code == 0
    assert "path" not in doc
    assert doc["set"] == vertex_set_to_dict(genpos.construct_butterfly_gp_set(3))


def _corrupt_set(monkeypatch):
    construct = genpos.construct_butterfly_gp_set

    def corrupted(r):
        s = construct(r)
        # levels 0, 1, 2 of row 0 lie on one geodesic
        return genpos.VertexSet(members=tuple(sorted(set(s.members) | {0, 1 << r, 2 << r})),
                                provenance=s.provenance, graph_ref=s.graph_ref)
    monkeypatch.setattr(genpos, "construct_butterfly_gp_set", corrupted)


def test_gpset_construct_fails_on_rejected_set(capsys, monkeypatch):
    _corrupt_set(monkeypatch)
    code, doc = run_cli(capsys, "gpset", "construct", "--r", "2", "--quiet")
    assert code == 1
    assert doc["status"] == "verify-failed"
    # 4, at level 1, is adjacent to 0 and to 1 at level 0
    assert doc["witness"] == {"status": "violation", "triple": [0, 1, 4], "middle": 4}


def test_gpset_verify_violation(capsys, tmp_path):
    graph = tmp_path / "bf2.json"
    bad = tmp_path / "bad.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    bad.write_text(json.dumps({"ids": [0, 4, 8]}))
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(graph),
                        "--set", str(bad), "--quiet")
    assert code == 1
    assert doc["witness"]["triple"] == [0, 4, 8]
    assert doc["witness"]["middle"] == 4


def test_gpset_max(capsys):
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2", "--quiet")
    assert code == 0
    assert doc["size"] == 5
    assert doc["optimal"] is True
    assert doc["set"]["ids"] == [1, 3, 4, 10, 11]


def test_gpset_max_out_writes_a_set_gpset_verify_accepts(capsys, tmp_path):
    graph, found = tmp_path / "bf3.json", tmp_path / "max3.json"
    run_cli(capsys, "generate", "butterfly", "--r", "3", "--out", str(graph), "--quiet")
    code, doc = run_cli(capsys, "gpset", "max", "--r", "3", "--out", str(found), "--quiet")
    assert code == 0 and doc["optimal"] is True
    assert doc["path"] == str(found) and "set" not in doc
    written = json.loads(found.read_text())
    assert written["provenance"] == "solver-exact" and len(written["ids"]) == doc["size"] == 10
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(graph), "--set", str(found),
                        "--quiet")
    assert code == 0 and doc["status"] == "verified-general-position"
    manifest = json.loads((tmp_path / "max3.json.manifest.json").read_text())
    assert str(found) in manifest["outputs"]


def test_gpset_max_pool_deg2(capsys):
    code, doc = run_cli(capsys, "gpset", "max", "--r", "3", "--pool", "deg2", "--quiet")
    assert code == 0
    assert doc["size"] == 8
    assert doc["optimal"] is True


def test_gpset_max_pool_file(capsys, tmp_path):
    pool = tmp_path / "pool.json"
    pool.write_text(json.dumps({"ids": [0, 1, 2, 3]}))
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2",
                        "--pool", f"file:{pool}", "--quiet")
    assert code == 0
    assert doc["size"] <= 4


def test_gpset_max_budget_exhaustion(capsys):
    code, doc = run_cli(capsys, "gpset", "max", "--r", "3",
                        "--node-budget", "1", "--quiet")
    assert code == 3
    assert doc["optimal"] is False
    assert doc["budget_exhausted"] is True


def _corrupt_solver(monkeypatch):
    solve = genpos.max_general_position

    def corrupted(g, dm, pool=None, budget=None):
        res = solve(g, dm, pool=pool, budget=budget)
        # levels 0, 1, 2 of row 0 lie on one geodesic
        s = genpos.VertexSet(members=(0, 4, 8), graph_ref=res.best_set.graph_ref)
        return genpos.SolveResult(s, 3, res.optimal, res.nodes_explored)
    monkeypatch.setattr(genpos, "max_general_position", corrupted)


def test_gpset_max_fails_on_rejected_set(capsys, monkeypatch):
    _corrupt_solver(monkeypatch)
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2", "--quiet")
    assert code == 1
    assert doc["status"] == "verify-failed"
    assert doc["witness"]["triple"] == [0, 4, 8]


@pytest.mark.parametrize("argv", [("gpset", "max", "--r", "2"), ("cover", "construct", "--r", "2"),
                                  ("gpset", "construct", "--r", "2")],
                         ids=["gpset-max", "cover-construct", "gpset-construct"])
def test_rejected_product_is_not_written(capsys, tmp_path, monkeypatch, argv):
    _corrupt_solver(monkeypatch)
    _corrupt_cover(monkeypatch)
    _corrupt_set(monkeypatch)
    out = tmp_path / "product.json"
    code, doc = run_cli(capsys, *argv, "--out", str(out), "--quiet")
    assert code == 1 and doc["status"] == "verify-failed"
    assert "path" not in doc and "set" not in doc
    assert not out.exists()
    manifest = json.loads((tmp_path / "product.json.manifest.json").read_text())
    assert manifest["outputs"] == {}


@pytest.mark.parametrize("argv", [
    ("--out", "g.json"),
    ("--pool", "file:p.json", "--out", "./p.json"),
], ids=["graph", "pool"])
def test_out_never_overwrites_the_runs_input(capsys, tmp_path, monkeypatch, argv):
    # refused as the input is read, so before the default-budget search on BF(4)
    def no_search(*args, **kwargs):
        raise AssertionError("a refused --out must not reach the search")
    monkeypatch.setattr(genpos, "max_general_position", no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_bytes(export_graph(graphs.build_butterfly(4)))
    (tmp_path / "p.json").write_text(json.dumps({"ids": [0, 1, 2, 3]}))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, doc = run_cli(capsys, "gpset", "max", "--graph", "g.json", *argv,
                        "--manifest", "m.json", "--quiet")
    assert code == 2 and doc["kind"] == "usage" and "--out" in doc["error"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "m.json"} == before
    assert json.loads((tmp_path / "m.json").read_text())["outputs"] == {}


def test_gpset_max_bad_pool(capsys):
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2", "--pool", "huh", "--quiet")
    assert code == 2
    assert "error" in doc


def test_cover_flow(capsys, tmp_path):
    graph = tmp_path / "bf2.json"
    cover = tmp_path / "cover2.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    code, doc = run_cli(capsys, "cover", "construct", "--r", "2",
                        "--out", str(cover), "--quiet")
    assert code == 0
    assert doc["cycles"] == 2
    assert doc["passes"] is True
    code, doc = run_cli(capsys, "cover", "verify", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 0
    assert doc["passes"] is True
    code, doc = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 0
    assert doc["bounds"] == {"from_ic": 6}


@pytest.mark.parametrize("argv", [
    ("gpset", "verify", "--graph", "g.json", "--set", "s.json"),
    ("cover", "verify", "--graph", "g.json", "--cover", "c.json"),
    ("cover", "bounds", "--graph", "g.json", "--cover", "c.json"),
    ("report", "--r-max", "2"),
], ids=["gpset-verify", "cover-verify", "cover-bounds", "report"])
def test_out_is_a_usage_error_where_there_is_no_product(capsys, tmp_path, argv):
    # these commands write no file another command reads; stdout is their whole result
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out), "--quiet"])
    doc = json.loads(capsys.readouterr().out)  # one document, or this raises
    assert code == 2 and doc["kind"] == "usage" and "--out" in doc["error"]
    assert not out.exists()


def test_cover_tampered_fails(capsys, tmp_path):
    graph = tmp_path / "bf2.json"
    cover = tmp_path / "cover2.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    run_cli(capsys, "cover", "construct", "--r", "2", "--out", str(cover), "--quiet")
    doc = json.loads(cover.read_text())
    doc["cycles"] = [doc["cycles"][0], doc["cycles"][0]]
    cover.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, "cover", "verify", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 1
    assert rep["passes"] is False
    assert rep["report"]["first_failure"] is not None
    code, bounds = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                           "--cover", str(cover), "--quiet")
    assert code == 1
    assert "error" in bounds


def test_cover_verify_names_uncovered_edge(capsys, tmp_path):
    graph = tmp_path / "c6.json"
    cover = tmp_path / "paths.json"
    run_cli(capsys, "generate", "cycle", "--n", "6", "--out", str(graph), "--quiet")
    cover.write_text(json.dumps({"kind": "path-cover", "cycles": [[0, 1, 2], [3, 4, 5]]}))
    code, doc = run_cli(capsys, "cover", "verify", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 1
    assert doc["passes"] is False
    assert doc["report"]["first_failure"] == {
        "check": "edge_partition", "cycle_index": None, "detail": "edge (0, 5) uncovered"}
    code, doc = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 0
    assert doc["bounds"] == {"from_ip": 4}


def _corrupt_cover(monkeypatch):
    construct = cc.construct_bf_cycle_cover

    def corrupted(r):
        cover = construct(r)
        return cc.CycleCover(kind=cover.kind, cycles=cover.cycles[:1] * 2,
                             graph_ref=cover.graph_ref)
    monkeypatch.setattr(cc, "construct_bf_cycle_cover", corrupted)


def test_cover_construct_fails_on_rejected_cover(capsys, monkeypatch):
    _corrupt_cover(monkeypatch)
    code, doc = run_cli(capsys, "cover", "construct", "--r", "2", "--quiet")
    assert code == 1
    assert doc["passes"] is False
    assert doc["report"]["first_failure"]["check"] == "edge_disjoint"


def test_report_fails_on_rejected_cover(capsys, monkeypatch):
    _corrupt_cover(monkeypatch)
    code, doc = run_cli(capsys, "report", "--r-min", "2", "--r-max", "2",
                        "--exact-max-r", "0", "--quiet")
    assert code == 1
    row = doc["rows"][0]
    assert row["set_verified"] is True
    assert row["cover_verified"] is False
    assert row["gp_upper_bound"] is None


@pytest.mark.parametrize("r", range(2, 6))
def test_report_and_cover_bounds_give_one_bound(capsys, tmp_path, r):
    graph, cover = tmp_path / "g.json", tmp_path / "c.json"
    run_cli(capsys, "generate", "butterfly", "--r", str(r), "--out", str(graph), "--quiet")
    run_cli(capsys, "cover", "construct", "--r", str(r), "--out", str(cover), "--quiet")
    code, doc = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                        "--cover", str(cover), "--quiet")
    assert code == 0
    _, rep = run_cli(capsys, "report", "--r-min", str(r), "--r-max", str(r),
                     "--exact-max-r", "0", "--quiet")
    assert rep["rows"][0]["gp_upper_bound"] == doc["bounds"]["from_ic"] == 3 << (r - 1)


@pytest.mark.parametrize("r", range(2, 6))
def test_report_bounds_a_sound_cover_that_fails_the_contract(capsys, monkeypatch, r):
    construct = cc.construct_bf_cycle_cover

    def padded(r):
        cover = construct(r)
        return cc.CycleCover(kind=cover.kind, cycles=cover.cycles + cover.cycles[:1],
                             graph_ref=cover.graph_ref)
    g = graphs.build_butterfly(r)
    report = cc.verify_cover(g, geodesy.all_pairs_distances(g), padded(r))
    assert [name for name, ok in report.flags.items() if not ok] == [
        "edge_disjoint", "edge_partition"]
    monkeypatch.setattr(cc, "construct_bf_cycle_cover", padded)
    code, doc = run_cli(capsys, "report", "--r-min", str(r), "--r-max", str(r),
                        "--exact-max-r", "0", "--quiet")
    assert code == 1
    row = doc["rows"][0]
    assert (row["cover_verified"], row["gp_upper_bound"]) == (False, 3 * ((1 << (r - 1)) + 1))


def test_report_fails_on_rejected_exact_set(capsys, monkeypatch):
    _corrupt_solver(monkeypatch)
    code, doc = run_cli(capsys, "report", "--r-min", "2", "--r-max", "2", "--quiet")
    assert code == 1
    row = doc["rows"][0]
    assert (row["set_verified"], row["cover_verified"]) == (True, True)
    assert (row["gp_exact"], row["exact_optimal"]) == (3, True)


@pytest.mark.parametrize("argv", [("--r-min", "5", "--r-max", "4"), ("--r-min", "1")],
                         ids=["empty-range", "r-min-1"])
def test_report_range_is_checked(capsys, argv):
    code, doc = run_cli(capsys, "report", *argv, "--quiet")
    assert code == 2
    assert doc == {"error": "need 2 <= r-min <= r-max", "kind": "usage"}


def test_report_fails_on_rejected_set(capsys, monkeypatch):
    _corrupt_set(monkeypatch)
    code, doc = run_cli(capsys, "report", "--r-min", "2", "--r-max", "2",
                        "--exact-max-r", "0", "--quiet")
    assert code == 1
    row = doc["rows"][0]
    assert row["set_verified"] is False
    assert row["cover_verified"] is True


def test_budget_flags_only_on_searches(capsys):
    code, doc = run_cli(capsys, "cover", "construct", "--r", "2",
                        "--node-budget", "5", "--quiet")
    assert code == 2
    assert doc["kind"] == "usage"
    # there is no wall-clock budget: it would make results depend on machine speed
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2", "--time-budget", "5", "--quiet")
    assert code == 2
    assert doc["kind"] == "usage"


@pytest.mark.parametrize("argv", [
    ("gpset", "max", "--r", "2", "--node-budget", "0"),
    ("gpset", "max", "--r", "2", "--node-budget", "-5"),
    ("report", "--r-max", "3", "--exact-max-r", "0", "--node-budget", "-5"),
    ("report", "--r-max", "3", "--node-budget", "0"),
    ("report", "--r-max", "3", "--node-budget", "many"),
], ids=" ".join)
def test_node_budget_is_checked_as_it_is_parsed(capsys, monkeypatch, argv):
    def no_graph(r):
        raise AssertionError("a refused budget must not reach a graph")
    monkeypatch.setattr(graphs, "build_butterfly", no_graph)
    code, doc = run_cli(capsys, *argv, "--quiet")
    assert code == 2 and doc["kind"] == "usage"
    assert doc["error"].startswith("argument --node-budget: ")


@pytest.mark.parametrize("argv", [
    ("generate", "butterfly", "--r", "40"),
    ("gpset", "construct", "--r", "40"),
    ("cover", "construct", "--r", "40"),
    ("gpset", "max", "--r", "40"),
    ("report", "--r-max", "40"),
], ids=" ".join)
def test_butterfly_dimension_is_capped(capsys, tmp_path, argv):
    code = main([*argv, "--quiet", "--manifest", str(tmp_path / "manifest.json")])
    out = capsys.readouterr().out
    doc, end = json.JSONDecoder().raw_decode(out)
    assert out[end:].strip() == ""
    assert code == 2
    assert doc["kind"] == "TooLargeError"


def test_search_triple_ceiling(capsys, tmp_path):
    # BF(7) has well over genpos.MAX_SEARCH_TRIPLES collinear triples; the scan
    # stops one past the ceiling, so the refusal is quick and small
    code, doc = run_cli(capsys, "gpset", "max", "--r", "7", "--node-budget", "10", "--quiet",
                        "--manifest", str(tmp_path / "manifest.json"))
    assert code == 2
    assert doc["kind"] == "TooLargeError"


def test_distance_table_ceiling(capsys, tmp_path, monkeypatch):
    def no_table(g, source):
        raise AssertionError("a refused graph must not reach BFS")
    monkeypatch.setattr(geodesy, "bfs_distances", no_table)
    graph = tmp_path / "path.json"
    graph.write_bytes(export_graph(build_path(geodesy.MAX_TABLE_VERTICES + 1)))
    members = tmp_path / "set.json"
    members.write_text(json.dumps({"ids": [0, 1]}))
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(graph),
                        "--set", str(members), "--quiet")
    assert code == 2
    assert doc["kind"] == "TooLargeError"


def test_vertex_ceiling(capsys, tmp_path):
    too_many = str(graphs.MAX_VERTICES + 1)
    graph = tmp_path / "huge.json"
    graph.write_text(json.dumps({"family": "custom", "num_vertices": graphs.MAX_VERTICES + 1,
                                 "edges": []}))
    members = tmp_path / "set.json"
    members.write_text(json.dumps({"ids": [0, 1]}))
    for argv in (("generate", "path", "--n", too_many),
                 ("generate", "cycle", "--n", too_many),
                 ("gpset", "verify", "--graph", str(graph), "--set", str(members))):
        code, doc = run_cli(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert doc["kind"] == "TooLargeError"


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_last_resort_errors_give_one_document(capsys, monkeypatch, error):
    def boom(run):
        raise error("maximum recursion depth exceeded" if error is RecursionError else "")
    monkeypatch.setattr(cli, "cmd_generate", boom)
    code, doc = run_cli(capsys, "generate", "path", "--n", "3", "--quiet")
    assert code == 2
    assert doc["kind"] == error.__name__ and doc["error"]


@pytest.mark.parametrize("flag,argv", [
    ("--manifest", ("generate", "cycle", "--n", "4")),
    ("--out", ("gpset", "construct", "--r", "2")),
], ids=["manifest", "out"])
def test_unwritable_path_gives_one_io_document(capsys, tmp_path, flag, argv):
    target = tmp_path / "missing" / "x.json"
    code = main([*argv, "--quiet", flag, str(target)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2
    assert doc["kind"] == "io"
    # with --out, the manifest's own failure does not replace the first error
    assert doc["error"].endswith(repr(str(target)))
    # the manifest file cannot be written either, so it goes to stderr
    manifest = json.loads(captured.err.removeprefix("manifest: "))
    assert manifest["exit_code"] == 2
    assert manifest["result_summary"] == {"error": doc["error"]}


def test_report(capsys):
    code, doc = run_cli(capsys, "report", "--r-min", "2", "--r-max", "3", "--quiet")
    assert code == 0
    rows = doc["rows"]
    assert rows[0] == {
        "r": 2, "set_size": 5, "set_verified": True, "cover_cycles": 2,
        "cover_verified": True, "gp_upper_bound": 6, "gp_exact": 5,
        "exact_optimal": True,
    }
    assert rows[1]["set_size"] == 10
    assert rows[1]["cover_cycles"] == 4
    assert rows[1]["gp_upper_bound"] == 12
    assert rows[1]["gp_exact"] == 10


@pytest.mark.parametrize("argv, note", [
    (("gpset", "construct", "--r", "3"), "BF(3) general position set of size 10"),
    (("report", "--r-max", "2"), "r=2: set 5 verified=True cover 2 bound 6 exact 5"),
], ids=["gpset-construct", "report"])
def test_note_goes_to_stderr_alone(capsys, tmp_path, argv, note):
    argv = [*argv, "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 0
    loud = capsys.readouterr()
    assert main([*argv, "--quiet"]) == 0
    quiet = capsys.readouterr()
    assert loud.err == note + "\n" and quiet.err == ""
    assert loud.out == quiet.out


def test_stdout_is_deterministic(capsys):
    def grab(*argv):
        assert main(list(argv)) in (0, 3)
        return capsys.readouterr().out

    for argv in (("gpset", "max", "--r", "2", "--quiet"),
                 ("cover", "construct", "--r", "3", "--quiet"),
                 ("report", "--r-min", "2", "--r-max", "2", "--quiet")):
        assert grab(*argv) == grab(*argv)


# full stdout sha256 of each command run with --quiet --manifest <file>
PINNED_STDOUT_SHA256 = {
    ("report", "--r-max", "5"):
        "9a228d5b70ba658e6cbd7a4f79b4a6d68a1788740019ac1b2d89ba9c39acdb94",
    ("gpset", "max", "--r", "3"):
        "50b58182d7b4bfbeeea73aef94668e85511edfa0c5cc4d596f0e40deef264249",
    ("cover", "construct", "--r", "6"):
        "a0a7debd5e9473e86024f8c5debc4d1b3987d9425aa43639d64d505d02a47d94",
    ("gpset", "max", "--r", "4", "--node-budget", "300"):
        "d77aedf4e8b3175bc7ce8f104877ef06578751b3bc01d7e5521e18b67cc9dde8",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT_SHA256), ids=" ".join)
def test_stdout_digest_is_pinned(capsys, tmp_path, argv):
    main([*argv, "--quiet", "--manifest", str(tmp_path / "manifest.json")])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_STDOUT_SHA256[argv]


def test_cover_construct_r10_passes(capsys, tmp_path):
    code, doc = run_cli(capsys, "cover", "construct", "--r", "10", "--quiet",
                        "--manifest", str(tmp_path / "manifest.json"))
    assert code == 0
    assert doc["passes"] is True


def test_cover_documents_do_not_grow_with_r(capsys, tmp_path):
    graph, cover, short = (str(tmp_path / name) for name in ("g.json", "c.json", "short.json"))
    quiet = ["--quiet", "--manifest", str(tmp_path / "m.json")]

    def document(want, *argv):
        assert main([*argv, *quiet]) == want, argv
        out = capsys.readouterr().out
        assert len(out.encode()) < 1024, argv
        assert '"incidence":' not in out, argv  # a key of that name at any depth

    assert main(["generate", "butterfly", "--r", "10", "--out", graph, *quiet]) == 0
    capsys.readouterr()
    document(0, "cover", "construct", "--r", "10", "--out", cover)
    with open(cover) as f:
        doc = json.load(f)
    doc["cycles"] = doc["cycles"][1:]  # the first cycle's level-0 vertices left uncovered
    with open(short, "w") as f:
        json.dump(doc, f)
    for path, want in ((cover, 0), (short, 1)):
        document(want, "cover", "verify", "--graph", graph, "--cover", path)
        document(want, "cover", "bounds", "--graph", graph, "--cover", path)


def test_json_on_failure_paths(capsys, tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{broken")
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(bad),
                        "--set", str(bad), "--quiet")
    assert code == 2
    assert "error" in doc
    code, doc = run_cli(capsys, "gpset", "verify", "--graph", str(tmp_path / "nope"),
                        "--set", str(bad), "--quiet")
    assert code == 2
    code, doc = run_cli(capsys, "cover", "verify", "--graph", str(bad),
                        "--cover", str(bad), "--quiet")
    assert code == 2
    graph = tmp_path / "bf2.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe\xfa")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"num_vertices": 3, "edges": [[0, 1' + "0" * 5000 + "]]}")
    for argv in (("gpset", "verify", "--graph", str(graph), "--set", str(undecodable)),
                 ("cover", "verify", "--graph", str(undecodable), "--cover", str(bad)),
                 ("gpset", "verify", "--graph", str(graph), "--set", str(deep)),
                 ("gpset", "verify", "--graph", str(long_int), "--set", str(bad))):
        code, doc = run_cli(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert doc["kind"] == "GraphParseError"
    edges_object = tmp_path / "edges_object.json"
    edges_object.write_text(json.dumps({"num_vertices": 3, "edges": {}}))
    code, doc = run_cli(capsys, "gpset", "max", "--graph", str(edges_object), "--quiet")
    assert code == 2
    assert doc == {"error": "edges must be an array", "kind": "GraphParseError"}


# a value is due after the last comma, at line 2, column 18
SYNTAX_ERROR = '{\n  "x": [1, 2, 3, ]\n}\n'
JSON_AT = "invalid JSON at line 2, column 18: Expecting value"
# BF(2)'s cover is [[0, 4, 8, 5, 1, 7, 10, 6], [2, 4, 9, 5, 3, 7, 11, 6]]
LOCATED = {
    "graph-json": ("graph", SYNTAX_ERROR, JSON_AT),
    "set-json": ("set", SYNTAX_ERROR, JSON_AT),
    "cover-json": ("cover", SYNTAX_ERROR, JSON_AT),
    "repeated-vertex": ("cover", {"cycles": [[0, 4, 8, 5, 1, 7, 10, 6], [2, 4, 9, 2, 3, 7, 11, 6]]},
                        "cycle #1: repeated vertex 2 at position 3"),
    "non-adjacent": ("cover", {"cycles": [[0, 4, 8, 5, 1, 7, 10, 6], [2, 9, 4, 5, 3, 7, 11, 6]]},
                     "cycle #1: 2 and 9 are not adjacent at position 0"),
    "empty-path": ("cover", {"kind": "path-cover", "cycles": [[0, 4], []]},
                   "path #1: needs >= 1 vertices, got 0"),
}


@pytest.mark.parametrize("role, content, error", list(LOCATED.values()), ids=list(LOCATED))
def test_exit_2_documents_name_the_location(capsys, tmp_path, role, content, error):
    files = {name: tmp_path / f"{name}.json" for name in ("graph", "set", "cover")}
    files["graph"].write_bytes(export_graph(graphs.build_butterfly(2)))
    files["set"].write_text(json.dumps({"ids": [0, 1]}))
    files["cover"].write_text(json.dumps(cover_to_dict(cc.construct_bf_cycle_cover(2))))
    files[role].write_text(content if isinstance(content, str) else json.dumps(content))
    argv = (("gpset", "verify", "--set", str(files["set"])) if role != "cover"
            else ("cover", "verify", "--cover", str(files["cover"])))
    code = main([*argv, "--graph", str(files["graph"]), "--quiet",
                 "--manifest", str(tmp_path / "m.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.encode()) < 4096
    kind = "InvalidCoverError" if error.startswith(("cycle", "path")) else "GraphParseError"
    assert json.loads(out) == {"error": error, "kind": kind}


@pytest.mark.parametrize("argv", [
    ("gpset", "construct", "--r", "3", "--out", "x.json", "--manifest", "x.json"),
    ("gpset", "verify", "--graph", "g.json", "--set", "s.json", "--manifest", "./s.json"),
], ids=["output", "input"])
def test_manifest_never_overwrites_the_runs_own_files(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_bytes(export_graph(graphs.build_butterfly(3)))
    run_cli(capsys, "gpset", "construct", "--r", "3", "--out", "s.json", "--quiet")
    before = (tmp_path / "s.json").read_bytes()
    code = main([*argv, "--quiet"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["kind"] == "usage" and "manifest" in doc["error"]
    manifest = json.loads(captured.err.removeprefix("manifest: "))
    assert manifest["exit_code"] == 2
    # the file still holds the set, the product of the "output" case too
    target = tmp_path / argv[-1]
    assert target.read_bytes() == before


def test_booleans_are_not_integers(capsys, tmp_path):
    graph = tmp_path / "bf2.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    cover = tmp_path / "cover.json"
    run_cli(capsys, "cover", "construct", "--r", "2", "--out", str(cover), "--quiet")
    set_doc = {"ids": [True, False]}
    cover_doc = json.loads(cover.read_text())
    cover_doc["cycles"][0][0] = True
    edges_doc = {"family": "custom", "num_vertices": 2, "edges": [[False, True]]}
    count_doc = {"family": "custom", "num_vertices": True, "edges": []}
    param_doc = {"family": "path", "n": True, "num_vertices": 1, "edges": []}
    bad = tmp_path / "bad.json"
    for doc, argv in ((set_doc, ("gpset", "verify", "--graph", str(graph), "--set")),
                      (cover_doc, ("cover", "verify", "--graph", str(graph), "--cover")),
                      (edges_doc, ("gpset", "max", "--graph")),
                      (count_doc, ("gpset", "max", "--graph")),
                      (param_doc, ("gpset", "max", "--graph"))):
        bad.write_text(json.dumps(doc))
        code, out = run_cli(capsys, *argv, str(bad), "--quiet")
        assert code == 2, doc
        assert out["kind"] == "GraphParseError"


def test_graph_ref_must_match_the_graph(capsys, tmp_path):
    # BF(3) set, pool and cover files refused against a BF(4) graph
    bf3, bf4 = tmp_path / "bf3.json", tmp_path / "bf4.json"
    gpset, cover = tmp_path / "set3.json", tmp_path / "cover3.json"
    run_cli(capsys, "generate", "butterfly", "--r", "3", "--out", str(bf3), "--quiet")
    run_cli(capsys, "generate", "butterfly", "--r", "4", "--out", str(bf4), "--quiet")
    run_cli(capsys, "gpset", "construct", "--r", "3", "--out", str(gpset), "--quiet")
    run_cli(capsys, "cover", "construct", "--r", "3", "--out", str(cover), "--quiet")
    refs = (graphs.butterfly_ref(3), graphs.butterfly_ref(4))
    for argv in (("gpset", "verify", "--graph", str(bf4), "--set", str(gpset)),
                 ("gpset", "max", "--graph", str(bf4), "--pool", f"file:{gpset}"),
                 ("cover", "verify", "--graph", str(bf4), "--cover", str(cover)),
                 ("cover", "bounds", "--graph", str(bf4), "--cover", str(cover))):
        code, doc = run_cli(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert doc["kind"] == "GraphParseError"
        assert all(ref in doc["error"] for ref in refs), doc["error"]
    # a claim names content, not the tag: BF(3)'s edges tagged custom accept both files
    custom = tmp_path / "custom3.json"
    custom.write_text(json.dumps({"family": "custom", "num_vertices": graphs.build_butterfly(3).n,
                                  "edges": json.loads(bf3.read_text())["edges"]}))
    for argv in (("gpset", "verify", "--graph", str(custom), "--set", str(gpset)),
                 ("cover", "verify", "--graph", str(custom), "--cover", str(cover))):
        code, doc = run_cli(capsys, *argv, "--quiet")
        assert code == 0, (argv, doc)
    # a claim that is not a string is refused; an empty or absent one claims nothing
    bad = tmp_path / "bad.json"
    ids = json.loads(gpset.read_text())["ids"]
    for doc, code in (({"ids": ids, "graph_ref": [1, 2]}, 2),
                      ({"ids": ids, "graph_ref": None}, 2),
                      ({"ids": ids, "provenance": 5}, 2),
                      ({"ids": ids, "graph_ref": ""}, 0),
                      ({"ids": ids}, 0)):
        bad.write_text(json.dumps(doc))
        assert run_cli(capsys, "gpset", "verify", "--graph", str(bf3), "--set", str(bad),
                       "--quiet")[0] == code, doc
    cover_doc = json.loads(cover.read_text())
    for ref, code in (([1, 2], 2), ("", 0)):
        bad.write_text(json.dumps({**cover_doc, "graph_ref": ref}))
        assert run_cli(capsys, "cover", "verify", "--graph", str(bf3), "--cover", str(bad),
                       "--quiet")[0] == code, ref


@pytest.mark.parametrize("kind,r", [("gpset", 4), ("cover", 3)])
def test_claims_on_bf_files_name_content_not_tag(capsys, tmp_path, kind, r):
    # a BF(r) claim is read from the table of hashes; it holds for BF(r)'s
    # edges under any tag and fails once the vertices are relabelled
    claim = tmp_path / "claim.json"
    run_cli(capsys, kind, "construct", "--r", str(r), "--out", str(claim), "--quiet")
    g = graphs.build_butterfly(r)
    edges = [list(e) for e in g.edges]
    shift = [[(u + 1) % g.n, (v + 1) % g.n] for u, v in g.edges]
    graph = tmp_path / "graph.json"
    flag = "--set" if kind == "gpset" else "--cover"
    for doc, code in (({"family": "butterfly", "r": r, "num_vertices": g.n, "edges": edges}, 0),
                      ({"family": "custom", "num_vertices": g.n, "edges": edges}, 0),
                      ({"family": "custom", "n": g.n, "num_vertices": g.n, "edges": edges}, 0),
                      ({"family": "custom", "num_vertices": g.n, "edges": shift}, 2)):
        graph.write_text(json.dumps(doc))
        got, out = run_cli(capsys, kind, "verify", "--graph", str(graph), flag, str(claim),
                           "--quiet")
        assert got == code, (doc["family"], out)
        if code:
            assert out["kind"] == "GraphParseError"
            assert graphs.butterfly_ref(r).rpartition("#")[2] in out["error"]
        elif kind == "gpset":
            assert out["status"] == "verified-general-position"
        else:
            assert out["passes"] is True


def test_mislabeled_graph_files_are_parse_errors(capsys, tmp_path):
    bf2 = graphs.build_butterfly(2)
    rotated = [[(u + 1) % bf2.n, (v + 1) % bf2.n] for u, v in bf2.edges]
    bad = tmp_path / "bad.json"
    for doc in ({"family": "cycle", "n": 4, "num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
                {"family": "path", "n": 3, "num_vertices": 3, "edges": [[0, 2]]},
                {"family": "butterfly", "r": 2, "num_vertices": 12, "edges": rotated}):
        bad.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "gpset", "max", "--graph", str(bad), "--quiet")
        assert code == 2, doc
        assert out["kind"] == "GraphParseError"
        assert out["error"].startswith("inconsistent graph: ")


def test_usage_error_is_json(capsys):
    code, doc = run_cli(capsys, "nonsense")
    assert code == 2
    assert doc["kind"] == "usage"


def test_module_entry_point(tmp_path, source_env):
    proc = subprocess.run(
        [sys.executable, "-m", "bfgp", "generate", "cycle", "--n", "6", "--quiet"],
        capture_output=True, text=True, cwd=tmp_path, env=source_env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["num_vertices"] == 6


def test_manifest_written_to_explicit_path(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    code, _ = run_cli(capsys, "gpset", "max", "--r", "2",
                      "--manifest", str(manifest), "--quiet")
    assert code == 0
    doc = json.loads(manifest.read_text())
    assert doc["result_summary"]["size"] == 5
    assert doc["node_budget"] == DEFAULT_SOLVER_NODES
    assert "seed" not in doc
    assert "elapsed_s" in doc


def test_missing_required_args(capsys):
    code, doc = run_cli(capsys, "cover", "bounds")
    assert code == 2
    assert doc["kind"] == "usage"


def test_gpset_max_needs_graph_or_r(capsys, tmp_path):
    code, doc = run_cli(capsys, "gpset", "max", "--quiet")
    assert code == 2
    assert doc["kind"] == "usage"
    graph = tmp_path / "bf3.json"
    graph.write_bytes(export_graph(graphs.build_butterfly(3)))
    code, doc = run_cli(capsys, "gpset", "max", "--r", "5", "--graph", str(graph), "--quiet")
    assert code == 2
    assert doc["kind"] == "usage"
    assert "not allowed with" in doc["error"]
