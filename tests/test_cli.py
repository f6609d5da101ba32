import hashlib
import json
import subprocess
import sys

import pytest

from bfgp import cycle_cover as cc
from bfgp import cli, genpos, geodesy, graphs
from bfgp.budget import DEFAULT_SOLVER_NODES
from bfgp.cli import main
from bfgp.graph_io import export_graph
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


def test_gpset_max_fails_on_rejected_set(capsys, monkeypatch):
    solve = genpos.max_general_position

    def corrupted(g, dm, pool=None, budget=None):
        res = solve(g, dm, pool=pool, budget=budget)
        # levels 0, 1, 2 of row 0 lie on one geodesic
        s = genpos.VertexSet(members=(0, 4, 8), graph_ref=res.best_set.graph_ref)
        return genpos.SolveResult(s, 3, res.optimal, res.nodes_explored)
    monkeypatch.setattr(genpos, "max_general_position", corrupted)
    code, doc = run_cli(capsys, "gpset", "max", "--r", "2", "--quiet")
    assert code == 1
    assert doc["status"] == "verify-failed"
    assert doc["witness"]["triple"] == [0, 4, 8]


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


def test_cover_bounds_writes_out(capsys, tmp_path):
    graph = tmp_path / "bf2.json"
    cover = tmp_path / "cover2.json"
    run_cli(capsys, "generate", "butterfly", "--r", "2", "--out", str(graph), "--quiet")
    run_cli(capsys, "cover", "construct", "--r", "2", "--out", str(cover), "--quiet")
    out = tmp_path / "bounds.json"
    code, doc = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                        "--cover", str(cover), "--out", str(out), "--quiet")
    assert code == 0
    assert json.loads(out.read_text()) == doc
    manifest = json.loads((tmp_path / "bounds.json.manifest.json").read_text())
    assert str(out) in manifest["outputs"]
    # a cover that fails verification writes its error document too
    tampered = json.loads(cover.read_text())
    tampered["cycles"] = tampered["cycles"][:1]
    cover.write_text(json.dumps(tampered))
    code, doc = run_cli(capsys, "cover", "bounds", "--graph", str(graph),
                        "--cover", str(cover), "--out", str(out), "--quiet")
    assert code == 1
    assert "error" in doc
    assert json.loads(out.read_text()) == doc


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


def test_report_fails_on_rejected_set(capsys, monkeypatch):
    construct = genpos.construct_butterfly_gp_set

    def corrupted(r):
        s = construct(r)
        # levels 0, 1, 2 of row 0 lie on one geodesic
        return genpos.VertexSet(members=tuple(sorted(set(s.members) | {0, 1 << r, 2 << r})))
    monkeypatch.setattr(genpos, "construct_butterfly_gp_set", corrupted)
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
    monkeypatch.setitem(cli._DISPATCH, ("generate", None), boom)
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
        "00dc5ba4cddbcb19f99e6ba40e134b2f5172aebeaf8965452de3fca0525cfea7",
    ("cover", "construct", "--r", "6"):
        "eee8e0e2c433fc83b6f46990ab1c2006877ab06deb381c75ce871605bad5d500",
    ("gpset", "max", "--r", "4", "--node-budget", "300"):
        "6aa4adf3563988bb642ad0f96d68e754df1650c124fc60c6579842c7d00ade14",
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
    for argv in (("gpset", "verify", "--graph", str(graph), "--set", str(undecodable)),
                 ("cover", "verify", "--graph", str(undecodable), "--cover", str(bad)),
                 ("gpset", "verify", "--graph", str(graph), "--set", str(deep))):
        code, doc = run_cli(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert doc["kind"] == "GraphParseError"


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
