"""Tests of the benchmark itself: its gate catches wrong answers, its inputs follow the seed.

    python3 -m pytest -q benchmark/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import CliFiles, ExactSmall, ScreenBf8  # noqa: E402


class SmallExact(ExactSmall):
    name = "exact-small"
    INSTANCES = (("bf2", "butterfly", 2, False), ("bf3-deg2", "butterfly", 3, True),
                 ("c12", "cycle", 12, False))
    BUDGET_NODES = 50


class WrongExact(SmallExact):
    @staticmethod
    def expected(family, param, deg2):
        return ExactSmall.expected(family, param, deg2) + 1


class SmallScreen(ScreenBf8):
    r = 4
    per_kind = 3


class AcceptingScreen(SmallScreen):
    """The set verifier is replaced by one that accepts everything."""

    def setup(self, lib, tracer, seed, ctx):
        st = super().setup(lib, tracer, seed, ctx)
        lib.genpos.verify_general_position = lambda g, dm, s: lib.genpos.GpWitness(
            status=lib.genpos.VERIFIED)
        return st


class WrongWitnessScreen(SmallScreen):
    """The set verifier names a triple without the mutated vertex."""

    def setup(self, lib, tracer, seed, ctx):
        st = super().setup(lib, tracer, seed, ctx)
        lib.genpos.verify_general_position = lambda g, dm, s: lib.genpos.GpWitness(
            status=lib.genpos.VIOLATION, triple=tuple(sorted(s.members)[:3]))
        return st


def failed_frac(result) -> float:
    tally = result["tally"]
    return tally.failed / tally.attempted


def test_correct_workloads_do_not_fail():
    assert failed_frac(run.run_workload(SmallExact(), 1, 0.0, False)) == 0
    assert failed_frac(run.run_workload(SmallScreen(), 1, 0.0, False)) == 0


@pytest.mark.parametrize("wl", [WrongExact(), AcceptingScreen(), WrongWitnessScreen()],
                         ids=["wrong-expected", "accepts-everything", "wrong-witness"])
def test_wrong_answers_raise_failed_frac(wl):
    assert failed_frac(run.run_workload(wl, 1, 0.0, False)) > 0


def _screen_inputs(seed):
    wl = SmallScreen()
    lib = run.load_library()
    st = wl.setup(lib, run.Tracer(), seed, None)
    wl.prepare(st)
    return [(op.kind, op.run()) for op in wl.round(st, 0) + wl.round(st, 1)]


def _describe(kind, out):
    if kind == "reject-cover":
        return kind, out.first_failure["cycle_index"]
    return kind, out.triple


def test_same_seed_same_inputs():
    first = [_describe(*x) for x in _screen_inputs(7)]
    assert first == [_describe(*x) for x in _screen_inputs(7)]
    assert first != [_describe(*x) for x in _screen_inputs(8)]


@pytest.mark.parametrize("wl,key", [(SmallExact(), "genpos.max_general_position.nodes"),
                                     (SmallScreen(), "genpos.verify_general_position.triples")])
def test_same_seed_same_exact_counts(wl, key):
    counts = [run.run_workload(wl, 3, 0.0, True)["metrics"][key][0] for _ in range(2)]
    assert counts[0] == counts[1] > 0


def test_triple_rank_matches_enumeration():
    members = [2, 3, 5, 8, 13, 21, 34]
    for rank, triple in enumerate(combinations(members, 3)):
        assert oracle.triple_rank(members, triple) == rank


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_closed_forms_match_the_library(r):
    lib = run.load_library()
    assert lib.cycle_cover.construct_bf_cycle_cover(r).cycles == oracle.closed_form_cover(r)
    assert lib.genpos.construct_butterfly_gp_set(r).members == oracle.closed_form_set(r)
    g = lib.graphs.build_butterfly(r)
    assert oracle.cover_partition_error(r, oracle.closed_form_cover(r), g.edges) is None
    assert (g.n, g.num_edges) == (oracle.num_vertices(r), oracle.num_edges(r))


def test_cli_checks_accept_the_real_commands():
    wl = CliFiles()
    result = run.run_workload(wl, 1, 0.0, False)
    assert result["tally"].attempted == 9
    assert failed_frac(result) == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "certify-bf8", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
