"""Fuzz the file boundary: random bytes and JSON values as every input file.

Whatever a graph, set, cover or pool file holds, a run prints exactly one
JSON document and exits 0, 1, 2 or 3.  The other files of each command
are valid BF(2) inputs, so the fuzzed one is what the run trips on.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfgp import cycle_cover, genpos
from bfgp.cli import main
from bfgp.graph_io import export_graph
from bfgp.graphs import MAX_VERTICES, build_butterfly

# ids around BF(2)'s 12 vertices, plus values past every ceiling; no
# mid-sized count, which would only make a slow but valid distance table
SMALL = st.integers(-2, 13)
INTS = SMALL | st.sampled_from([MAX_VERTICES + 1, 10**11, 2**63, -2**63])
SCALARS = st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=6)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
ID_LISTS = st.lists(SMALL, max_size=9)

DOCS = {
    "graph": st.fixed_dictionaries(
        {"family": st.sampled_from(["butterfly", "cycle", "path", "custom"]) | VALUES,
         "num_vertices": INTS | VALUES,
         "edges": st.lists(st.lists(SMALL, max_size=3), max_size=14) | VALUES},
        optional={"r": INTS | VALUES, "n": INTS | VALUES}),
    "set": st.fixed_dictionaries({"ids": ID_LISTS | VALUES},
                                 optional={"graph_ref": VALUES, "provenance": VALUES}),
    "cover": st.fixed_dictionaries(
        {"cycles": st.lists(ID_LISTS, max_size=4) | VALUES},
        optional={"kind": st.sampled_from([cycle_cover.KIND_CYCLE, cycle_cover.KIND_PATH])
                  | VALUES,
                  "graph_ref": VALUES}),
}
DOCS["pool"] = DOCS["set"]

# (fuzzed file, command line); {fuzz} is the fuzzed file, the rest are valid
CASES = [
    ("graph", "gpset verify --graph {fuzz} --set {set}"),
    ("graph", "gpset max --graph {fuzz} --node-budget 200"),
    ("graph", "cover verify --graph {fuzz} --cover {cover}"),
    ("graph", "cover bounds --graph {fuzz} --cover {cover}"),
    ("set", "gpset verify --graph {graph} --set {fuzz}"),
    ("pool", "gpset max --graph {graph} --pool file:{fuzz} --node-budget 200"),
    ("cover", "cover verify --graph {graph} --cover {fuzz}"),
    ("cover", "cover bounds --graph {graph} --cover {fuzz}"),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / f"{name}.json" for name in ("graph", "set", "cover", "fuzz",
                                                      "manifest")}
    paths["graph"].write_bytes(export_graph(build_butterfly(2)))
    paths["set"].write_text(json.dumps(
        genpos.vertex_set_to_dict(genpos.construct_butterfly_gp_set(2))))
    paths["cover"].write_text(json.dumps(
        cycle_cover.cover_to_dict(cycle_cover.construct_bf_cycle_cover(2))))
    return paths


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_any_input_file_gives_one_json_document(files, case, data):
    role, template = case
    content = data.draw(st.binary(max_size=80)
                        | (DOCS[role] | VALUES).map(lambda doc: json.dumps(doc).encode()),
                        label="content")
    files["fuzz"].write_bytes(content)
    argv = template.format(**files).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--quiet", "--manifest", str(files["manifest"])])
    assert code in (0, 1, 2, 3)
    doc = json.loads(out.getvalue())   # exactly one document: trailing data fails
    assert isinstance(doc, dict)
    assert err.getvalue() == ""


# a value of a megabyte or so where a short string is due, or an id or
# graph size of 4,300 digits, the longest integer JSON parsing accepts:
# the error names it by reprlib
LONG_ID = 10**4299
OVERSIZED = [
    ("cover verify --graph {graph} --cover {fuzz}", {"kind": list(range(200_000)), "cycles": []}),
    ("cover verify --graph {graph} --cover {fuzz}", {"kind": "x" * 10**6, "cycles": []}),
    ("gpset verify --graph {graph} --set {fuzz}", {"ids": [0, 1], "graph_ref": "x" * 10**6}),
    ("gpset verify --graph {graph} --set {fuzz}", {"ids": [0, 1, LONG_ID]}),
    ("cover verify --graph {graph} --cover {fuzz}", {"cycles": [[LONG_ID, 0, 1]]}),
    ("gpset max --graph {graph} --pool file:{fuzz} --node-budget 200", {"ids": [0, 1, LONG_ID]}),
    ("gpset max --graph {fuzz}", {"num_vertices": LONG_ID, "edges": []}),
    ("gpset max --graph {fuzz}", {"family": "cycle", "n": LONG_ID, "num_vertices": 4,
                                  "edges": []}),
    ("gpset max --graph {fuzz}", {"family": "butterfly", "r": LONG_ID, "num_vertices": 4,
                                  "edges": []}),
]


@pytest.mark.parametrize("template, doc", OVERSIZED, ids=["int-kind", "str-kind", "graph_ref",
                                                          "set-id", "cover-id", "pool-id",
                                                          "num_vertices", "cycle-n",
                                                          "butterfly-r"])
def test_oversized_values_give_a_short_error(files, template, doc):
    files["fuzz"].write_text(json.dumps(doc))
    argv = template.format(**files).split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--quiet", "--manifest", str(files["manifest"])])
    assert code == 2
    assert len(out.getvalue().encode()) < 4096
    assert isinstance(json.loads(out.getvalue()), dict)
    assert err.getvalue() == ""
