"""Every file format: graph, vertex set, cover, witness and cover report.

Graphs, sets and covers round-trip as JSON; witnesses and reports are
only written.  A graph is an object with `family`, an optional `r`/`n`
parameter, `num_vertices` and `edges` as [u, v] pairs with u < v; an
unknown key, such as an older file's `labels`, is ignored.  DOT export is
one-way and render-ready; on the canonical BF(r), whatever its tag, vertex
v = level * 2^r + row is named L<level>_<row>, the row in r bits, from v.
"""

from __future__ import annotations

import json
import reprlib

from .cycle_cover import KIND_CYCLE, KIND_PATH, CoverReport, CycleCover
from .errors import GraphParseError, InvalidParameterError
from .genpos import PROVENANCE_USER, GpWitness, VertexSet
from .graphs import FAMILY_BUTTERFLY, FAMILY_CUSTOM, Graph


def graph_to_dict(g: Graph) -> dict:
    doc = {"family": g.family}
    if g.family == FAMILY_BUTTERFLY:
        doc["r"] = g.family_param
    elif g.family != FAMILY_CUSTOM or g.family_param is not None:
        doc["n"] = g.family_param
    doc["num_vertices"] = g.n
    doc["edges"] = [[u, v] for u, v in g.edges]
    return doc


def json_text(doc) -> str:
    """doc as every JSON file and result document is written: 2-space indent, final newline."""
    return json.dumps(doc, indent=2) + "\n"


def export_graph(g: Graph) -> bytes:
    """The JSON graph file of g, which import_graph reads back to an equal Graph."""
    return json_text(graph_to_dict(g)).encode()


def export_dot(g: Graph) -> str:
    r = g.butterfly_r
    if r is not None:
        names = [f"L{v >> r}_{v & (1 << r) - 1:0{r}b}" for v in range(g.n)]
    else:
        names = list(map(str, range(g.n)))
    tag = g.family if g.family_param is None else f"{g.family}_{g.family_param}"
    lines = [f"graph {tag} {{"]
    for name in names:
        lines.append(f"  {name};")
    for u, v in g.edges:
        lines.append(f"  {names[u]} -- {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_json(data: bytes | str):
    """Decode one UTF-8 JSON document; every way it can be malformed is a GraphParseError."""
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except json.JSONDecodeError as e:
        raise GraphParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise GraphParseError(f"invalid JSON: not UTF-8 text ({e.reason})") from e
    except RecursionError as e:
        raise GraphParseError("invalid JSON: nested too deeply") from e
    except ValueError as e:  # an integer longer than sys.get_int_max_str_digits()
        raise GraphParseError(f"invalid JSON: {e}") from e


def _is_json_int(x) -> bool:
    """True for a JSON integer; true and false parse to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_array(value, what: str) -> list[int]:
    """Return value if it is an array of JSON integers, else raise GraphParseError."""
    if not isinstance(value, list) or not all(_is_json_int(v) for v in value):
        raise GraphParseError(f"{what} must be an array of integers")
    return value


def _str_field(doc: dict, key: str, default: str) -> str:
    """doc[key], or default when absent, if it is a string, else raise GraphParseError."""
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise GraphParseError(f"'{key}' must be a string")
    return value


def import_graph(data: bytes | str) -> Graph:
    """Parse the JSON graph format back into a Graph, whose checks include the family tag."""
    doc = parse_json(data)
    if not isinstance(doc, dict):
        raise GraphParseError("top-level JSON value must be an object")
    family = doc.get("family", FAMILY_CUSTOM)
    param = doc.get("r") if family == FAMILY_BUTTERFLY else doc.get("n")
    if "num_vertices" not in doc:
        raise GraphParseError("missing num_vertices")
    n = doc["num_vertices"]
    if not _is_json_int(n) or n < 0:
        raise GraphParseError(
            f"num_vertices must be a non-negative integer, got {reprlib.repr(n)}")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphParseError("edges must be an array")
    try:  # Graph refuses an edge that is not a pair of ids
        return Graph(n, raw_edges, family, param)
    except InvalidParameterError as e:
        raise GraphParseError(f"inconsistent graph: {e}") from e


def _claim_from_dict(doc, key: str, missing: str, record, fields):
    """record(*fields(doc), graph_ref) if doc holds key, else missing; fields checked first."""
    if not isinstance(doc, dict) or key not in doc:
        raise GraphParseError(missing)
    return record(*fields(doc), graph_ref=_str_field(doc, "graph_ref", ""))


def vertex_set_to_dict(s: VertexSet) -> dict:
    return {"graph_ref": s.graph_ref, "ids": list(s.members), "provenance": s.provenance}


def vertex_set_from_dict(doc: dict) -> VertexSet:
    return _claim_from_dict(doc, "ids", "vertex set JSON needs an 'ids' array", VertexSet,
                            lambda doc: (tuple(sorted(_int_array(doc["ids"], "'ids'"))),
                                         _str_field(doc, "provenance", PROVENANCE_USER)))


def witness_to_dict(w: GpWitness) -> dict:
    triple = None if w.triple is None else list(w.triple)
    return {"status": w.status, "triple": triple, "middle": w.middle}


def cover_to_dict(cover: CycleCover) -> dict:
    return {"graph_ref": cover.graph_ref, "kind": cover.kind,
            "cycles": [list(seq) for seq in cover.cycles]}


def _cover_fields(doc: dict) -> tuple:
    kind, cycles = doc.get("kind", KIND_CYCLE), doc["cycles"]
    if kind not in (KIND_CYCLE, KIND_PATH):
        raise GraphParseError(f"unknown cover kind {reprlib.repr(kind)}")
    if not isinstance(cycles, list):
        raise GraphParseError("'cycles' must be an array of id arrays")
    return kind, tuple(tuple(_int_array(seq, f"cycle #{i}")) for i, seq in enumerate(cycles))


def cover_from_dict(doc: dict) -> CycleCover:
    return _claim_from_dict(doc, "cycles", "cover JSON needs a 'cycles' array", CycleCover,
                            _cover_fields)


def report_to_dict(report: CoverReport) -> dict:
    return {"passes": report.passes, "flags": dict(report.flags),
            "first_failure": report.first_failure}
