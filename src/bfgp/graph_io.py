"""Graph serialization.

JSON is the round-trip format: an object with `family`, an optional
`r`/`n` parameter, `num_vertices` and `edges` as [u, v] pairs with
u < v; an unknown key, such as an older file's `labels`, is ignored.
DOT export is one-way and render-ready; on the canonical BF(r),
whatever its tag, vertex v = level * 2^r + row is named L<level>_<row>,
the row written as r bits, straight from v.
"""

from __future__ import annotations

import json
import reprlib

from .errors import GraphParseError, InvalidParameterError
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


def is_json_int(x) -> bool:
    """True for a JSON integer; true and false parse to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def int_array(value, what: str) -> list[int]:
    """Return value if it is an array of JSON integers, else raise GraphParseError."""
    if not isinstance(value, list) or not all(is_json_int(v) for v in value):
        raise GraphParseError(f"{what} must be an array of integers")
    return value


def str_field(doc: dict, key: str, default: str) -> str:
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
    if not is_json_int(n) or n < 0:
        raise GraphParseError(
            f"num_vertices must be a non-negative integer, got {reprlib.repr(n)}")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise GraphParseError("edges must be an array")
    try:  # Graph refuses an edge that is not a pair of ids
        return Graph(n, raw_edges, family, param)
    except InvalidParameterError as e:
        raise GraphParseError(f"inconsistent graph: {e}") from e
