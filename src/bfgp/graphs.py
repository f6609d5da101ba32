"""Graph representation and generators.

Graphs are simple, undirected, immutable after construction, with dense
vertex ids 0..n-1.  The butterfly generator uses a fixed canonical
encoding so that vertex ids, and everything derived from them (witness
files, golden outputs), are stable across runs:

* a vertex is a (level, row) pair with level in 0..r and row a bitstring
  of length r, written a_1 a_2 ... a_r with a_1 leftmost;
* id = level * 2^r + integer value of the row, a_1 being the most
  significant bit;
* levels l and l+1 are joined by straight edges (same row) and cross
  edges flipping bit l+1.

Level-0 and level-r vertices have degree 2, all others degree 4.
"""

from __future__ import annotations

import hashlib
from itertools import islice, pairwise, starmap

from .errors import InvalidParameterError, TooLargeError, UnsupportedFamilyError
from .records import Record

FAMILY_BUTTERFLY = "butterfly"
FAMILY_CYCLE = "cycle"
FAMILY_PATH = "path"
FAMILY_CUSTOM = "custom"

# largest butterfly dimension accepted (TooLargeError above it): BF(14)
# has 245,760 vertices, well past every command's frontier, while a large
# r such as 40 would exhaust memory before printing anything
MAX_BUTTERFLY_R = 14

# largest vertex count of any graph, that of BF(MAX_BUTTERFLY_R); without
# it a cycle, path or graph file of 10^8 vertices exhausts memory
MAX_VERTICES = (MAX_BUTTERFLY_R + 1) << MAX_BUTTERFLY_R

# edges hashed per sha256 update by Graph.ref and butterfly_ref
REF_CHUNK_EDGES = 4096


class ButterflyLabel(Record):
    """(level, row) name of a butterfly vertex; row is a bitstring of length r."""

    __slots__ = ("level", "row")

    def __init__(self, level: int, row: str):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "row", row)


class Graph:
    """Immutable simple undirected graph.

    A family tag is a claim checked here, once: the edges must be exactly
    those build_butterfly(r), build_cycle(n) or build_path(n) gives.

    Attributes:
        n: vertex count, at most MAX_VERTICES; ids are exactly 0..n-1.
        edges: sorted tuple of (u, v) pairs with u < v.
        adj: per-vertex sorted neighbor tuples.
        family: one of the FAMILY_* tags.
        family_param: r for butterflies, n (or None) for cycles/paths,
            an integer or None for custom graphs.
        butterfly_r: r if the edges are exactly those of the canonical
            BF(r), whatever the tag, else None; modules read this, never
            the tag, which is only written out (JSON, ref, repr).
    """

    __slots__ = ("n", "edges", "adj", "family", "family_param", "butterfly_r")

    def __init__(self, n: int, edges, family: str = FAMILY_CUSTOM,
                 family_param: int | None = None):
        if n < 0:
            raise InvalidParameterError(f"vertex count must be >= 0, got {n}")
        if n > MAX_VERTICES:
            raise TooLargeError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
        if isinstance(family_param, bool) or not isinstance(family_param, (int, type(None))):
            raise InvalidParameterError(f"family parameter {family_param!r} is not an integer")
        pairs = []
        for e in edges:
            try:
                u, v = e
                if type(u) is not int or type(v) is not int:  # bools and floats pass 0 <= u < n
                    raise TypeError
                in_range = 0 <= u < n and 0 <= v < n
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edge {e!r} is not a pair of vertex ids") from None
            if not in_range:
                raise InvalidParameterError(f"edge {e} out of range for n={n}")
            if u < v:
                # an oriented tuple is kept, not copied, to spare BF(14)'s
                # 458,752 edges a second set of pairs in memory
                pairs.append(e if type(e) is tuple else (u, v))
            elif u > v:
                pairs.append((v, u))
            else:
                raise InvalidParameterError(f"self-loop at vertex {u}")
        pairs.sort()  # linear on the sorted pairs every generator and graph file gives
        for a, b in pairwise(pairs):
            if a == b:
                raise InvalidParameterError(f"duplicate edge {a}")
        edges = tuple(pairs)
        r = _butterfly_dim_of(n, edges)
        if family == FAMILY_BUTTERFLY:
            if r is None or r != family_param:
                raise InvalidParameterError(
                    f"edges do not match the canonical butterfly encoding for r={family_param}")
        elif family in (FAMILY_CYCLE, FAMILY_PATH):
            if family_param not in (None, n):
                raise InvalidParameterError(
                    f"family parameter {family_param} disagrees with {n} vertices")
            closed = family == FAMILY_CYCLE
            if n < (3 if closed else 1) or edges != tuple(_ring_edges(n, closed)):
                raise InvalidParameterError(f"edges do not match the {family} on {n} vertices")
        elif family != FAMILY_CUSTOM:
            raise InvalidParameterError(f"unknown family {family!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        # sorted edges list each vertex's smaller neighbours, then its larger
        # ones, in ascending order
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "adj", tuple(map(tuple, nbrs)))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "family_param", family_param)
        object.__setattr__(self, "butterfly_r", r)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.family == other.family
                and self.family_param == other.family_param)

    def __hash__(self):
        return hash((self.n, self.edges, self.family, self.family_param))

    def __repr__(self) -> str:
        tag = self.family if self.family_param is None else f"{self.family}({self.family_param})"
        return f"Graph({tag}, n={self.n}, m={self.num_edges})"

    def ref(self) -> str:
        """Stable content reference used in set/cover files."""
        return _content_ref(self.n, self.edges, self.family, self.family_param)


def _content_ref(n: int, edges, family: str, family_param: int | None) -> str:
    """sha256 of "n:u-v,u-v,...", fed REF_CHUNK_EDGES edges at a time, not joined whole."""
    h = hashlib.sha256(f"{n}:".encode())
    it = iter(edges)
    sep = ""
    while chunk := list(islice(it, REF_CHUNK_EDGES)):
        h.update((sep + ",".join(starmap("{}-{}".format, chunk))).encode())
        sep = ","
    tag = family if family_param is None else f"{family}:{family_param}"
    return f"{tag}#{h.hexdigest()[:12]}"


def _checked_dim(r: int) -> int:
    if r < 1:
        raise InvalidParameterError(f"butterfly dimension must be >= 1, got {r}")
    if r > MAX_BUTTERFLY_R:
        raise TooLargeError(f"butterfly dimension {r} exceeds the cap r <= {MAX_BUTTERFLY_R}")
    return r


def _iter_butterfly_edges(r: int):
    """BF(r)'s edges in sorted order, each (u, v) with u < v, one at a time."""
    nrows = 1 << r
    for u in range(r * nrows):
        flip = nrows >> (u >> r) + 1  # the cross edge from level l = u >> r flips bit l+1
        v = u + nrows - (u & flip)  # the lesser of u's two neighbours on level l + 1
        yield (u, v)
        yield (u, v + flip)


def butterfly_edges(r: int) -> tuple[tuple[int, int], ...]:
    """Sorted edge tuple of BF(r) in the canonical encoding, without a Graph."""
    return tuple(_iter_butterfly_edges(_checked_dim(r)))


def _butterfly_dim_of(n: int, edges: tuple[tuple[int, int], ...]) -> int | None:
    """r if the distinct edges, each (u, v) with u < v, are exactly BF(r)'s on n vertices.

    No reference list: each edge must join level l = u >> r to level l + 1
    in the same row or in rows differing in bit l+1 alone.  BF(r)'s
    r * 2^(r+1) edges are all such pairs, so that many make up BF(r).
    """
    r = 1
    while (r + 1) << r < n:
        r += 1
    if (r + 1) << r != n or len(edges) != r << (r + 1):
        return None
    low = (1 << r) - 1
    for u, v in edges:
        lev = u >> r
        flip = (u ^ v) & low
        if v >> r != lev + 1 or flip and flip != 1 << (r - 1 - lev):
            return None
    return r


def _ring_edges(n: int, closed: bool):
    """C_n's (closed) or P_n's edges, sorted, u < v; lazy, so Graph checks n first."""
    for i in range(n - 1):
        yield (i, i + 1)
        if closed and i == 0:
            yield (0, n - 1)


def butterfly_ref(r: int) -> str:
    """build_butterfly(r).ref(), hashed from BF(r)'s edges as they are generated."""
    r = _checked_dim(r)
    return _content_ref((r + 1) << r, _iter_butterfly_edges(r), FAMILY_BUTTERFLY, r)


def build_butterfly(r: int) -> Graph:
    """r-dimensional butterfly: (r+1)*2^r vertices, r*2^(r+1) edges."""
    edges = butterfly_edges(r)
    return Graph((r + 1) << r, edges, FAMILY_BUTTERFLY, r)


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError(f"cycle length must be >= 3, got {n}")
    return Graph(n, _ring_edges(n, True), FAMILY_CYCLE, n)


def build_path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {n}")
    return Graph(n, _ring_edges(n, False), FAMILY_PATH, n)


def label_of(g: Graph, v: int) -> ButterflyLabel:
    r = g.butterfly_r
    if r is None:
        raise UnsupportedFamilyError(f"butterfly graph required, got {g!r}")
    if not 0 <= v < g.n:
        raise InvalidParameterError(f"vertex id {v} out of range for n={g.n}")
    nrows = 1 << r
    return ButterflyLabel(level=v // nrows, row=format(v % nrows, f"0{r}b"))
