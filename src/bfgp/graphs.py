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

Graph() checks everything it is given, since graph files and custom
graphs come from outside; a file tagged `butterfly` still has its edges
checked one by one against the encoding.  build_butterfly skips those
checks: it fills the slots from the closed form, where every answer is
known in advance, and the tests (r <= 10) and CI (r = 11..14) compare it
slot by slot with the checked construction.

A graph's ref, the content reference stamped on set and cover files, is
its tag and 12 hex digits of a sha256 over n and the sorted edges.  For
BF(r) those digits are read from BUTTERFLY_HASHES, not hashed from its
r * 2^(r+1) edges: the hash depends on the edges alone, and Graph sets
butterfly_r only when they are exactly BF(r)'s.
tests/test_graphs.py::test_butterfly_hashes_are_the_one_string_hash
recomputes every entry from the edges.
"""

from __future__ import annotations

import hashlib
import reprlib
from itertools import pairwise, starmap

from .errors import InvalidParameterError, TooLargeError

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

# first 12 hex digits of the sha256 of "n:u-v,u-v,..." over BF(r)'s sorted
# edges, indexed by r (there is no BF(0)); the ref of every graph whose
# edges are BF(r)'s, whatever its tag
BUTTERFLY_HASHES = (
    None,
    "0a62cb4ce11d", "6136f66dae6d", "1790cdebd4ba", "cd7904444e37",
    "c0596aa23093", "9f2b1760cb29", "71a38b60117f", "1e1a1ca0475e",
    "681d9a6bee3a", "8b03daa02b9d", "9565289a2a8a", "a12e3dec8c4f",
    "7446b9e51733", "0c91cc3f4862",
)


class Graph:
    """Immutable simple undirected graph.

    A family tag given to Graph() is a claim checked here, once: the edges
    must be exactly those build_butterfly(r), build_cycle(n) or
    build_path(n) gives.  build_butterfly itself fills the slots of a
    new Graph from the closed form, without these checks.

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
            raise TooLargeError(
                f"{reprlib.repr(n)} vertices exceed the cap of {MAX_VERTICES}")
        if isinstance(family_param, bool) or not isinstance(family_param, (int, type(None))):
            raise InvalidParameterError(
                f"family parameter {reprlib.repr(family_param)} is not an integer")
        pairs = []
        for e in edges:
            try:
                u, v = e
                if type(u) is not int or type(v) is not int:  # bools and floats pass 0 <= u < n
                    raise TypeError
                in_range = 0 <= u < n and 0 <= v < n
            except (TypeError, ValueError):
                # reprlib caps what is shown of a long or deep edge
                raise InvalidParameterError(
                    f"edge {reprlib.repr(e)} is not a pair of vertex ids") from None
            if not in_range:
                raise InvalidParameterError(f"edge {reprlib.repr(e)} out of range for n={n}")
            if u < v:
                # an oriented tuple is kept, not copied, to spare a graph
                # file's edges (458,752 at BF(14)) a second set of pairs
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
                    "edges do not match the canonical butterfly encoding for "
                    f"r={reprlib.repr(family_param)}")
        elif family in (FAMILY_CYCLE, FAMILY_PATH):
            if family_param not in (None, n):
                raise InvalidParameterError(f"family parameter {reprlib.repr(family_param)} "
                                            f"disagrees with {n} vertices")
            closed = family == FAMILY_CYCLE
            if n < (3 if closed else 1) or edges != tuple(_ring_edges(n, closed)):
                raise InvalidParameterError(f"edges do not match the {family} on {n} vertices")
        elif family != FAMILY_CUSTOM:
            raise InvalidParameterError(f"unknown family {reprlib.repr(family)}")
        # sorted edges list each vertex's smaller neighbours, then its larger
        # ones, in ascending order
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._fill(n, edges, tuple(map(tuple, nbrs)), family, family_param, r)

    def _fill(self, n, edges, adj, family, family_param, butterfly_r) -> None:
        """Set every slot as given; the caller has checked or derived each value."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "family_param", family_param)
        object.__setattr__(self, "butterfly_r", butterfly_r)

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

    def __repr__(self) -> str:
        tag = self.family if self.family_param is None else f"{self.family}({self.family_param})"
        return f"Graph({tag}, n={self.n}, m={self.num_edges})"

    def ref(self) -> str:
        """Stable content reference used in set/cover files."""
        r = self.butterfly_r
        if r is None:
            return _content_ref(self.n, self.edges, self.family, self.family_param)
        return f"{_ref_tag(self.family, self.family_param)}#{BUTTERFLY_HASHES[r]}"


def _ref_tag(family: str, family_param: int | None) -> str:
    return family if family_param is None else f"{family}:{family_param}"


def _content_ref(n: int, edges, family: str, family_param: int | None) -> str:
    """sha256 of "n:u-v,u-v,..." over the sorted edges."""
    text = f"{n}:" + ",".join(starmap("{}-{}".format, edges))
    return f"{_ref_tag(family, family_param)}#{hashlib.sha256(text.encode()).hexdigest()[:12]}"


def _checked_dim(r: int) -> int:
    if r < 1:
        raise InvalidParameterError(f"butterfly dimension must be >= 1, got {reprlib.repr(r)}")
    if r > MAX_BUTTERFLY_R:
        raise TooLargeError(f"butterfly dimension {reprlib.repr(r)} exceeds the cap "
                            f"r <= {MAX_BUTTERFLY_R}")
    return r


def butterfly_edges(r: int) -> tuple[tuple[int, int], ...]:
    """Sorted edge tuple of BF(r) in the canonical encoding, each (u, v) with u < v."""
    nrows = 1 << _checked_dim(r)
    edges = []
    add = edges.append
    for u in range(r * nrows):
        flip = nrows >> (u >> r) + 1  # the cross edge from level l = u >> r flips bit l+1
        v = u + nrows - (u & flip)  # the lesser of u's two neighbours on level l + 1
        add((u, v))
        add((u, v + flip))
    return tuple(edges)


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
    """build_butterfly(r).ref(), read from BUTTERFLY_HASHES without building an edge.

    test_butterfly_hashes_are_the_one_string_hash recomputes each table
    entry from butterfly_edges(r).
    """
    return f"{FAMILY_BUTTERFLY}:{_checked_dim(r)}#{BUTTERFLY_HASHES[r]}"


def build_butterfly(r: int) -> Graph:
    """r-dimensional butterfly: (r+1)*2^r vertices, r*2^(r+1) edges.

    Filled from the closed form, with none of Graph()'s checks: vertex u
    below level r has its upper neighbours at edges[2u][1] < edges[2u + 1][1],
    and vertex (l, y) above level 0 its lower neighbours at edges[2u][0]
    for u = (l-1, y) and u = (l-1, y ^ 2^(r-l)).  adj holds the edge
    tuples' own int objects, and no ids of its own.
    """
    edges = butterfly_edges(r)
    nrows = 1 << r
    adj = []
    below = None  # the ids of level lev - 1
    for lev in range(r + 1):
        # level lev's upward edges, two per vertex in id order; none at level r
        block = edges[2 * lev * nrows:2 * (lev + 1) * nrows]
        firsts = block[::2]
        ups = ([e[1] for e in firsts], [e[1] for e in block[1::2]])
        down = ()
        if lev:
            flip = nrows >> lev  # the cross edges between levels lev - 1 and lev flip bit lev
            down = ([below[y & ~flip] for y in range(nrows)],
                    [below[y | flip] for y in range(nrows)])
        adj += zip(*down, *ups) if lev < r else zip(*down)
        below = [e[0] for e in firsts]
    g = Graph.__new__(Graph)
    g._fill((r + 1) << r, edges, tuple(adj), FAMILY_BUTTERFLY, r, r)
    return g


def build_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError(f"cycle length must be >= 3, got {reprlib.repr(n)}")
    return Graph(n, _ring_edges(n, True), FAMILY_CYCLE, n)


def build_path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"path order must be >= 1, got {reprlib.repr(n)}")
    return Graph(n, _ring_edges(n, False), FAMILY_PATH, n)

