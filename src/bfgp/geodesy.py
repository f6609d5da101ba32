"""Distances and geodesic predicates.

Distances are exact unweighted hop counts from breadth-first search.  On
a general graph `all_pairs_distances` keeps one BFS row per vertex, an
n x n table, and refuses more than MAX_TABLE_VERTICES vertices.  On the
canonical butterfly BF(r) it keeps one row per level, r + 1 rows in
all, and reads every other distance through an automorphism: XOR-ing
every row label with a constant c < 2^r maps straight edges to straight
edges and cross edges to cross edges of the same level, so
d((l, x), v) = d((l, 0), v ^ x).  Since a vertex id is
level * 2^r + row, v ^ x flips only the row bits of v.  Every distance
is still a BFS distance and no formula is trusted; at r = 10 the rows
hold 11 x 11,264 entries where a table would hold 11,264^2.  The fill
is chosen from the edges, not the family tag: only a graph whose edges
are exactly those of the canonical BF(r) gets the per-level rows.

This module is the only reader of the rows, through `DistanceMatrix`
and the predicates below, and it owns the collinearity rule that
defines general position: `iter_collinear` is the one place that tests
whether one of three vertices lies on a geodesic of the other two, and
`checked_members` is the one gate a caller's vertices pass first.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    InvalidCycleError,
    InvalidParameterError,
    InvalidPathError,
    NotConnectedError,
    TooLargeError,
)
from .graphs import Graph, butterfly_edges

UNREACHABLE = -1

# largest graph given an n x n table (TooLargeError above it): C_4096's took
# 2.4 s and a 600 MiB peak on a 2-core Xeon under Python 3.11.  The canonical
# BF(r) keeps r + 1 rows and is capped by graphs.MAX_BUTTERFLY_R instead
MAX_TABLE_VERTICES = 4096


class DistanceMatrix:
    """Shortest-path lengths; UNREACHABLE marks disconnected pairs.

    d(u, v) = rows[u >> shift][v ^ (u & mask)].  On the canonical BF(r),
    shift = r, mask = 2^r - 1 and rows[l] is the BFS row from (l, 0); on
    any other graph shift = mask = 0 and rows[u] is the BFS row from u.
    """

    __slots__ = ("n", "rows", "shift", "mask")

    def __init__(self, n: int, rows, shift: int = 0, mask: int = 0):
        self.n = n
        self.rows = rows  # list of BFS distance lists; treat as read-only
        self.shift = shift
        self.mask = mask

    def source(self, u: int) -> tuple[list[int], int]:
        """(row, a) such that d(u, v) == row[v ^ a] for every vertex v."""
        return self.rows[u >> self.shift], u & self.mask

    def dist(self, u: int, v: int) -> int:
        return self.rows[u >> self.shift][v ^ (u & self.mask)]

    def reachable(self, u: int, v: int) -> bool:
        return self.rows[u >> self.shift][v ^ (u & self.mask)] != UNREACHABLE


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    q = deque([source])
    adj = g.adj
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du
                q.append(v)
    return dist


def _canonical_butterfly_dim(g: Graph) -> int | None:
    """r if the edges of g are exactly those of the canonical BF(r), else None."""
    r = 1
    while (r + 1) << r < g.n:
        r += 1
    if (r + 1) << r != g.n or g.num_edges != r << (r + 1):
        return None
    return r if g.edges == butterfly_edges(r) else None


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    r = _canonical_butterfly_dim(g)
    if r is None:
        if g.n > MAX_TABLE_VERTICES:
            raise TooLargeError(f"{g.n} vertices exceed the distance-table cap of "
                                f"{MAX_TABLE_VERTICES} for a graph other than the canonical BF(r)")
        return DistanceMatrix(g.n, [bfs_distances(g, s) for s in range(g.n)])
    nrows = 1 << r
    rows = [bfs_distances(g, lev * nrows) for lev in range(r + 1)]
    return DistanceMatrix(g.n, rows, r, nrows - 1)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def checked_members(dm: DistanceMatrix, ids, what: str) -> tuple[int, ...]:
    """ids sorted, once in range, pairwise distinct and mutually reachable.

    The collinearity sum means nothing otherwise, so every function that
    reads distances for vertices a caller supplies passes them through
    here; `what` names them in errors.  Reachability, an equivalence, is
    checked from the first id, which names the first unreachable pair in
    combinations order, and only for three or more ids: fewer form no
    triple.
    """
    ms = tuple(sorted(ids))
    if ms and (ms[0] < 0 or ms[-1] >= dm.n):
        bad = ms[0] if ms[0] < 0 else ms[-1]
        raise InvalidParameterError(f"{what} must lie in 0..{dm.n - 1}, got {bad}")
    for a, b in zip(ms, ms[1:]):
        if a == b:
            raise InvalidParameterError(f"{what} must be distinct, {a} repeats")
    if len(ms) >= 3:
        for v in ms[1:]:
            if not dm.reachable(ms[0], v):
                raise NotConnectedError(f"{what} {ms[0]} and {v} are not connected")
    return ms


def lies_between(dm: DistanceMatrix, x: int, y: int, z: int) -> bool:
    """True iff y is on some shortest x-z path, i.e. d(x,y) + d(y,z) = d(x,z)."""
    checked_members(dm, (x, y, z), "vertices")
    row, a = dm.source(y)
    return row[x ^ a] + row[z ^ a] == dm.dist(x, z)


def iter_collinear(dm: DistanceMatrix, members):
    """Yield the collinear triples of members, in combinations(members, 3) order.

    A triple is collinear when one of its vertices lies on a geodesic of
    the other two.  Members must have passed `checked_members`, since an
    out-of-range, repeated or unreachable vertex would corrupt the sums.
    """
    ms = list(members)
    # dists[k][l] = d(ms[k], ms[l]); a member's list is read from its
    # source row when the scan first reaches it, so an early violation
    # reads only the rows it needs
    dists: list[list[int]] = []
    for i, x in enumerate(ms):
        if i == len(dists):
            dists.append(_distances_to(dm, x, ms))
        dx = dists[i]
        for j in range(i + 1, len(ms)):
            if j == len(dists):
                dists.append(_distances_to(dm, ms[j], ms))
            dy = dists[j]
            dxy = dx[j]
            k = j + 1
            for z, dxz, dyz in zip(ms[k:], dx[k:], dy[k:]):
                if dxy + dyz == dxz or dxy + dxz == dyz or dxz + dyz == dxy:
                    yield (x, ms[j], z)


def _distances_to(dm: DistanceMatrix, u: int, vs: list[int]) -> list[int]:
    row, a = dm.source(u)
    return [row[v ^ a] for v in vs]


def is_collinear_triple(dm: DistanceMatrix, x: int, y: int, z: int) -> bool:
    """True iff one of the three vertices lies on a geodesic of the other two."""
    return any(iter_collinear(dm, checked_members(dm, (x, y, z), "vertices")))


def check_cycle(g: Graph, cycle) -> None:
    """Raise InvalidCycleError unless cycle is a genuine cycle of g."""
    L = len(cycle)
    if L < 3:
        raise InvalidCycleError(f"cycle needs >= 3 vertices, got {L}", position=0)
    if len(set(cycle)) != L:
        seen = set()
        for i, v in enumerate(cycle):
            if v in seen:
                raise InvalidCycleError(f"repeated vertex {v}", position=i)
            seen.add(v)
    adj = g.adj
    for i, v in enumerate(cycle):
        if not 0 <= v < g.n:
            raise InvalidCycleError(f"vertex {v} out of range", position=i)
        w = cycle[(i + 1) % L]
        if w not in adj[v]:
            raise InvalidCycleError(f"{v} and {w} are not adjacent", position=i)


def check_path(g: Graph, path) -> None:
    """Raise InvalidPathError unless path is a genuine path of g."""
    L = len(path)
    if L < 1:
        raise InvalidPathError("empty path", position=0)
    if len(set(path)) != L:
        raise InvalidPathError("repeated vertex in path")
    adj = g.adj
    for i, v in enumerate(path):
        if not 0 <= v < g.n:
            raise InvalidPathError(f"vertex {v} out of range", position=i)
        if i + 1 < L and path[i + 1] not in adj[v]:
            raise InvalidPathError(f"{v} and {path[i + 1]} are not adjacent", position=i)


def is_isometric_cycle(g: Graph, dm: DistanceMatrix, cycle) -> tuple[bool, tuple[int, int] | None]:
    """Check that cycle distances realize graph distances for every vertex pair.

    Returns (True, None), or (False, pair) where pair is the violating
    vertex pair that is lexicographically first by (smaller id, larger id).
    """
    check_cycle(g, cycle)
    L = len(cycle)
    worst = None
    for i, u in enumerate(cycle):
        row, a = dm.source(u)
        for j in range(i + 1, L):
            k = j - i
            v = cycle[j]
            if row[v ^ a] != min(k, L - k):
                pair = (u, v) if u < v else (v, u)
                if worst is None or pair < worst:
                    worst = pair
    return (worst is None, worst)


def is_isometric_path(g: Graph, dm: DistanceMatrix, path) -> bool:
    """True iff the path is a geodesic: its length equals d(first, last)."""
    check_path(g, path)
    return dm.dist(path[0], path[-1]) == len(path) - 1
