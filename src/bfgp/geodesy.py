"""All-pairs distances and geodesic predicates.

Distances are exact unweighted hop counts from one breadth-first search
per source, stored as a dense n x n table.  That table is not free: at
BF(8) (2304 vertices) it takes about 41 MiB and over a second to build.
This module is the only reader of the table, through `DistanceMatrix`
and the predicates below, and it owns the collinearity rule that
defines general position: `iter_collinear` is the one place that tests
whether one of three vertices lies on a geodesic of the other two.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from .errors import (
    InvalidCycleError,
    InvalidParameterError,
    InvalidPathError,
    NotConnectedError,
)
from .graphs import Graph

UNREACHABLE = -1


class DistanceMatrix:
    """Symmetric table of shortest-path lengths; UNREACHABLE marks disconnected pairs."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        self.n = n
        self.rows = rows  # list of per-source distance lists; treat as read-only

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]

    def reachable(self, u: int, v: int) -> bool:
        return self.rows[u][v] != UNREACHABLE


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


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    return DistanceMatrix(g.n, [bfs_distances(g, s) for s in range(g.n)])


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def _check_triple(dm: DistanceMatrix, x: int, y: int, z: int) -> None:
    if x == y or y == z or x == z:
        raise InvalidParameterError(f"vertices must be pairwise distinct: {x}, {y}, {z}")
    for a, b in ((x, y), (y, z), (x, z)):
        if not dm.reachable(a, b):
            raise NotConnectedError(f"vertices {a} and {b} are not connected")


def lies_between(dm: DistanceMatrix, x: int, y: int, z: int) -> bool:
    """True iff y is on some shortest x-z path, i.e. d(x,y) + d(y,z) = d(x,z)."""
    _check_triple(dm, x, y, z)
    row = dm.rows[y]
    return row[x] + row[z] == dm.rows[x][z]


def iter_collinear(dm: DistanceMatrix, members):
    """Yield the collinear triples of members, in combinations(members, 3) order.

    A triple is collinear when one of its vertices lies on a geodesic of
    the other two.  Members must be distinct and mutually reachable;
    callers check that, since UNREACHABLE would corrupt the sums.
    """
    rows = dm.rows
    ms = list(members)
    for i, x in enumerate(ms):
        rx = rows[x]
        for j in range(i + 1, len(ms)):
            y = ms[j]
            ry = rows[y]
            dxy = rx[y]
            for z in ms[j + 1:]:
                dxz = rx[z]
                dyz = ry[z]
                if dxy + dyz == dxz or dxy + dxz == dyz or dxz + dyz == dxy:
                    yield (x, y, z)


def is_collinear_triple(dm: DistanceMatrix, x: int, y: int, z: int) -> bool:
    """True iff one of the three vertices lies on a geodesic of the other two."""
    _check_triple(dm, x, y, z)
    return any(iter_collinear(dm, (x, y, z)))


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
    rows = dm.rows
    worst = None
    for i, j in combinations(range(L), 2):
        k = j - i
        if rows[cycle[i]][cycle[j]] != min(k, L - k):
            u, v = cycle[i], cycle[j]
            pair = (u, v) if u < v else (v, u)
            if worst is None or pair < worst:
                worst = pair
    return (worst is None, worst)


def is_isometric_path(g: Graph, dm: DistanceMatrix, path) -> bool:
    """True iff the path is a geodesic: its length equals d(first, last)."""
    check_path(g, path)
    return dm.rows[path[0]][path[-1]] == len(path) - 1
