"""Distances and geodesic predicates.

Distances are exact unweighted hop counts from breadth-first search.
`all_pairs_distances` keeps one BFS row per 2^shift ids, shift being
`Graph.butterfly_r` on the canonical BF(r) and 0 on any other graph,
which so gets an n x n table, refused above MAX_TABLE_VERTICES vertices.
BF(r) gets one row per level, and every other distance is read through
an automorphism: XOR-ing every row label with a constant c < 2^r maps
straight edges to straight edges and cross edges to cross edges of the
same level, so d((l, x), v) = d((l, 0), v ^ x), and v ^ x flips only the
row bits of v = level * 2^r + row.  `butterfly_r` comes from checking
that very edge shape, not from the family tag.  Every distance is still
a BFS distance; at r = 10 the rows hold 11 x 11,264 entries where a
table would hold 11,264^2.

This module is the only reader of the rows, through `DistanceMatrix`
and the predicates below, and it owns the collinearity rule that
defines general position: `iter_collinear` is the one place that tests
whether one of three vertices lies on a geodesic of the other two, and
`checked_members` is the one gate a caller's vertices pass first.

A cycle is a closed walk and a path an open one: `check_walk` checks
either against the graph and `walk_violation` tests either for isometry.
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
from .graphs import Graph

UNREACHABLE = -1

# largest graph given an n x n table (TooLargeError above it): C_4096's took
# 2.4 s and a 600 MiB peak on a 2-core Xeon under Python 3.11.  The canonical
# BF(r) keeps r + 1 rows and is capped by graphs.MAX_BUTTERFLY_R instead
MAX_TABLE_VERTICES = 4096


class DistanceMatrix:
    """Shortest-path lengths; UNREACHABLE marks disconnected pairs.

    d(u, v) = rows[u >> shift][v ^ (u & mask)], mask = 2^shift - 1.  On
    the canonical BF(r), shift = r and rows[l] is the BFS row from (l, 0);
    on any other graph shift = mask = 0 and rows[u] is the BFS row from u.
    """

    __slots__ = ("n", "rows", "shift", "mask")

    def __init__(self, n: int, rows, shift: int = 0):
        self.n = n
        self.rows = rows  # list of BFS distance lists; treat as read-only
        self.shift = shift
        self.mask = (1 << shift) - 1

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


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    shift = g.butterfly_r or 0
    if not shift and g.n > MAX_TABLE_VERTICES:
        raise TooLargeError(f"{g.n} vertices exceed the distance-table cap of "
                            f"{MAX_TABLE_VERTICES} for a graph other than the canonical BF(r)")
    return DistanceMatrix(g.n, [bfs_distances(g, s) for s in range(0, g.n, 1 << shift)], shift)


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


def check_walk(g: Graph, seq, closed: bool) -> None:
    """Raise unless seq is a genuine cycle (closed) or path (open) of g.

    A cycle needs at least 3 distinct vertices and a path at least 1,
    consecutive vertices adjacent, and on a cycle also the last and the
    first.  Raises InvalidCycleError when closed, else InvalidPathError,
    with `position` at the first bad index.
    """
    kind, err, least = ("cycle", InvalidCycleError, 3) if closed else ("path", InvalidPathError, 1)
    L = len(seq)
    if L < least:
        raise err(f"{kind} needs >= {least} vertices, got {L}", position=0)
    if len(set(seq)) != L:
        seen = set()
        for i, v in enumerate(seq):
            if v in seen:
                raise err(f"repeated vertex {v}", position=i)
            seen.add(v)
    adj = g.adj
    for i, v in enumerate(seq):
        if not 0 <= v < g.n:
            raise err(f"vertex {v} out of range", position=i)
        if i + 1 < L or closed:
            w = seq[(i + 1) % L]
            if w not in adj[v]:
                raise err(f"{v} and {w} are not adjacent", position=i)


def walk_violation(dm: DistanceMatrix, seq, closed: bool) -> tuple[int, int] | None:
    """The first vertex pair, by (smaller id, larger id), off its walk distance.

    Two vertices k steps apart along the walk are min(k, L - k) apart
    round a cycle of length L (closed) and k apart on a path (open); the
    walk is isometric when every pair realizes that graph distance, and
    then the result is None.  seq must be a walk of the graph dm was
    built from (see check_walk).
    """
    L = len(seq)
    # along[k - 1] is the walk distance of two vertices k steps apart
    along = [min(k, L - k) for k in range(1, L)] if closed else range(1, L)
    worst = None
    for i, u in enumerate(seq):
        row, a = dm.source(u)
        for v, d in zip(seq[i + 1:], along):
            if row[v ^ a] != d:
                pair = (u, v) if u < v else (v, u)
                if worst is None or pair < worst:
                    worst = pair
    return worst
