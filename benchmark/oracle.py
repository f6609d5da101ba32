"""Ground truth the benchmark holds independently of the code it measures.

Closed-form sizes and optima come from the paper; the butterfly set and
the cover cycles are rebuilt here from their definitions; collinearity is
re-checked with single-source BFS rows, never with the shared distance
table that the measured code built.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

# optima proved in the paper; relabelled copies must reproduce them
GP_BF = {2: 5, 3: 10}
GP_CYCLE = 3


def gp_set_size(r: int) -> int:
    return (1 << r) + (1 << (r - 2))


def deg2_cap(r: int) -> int:
    return 1 << r


def cover_cycles(r: int) -> int:
    return 1 << (r - 1)


def cycle_length(r: int) -> int:
    return 4 * r


def gp_upper_bound(r: int) -> int:
    return 3 * (1 << (r - 1))


def num_vertices(r: int) -> int:
    return (r + 1) << r


def num_edges(r: int) -> int:
    return r << (r + 1)


def deg2_vertices(r: int) -> list[int]:
    """Level-0 and level-r ids of BF(r) under id = level * 2^r + row."""
    nrows = 1 << r
    return list(range(nrows)) + list(range(r * nrows, (r + 1) * nrows))


def closed_form_set(r: int) -> tuple[int, ...]:
    """Level-0 rows with a_r = 1, level-r rows with a_1 = 1, level-1 rows with a_1 = a_r = 0."""
    nrows = 1 << r
    msb = 1 << (r - 1)
    ids = [row for row in range(nrows) if row & 1]
    ids += [r * nrows + row for row in range(nrows) if row & msb]
    ids += [nrows + row for row in range(nrows) if not row & msb and not row & 1]
    return tuple(sorted(ids))


def _monotone_row(x: int, y: int, lev: int, r: int) -> int:
    # the first lev bits come from the level-r end, the rest from the level-0 end
    full = (1 << r) - 1
    hi = ((full >> (r - lev)) << (r - lev)) if lev else 0
    return (y & hi) | (x & ~hi & full)


def cover_cycle(r: int, uc: int, vc: int) -> tuple[int, ...]:
    """The 4r-cycle through level-0 rows uc, uc|1 and level-r rows vc, vc|2^(r-1)."""
    nrows = 1 << r
    msb = 1 << (r - 1)
    corners = ((uc, vc), (uc | 1, vc), (uc | 1, vc | msb), (uc, vc | msb))
    seq = []
    for side, (x, y) in enumerate(corners):
        levels = range(r) if side % 2 == 0 else range(r, 0, -1)
        seq.extend(lev * nrows + _monotone_row(x, y, lev, r) for lev in levels)
    return tuple(seq)


def closed_form_cover(r: int) -> tuple[tuple[int, ...], ...]:
    """Edge partition of BF(r) into 2^(r-1) isometric cycles: pair level-0 rows 2k with level-r rows k."""
    return tuple(cover_cycle(r, 2 * k, k) for k in range(cover_cycles(r)))


def cycle_edges(seq) -> frozenset[tuple[int, int]]:
    L = len(seq)
    return frozenset((min(seq[i], seq[(i + 1) % L]), max(seq[i], seq[(i + 1) % L]))
                     for i in range(L))


def cover_partition_error(r: int, cycles, graph_edges) -> str | None:
    """None iff cycles are 2^(r-1) simple 4r-cycles whose edges partition graph_edges."""
    if len(cycles) != cover_cycles(r):
        return f"{len(cycles)} cycles, expected {cover_cycles(r)}"
    seen: set[tuple[int, int]] = set()
    for i, seq in enumerate(cycles):
        if len(seq) != cycle_length(r) or len(set(seq)) != len(seq):
            return f"cycle {i} is not a simple {cycle_length(r)}-cycle"
        es = cycle_edges(seq)
        if seen & es:
            return f"cycle {i} reuses an edge"
        seen |= es
    if seen != set(graph_edges):
        return "cycle edges are not the graph's edge set"
    return None


def collinear(dxy: int, dxz: int, dyz: int) -> bool:
    return dxy + dyz == dxz or dxy + dxz == dyz or dxz + dyz == dxy


def witness_error(bfs, g, triple, mutated: int) -> str | None:
    """A reject witness must name the mutated vertex and be collinear by fresh BFS."""
    if triple is None or len(triple) != 3 or len(set(triple)) != 3:
        return f"malformed witness {triple!r}"
    if mutated not in triple:
        return f"witness {tuple(triple)} misses mutated vertex {mutated}"
    x, y, z = triple
    dx = bfs(g, x)
    dy = bfs(g, y)
    if not collinear(dx[y], dx[z], dy[z]):
        return f"witness {tuple(triple)} is not collinear"
    return None


def gp_violation(bfs, g, members) -> tuple[int, int, int] | None:
    """First collinear triple of members by fresh BFS rows; None if in general position."""
    ms = sorted(members)
    rows = {v: bfs(g, v) for v in ms}
    for x, y, z in combinations(ms, 3):
        if collinear(rows[x][y], rows[x][z], rows[y][z]):
            return (x, y, z)
    return None


def triple_rank(members_sorted, triple) -> int:
    """Position of triple in itertools.combinations(members_sorted, 3)."""
    m = len(members_sorted)
    index = {v: k for k, v in enumerate(members_sorted)}
    i, j, k = sorted(index[v] for v in triple)
    before = sum(comb(m - 1 - a, 2) for a in range(i))
    before += sum(m - 1 - b for b in range(i + 1, j))
    return before + (k - j - 1)


def triples_examined(members, triple) -> int:
    """Triples the lexicographic verifier examines: all of them on accept, up to the witness on reject."""
    ms = sorted(members)
    if triple is None:
        return comb(len(ms), 3)
    return triple_rank(ms, triple) + 1
