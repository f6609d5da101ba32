"""Isometric cycle covers of butterflies, cover verification, and bounds.

The butterfly cover is a closed form: cycle k, for k < 2^(r-1), is the
union of the four unique monotone paths between the level-0 row pair
{2k, 2k+1} (rows differing only in bit r) and the level-r row pair
{k, k + 2^(r-1)} (rows differing only in bit 1).  Those pair shapes are
forced if a 4r-cycle is to be isometric, because antipodal cycle
vertices must realize graph distance 2r, and 2r between two level-0
(level-r) rows means exactly bit r (bit 1) differs.  The cover is
certified by the verifier, not trusted: `verify_cover` walks each member
of a cycle or path cover once, as a closed or open walk, and decides the
gp bound in the same pass, with the same code on every graph; it never
asks for BF(r), since gp <= 3k holds for any vertex cover by k isometric
cycles.  `verify_bf_cover` is only another name for it.  Each member
is checked by `geodesy.check_walk`, in one loop that also marks its
vertices in a bytearray and lists its edges as keys, in the format that
function alone writes; here keys are only collected in one set and read
back by divmod.  Disjointness is a set test, and since every walk edge
is a graph edge, the partition is decided by count.
"""

from __future__ import annotations

import reprlib
from operator import xor

from .errors import InvalidCoverError, InvalidParameterError, UnverifiedCoverError
from .geodesy import DistanceMatrix, check_walk, walk_violation
from .graphs import Graph, butterfly_ref
from .records import Record

KIND_CYCLE = "cycle-cover"
KIND_PATH = "path-cover"
UNVERIFIED = "bounds require a cover that passed verification"

# verifier flags in the order failures are reported; a report passes iff all are true
FLAG_ORDER = ("edge_disjoint", "edge_partition", "all_isometric", "vertex_cover")


class CycleCover(Record):
    __slots__ = ("kind", "cycles", "graph_ref")

    def __init__(self, kind: str, cycles: tuple[tuple[int, ...], ...], graph_ref: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "graph_ref", graph_ref)

    def __len__(self) -> int:
        return len(self.cycles)


class CoverReport(Record):
    __slots__ = ("flags", "first_failure", "bounds", "cover")

    def __init__(self, flags: dict[str, bool], first_failure: dict | None = None,
                 bounds: dict[str, int] | None = None, cover: CycleCover | None = None):
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "bounds", bounds or {})
        object.__setattr__(self, "cover", cover)

    @property
    def passes(self) -> bool:
        return all(self.flags.values())


def verify_cover(g: Graph, dm: DistanceMatrix, cover: CycleCover) -> CoverReport:
    """The cover verifier: one pass over the members, failures reported in FLAG_ORDER.

    Every cover, on every graph, must consist of genuine cycles (or
    paths; garbage raises InvalidCoverError, its message led by `cycle #i`
    or `path #i`) that are pairwise edge-disjoint, partition the edges,
    are isometric, and cover every vertex.  The butterfly cover's shape
    (2^(r-1) cycles of length 4r) is no flag, since no bound rests on it.
    Each flag keeps its first failure (edges are collected up to the
    first overlap, every member is tested for isometry), and
    first_failure is the earliest of them in FLAG_ORDER.  A kind other
    than KIND_CYCLE and KIND_PATH raises InvalidParameterError.  The
    report records `cover`, and its bounds are the cover's gp bound if
    all_isometric and vertex_cover, the flags soundness rests on, hold,
    and {} otherwise: gp <= 3k from a vertex cover by k isometric cycles,
    gp <= 2k by k isometric paths.
    """
    if cover.kind not in (KIND_CYCLE, KIND_PATH):
        raise InvalidParameterError(f"unknown cover kind {reprlib.repr(cover.kind)}")
    closed = cover.kind == KIND_CYCLE
    member = "cycle" if closed else "path"
    n = g.n
    failures: dict[str, dict] = {}

    def fail(check: str, cycle_index: int | None, detail: str) -> None:
        failures.setdefault(check, {"check": check, "cycle_index": cycle_index, "detail": detail})

    covered = bytearray(n)
    seen_edges: set[int] = set()  # check_walk's keys: they order as their pairs do
    for i, seq in enumerate(cover.cycles):
        defect, keys = check_walk(g, seq, closed, covered)
        if defect is not None:
            raise InvalidCoverError(f"{member} #{i}: {defect}")
        if "edge_disjoint" not in failures:
            if not seen_edges.isdisjoint(keys):
                edge = divmod(min(seen_edges.intersection(keys)), n)
                fail("edge_disjoint", i, f"edge {edge} already covered")
            seen_edges.update(keys)
        pair = walk_violation(dm, seq, closed)
        if pair is not None:
            fail("all_isometric", i, f"pair {pair} violates {member} distance")

    if "edge_disjoint" in failures:
        # an overlap breaks the partition too; edge_disjoint is reported first
        fail("edge_partition", None, "edges overlap")
    elif len(seen_edges) != g.num_edges:
        # check_walk passed every walk edge as a graph edge, so only a short count fails
        pairs = {divmod(key, n) for key in seen_edges}
        missing = next(e for e in g.edges if e not in pairs)
        fail("edge_partition", None, f"edge {missing} uncovered")
    if 0 in covered:
        fail("vertex_cover", None, f"vertex {covered.index(0)} uncovered")

    flags = {name: name not in failures for name in FLAG_ORDER}
    first_failure = next((failures[name] for name in FLAG_ORDER if name in failures), None)
    bounds = {}
    if flags["all_isometric"] and flags["vertex_cover"]:
        k = len(cover.cycles)
        bounds = {"from_ic": 3 * k} if closed else {"from_ip": 2 * k}
    return CoverReport(flags=flags, first_failure=first_failure, bounds=bounds, cover=cover)


# the benchmark's name for verify_cover: its frozen workloads call and trace
# this name, until ROADMAP item 4 moves those calls
verify_bf_cover = verify_cover


def candidate_cycle(r: int, uc: int, vc: int) -> tuple[int, ...]:
    """The cycle of length 4r through a level-0 and a level-r row pair.

    uc is the level-0 row pair representative (bit r clear, partner
    uc|1); vc the level-r representative (bit 1 clear, partner with the
    top bit set).  The cycle walks the four monotone paths between the
    corners: up from [0,uc] to [r,vc], down to [0,uc|1], up to the
    partner of vc, and back down.  On the monotone path from [0,x] to
    [r,y] the row at level lev takes its low[lev] bits from x, the rest from y.
    """
    nrows = 1 << r
    msb = 1 << (r - 1)
    low = [(nrows - 1) >> lev for lev in range(r + 1)]
    up, down = range(r), range(r, 0, -1)
    corners = ((uc, vc, up), (uc | 1, vc, down), (uc | 1, vc | msb, up), (uc, vc | msb, down))
    return tuple([lev * nrows + (y ^ (x ^ y) & low[lev])
                  for x, y, levels in corners for lev in levels])


def construct_bf_cycle_cover(r: int) -> CycleCover:
    """Edge partition of BF(r) into 2^(r-1) isometric cycles of length 4r.

    Closed form: cycle k is candidate_cycle(r, 2k, k), joining level-0
    pair 2k with level-r pair k, for k < 2^(r-1).  Each is built from
    cycle 0 = candidate_cycle(r, 0, 0): for even uc and vc < 2^(r-1),
    candidate_cycle(r, uc, vc) is cycle 0 with each level-l vertex XOR-ed
    by (vc & ~low[l]) | (uc & low[l]).  Cycle 0's rows use bits 1 and r
    alone, which such uc and vc leave clear, so OR-ing their bits into the
    corners is this XOR.  For cycle k that offset, (k & ~low[l]) | (2k &
    low[l]), is XOR-linear in k, as both parts are and they share no bit,
    so cycle k is cycle k & (k - 1), k with its lowest bit b cleared,
    XOR-ed position by position with the offsets of b alone.
    Nothing is checked here; a claim resting on the cover must first pass
    verify_cover.
    """
    if r < 2:
        raise InvalidParameterError(f"cover construction needs r >= 2, got {reprlib.repr(r)}")
    ref = butterfly_ref(r)  # refuses r above the cap before any cycle is built
    low = [((1 << r) - 1) >> lev for lev in range(r + 1)]
    cycle0 = candidate_cycle(r, 0, 0)
    levels = [v >> r for v in cycle0]
    # bit_offsets[b]: each position's offset for the single bit b
    bit_offsets = {}
    for j in range(r - 1):
        b = 1 << j
        offset = [(b & ~m) | (2 * b & m) for m in low]
        bit_offsets[b] = [offset[lev] for lev in levels]
    cycles = [cycle0]
    for k in range(1, 1 << (r - 1)):
        cycles.append(tuple(map(xor, cycles[k & (k - 1)], bit_offsets[k & -k])))
    return CycleCover(kind=KIND_CYCLE, cycles=tuple(cycles), graph_ref=ref)


def gp_upper_bounds(cover: CycleCover, verified: CoverReport) -> dict[str, int]:
    """The bounds `verify_cover` drew from `cover`, read off its report.

    `cover` stays a parameter so that a report vouches for no other cover:
    UnverifiedCoverError unless the report judged a cover equal to `cover`
    and holds a bound (an unsound cover's report holds none).
    """
    if verified.cover != cover or not verified.bounds:
        raise UnverifiedCoverError(UNVERIFIED)
    return dict(verified.bounds)

