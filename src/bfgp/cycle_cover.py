"""Isometric cycle covers of butterflies, cover verification, and bounds.

The butterfly cover is a closed form: cycle k, for k < 2^(r-1), is the
union of the four unique monotone paths between the level-0 row pair
{2k, 2k+1} (rows differing only in bit r) and the level-r row pair
{k, k + 2^(r-1)} (rows differing only in bit 1).  Those pair shapes are
forced if a 4r-cycle is to be isometric, because antipodal cycle
vertices must realize graph distance 2r, and 2r between two level-0
(level-r) rows means exactly bit r (bit 1) differs.  The cover is
certified by the verifier, not trusted: every bound drawn from it rests
on a report that passed `verify_cover`, which walks each member of a
cycle or path cover once, as a closed or open walk.  Each walk edge (u, v),
u < v, is the int u * n + v in one set: disjointness is a set test, and
since every walk edge is a graph edge, the partition is decided by count.
"""

from __future__ import annotations

from .errors import (
    GraphParseError,
    InvalidCoverError,
    InvalidCycleError,
    InvalidParameterError,
    InvalidPathError,
    UnsupportedFamilyError,
    UnverifiedCoverError,
)
from .geodesy import DistanceMatrix, check_walk, walk_violation
from .graph_io import int_array, str_field
from .graphs import Graph, butterfly_ref
from .records import Record

KIND_CYCLE = "cycle-cover"
KIND_PATH = "path-cover"

# verifier flags in the order failures are reported; a report passes iff all are true
FLAG_ORDER = (
    "lengths_ok",
    "count_ok",
    "edge_disjoint",
    "edge_partition",
    "all_isometric",
    "level0_pairs_ok",
    "incidence_ok",
    "vertex_cover",
)


class CycleCover(Record):
    __slots__ = ("kind", "cycles", "graph_ref")

    def __init__(self, kind: str, cycles: tuple[tuple[int, ...], ...], graph_ref: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "graph_ref", graph_ref)

    def __len__(self) -> int:
        return len(self.cycles)


class CoverReport(Record):
    __slots__ = ("flags", "first_failure", "incidence")

    def __init__(self, flags: dict[str, bool], first_failure: dict | None = None,
                 incidence: tuple[int, ...] = ()):
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "first_failure", first_failure)
        object.__setattr__(self, "incidence", incidence)

    @property
    def passes(self) -> bool:
        return all(self.flags.values())


def verify_cover(g: Graph, dm: DistanceMatrix, cover: CycleCover) -> CoverReport:
    """The cover verifier: one pass over the members, failures reported in FLAG_ORDER.

    Every cover must consist of genuine cycles (or paths; garbage raises
    InvalidCoverError) that are pairwise edge-disjoint, partition the
    edges, are isometric, and cover every vertex.  A cycle cover of a
    canonical BF(r), whatever its tag, must also meet the butterfly contract:

    - every length is 4r;
    - there are 2^(r-1) cycles (with the lengths, disjointness alone
      forces the partition, since 2^(r-1) * 4r equals r * 2^(r+1));
    - every cycle has exactly two level-0 vertices;
    - every degree-2 vertex lies in exactly 1 cycle and every degree-4
      vertex in exactly 2.

    On other graphs and for path covers those flags are vacuously true.
    Each flag keeps its first failure (edges are collected up to the
    first overlap, every member is tested for isometry), and
    first_failure is the earliest of them in FLAG_ORDER.  A kind other
    than KIND_CYCLE and KIND_PATH raises InvalidParameterError.
    """
    if cover.kind not in (KIND_CYCLE, KIND_PATH):
        raise InvalidParameterError(f"unknown cover kind {cover.kind!r}")
    closed = cover.kind == KIND_CYCLE
    member = "cycle" if closed else "path"
    r = g.butterfly_r if closed else None
    n = g.n
    failures: dict[str, dict] = {}

    def fail(check: str, cycle_index: int | None, detail: str) -> None:
        failures.setdefault(check, {"check": check, "cycle_index": cycle_index, "detail": detail})

    incidence = [0] * n
    seen_edges: set[int] = set()  # edge (u, v), u < v, as u * n + v: keys order as pairs do
    for i, seq in enumerate(cover.cycles):
        try:
            check_walk(g, seq, closed)
        except (InvalidCycleError, InvalidPathError) as e:
            raise InvalidCoverError(str(e), cycle_index=i) from e
        for v in seq:
            incidence[v] += 1
        if "edge_disjoint" not in failures:
            ends = seq[1:] + seq[:1] if closed else seq[1:]
            keys = {u * n + v if u < v else v * n + u for u, v in zip(seq, ends)}
            if not seen_edges.isdisjoint(keys):
                edge = divmod(min(seen_edges & keys), n)
                fail("edge_disjoint", i, f"edge {edge} already covered")
            seen_edges |= keys
        pair = walk_violation(dm, seq, closed)
        if pair is not None:
            fail("all_isometric", i, f"pair {pair} violates {member} distance")
        if r is not None:
            if len(seq) != 4 * r:
                fail("lengths_ok", i, f"length {len(seq)}, expected {4 * r}")
            lvl0 = len([v for v in seq if v >> r == 0])
            if lvl0 != 2:
                fail("level0_pairs_ok", i, f"{lvl0} level-0 vertices, expected 2")

    if r is not None and len(cover.cycles) != 1 << (r - 1):
        fail("count_ok", None, f"{len(cover.cycles)} cycles, expected {1 << (r - 1)}")
    if "edge_disjoint" in failures:
        # an overlap breaks the partition too; edge_disjoint is reported first
        fail("edge_partition", None, "edges overlap")
    elif len(seen_edges) != g.num_edges:
        # check_walk passed every walk edge as a graph edge, so only a short count fails
        missing = next(e for e in g.edges if e[0] * n + e[1] not in seen_edges)
        fail("edge_partition", None, f"edge {missing} uncovered")
    if r is not None:
        # BF(r)'s degree-2 vertices are levels 0 and r, the first and last 2^r ids
        outer = [1] * (1 << r)
        expected = outer + [2] * (n - (2 << r)) + outer
        if incidence != expected:
            v = next(v for v, (k, e) in enumerate(zip(incidence, expected)) if k != e)
            fail("incidence_ok", None,
                 f"vertex {v} in {incidence[v]} cycles, expected {expected[v]}")
    if 0 in incidence:
        fail("vertex_cover", None, f"vertex {incidence.index(0)} uncovered")

    flags = {name: name not in failures for name in FLAG_ORDER}
    first_failure = next((failures[name] for name in FLAG_ORDER if name in failures), None)
    return CoverReport(flags=flags, first_failure=first_failure, incidence=tuple(incidence))


def verify_bf_cover(g: Graph, dm: DistanceMatrix, cover: CycleCover) -> CoverReport:
    """verify_cover, with the butterfly contract required rather than inferred.

    Raises UnsupportedFamilyError unless g is the canonical BF(r), whatever
    its tag, and InvalidParameterError for r < 2 or a path cover.
    """
    r = g.butterfly_r
    if r is None:
        raise UnsupportedFamilyError(f"butterfly graph required, got {g!r}")
    if r < 2:
        raise InvalidParameterError("cover verification needs r >= 2")
    if cover.kind != KIND_CYCLE:
        raise InvalidParameterError("butterfly verification applies to cycle covers")
    return verify_cover(g, dm, cover)


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
    pair 2k with level-r pair k, for k < 2^(r-1).  Nothing is checked
    here; a claim resting on the cover must first pass verify_bf_cover.
    """
    if r < 2:
        raise InvalidParameterError(f"cover construction needs r >= 2, got {r}")
    ref = butterfly_ref(r)  # refuses r above the cap before any cycle is built
    return CycleCover(
        kind=KIND_CYCLE,
        cycles=tuple(candidate_cycle(r, 2 * k, k) for k in range(1 << (r - 1))),
        graph_ref=ref,
    )


def gp_upper_bounds(cover: CycleCover, verified: CoverReport) -> dict[str, int]:
    """Certified bounds from a verified cover of k members.

    A vertex cover by k isometric cycles gives gp <= 3k; by k isometric
    paths, gp <= 2k.  Soundness rests on two report flags, all_isometric
    and vertex_cover, and covers failing either are refused; the
    remaining flags are structural diagnostics that do not weaken the
    bound.
    """
    if not (verified.flags.get("all_isometric", False)
            and verified.flags.get("vertex_cover", False)):
        raise UnverifiedCoverError("bounds require a cover that passed verification")
    k = len(cover.cycles)
    if cover.kind == KIND_CYCLE:
        return {"from_ic": 3 * k}
    return {"from_ip": 2 * k}


def cover_to_dict(cover: CycleCover) -> dict:
    return {
        "graph_ref": cover.graph_ref,
        "kind": cover.kind,
        "cycles": [list(seq) for seq in cover.cycles],
    }


def cover_from_dict(doc: dict) -> CycleCover:
    if not isinstance(doc, dict) or "cycles" not in doc:
        raise GraphParseError("cover JSON needs a 'cycles' array")
    kind = doc.get("kind", KIND_CYCLE)
    if kind not in (KIND_CYCLE, KIND_PATH):
        raise GraphParseError(f"unknown cover kind {kind!r}")
    cycles = doc["cycles"]
    if not isinstance(cycles, list):
        raise GraphParseError("'cycles' must be an array of id arrays")
    parsed = tuple(tuple(int_array(seq, f"cycle #{i}")) for i, seq in enumerate(cycles))
    return CycleCover(kind=kind, cycles=parsed, graph_ref=str_field(doc, "graph_ref", ""))


def report_to_dict(report: CoverReport) -> dict:
    return {
        "passes": report.passes,
        "flags": dict(report.flags),
        "first_failure": report.first_failure,
        "incidence": list(report.incidence),
    }

