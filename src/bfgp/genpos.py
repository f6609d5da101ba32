"""General position sets: verification, construction, and exact search.

A vertex set is in general position when no member lies on a geodesic
between two others.  That rule, the distances it reads and the checks
its vertices need belong to `geodesy`: every set or pool a caller passes
in goes through `checked_members` (in range, distinct, mutually
reachable), and every test asks `first_collinear`, `collinear_through`,
`iter_collinear` or `lies_between`, never the distance table.  A
verification names the first collinear triple of the sorted members in
combinations order; geodesy may use the set's row-XOR symmetry on BF(r)
to accept it, but a violation is always named by the full scan.  Finding
a maximum set is equivalent to a maximum independent set in the
3-uniform hypergraph whose hyperedges are the collinear triples, which
is what the branch-and-bound solver below works on.  It numbers the
triples once and keeps its triple state as integer bitsets over those
numbers (the triples still alive, the triples through a chosen vertex,
and per vertex the triples through it), so a node costs a few
word-parallel operations per pool vertex, not scans of a triple list.
It keeps its pending branches on its own stack, so its depth is not
bounded by Python's recursion limit, and it refuses a pool with more
than MAX_SEARCH_TRIPLES collinear triples.  Everything is deterministic:
ties break on smallest vertex id, and nothing reads a clock or a random
source.
"""

from __future__ import annotations

from itertools import islice

from .budget import Budget
from .errors import GraphParseError, InvalidParameterError, TooLargeError
from .geodesy import (
    DistanceMatrix,
    checked_members,
    collinear_through,
    first_collinear,
    iter_collinear,
    lies_between,
)
from .graph_io import int_array, str_field
from .graphs import Graph, butterfly_ref
from .records import Record

PROVENANCE_CONSTRUCTION = "construction"
PROVENANCE_EXACT = "solver-exact"
PROVENANCE_LOWER_BOUND = "solver-lower-bound"
PROVENANCE_USER = "user"

VERIFIED = "verified-general-position"
VIOLATION = "violation"

# ceiling on the triple list a search builds: BF(5)'s whole vertex set has
# 317,888 collinear triples and BF(6)'s has 2,904,896
MAX_SEARCH_TRIPLES = 1_000_000


class VertexSet(Record):
    __slots__ = ("members", "provenance", "graph_ref")

    def __init__(self, members: tuple[int, ...], provenance: str = PROVENANCE_USER,
                 graph_ref: str = ""):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "graph_ref", graph_ref)

    def __len__(self) -> int:
        return len(self.members)


class GpWitness(Record):
    __slots__ = ("status", "triple", "middle")

    def __init__(self, status: str, triple: tuple[int, int, int] | None = None,
                 middle: int | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "middle", middle)

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED


class SolveResult(Record):
    __slots__ = ("best_set", "size", "optimal", "nodes_explored")

    def __init__(self, best_set: VertexSet, size: int, optimal: bool, nodes_explored: int):
        object.__setattr__(self, "best_set", best_set)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "optimal", optimal)
        object.__setattr__(self, "nodes_explored", nodes_explored)


def verify_general_position(g: Graph, dm: DistanceMatrix, s: VertexSet) -> GpWitness:
    """Check s; report its lexicographically first violation, if any."""
    triple = first_collinear(dm, checked_members(dm, s.members, "set members"))
    if triple is None:
        return GpWitness(status=VERIFIED)
    x, y, z = triple
    # the middle vertex is unique for distinct, mutually reachable vertices
    if lies_between(dm, y, x, z):
        mid = x
    elif lies_between(dm, x, y, z):
        mid = y
    else:
        mid = z
    return GpWitness(status=VIOLATION, triple=triple, middle=mid)


def construct_butterfly_gp_set(r: int) -> VertexSet:
    """Known optimal general position set of BF(r), size 2^r + 2^(r-2).

    Union of three families: level-0 vertices with a_r = 1, level-r
    vertices with a_1 = 1, and level-1 vertices with a_1 = a_r = 0.
    """
    if r < 2:
        raise InvalidParameterError(f"construction needs r >= 2, got {r}")
    ref = butterfly_ref(r)  # refuses r above the cap before any list is built
    nrows = 1 << r
    msb = 1 << (r - 1)
    level0 = [row for row in range(nrows) if row & 1]
    levelr = [r * nrows + row for row in range(nrows) if row & msb]
    level1 = [nrows + row for row in range(nrows) if not row & msb and not row & 1]
    members = tuple(sorted(level0 + levelr + level1))
    return VertexSet(members=members, provenance=PROVENANCE_CONSTRUCTION, graph_ref=ref)


def collinear_triples(dm: DistanceMatrix, pool) -> list[tuple[int, int, int]]:
    """All collinear triples within pool in lexicographic order, at most MAX_SEARCH_TRIPLES."""
    scan = iter_collinear(dm, checked_members(dm, pool, "pool members"))
    triples = list(islice(scan, MAX_SEARCH_TRIPLES + 1))
    if len(triples) > MAX_SEARCH_TRIPLES:
        raise TooLargeError(f"pool has more than {MAX_SEARCH_TRIPLES} collinear triples")
    return triples


def greedy_gp_lower_bound(g: Graph, dm: DistanceMatrix, pool=None) -> VertexSet:
    """Inclusion-maximal general position set from one scan in (degree, id) order."""
    vertices = sorted(checked_members(dm, range(g.n) if pool is None else pool,
                                      "pool members"),
                      key=lambda v: (g.degree(v), v))
    chosen: list[int] = []
    for v in vertices:
        # chosen is in general position, so a collinear triple must hold v
        if not collinear_through(dm, [*chosen, v], (v,)):
            chosen.append(v)
    return VertexSet(members=tuple(sorted(chosen)),
                     provenance=PROVENANCE_LOWER_BOUND, graph_ref=g.ref())


def _branch_and_bound(pool: tuple[int, ...], triples, warm, node_limit: int):
    """Bitmask branch and bound over one pool, on an explicit stack.

    Vertices are bits of pool index.  Triples are bits of a second kind
    of mask: triple t of the T `triples` is bit T - 1 - t, so the first
    triple in list order is the highest bit and `bit_length` finds it.
    inc[i] holds the triples through pool vertex i, and pair[i][j] the
    third members c of every collinear (i, j, c).  A stack entry is
    (chosen, free, active, touch, last): vertex masks, the triples whose
    members are all chosen or free, the triples through a chosen vertex,
    and the vertex the include branch just took (-1 after an exclude).
    A triple with two chosen members forces exclusion of the third, and
    only a pair with `last` can be new; free vertices in no active triple
    are always safe to take.  The bound is |chosen| + |free| minus a
    greedy packing of disjoint constraint free-parts (the pairs, active &
    touch, before the triples, each in list order), since each packed
    constraint forces at least one exclusion.  Branching: include-first
    on the free vertex in the most active triples, smallest id on ties.
    The warm set is the first incumbent, and only a strictly larger set
    replaces it.

    Returns (best members, nodes explored, stopped); stopped means the
    node limit cut the search short, so the members may not be optimal.
    """
    k = len(pool)
    index = {v: i for i, v in enumerate(pool)}
    best_mask = sum(1 << index[v] for v in warm)
    best = best_mask.bit_count()
    top = len(triples) - 1
    # one pass over the triples: bytes per vertex, not ints that grow bit by bit
    rows = [bytearray((top >> 3) + 1) for _ in range(k)]
    pair = [[0] * k for _ in range(k)]
    for t, (a, b, c) in enumerate(triples):
        i, j, h = index[a], index[b], index[c]
        pos = top - t
        byte, mask = pos >> 3, 1 << (pos & 7)
        rows[i][byte] |= mask
        rows[j][byte] |= mask
        rows[h][byte] |= mask
        pair[i][j] |= 1 << h
        pair[i][h] |= 1 << j
        pair[j][h] |= 1 << i
    for i in range(k):
        for j in range(i):
            pair[i][j] = pair[j][i] = pair[i][j] | pair[j][i]
    inc = [0] * k
    for i in range(k):  # free each row as soon as it is converted
        inc[i], rows[i] = int.from_bytes(rows[i], "little"), None
    # pending branches, last in first out: exclude is pushed before include,
    # so include is explored first
    stack = [(0, (1 << k) - 1, (1 << (top + 1)) - 1, 0, -1)]
    nodes = 0
    while stack:
        chosen, free, active, touch, last = stack.pop()
        nodes += 1
        if nodes > node_limit:
            break

        # propagate: exclude the third member of each triple through last and
        # another chosen vertex; then every active triple has two free members
        if last >= 0:
            row = pair[last]
            forced = 0
            rest = chosen
            while rest:
                low = rest & -rest
                forced |= row[low.bit_length() - 1]
                rest ^= low
            forced &= free
            free ^= forced
            while forced:
                low = forced & -forced
                active ^= active & inc[low.bit_length() - 1]
                forced ^= low

        if not active:
            # every free vertex is safe to take
            chosen |= free
            if chosen.bit_count() > best:
                best_mask = chosen
                best = chosen.bit_count()
            continue

        # greedy packing bound on forced exclusions, pairs first, then triples;
        # a packed constraint blocks every triple through its free members, so
        # the first unblocked one is always the highest bit left; packing stops
        # once the bound prunes
        size = chosen.bit_count() + free.bit_count()
        packed = 0
        avail = active
        group = active & touch
        while size - packed > best:
            if not group:
                if not avail:
                    break
                group, avail = avail, 0  # every pair is blocked: on to the triples
            a, b, c = triples[top + 1 - group.bit_length()]
            fp = (1 << index[a] | 1 << index[b] | 1 << index[c]) & free
            packed += 1
            while fp:
                low = fp & -fp
                blocked = inc[low.bit_length() - 1]
                group ^= group & blocked
                avail ^= avail & blocked
                fp ^= low
        if size - packed <= best:
            continue

        # branch vertex: most active triples, smallest id on ties; free vertices
        # outside every active triple are always safe to take
        constrained = 0
        branch = most = 0
        rest = free
        while rest:
            low = rest & -rest
            hits = (active & inc[low.bit_length() - 1]).bit_count()
            if hits:
                constrained |= low
                if hits > most:
                    branch, most = low, hits
            rest ^= low
        chosen |= free ^ constrained
        free = constrained ^ branch
        i = branch.bit_length() - 1
        stack.append((chosen, free, active ^ (active & inc[i]), touch, -1))
        stack.append((chosen | branch, free, active, touch | inc[i], i))

    members = tuple(sorted(v for i, v in enumerate(pool) if best_mask >> i & 1))
    return members, nodes, nodes > node_limit


def max_general_position(g: Graph, dm: DistanceMatrix, pool=None,
                         budget: Budget | None = None) -> SolveResult:
    """Exact maximum general position set restricted to pool (default: all).

    Runs branch and bound over the collinear-triple hypergraph, warm
    started from the degree-order greedy set.  If the node budget runs
    out the best set found so far is returned with optimal = False.
    """
    if g.n == 0:
        raise InvalidParameterError("graph has no vertices")
    budget = budget or Budget()
    pool_ids = checked_members(dm, range(g.n) if pool is None else pool, "pool members")

    triples = collinear_triples(dm, pool_ids)
    warm = greedy_gp_lower_bound(g, dm, pool=pool_ids)
    members, nodes, stopped = _branch_and_bound(pool_ids, triples, warm.members,
                                                budget.node_limit)
    optimal = not stopped
    provenance = PROVENANCE_EXACT if optimal else PROVENANCE_LOWER_BOUND
    best = VertexSet(members=members, provenance=provenance, graph_ref=g.ref())
    return SolveResult(best_set=best, size=len(members), optimal=optimal,
                       nodes_explored=nodes)


def vertex_set_to_dict(s: VertexSet) -> dict:
    return {"graph_ref": s.graph_ref, "ids": list(s.members), "provenance": s.provenance}


def vertex_set_from_dict(doc: dict) -> VertexSet:
    if not isinstance(doc, dict) or "ids" not in doc:
        raise GraphParseError("vertex set JSON needs an 'ids' array")
    ids = int_array(doc["ids"], "'ids'")
    return VertexSet(members=tuple(sorted(ids)),
                     provenance=str_field(doc, "provenance", PROVENANCE_USER),
                     graph_ref=str_field(doc, "graph_ref", ""))


def witness_to_dict(w: GpWitness) -> dict:
    return {
        "status": w.status,
        "triple": list(w.triple) if w.triple is not None else None,
        "middle": w.middle,
    }


def brute_force_max_gp(g: Graph, dm: DistanceMatrix, pool=None) -> tuple[int, tuple[int, ...]]:
    """Independent oracle: enumerate all subsets.  Only for tiny graphs."""
    pool_ids = checked_members(dm, range(g.n) if pool is None else pool, "pool members")
    k = len(pool_ids)
    if k > 20:
        raise InvalidParameterError(f"brute force limited to 20 pool vertices, got {k}")
    index = {v: i for i, v in enumerate(pool_ids)}
    tmasks = [
        (1 << index[a]) | (1 << index[b]) | (1 << index[c])
        for a, b, c in collinear_triples(dm, pool_ids)
    ]
    best_size = 0
    best_mask = 0
    for mask in range(1 << k):
        if mask.bit_count() <= best_size:
            continue
        if all(t & mask != t for t in tmasks):
            best_size = mask.bit_count()
            best_mask = mask
    members = tuple(sorted(pool_ids[i] for i in range(k) if best_mask >> i & 1))
    return best_size, members
