"""General position sets: verification, construction, and exact search.

A vertex set is in general position when no member lies on a geodesic
between two others.  That rule, the distances it reads and the checks
its vertices need belong to `geodesy`: every set or pool a caller passes
in goes through `checked_members` (in range, distinct, mutually
reachable), and every test asks `first_collinear`, `iter_collinear`,
`collinear_positions` or `lies_between`, never the distance table.  A
verification names the first collinear triple of the sorted members in
combinations order; geodesy may use the set's row-XOR symmetry on BF(r)
to accept it, but a violation is always named by the full scan.
Finding a maximum set is equivalent to a maximum independent set in the
3-uniform hypergraph whose hyperedges are the collinear triples, which
is what the branch-and-bound solver below works on.  It numbers the
triples in the order geodesy's one scan yields them, as positions into
the pool, and fills its tables from those positions, with no vertex id
to look up; its greedy warm start reads the same tables, so a search
scans its pool once.  It keeps its triple state as integer
bitsets over those numbers (the triples still alive, the triples through
a chosen vertex, and per vertex the triples through it), so a node
costs a few word-parallel operations per packed constraint, not scans
of a triple list.  The branch vertex is the free vertex in the most
alive triples.  Those counts never rise down the tree, because the
alive triples only shrink, so the search carries them down its stack: a
node that branches lowers its parent's counts by the triples through
each vertex excluded since, from small per-pair vertex masks, instead of
counting a triple bitset per free vertex; pruned nodes and leaves lower
nothing.  A free vertex in no alive triple stays free until a leaf takes
it, since no exclusion, bound or branch below can involve it.

It breaks symmetry by one rule, orbital branching (Ostrowski,
Linderoth, Rossi and Smriglio, "Orbital branching", Math. Program. 126,
2011): the exclude branch drops every vertex that the automorphisms
fixing the node map the branch vertex to, as far as one pass over their
generators finds them.  geodesy's `pool_automorphisms` gives the
generators, and its module notes prove them automorphisms.  Its
pending branches sit on its own stack, so Python's recursion limit does
not bound its depth, and it refuses a pool with more than
MAX_SEARCH_TRIPLES collinear triples.
Everything is deterministic: ties break on smallest vertex id, and
nothing reads a clock or a random source.
"""

from __future__ import annotations

import reprlib
from itertools import islice

from .budget import Budget
from .errors import InvalidParameterError, TooLargeError
from .geodesy import (
    DistanceMatrix,
    checked_members,
    collinear_positions,
    first_collinear,
    iter_collinear,
    lies_between,
    pool_automorphisms,
)
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
    triple = first_collinear(g, dm, checked_members(dm, s.members, "set members"))
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
        raise InvalidParameterError(f"construction needs r >= 2, got {reprlib.repr(r)}")
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


def greedy_gp_lower_bound(g: Graph, pool: tuple[int, ...], pair) -> VertexSet:
    """Inclusion-maximal general position set from one pass in (degree, id) order.

    pool is a checked pool and pair its `_search_tables` pair table, so
    pair[i][a] holds every third c of a collinear (i, a, c).  The chosen
    set stays in general position, so a collinear triple that position i
    would close must hold i and two chosen members: i joins unless it is
    in `blocked`, the thirds of every chosen pair.
    """
    chosen: list[int] = []
    blocked = 0
    for i in sorted(range(len(pool)), key=lambda i: (g.degree(pool[i]), pool[i])):
        if not blocked >> i & 1:
            row = pair[i]
            for a in chosen:
                blocked |= row[a]
            chosen.append(i)
    return VertexSet(members=tuple(sorted(pool[i] for i in chosen)),
                     provenance=PROVENANCE_LOWER_BOUND, graph_ref=g.ref())


def _search_tables(dm: DistanceMatrix, pool: tuple[int, ...]):
    """(inc, pair, masks, top): the search's triple tables, from one scan of pool.

    Triple t of the T, in scan order, is bit top - t of a triple mask,
    top = T - 1, so the first is the highest bit and `bit_length` finds it.
    masks[t] holds its pool positions as a vertex mask, inc[i] the triples
    through position i and pair[i][j] the thirds c of every collinear
    (i, j, c).  More than MAX_SEARCH_TRIPLES triples are refused as the
    scan passes it, before any table is sized by the pool.
    """
    k = len(pool)
    found = []
    led = [0] * k
    top = -1
    for found_pair in collinear_positions(dm, pool):
        m = len(found_pair[2])
        top += m
        if top >= MAX_SEARCH_TRIPLES:
            raise TooLargeError(f"pool has more than {MAX_SEARCH_TRIPLES} collinear triples")
        led[found_pair[0]] += m
        found.append(found_pair)
    bits = [1 << i for i in range(k)]
    # one pass over the triples: bytes per vertex, not ints that grow bit by bit
    rows = [bytearray((top >> 3) + 1) for _ in range(k)]
    pair = [[0] * k for _ in range(k)]
    masks: list[int] = []
    pos = top
    for i, j, ks in found:
        mi, mj = bits[i], bits[j]
        rj, pi, pj = rows[j], pair[i], pair[j]
        third = 0
        for h in ks:
            byte, bit = pos >> 3, 1 << (pos & 7)
            rj[byte] |= bit
            rows[h][byte] |= bit
            third |= bits[h]
            pi[h] |= mj
            pj[h] |= mi
            pos -= 1
        pi[j] |= third
        mij = mi | mj
        masks += [mij | bits[h] for h in ks]
    for i in range(k):
        for j in range(i):
            pair[i][j] = pair[j][i]
    inc = [0] * k
    end = top + 1
    for i in range(k):  # free each row as soon as it is converted
        end -= led[i]  # the triples i leads: one run of bits
        inc[i], rows[i] = int.from_bytes(rows[i], "little") | (1 << led[i]) - 1 << end, None
    return inc, pair, masks, top


def _branch_and_bound(pool: tuple[int, ...], tables, warm, node_limit: int, gens):
    """Bitmask branch and bound over one pool, on an explicit stack.

    Vertices are bits of pool index, and triples bits of a second kind of
    mask; `tables` are `_search_tables`' inc, pair, masks and top.  A stack
    entry is (chosen, free, active, touch, last, dropped, counts): vertex
    masks, the triples whose members are all chosen or free, the triples
    through a chosen vertex, the vertex the include branch just took (-1
    after an exclude), the vertices excluded since the parent branched,
    and counts[i], the number of active triples through free vertex i at
    the parent's branching (at the root, its own).  A triple with two
    chosen members forces exclusion of the third, and only a pair with
    `last` can be new.  The bound is |chosen| + |free| minus a greedy
    packing of disjoint constraint free-parts (the pairs, active & touch,
    before the triples, each in list order), since each packed constraint
    forces at least one exclusion.  Branching: include-first on the free
    vertex in the most active triples, smallest id on ties.  The warm set
    is the first incumbent, and only a strictly larger set replaces it.

    Orbital branching: gens are geodesy's `pool_automorphisms`, which
    map the pool onto itself, as block swaps of its positions; () for
    none.  A branching node keeps those that map chosen and free onto
    themselves, and the exclude branch drops the branch vertex b's
    images under them, from one pass in list order.  A kept generator
    maps the node's subproblem, which its fixings alone define, onto
    itself.  So a set of the subproblem that takes g(b), g a product of
    kept generators, maps under g^-1 to one as large that takes b, which
    the include branch searches; any part of the orbit may go, and one
    pass finds part.  The level XORs come first and commute, so on BF(r)
    the pass finds the whole orbit under the kept ones.  Each false-twin class holds, in
    position order, its chosen members, then its free ones, then the
    excluded: b is the first free member of its class, as its free twins
    tie with it on counts and lose on id; a forced exclusion takes every
    free member of a class at once; and a kept level XOR keeps each
    class's states in order.  So the twin swaps, in order, carry each
    orbit member on to exactly the free members after it in its class.

    The counts never rise down the tree, since active only shrinks.  Only
    a branching node needs them, and it lowers its parent's counts by
    each dropped vertex x in turn: count i loses |pair[x][i] & alive|,
    alive being the chosen and free vertices plus the dropped vertices
    still to come, so a triple through two dropped vertices comes off
    once and the counts stay exact without a pass over the triple
    bitsets.  A free vertex in no active triple stays free: it is in none
    below either, so no triple forces it out, no packed constraint holds
    it, it is never the branch vertex, and a leaf takes it with the rest.

    Returns (best members, nodes explored, stopped); stopped means the
    node limit cut the search short, so the members may not be optimal.
    """
    inc, pair, masks, top = tables
    k = len(pool)
    # each generator with the positions it moves, so one that misses the orbit costs one AND
    gens = [(half, s, half | half << s) for half, s in gens]
    index = {v: i for i, v in enumerate(pool)}
    best_mask = sum(1 << index[v] for v in warm)
    best = best_mask.bit_count()
    # pending branches, last in first out: exclude is pushed before include,
    # so include is explored first
    stack = [(0, (1 << k) - 1, (1 << (top + 1)) - 1, 0, -1, 0,
              [x.bit_count() for x in inc])]
    nodes = 0
    while stack:
        chosen, free, active, touch, last, dropped, counts = stack.pop()
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
            dropped |= forced
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
        # once the bound prunes, or once too few free vertices are left outside
        # the packed constraints for it to prune (each takes two or three)
        left = free.bit_count()
        need = chosen.bit_count() + left - best  # packed constraints that prune
        packed = 0
        avail = active
        group = active & touch
        while packed < need <= packed + left // 2:
            if not group:
                if not avail:
                    break
                group, avail = avail, 0  # every pair is blocked: on to the triples
            fp = masks[top + 1 - group.bit_length()] & free
            packed += 1
            left -= fp.bit_count()
            blocked = 0
            while fp:
                low = fp & -fp
                blocked |= inc[low.bit_length() - 1]
                fp ^= low
            group ^= group & blocked
            if avail:
                avail ^= avail & blocked
        if packed >= need:
            continue

        # branch vertex: most active triples, smallest id on ties (max returns
        # the first maximum), once the dropped vertices are off the counts
        idx = [i for i in range(k) if free >> i & 1]
        if dropped:
            counts = counts.copy()
            alive = chosen | free | dropped
            while dropped:
                low = dropped & -dropped
                alive ^= low
                row = pair[low.bit_length() - 1]
                for i in idx:
                    counts[i] -= (row[i] & alive).bit_count()
                dropped ^= low
        branch = max(idx, key=counts.__getitem__)
        # the exclude branch drops the branch vertex's orbit under the generators
        # that fix chosen and free
        orbit = 1 << branch
        for half, s, moved in gens:
            if orbit & moved and not ((chosen ^ chosen >> s) | (free ^ free >> s)) & half:
                orbit |= (orbit & half) << s | (orbit >> s) & half
        dropped = orbit & free
        free ^= 1 << branch
        out = active
        rest = dropped
        while rest:
            low = rest & -rest
            out ^= out & inc[low.bit_length() - 1]
            rest ^= low
        stack.append((chosen, free & ~dropped, out, touch, -1, dropped, counts))
        stack.append((chosen | 1 << branch, free, active, touch | inc[branch], branch, 0,
                      counts))

    members = tuple(sorted(v for i, v in enumerate(pool) if best_mask >> i & 1))
    return members, nodes, nodes > node_limit


def max_general_position(g: Graph, dm: DistanceMatrix, pool=None,
                         budget: Budget | None = None) -> SolveResult:
    """Exact maximum general position set restricted to pool (default: all).

    Runs branch and bound over the collinear-triple hypergraph, warm
    started from the degree-order greedy set read off the same triple
    tables, with orbital branching over `pool_automorphisms`.  If the
    node budget runs out the best set found so far is returned with
    optimal = False.
    """
    if g.n == 0:
        raise InvalidParameterError("graph has no vertices")
    budget = budget or Budget()
    pool_ids = checked_members(dm, range(g.n) if pool is None else pool, "pool members")

    tables = _search_tables(dm, pool_ids)
    warm = greedy_gp_lower_bound(g, pool_ids, tables[1])
    gens = pool_automorphisms(g, pool_ids)
    members, nodes, stopped = _branch_and_bound(pool_ids, tables, warm.members,
                                                budget.node_limit, gens)
    optimal = not stopped
    provenance = PROVENANCE_EXACT if optimal else PROVENANCE_LOWER_BOUND
    best = VertexSet(members=members, provenance=provenance, graph_ref=g.ref())
    return SolveResult(best_set=best, size=len(members), optimal=optimal,
                       nodes_explored=nodes)


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
