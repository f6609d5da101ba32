"""Distances and geodesic predicates.

`all_pairs_distances` keeps one row of hop counts per 2^shift ids,
shift being `Graph.butterfly_r` on the canonical BF(r) and 0 on any
other graph, which so gets an n x n table of breadth-first search rows,
refused above MAX_TABLE_VERTICES vertices.  BF(r) gets one row per
level, and every other distance is read through an automorphism:
XOR-ing every row label with a constant c < 2^r maps straight edges to
straight edges and cross edges to cross edges of the same level, so
d((l, x), v) = d((l, 0), v ^ x), and v ^ x flips only the row bits of
v = level * 2^r + row.  `butterfly_r` comes from checking that very edge
shape, not from the family tag.  At r = 10 the rows hold 11 x 11,264
entries, where a table would hold 11,264^2.

Row-XOR is one case of a level-wise lemma: (l, x) -> (l, x ^ o_l) is an
automorphism of BF(r) iff each o_l ^ o_(l+1) is 0 or the bit b that the
step from level l to l + 1 flips.  An edge (l, x), (l + 1, y) has x ^ y
in {0, b}, and its image has (x ^ y) ^ (o_l ^ o_(l+1)), in {0, b} for
every such edge iff o_l ^ o_(l+1) is.  Row bit 2^j is flipped only by
the step from level r - j - 1 to r - j, so the group is spanned, for
each j < r, by P_j, XOR-ing 2^j on the levels below r - j, and S_j,
XOR-ing it on the rest; row-XOR by 2^j is P_j S_j.  P_(r-1) moves level
0 alone and S_0 level r alone: each swaps every false-twin pair (below)
of its level.  `pool_automorphisms` hands all 2r to the exact search
(`genpos`) when its pool is a union of whole levels.

BF(r)'s rows come from a closed form, with no search.  Take u = (l, x),
v = (m, y) and D = x ^ y; the step from level i - 1 to i flips bit a_i,
machine bit r - i.  If D = 0, d(u, v) = |l - m|.  Else let s = r -
(D.bit_length() - 1) and t = r - (index of D's lowest set bit), the
first and the last step whose bit is in D, lo = min(l, m, s - 1) and
hi = max(l, m, t); then d(u, v) = 2 (hi - lo) - |l - m|.  A walk from u
to v must cross every step whose bit is in D, and each crossing can flip
its bit or not, as every vertex has a straight and a cross edge to each
neighbouring level.  So a shortest walk spans exactly the levels lo..hi,
from l out to both ends and on to m, in 2 (hi - lo) - |l - m| steps.

This module is the only reader of the rows, through `DistanceMatrix`
and the predicates below.  It owns the collinearity rule that defines
general position, and `checked_members`, the one gate a caller's
vertices pass first.  The rule, one vertex of three on a geodesic of the
other two, is tested in bulk by `_collinear_fields`: a member's
distances to all members are the fields of one Python int, 8 bits wide
when the diameter is below 64, as on every BF(r), and 16 otherwise, so
that a sum of two distances stays below each field's guard bit, and one
member pair is tested against every later member in a dozen big-int
operations.  One scan, `_scan`, runs it, yielding in combinations order
the positions of the triples whose first member sits at one of the
given lead positions, a pair and its third members at a time:
`iter_collinear` and `collinear_positions` lead with every member, and
`first_collinear` with the first member of each orbit of a reduced
set.  An exact search lists its pool's triples with one
`collinear_positions` scan, and its greedy warm start reads them from
the search's tables, so it scans nothing again.
The scan reads each member's row from its own position on, the tail,
and gathers no more of it unless a block swap needs the whole row.  On
BF(r) a row is gathered as bytes through `DistanceMatrix.blocks`, each
row cut into 256-byte translate tables of 2^c ids, c = min(r, 8), one
per level up to r = 8.  As d((l, a), v) = rows[l][v ^ a], a member's
byte is its id's low c bits XOR-ed with a's, and each maximal run of
members in one chunk b translates through blocks[l][b ^ (a >> c)].  On
a table graph, shift and mask 0, a list comprehension reads `rows[u]`.

False twins are vertices u and u' with N(u) = N(u'), and
`false_twin_firsts` is the one rule that finds them: it keys members by
`g.adj`, giving each the position of the first member with its
neighbourhood.  Twins are not adjacent (u' in N(u) = N(u') would be its
own neighbour), so d(u, u') = 2, and every other w has d(u, w) = d(u',
w), a shortest path from u to w starting at a neighbour that u' shares.
Hence (u, u', w) is collinear iff w is a common neighbour (2 = k + k
means k = 1, and k = 2 + k is impossible), three members of one class
are pairwise 2 apart, and a triple of distinct classes has the
distances of the triple of their representatives.  So S is in general
position iff S', the first member of S in each twin class, is, and no
member of S is a common neighbour of a class that S holds two of.  And
swapping two twins is an automorphism fixing every other vertex, so
`pool_automorphisms` hands the exact search, on any graph, the swap of
each twin with the one before it in its class.  On BF(r), for example,
the classes are pairs: (0, x) and (0, x ^ 2^(r-1)), both joined to (1,
x) and (1, x ^ 2^(r-1)), and (r, y) and (r, y ^ 1), both joined to
(r - 1, y) and (r - 1, y ^ 1).

`first_collinear` decides general position with the set's false twins
and its symmetry.  It cuts S to S' and sends S to the full scan when a
member is such a common neighbour.  Then `row_xor_stabilizer` tests each
row bit 2^k, k < r, against S' itself, and H is every XOR of the bits c
with S' ^ c = S'.  Each element of H is an automorphism fixing S'.  The
scan takes S' orbit by orbit, o ^ H for each orbit's leader o, the
member with none of H's bits set, and leads with each o alone: a
collinear triple whose first member in that order is o ^ h goes, under
h, to one whose first member is o.  The closed-form set holds both
members of every twin pair or neither, so S' is its level-0 rows with
a_r = 1 and a_1 = 0, its level-1 rows and its level-r rows with a_1 = 1
and a_r = 0: two row bits fixed, so H is spanned by the other r - 2, of
order 2^(r-2), and 3 leads, one per level, at every r >= 3, against 5
leads over all 5 * 2^(r-2) members of S.  In that order the scan also
gathers only the rows of the o: as d(o ^ h, v) = d(o, v ^ h), the row
of o ^ h is the row of o with its fields permuted by XOR with h, a few
block swaps of one int.  The witness never depends on twins or on H:
when a member is a common neighbour of a class held two deep, when H is
trivial, when that scan finds a violation, or on a table graph, where H
is trivial and no twin is looked for, the full `iter_collinear` scan of
S names the first triple in combinations order.

A cycle is a closed walk and a path an open one: `check_walk`, the one
walk check, tests either against the graph in one loop that also lists
its edges as int keys, u * n + v for u < v, and marks its vertices; it
alone writes that key format.  `walk_violation` tests either for isometry
by one distance per vertex, to the vertex half a cycle ahead or from a
path's first: a pair closer than its walk distance would make that short.
An even cycle meets each such pair twice, and reads its first half only.
"""

from __future__ import annotations

import reprlib
import struct
from collections import deque
from itertools import compress, count, groupby, repeat
from operator import eq, ne

from .errors import InvalidParameterError, NotConnectedError, TooLargeError
from .graphs import Graph

UNREACHABLE = -1

# largest graph given an n x n table (TooLargeError above it): C_4096's took
# 2.4 s and a 600 MiB peak on a 2-core Xeon under Python 3.11.  The canonical
# BF(r) keeps r + 1 rows and is capped by graphs.MAX_BUTTERFLY_R instead
MAX_TABLE_VERTICES = 4096


class DistanceMatrix:
    """Shortest-path lengths; UNREACHABLE marks disconnected pairs.

    d(u, v) = rows[u >> shift][v ^ (u & mask)], mask = 2^shift - 1.  On
    the canonical BF(r), shift = r and rows[l] holds d((l, 0), v), entry
    (m, y) = 2 (max(l, m, t) - min(l, m, s - 1)) - |l - m| with s and t
    the first and last step whose bit is in y, |l - m| for y = 0 (see the
    module notes).  On any other graph shift = mask = 0 and rows[u] is the
    BFS row from u.  No distance exceeds `bound`: BF(r) has diameter 2r,
    and on a table graph it is the largest distance the rows hold.  The
    collinearity kernel sizes its fields by it.  On BF(r) blocks[l][b] is
    chunk b of rows[l], entries b * 2^c to (b + 1) * 2^c - 1, c = min(r,
    8), padded to the 256-byte table `bytes.translate` takes (level b for
    r <= 8); else None.
    """

    __slots__ = ("n", "rows", "shift", "mask", "bound", "blocks")

    def __init__(self, n: int, rows, shift: int = 0, blocks=None):
        self.n = n
        self.rows = rows  # BF(r)'s as bytes, BFS rows (holding UNREACHABLE) as lists
        self.blocks = blocks
        self.shift = shift
        self.mask = (1 << shift) - 1
        self.bound = 2 * shift if shift else max(map(max, rows), default=0)
        if 2 * self.bound >= 1 << 15:  # a 16-bit field holds two distances
            raise TooLargeError(f"distances up to {self.bound} do not fit the collinearity kernel")

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
    r = g.butterfly_r or 0
    if not r and g.n > MAX_TABLE_VERTICES:
        raise TooLargeError(f"{g.n} vertices exceed the distance-table cap of "
                            f"{MAX_TABLE_VERTICES} for a graph other than the canonical BF(r)")
    if not r:
        return DistanceMatrix(g.n, [bfs_distances(g, s) for s in range(g.n)])
    # the closed form (module notes) as d = P - Q, h = max(l, m), o = min(l, m):
    # P = r + 2 max(h, t) - h reads the index of y's lowest set bit, r - t, and
    # Q = r + 2 min(o, s - 1) - o its bit length, r - s + 1; y = 0 reads as
    # lowest bit r and length 0, so d = h - o.  Both are byte tables over a
    # level's labels, and a row is its P blocks minus its Q blocks as
    # little-endian ints: no field borrows, its difference being a distance
    nrows = 1 << r
    length, lowest = bytearray(nrows), bytearray([r]) * nrows
    for k in range(r):
        length[1 << k:2 << k] = bytes([k + 1]) * (1 << k)
        lowest[1 << k::2 << k] = bytes([k]) * (nrows >> k + 1)
    P = [lowest.translate(bytes(r + 2 * max(h, r - c) - h for c in range(r + 1)).ljust(256))
         for h in range(r + 1)]
    Q = [length.translate(bytes(r + 2 * min(o, r - c) - o for c in range(r + 1)).ljust(256))
         for o in range(r + 1)]
    rows, blocks, c = [], [], min(r, 8)
    for l in range(r + 1):
        p = int.from_bytes(b"".join(P[max(l, m)] for m in range(r + 1)), "little")
        q = int.from_bytes(b"".join(Q[min(l, m)] for m in range(r + 1)), "little")
        row = (p - q).to_bytes(g.n, "little")
        rows.append(row)
        blocks.append([row[b << c:b + 1 << c].ljust(256) for b in range(g.n >> c)])
    return DistanceMatrix(g.n, rows, r, blocks)


def checked_members(dm: DistanceMatrix, ids, what: str) -> tuple[int, ...]:
    """ids sorted, once in range, pairwise distinct and mutually reachable.

    The collinearity sum means nothing otherwise, so every function that
    reads distances for vertices a caller supplies passes them through
    here; `what` names them in errors.  Reachability, an equivalence, is
    checked from the first id, which names the first unreachable pair in
    combinations order, and only for three or more ids: fewer form no
    triple, and not on BF(r)'s table (a shift): BF(r) is connected.
    """
    ms = tuple(sorted(ids))
    if ms and (ms[0] < 0 or ms[-1] >= dm.n):
        bad = ms[0] if ms[0] < 0 else ms[-1]
        raise InvalidParameterError(f"{what} must lie in 0..{dm.n - 1}, got {reprlib.repr(bad)}")
    for a, b in zip(ms, ms[1:]):
        if a == b:
            raise InvalidParameterError(f"{what} must be distinct, {a} repeats")
    if len(ms) >= 3 and not dm.shift:
        for v in ms[1:]:
            if not dm.reachable(ms[0], v):
                raise NotConnectedError(f"{what} {ms[0]} and {v} are not connected")
    return ms


def lies_between(dm: DistanceMatrix, x: int, y: int, z: int) -> bool:
    """True iff y is on some shortest x-z path, i.e. d(x,y) + d(y,z) = d(x,z)."""
    checked_members(dm, (x, y, z), "vertices")
    return dm.dist(y, x) + dm.dist(y, z) == dm.dist(x, z)


def iter_collinear(dm: DistanceMatrix, members):
    """Yield the collinear triples of members, in combinations(members, 3) order.

    A triple is collinear when one of its vertices lies on a geodesic of
    the other two.  Members must have passed `checked_members`, since an
    out-of-range, repeated or unreachable vertex would corrupt the sums.
    """
    ms = list(members)
    return ((ms[i], ms[j], ms[k]) for i, j, ks in collinear_positions(dm, ms) for k in ks)


def collinear_positions(dm: DistanceMatrix, members):
    """`iter_collinear` as positions into members: (i, j, ks) for each pair with a third.

    ks lists, ascending, every k > j with (i, j, k) collinear; the pairs
    come in combinations order, so the triples do as in `iter_collinear`.
    This is `_scan` led by every member.
    """
    ms = list(members)
    return _scan(dm, ms, range(len(ms)))


def first_collinear(g: Graph, dm: DistanceMatrix, members) -> tuple[int, int, int] | None:
    """The first collinear triple of members in combinations order, or None.

    On BF(r) the members S are first cut to S', the first of each
    false-twin class (`false_twin_firsts`): S is in general position
    iff S' is and no member is a common neighbour of a class held two
    deep (see the module notes).  Let H be `row_xor_stabilizer(dm, S')`,
    spanned by the row bits that fix S'.
    Each h in H is an automorphism with h(S') = S'.  When H is not
    trivial, S' is scanned in coset order, each orbit o ^ H after the
    last, and only the triples led by an orbit's first member o, the
    one with none of H's bits set: a collinear triple whose first
    member is o ^ h goes, under h, to one led by o, its other two
    members staying in later positions.  If none is collinear, S is in
    general position.  Otherwise, when a member is such a common
    neighbour, when H is trivial, or on a table graph, the full
    `iter_collinear` scan of S names the first triple, so the answer
    never depends on twins or H.
    """
    ms = list(members)
    group = (0,)
    if dm.shift:  # a table graph's row-XOR group is trivial
        first = false_twin_firsts(g, ms)
        ids, adj = set(ms), g.adj
        # a member next to a later twin is next to its class's first too, so
        # the three are collinear
        if all(ids.isdisjoint(adj[v]) for v in compress(ms, map(ne, first, count()))):
            reduced = list(compress(ms, map(eq, first, count())))
            group = row_xor_stabilizer(dm, reduced)
    if len(group) > 1:
        # an orbit's leader, its least member, has none of the group's bits,
        # which group[-1] holds all of
        order = [v ^ c for v in reduced if not v & group[-1] for c in group]
        if not any(_scan(dm, order, range(0, len(order), len(group)), len(group))):
            return None
    return next(iter_collinear(dm, ms), None)


def false_twin_firsts(g: Graph, members) -> list[int]:
    """first[i]: the position of the first member with members[i]'s neighbourhood in g.

    So first[i] == i on the first member of each false-twin class that
    members hold, and the later members of its class point to it.
    """
    first: dict[tuple[int, ...], int] = {}
    adj = g.adj
    return [first.setdefault(adj[v], i) for i, v in enumerate(members)]


def pool_automorphisms(g: Graph, pool: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Automorphisms of g mapping the checked pool onto itself, as (half, s) block swaps.

    Each XORs s into the positions it moves, half | half << s, so it maps
    a position mask m to (m & half) << s | (m >> s) & half on those.  On
    the canonical BF(r) with a pool of whole levels, whose k-th level
    takes positions k * 2^r + row, they are first P_j and S_j for j
    ascending (the module notes), s = 2^j and half their levels'
    positions with bit j clear.  Then, on any graph, for each false twin
    i in order, its swap with the member p just before it in its class
    (`false_twin_firsts`): half = 2^p and s = i - p.  Other graphs and
    pools, a relabelled BF(r) among them, get the twin swaps alone.
    """
    gens = []
    r = g.butterfly_r
    levels = sorted({v >> r for v in pool}) if r else []
    if levels and len(pool) == len(levels) << r:
        for j in range(r):
            s = 1 << j
            rows = ((1 << (1 << r)) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1)  # bit j clear
            for lower in (True, False):
                half = sum(rows << (k << r) for k, l in enumerate(levels) if (l < r - j) == lower)
                if half:
                    gens.append((half, s))
    prev: dict[int, int] = {}
    for i, f in enumerate(false_twin_firsts(g, pool)):
        if f != i:
            gens.append((1 << prev[f], i - prev[f]))
        prev[f] = i
    return tuple(gens)


def row_xor_stabilizer(dm: DistanceMatrix, members) -> tuple[int, ...]:
    """Every XOR of the row bits 2^k, k < r, that map members onto themselves, ascending.

    XOR-ing a vertex id with c < 2^r flips its row bits alone, an
    automorphism of the canonical BF(r) (see the module notes).  Each
    bit is checked against the set itself, with early exit, and the
    group grows by doubling, so group[i] is the XOR of the passing bits
    picked by i's binary digits and group[i] ^ group[j] == group[i ^ j].
    A c != 0 pairs the members off, so a set of odd size gets (0,) at
    once, as do the empty set and any set on a table graph.  This is
    the single-bit part of the set's stabilizer: all of it on the
    closed-form set, whose two fixed row bits leave the other r - 2
    free, and a subgroup on a set that only a multi-bit XOR fixes, such
    as {(1, 0), (1, 3)} on BF(3) and c = 3.  Any group of automorphisms
    fixing the set serves `first_collinear`.
    """
    ids = set(members)
    if not dm.shift or not ids or len(ids) & 1:
        return (0,)
    group = [0]
    for k in range(dm.shift):
        c = 1 << k
        # C-speed membership test, stopping at the first miss
        if all(map(ids.__contains__, map(c.__xor__, ids))):
            group += [h ^ c for h in group]
    return tuple(group)


def _scan(dm: DistanceMatrix, ms: list[int], leads, coset: int = 1):
    """Yield (i, j, ks) for the collinear triples (ms[i], ms[j], ms[k]), k in ks, i at a lead.

    ms must be distinct members (checked, see iter_collinear) and leads
    ascending positions: every position for `collinear_positions`, each
    orbit's first for `first_collinear`'s coset scan.  A row packs d(u,
    ms[k]) as the w-bit field k of one int: 8 bits when twice `dm.bound`
    is below 2^7, else 16, so a sum of two distances stays below a
    field's top bit, its guard, and no fieldwise sum carries into the
    next field.  For each pair (ms[i], ms[j]), i in leads, one
    `_collinear_fields` call tests every later member at once.  Its
    guard bits, shifted to the low byte of their fields, make one flag
    byte per later member, and `compress` lists the flagged ones,
    ascending, as ks; a pair with no third is skipped.

    The rows are built in position order, each when the scan first
    needs it, and only their tails, the fields after their own, are
    kept.  With coset = 1 only the tail is gathered.  On BF(r) the
    gather is bytes throughout: the low c bits of the members' ids, c =
    min(r, 8), are one int of bytes, XOR-ed with those of the source's
    row label a times 0x0101.., and each maximal run of members in one
    chunk b is one `bytes.translate` through the source level's chunk
    table b ^ (a >> c) (see `DistanceMatrix`).  On a table graph, where
    shift and mask are 0, a list comprehension reads the source's row.

    With coset > 1 a coset's first row is gathered whole, and every other
    made by block swaps.  Then coset is the order of a row-XOR group,
    ascending, and ms comes in its cosets, ms[t * coset + i] = ms[t *
    coset] ^ group[i].  group[i] is the XOR of the group's bits picked
    by i's binary digits, so group[i] ^ group[j] == group[i ^ j].
    Row-XOR is an automorphism, so the row of o ^ group[i] holds, in
    field (t, j), the row of o's field (t, i ^ j).  Thus the row of ms[k]
    is the row of ms[k & (k - 1)] with fields k' and k' ^ 2^b swapped, b
    the lowest set bit of k: aligned blocks of 2^b fields trade places.
    """
    n = len(ms)
    if n < 3:
        return  # before packing: two unreachable members read UNREACHABLE
    w = 8 if 2 * dm.bound < 1 << 7 else 16
    step = w >> 3  # bytes per field
    field = (1 << w) - 1
    ones = int.from_bytes(b"\x01".ljust(step, b"\0") * n, "little")
    low, high = ones * (field >> 1), ones << (w - 1)
    # halves[b] selects the fields k' with bit b clear, which the swap raises
    halves = [int.from_bytes((b"\xff" * (w << b >> 3) + bytes(w << b >> 3)) * (n >> b + 1),
                             "little") for b in range(coset.bit_length() - 1)]

    blocks, rows, r, mask = dm.blocks, dm.rows, dm.shift, dm.mask
    if blocks:
        c = min(r, 8)  # chunk b holds the ids b * 2^c to (b + 1) * 2^c - 1
        cmask = (1 << c) - 1
        labels = int.from_bytes(bytes([v & cmask for v in ms]), "little")
        runs, end = [], 0  # (start, end, chunk) of each maximal same-chunk run
        for b, run in groupby(v >> c for v in ms):
            start, end = end, end + len(list(run))
            runs.append((start, end, b))

    def gather(k: int, lo: int) -> int:
        """d(ms[k], ms[k']) for k' >= lo, as field k' - lo."""
        u = ms[k]
        if blocks:
            tables, hi = blocks[u >> r], (u & mask) >> c
            xs = (labels ^ (u & cmask) * ones).to_bytes(n, "little")
            parts = [xs[lo if start < lo else start:end].translate(tables[b ^ hi])
                     for start, end, b in runs if end > lo]
            return int.from_bytes(b"".join(parts), "little")
        row = rows[u]
        vals = [row[v] for v in ms[lo:]]
        return int.from_bytes(bytes(vals) if w == 8 else struct.pack(f"<{len(vals)}H", *vals),
                              "little")

    # full[d]: the full row built last at a coset offset with d set bits,
    # which is the parent of the next row with d + 1 (no row between a
    # parent and its child has fewer set bits than the child)
    full: list[int] = []

    def tail(k: int) -> int:
        """d(ms[k], ms[k']) for k' > k, as field k' - k - 1."""
        if coset == 1:
            return gather(k, k + 1)
        i = k & (coset - 1)
        if i:
            d, b = i.bit_count(), (i & -i).bit_length() - 1
            x, half, s = full[d - 1], halves[b], w << b
            x = (x & half) << s | (x >> s) & half
            del full[d:]
            full.append(x)
        else:
            x = gather(k, 0)
            full[:] = (x,)
        return x >> w * (k + 1)

    # tails[k] = tail(k); an early violation builds only the rows it needs
    tails: list[int] = []
    for i in leads:
        while len(tails) <= i:
            tails.append(tail(len(tails)))
        rest = tails[i]  # d(ms[i], ms[k]) for k > i, then k > j
        for j in range(i + 1, n):
            if j == len(tails):
                tails.append(tail(j))
            dxy = rest & field
            rest >>= w
            hits = _collinear_fields(rest, tails[j], dxy * ones, low, high)
            if hits:
                flags = (hits >> w - 1).to_bytes((n - j - 1) * step, "little")
                yield i, j, list(compress(range(j + 1, n), flags[::step]))


def _collinear_fields(x: int, y: int, xy: int, low: int, high: int) -> int:
    """Guard bits of the fields k where x_k, y_k and xy_k satisfy the collinearity sum.

    x_k = d(x, z), y_k = d(y, z) and xy_k = d(x, y) >= 1; the triple
    (x, y, z) is collinear iff one distance is the sum of the other two.
    A field of t is zero iff adding low leaves its guard bit clear.
    Beyond the shorter operands xy_k alone is nonzero, so no bit is set.
    """
    return high & ~((((y + xy) ^ x) + low) & (((x + xy) ^ y) + low) & (((x + y) ^ xy) + low))


def check_walk(g: Graph, seq, closed: bool, covered: bytearray) -> tuple[str | None, list[int]]:
    """(defect, keys): seq checked as a cycle (closed) or path (open) of g.

    A cycle needs at least 3 distinct vertices and a path at least 1,
    consecutive vertices adjacent, and on a cycle also the last and the
    first.  defect names the first bad position, and keys is then [];
    ids go through reprlib, so an id of any length gives a short message.
    Else defect is None, keys lists the walk's edges in walk order, edge
    (u, v), u < v, as the int u * n + v, which orders as the pair does
    and is the pair again by divmod(key, n), and every vertex of seq is
    marked 1 in covered, a bytearray of g.n.  One loop over the walk
    checks each step, marks its end and appends its key.
    """
    least = 3 if closed else 1
    L = len(seq)
    if L < least:
        return f"needs >= {least} vertices, got {L}", []
    if len(set(seq)) != L:
        seen = set()
        for i, v in enumerate(seq):
            if v in seen:
                return f"repeated vertex {reprlib.repr(v)} at position {i}", []
            seen.add(v)
    n = g.n
    v = seq[0]
    # a later vertex out of range fails adjacency first: only seq[0] is range-checked
    if not 0 <= v < n:
        return f"vertex {reprlib.repr(v)} out of range at position 0", []
    adj = g.adj
    covered[v] = 1
    keys = []
    for w in seq[1:] + seq[:1] if closed else seq[1:]:
        if w not in adj[v]:
            return f"{v} and {reprlib.repr(w)} are not adjacent at position {seq.index(v)}", []
        covered[w] = 1
        keys.append(v * n + w if v < w else w * n + v)
        v = w
    return None, keys


def walk_violation(dm: DistanceMatrix, seq, closed: bool) -> tuple[int, int] | None:
    """The first pair along the walk, as (smaller id, larger id), off its walk distance.

    Vertices k steps apart are k apart on a path (open) and min(k, L - k)
    round a cycle of length L (closed); the walk is isometric, and the
    result None, when every pair is.  It is iff d(seq[0], seq[k]) == k on
    a path and d(seq[i], seq[i + h]) == h round a cycle, h = L // 2 and
    indices mod L: seq[i], seq[j] closer than j - i (<= h round a cycle)
    bring seq[0] closer than j to seq[j], and seq[i] closer than h to
    seq[i + h], which on even L is the pair at i: then only i < h is read.
    seq must be a walk of the graph dm was built from.
    """
    rows, shift, mask = dm.rows, dm.shift, dm.mask
    L = len(seq)
    h = L // 2
    if closed:
        pairs = zip(seq, seq[h:] if L % 2 == 0 else seq[h:] + seq[:h], repeat(h))
    else:
        pairs = zip(seq[:1] * L, seq, count())
    for u, w, d in pairs:
        if rows[u >> shift][w ^ (u & mask)] != d:
            return (u, w) if u < w else (w, u)
    return None
