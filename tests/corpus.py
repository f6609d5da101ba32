"""Shared test corpus and independent oracles.

The named corpus is the fixed set of small graphs used for exhaustive
cross-checks; the random generator produces seeded connected graphs so
failures reproduce.  Oracles here deliberately avoid the library's
predicate implementations: geodesic membership is decided by explicitly
enumerating shortest paths over the BFS dag.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from bfgp.cycle_cover import KIND_CYCLE, CoverReport
from bfgp.errors import InvalidCoverError
from bfgp.graphs import Graph, build_butterfly, build_cycle, build_path


def _complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def _grid(rows: int, cols: int) -> Graph:
    def vid(i, j):
        return i * cols + j

    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < rows:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph(rows * cols, edges)


def _cube() -> Graph:
    edges = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    return Graph(8, edges)


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def named_corpus(max_n: int = 10) -> list[tuple[str, Graph]]:
    """Fixed small-graph corpus, filtered to at most max_n vertices."""
    graphs = [
        ("P1", build_path(1)), ("P2", build_path(2)), ("P3", build_path(3)),
        ("P5", build_path(5)), ("P8", build_path(8)),
        ("C3", build_cycle(3)), ("C4", build_cycle(4)), ("C5", build_cycle(5)),
        ("C6", build_cycle(6)), ("C7", build_cycle(7)), ("C8", build_cycle(8)),
        ("C9", build_cycle(9)), ("C10", build_cycle(10)),
        ("K2", _complete(2)), ("K3", _complete(3)), ("K4", _complete(4)),
        ("K5", _complete(5)),
        ("K23", _complete_bipartite(2, 3)), ("K33", _complete_bipartite(3, 3)),
        ("star5", _star(5)),
        ("grid2x3", _grid(2, 3)), ("grid2x4", _grid(2, 4)), ("grid3x3", _grid(3, 3)),
        ("cube", _cube()), ("petersen", _petersen()),
        ("BF1", build_butterfly(1)),
    ]
    return [(name, g) for name, g in graphs if g.n <= max_n]


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p), resampled until connected."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        if connected(g):
            return g


def random_corpus(count: int, seed: int = 20240, max_n: int = 9) -> list[tuple[str, Graph]]:
    out = []
    for i in range(count):
        n = 4 + i % (max_n - 3)
        p = 0.25 + 0.05 * (i % 10)
        out.append((f"rand{i}(n={n})", random_connected_graph(n, p, seed + i)))
    return out


def connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == g.n


def bfs_dist(g: Graph, source: int) -> list[int]:
    """Plain BFS, kept separate from the library on purpose."""
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in g.adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def reference_butterfly_rows(g: Graph) -> list[list[int]]:
    """d((l, 0), v) for l = 0..r on the canonical BF(r), by breadth-first search.

    The rows as the library filled them before the closed form, kept as
    its oracle: BFS from (l, 0) for l <= r/2, and each row l > r/2 read
    through the level reflection (l, x) -> (r - l, x bit-reversed), an
    automorphism: row l at level m, row x, is row r - l at level r - m,
    row rev[x].
    """
    r = g.butterfly_r
    rows = [bfs_dist(g, l << r) for l in range(r // 2 + 1)]
    rev = [0] * (1 << r)
    for x in range(1, 1 << r):
        rev[x] = rev[x >> 1] >> 1 | (x & 1) << (r - 1)
    for l in range(r // 2 + 1, r + 1):
        src, row = rows[r - l], [-1] * g.n
        for m in range(r + 1):
            row[m << r:(m + 1) << r] = map(src[(r - m) << r:(r - m + 1) << r].__getitem__, rev)
        rows.append(row)
    return rows


def butterfly_distance(r: int, u: int, v: int) -> int:
    """d(u, v) on the canonical BF(r), from the closed form, one pair at a time.

    u = (l, x) and v = (m, y) with D = x ^ y: |l - m| if D = 0, else
    2 (max(l, m, t) - min(l, m, s - 1)) - |l - m|, where s and t are the
    first and the last step whose bit is in D, step i flipping bit r - i.
    """
    (l, x), (m, y) = divmod(u, 1 << r), divmod(v, 1 << r)
    D = x ^ y
    if not D:
        return abs(l - m)
    s = r - (D.bit_length() - 1)
    t = r - ((D & -D).bit_length() - 1)
    return 2 * (max(l, m, t) - min(l, m, s - 1)) - abs(l - m)


def all_geodesics(g: Graph, x: int, z: int) -> list[tuple[int, ...]]:
    """Every shortest x-z path, by DFS over the BFS dag from x."""
    dist = bfs_dist(g, x)
    if dist[z] == -1:
        return []
    paths = []

    def back(v, suffix):
        if v == x:
            paths.append((x,) + suffix)
            return
        for u in g.adj[v]:
            if dist[u] == dist[v] - 1:
                back(u, (v,) + suffix)

    back(z, ())
    return paths


def on_some_geodesic(g: Graph, x: int, y: int, z: int) -> bool:
    """Oracle for lies_between: y appears on an explicitly enumerated geodesic."""
    return any(y in path for path in all_geodesics(g, x, z))


def oracle_collinear(g: Graph, x: int, y: int, z: int) -> bool:
    return (on_some_geodesic(g, x, y, z) or on_some_geodesic(g, y, x, z)
            or on_some_geodesic(g, x, z, y))


def twin_classes(g: Graph) -> list[list[int]]:
    """The false-twin classes of g with two or more vertices, ascending.

    False twins share one neighbourhood, so this groups the vertices on
    `frozenset(adj[v])`, with no closed form.
    """
    groups: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(frozenset(g.adj[v]), []).append(v)
    return sorted(c for c in groups.values() if len(c) > 1)


def twin_reduced_general_position(g: Graph, members) -> bool:
    """Whether members of a connected g are in general position, by the false-twin lemma.

    The verdict from the two conditions the lemma proves equivalent to
    general position: the members' least in each twin class are in
    general position, by a plain triple loop over BFS distances, and
    no member is a common neighbour of a class holding two or more.
    """
    ids = set(members)
    reduced = set(ids)
    for cls in twin_classes(g):
        held = [v for v in cls if v in ids]
        if len(held) > 1:
            if not ids.isdisjoint(g.adj[held[0]]):
                return False
            reduced -= set(held[1:])
    dist = {v: bfs_dist(g, v) for v in reduced}
    for x, y, z in combinations(sorted(reduced), 3):
        a, b, c = sorted((dist[x][y], dist[y][z], dist[x][z]))
        if a + b == c:
            return False
    return True


def isometric_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple isometric cycle, one orientation each, by DFS over simple cycles.

    A cycle is listed from its smallest vertex, towards the smaller of
    that vertex's two cycle neighbours, and kept when every pair of its
    vertices is as far apart in g as around the cycle.
    """
    dist = [bfs_dist(g, s) for s in range(g.n)]
    cycles = []

    def isometric(c):
        L = len(c)
        return all(dist[c[i]][c[j]] == min(j - i, L - j + i)
                   for i, j in combinations(range(L), 2))

    def dfs(path):
        for w in g.adj[path[-1]]:
            if w == path[0] and len(path) >= 3 and path[1] < path[-1]:
                if isometric(path):
                    cycles.append(tuple(path))
            elif w > path[0] and w not in path:
                dfs(path + [w])

    for s in range(g.n):
        dfs([s])
    return cycles


def maximal_geodesics_by_containment(g: Graph) -> list[tuple[int, ...]]:
    """Every geodesic, one orientation each, minus those inside a longer one."""
    dist = [bfs_dist(g, s) for s in range(g.n)]
    geodesics = set()

    def walk(path):
        p = tuple(path)
        if dist[p[0]][p[-1]] == len(p) - 1:
            geodesics.add(min(p, p[::-1]))
        for w in g.adj[path[-1]]:
            if w not in path:
                walk(path + [w])

    for s in range(g.n):
        walk([s])

    def contains(big, small):
        S = len(small)
        return any(big[i:i + S] in (small, small[::-1]) for i in range(len(big) - S + 1))

    kept = []
    for p in sorted(geodesics, key=lambda p: (-len(p), p)):
        if not any(contains(q, p) for q in kept):
            kept.append(p)
    return kept


def min_cover(n: int, members) -> int | None:
    """The fewest members whose union is every vertex 0..n-1, or None if all of them fall short.

    Plain enumeration: the k-subsets of members, k = 1, 2, ..., in
    itertools.combinations order, until one covers.
    """
    sets = [frozenset(m) for m in members]
    universe = frozenset(range(n))
    for k in range(1, len(sets) + 1):
        if any(frozenset().union(*c) == universe for c in combinations(sets, k)):
            return k
    return None


def reference_search_tables(pool: tuple[int, ...], triples):
    """(inc, pair, masks) of the search, from the listed triples of pool, one triple at a time.

    Triple t of the T is bit T - 1 - t of inc[i] for each of its pool
    positions i, pair[i][j] holds the third members of every collinear
    (i, j, c) in both orders, and masks[t] its three positions.
    """
    index = {v: i for i, v in enumerate(pool)}
    k, top = len(pool), len(triples) - 1
    inc = [0] * k
    pair = [[0] * k for _ in range(k)]
    masks = []
    for t, triple in enumerate(triples):
        a, b, c = (index[v] for v in triple)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            pair[x][y] |= 1 << z
            pair[y][x] |= 1 << z
        for x in (a, b, c):
            inc[x] |= 1 << top - t
        masks.append(1 << a | 1 << b | 1 << c)
    return inc, pair, masks


def whole_level_pools(r: int) -> list[tuple[int, ...]]:
    """Every nonempty union of whole levels of BF(r), as sorted ids."""
    return [tuple(v for l in range(r + 1) if pick >> l & 1 for v in range(l << r, l + 1 << r))
            for pick in range(1, 1 << r + 1)]


def level_xor_permutations(g: Graph, pool) -> list[dict[int, int]]:
    """The level-wise row XORs of BF(r) that keep twin order, as maps on pool, or [].

    XOR-ing the rows of levels < r - j, or of levels >= r - j, with 2^j
    maps BF(r) onto itself, since only the step between levels r - j - 1
    and r - j flips bit j.  On level 0 the first with j = r - 1, and on
    level r the second with j = 0, swap each vertex with its false twin,
    so both are left out.  Only the canonical BF(r) with a pool that
    holds whole levels gets any.
    """
    r = g.butterfly_r
    ids = set(pool)
    if not r or any(l * 2 ** r + x not in ids
                    for l in {v // 2 ** r for v in ids} for x in range(2 ** r)):
        return []
    perms = []
    for j in range(r):
        for below in (True, False):
            if (below and j == r - 1) or (not below and j == 0):
                continue
            perm = {v: v ^ 2 ** j if (v // 2 ** r < r - j) == below else v for v in ids}
            if any(perm[v] != v for v in ids):
                perms.append(perm)
    return perms


# The search kernel as it was before it kept its triple state in bitsets,
# kept verbatim but for the twin cut and the orbital exclusion: the bitset
# kernel must walk the very same tree.
def list_scan_branch_and_bound(pool: tuple[int, ...], triples, classes, perms, warm,
                               node_limit: int):
    """Bitmask branch and bound over one pool, on an explicit stack.

    A node is (chosen, free) vertex masks plus the list of still-active
    triple masks (all members chosen or free).  A triple with two chosen
    members forces exclusion of the third; free vertices in no active
    triple are always safe to take.  The bound is |chosen| + |free| minus
    a greedy packing of disjoint constraint free-parts (pairs before
    triples), since each packed constraint forces at least one exclusion.
    Branching: include-first on the free vertex hitting the most active
    triples, smallest id on ties.  The warm set is the first incumbent,
    and only a strictly larger set replaces it.  Twin cut: the exclude
    branch of a vertex also excludes the members after it in its class of
    `classes` (see `twin_classes`) that the pool holds.  Orbital
    exclusion: it also excludes every vertex that the permutations in
    `perms` (maps on the pool's vertices, see `level_xor_permutations`)
    fixing the node reach from the branch vertex, found by breadth-first
    search, and their later class members.  A permutation fixes the node
    when it maps onto themselves the vertices taken by include branches
    and the rest of the chosen and free vertices: the free vertices in no
    active triple, which this kernel moves to chosen, stay free in the
    bitset kernel.

    Returns (best members, nodes explored, stopped); stopped means the
    node limit cut the search short, so the members may not be optimal.
    """
    index = {v: i for i, v in enumerate(pool)}
    later = {}
    for cls in classes:
        held = [1 << index[v] for v in cls if v in index]
        for a, bit in enumerate(held):
            later[bit] = sum(held[a + 1:])
    best_mask = sum(1 << index[v] for v in warm)
    tmasks = [(1 << index[a]) | (1 << index[b]) | (1 << index[c]) for a, b, c in triples]
    bit_perms = [{1 << index[v]: 1 << index[w] for v, w in perm.items()} for perm in perms]

    def fixes(perm, mask):
        return sum(perm[1 << i] for i in range(len(pool)) if mask >> i & 1) == mask

    # pending branches, last in first out: exclude is pushed before include,
    # so include is explored first; taken is the vertices include branches chose
    stack = [(0, (1 << len(pool)) - 1, tmasks, 0)]
    nodes = 0
    while stack:
        chosen, free, active, taken = stack.pop()
        nodes += 1
        if nodes > node_limit:
            break

        # propagate: drop dead triples, exclude third members of 2-chosen triples;
        # after it every active triple has two free members, and a branch chooses one vertex
        while True:
            alive = chosen | free
            nact = []
            forced = 0
            for t in active:
                if t & alive == t:
                    fp = t & free
                    if fp & (fp - 1) == 0:
                        forced |= fp
                    else:
                        nact.append(t)
            active = nact
            if not forced:
                break
            free &= ~forced

        # greedy packing bound on forced exclusions, pairs first, then triples;
        # free vertices outside every active triple are always safe to take
        constrained = 0
        used = 0
        packed = 0
        trips = []
        for t in active:
            fp = t & free
            constrained |= fp
            if fp.bit_count() == 2:
                if fp & used == 0:
                    packed += 1
                    used |= fp
            else:
                trips.append(fp)
        for fp in trips:
            if fp & used == 0:
                packed += 1
                used |= fp
        chosen |= free & ~constrained
        free &= constrained

        if not active:
            if chosen.bit_count() > best_mask.bit_count():
                best_mask = chosen
            continue
        if chosen.bit_count() + free.bit_count() - packed <= best_mask.bit_count():
            continue

        # branch vertex: most active constraints, smallest id on ties
        counts: dict[int, int] = {}
        for t in active:
            fp = t & free
            while fp:
                b = fp & -fp
                counts[b] = counts.get(b, 0) + 1
                fp ^= b
        branch = max(counts.items(), key=lambda kv: (kv[1], -kv[0].bit_length()))[0]
        kept = [perm for perm in bit_perms
                if fixes(perm, taken) and fixes(perm, chosen & ~taken | free)]
        orbit, queue = {branch}, deque([branch])
        while queue:
            v = queue.popleft()
            for perm in kept:
                if perm[v] not in orbit:
                    orbit.add(perm[v])
                    queue.append(perm[v])
        out = 0
        for v in orbit:
            out |= v | later.get(v, 0)
        stack.append((chosen, free & ~out, active, taken))
        stack.append((chosen | branch, free & ~branch, active, taken | branch))

    members = tuple(sorted(v for i, v in enumerate(pool) if best_mask >> i & 1))
    return members, nodes, nodes > node_limit


# The cover verifier and its two walk helpers as they were before edges
# became int keys and even cycles were read half-way, kept verbatim but
# for their names, for the walk check returning its defect, and for the
# verifier keeping only the four checks of REFERENCE_FLAG_ORDER: the
# library's verifier must give the same report, or raise an
# InvalidCoverError with the same message, on every cover.
REFERENCE_FLAG_ORDER = ("edge_disjoint", "edge_partition", "all_isometric", "vertex_cover")


def reference_walk_defect(g: Graph, seq, closed: bool) -> str | None:
    """The first defect of seq as a cycle (closed) or path (open) of g, or None.

    A cycle needs at least 3 distinct vertices and a path at least 1,
    consecutive vertices adjacent, and on a cycle also the last and the
    first.  The text names the first bad position.
    """
    least = 3 if closed else 1
    L = len(seq)
    if L < least:
        return f"needs >= {least} vertices, got {L}"
    if len(set(seq)) != L:
        seen = set()
        for i, v in enumerate(seq):
            if v in seen:
                return f"repeated vertex {v} at position {i}"
            seen.add(v)
    adj = g.adj
    for i, v in enumerate(seq):
        if not 0 <= v < g.n:
            return f"vertex {v} out of range at position {i}"
        if i + 1 < L or closed:
            w = seq[(i + 1) % L]
            if w not in adj[v]:
                return f"{v} and {w} are not adjacent at position {i}"
    return None


def reference_walk_violation(dm, seq, closed: bool) -> tuple[int, int] | None:
    """The first pair along the walk, as (smaller id, larger id), off its walk distance.

    Vertices k steps apart are k apart on a path (open) and min(k, L - k)
    round a cycle of length L (closed); the walk is isometric, and the
    result None, when every pair is.  It is iff d(seq[0], seq[k]) == k on
    a path and d(seq[i], seq[i + h]) == h round a cycle, h = L // 2 and
    indices mod L: seq[i], seq[j] closer than j - i (<= h round a cycle)
    bring seq[0] closer than j to seq[j], and seq[i] closer than h to
    seq[i + h].  seq must be a walk of the graph dm was built from.
    """
    L = len(seq)
    for k, v in enumerate(seq):  # v against the vertex half a cycle ahead, or seq[0] against v
        u, w, d = (v, seq[(k + L // 2) % L], L // 2) if closed else (seq[0], v, k)
        if dm.dist(u, w) != d:
            return (u, w) if u < w else (w, u)
    return None


def _reference_walk_edges(seq, closed: bool) -> frozenset[tuple[int, int]]:
    """The edges a walk traverses, each as (smaller id, larger id)."""
    ends = seq[1:] + seq[:1] if closed else seq[1:]
    return frozenset((u, v) if u < v else (v, u) for u, v in zip(seq, ends))


def reference_verify_cover(g: Graph, dm, cover) -> CoverReport:
    """The cover verifier: one pass over the members, failures in REFERENCE_FLAG_ORDER.

    Every cover, on every graph, must consist of genuine cycles (or
    paths; garbage raises InvalidCoverError) that are pairwise
    edge-disjoint, partition the edges, are isometric, and cover every
    vertex.  Each flag keeps its first failure (edges are collected up to
    the first overlap, every member is tested for isometry), and
    first_failure is the earliest of them in REFERENCE_FLAG_ORDER.  The report
    records `cover`, and its bounds are gp <= 3k for k isometric cycles,
    gp <= 2k for k isometric paths, when every member is isometric and
    every vertex is covered, and {} otherwise.
    """
    closed = cover.kind == KIND_CYCLE
    member = "cycle" if closed else "path"
    failures: dict[str, dict] = {}

    def fail(check: str, cycle_index: int | None, detail: str) -> None:
        failures.setdefault(check, {"check": check, "cycle_index": cycle_index, "detail": detail})

    incidence = [0] * g.n
    seen_edges: set[tuple[int, int]] = set()
    for i, seq in enumerate(cover.cycles):
        defect = reference_walk_defect(g, seq, closed)
        if defect is not None:
            raise InvalidCoverError(f"{member} #{i}: {defect}")
        for v in seq:
            incidence[v] += 1
        if "edge_disjoint" not in failures:
            es = _reference_walk_edges(seq, closed)
            overlap = seen_edges & es
            if overlap:
                fail("edge_disjoint", i, f"edge {min(overlap)} already covered")
            seen_edges |= es
        pair = reference_walk_violation(dm, seq, closed)
        if pair is not None:
            fail("all_isometric", i, f"pair {pair} violates {member} distance")

    if "edge_disjoint" in failures:
        # an overlap breaks the partition too; edge_disjoint is reported first
        fail("edge_partition", None, "edges overlap")
    else:
        missing = set(g.edges) - seen_edges
        if missing:
            fail("edge_partition", None, f"edge {min(missing)} uncovered")
    if 0 in incidence:
        fail("vertex_cover", None, f"vertex {incidence.index(0)} uncovered")

    flags = {name: name not in failures for name in REFERENCE_FLAG_ORDER}
    first_failure = next((failures[name] for name in REFERENCE_FLAG_ORDER if name in failures),
                         None)
    k, bounds = len(cover.cycles), {}
    if "all_isometric" not in failures and "vertex_cover" not in failures:
        bounds = {"from_ic": 3 * k} if closed else {"from_ip": 2 * k}
    return CoverReport(flags=flags, first_failure=first_failure, bounds=bounds, cover=cover)
