import random
from collections import Counter

import pytest

from bfgp import cycle_cover
from bfgp.cycle_cover import (
    KIND_CYCLE,
    KIND_PATH,
    CoverReport,
    CycleCover,
    candidate_cycle,
    construct_bf_cycle_cover,
    cover_from_dict,
    cover_to_dict,
    gp_upper_bounds,
    report_to_dict,
    verify_cover,
)
from bfgp.errors import (
    GraphParseError,
    InvalidCoverError,
    InvalidParameterError,
    UnverifiedCoverError,
)
from bfgp.genpos import max_general_position
from bfgp.geodesy import all_pairs_distances, walk_violation
from bfgp.graphs import (
    Graph,
    build_butterfly,
    build_cycle,
    build_path,
)
from corpus import (
    isometric_cycles,
    maximal_geodesics_by_containment,
    min_cover,
    reference_verify_cover,
)

# two 8-cycles through level-0 pairs, transcribed from the diamond drawing
GOLDEN_BF2_COVER = ((0, 4, 8, 5, 1, 7, 10, 6), (2, 6, 11, 7, 3, 5, 9, 4))


def test_golden_bf2_cover_passes(bf2):
    g, dm = bf2
    cover = CycleCover(kind=KIND_CYCLE, cycles=GOLDEN_BF2_COVER)
    report = verify_cover(g, dm, cover)
    assert report.passes, report.first_failure
    assert all(report.flags.values())


def test_constructed_bf2_cover_is_deterministic(bf2):
    cover = construct_bf_cycle_cover(2)
    assert cover.cycles == ((0, 4, 8, 5, 1, 7, 10, 6), (2, 4, 9, 5, 3, 7, 11, 6))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_constructed_covers_verify(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    cover = construct_bf_cycle_cover(r)
    assert len(cover) == 2 ** (r - 1)
    assert all(len(c) == 4 * r for c in cover.cycles)
    report = verify_cover(g, dm, cover)
    assert report.passes, report.first_failure


@pytest.mark.parametrize("r", range(2, 8))
def test_closed_form_cycles_are_isometric_from_every_start(r):
    dm = all_pairs_distances(build_butterfly(r))
    for cycle in construct_bf_cycle_cover(r).cycles:
        for seq in (cycle, cycle[::-1]):
            for k in range(len(seq)):
                assert walk_violation(dm, seq[k:] + seq[:k], True) is None, (r, seq, k)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_level0_corners_are_antipodal(r):
    nrows = 1 << r
    cover = construct_bf_cycle_cover(r)
    for seq in cover.cycles:
        positions = [i for i, v in enumerate(seq) if v < nrows]
        assert len(positions) == 2
        gap = positions[1] - positions[0]
        assert min(gap, len(seq) - gap) == 2 * r


@pytest.mark.parametrize("r", range(2, 11))
def test_closed_form_cover_has_the_paper_shape(r):
    # the construction's shape, which the bound does not rest on: 2^(r-1)
    # cycles of length 4r (so r * 2^(r+1) edges, BF(r)'s edge count), two
    # level-0 vertices each, and every vertex on degree / 2 cycles
    g = build_butterfly(r)
    cover = construct_bf_cycle_cover(r)
    assert len(cover) == 2 ** (r - 1)
    assert all(len(seq) == 4 * r for seq in cover.cycles)
    assert len(cover) * 4 * r == g.num_edges
    assert all(len([v for v in seq if v < 2 ** r]) == 2 for seq in cover.cycles)
    incidence = Counter(v for seq in cover.cycles for v in seq)
    assert {g.degree(v) for v in range(g.n)} == {2, 4}
    assert all(incidence[v] == g.degree(v) // 2 for v in range(g.n))


def test_repeated_edge_is_flagged(bf2):
    g, dm = bf2
    c0 = GOLDEN_BF2_COVER[0]
    cover = CycleCover(kind=KIND_CYCLE, cycles=(c0, c0))
    report = verify_cover(g, dm, cover)
    assert not report.flags["edge_disjoint"]
    assert not report.flags["edge_partition"]
    assert report.first_failure["check"] == "edge_disjoint"
    assert not report.passes


def test_structural_garbage_raises(bf2):
    g, dm = bf2
    for cycle, defect in (((0, 1, 2), "0 and 1 are not adjacent at position 0"),
                          ((0, 4, 0, 4), "repeated vertex 0 at position 2")):
        with pytest.raises(InvalidCoverError) as e:
            verify_cover(g, dm, CycleCover(kind=KIND_CYCLE, cycles=(cycle,)))
        assert str(e.value) == f"cycle #0: {defect}"


def test_verify_bf_cover_is_verify_cover():
    # the benchmark's name asks nothing of the family: a path cover of C_6
    # gets verify_cover's report and bound through it
    assert cycle_cover.verify_bf_cover is verify_cover
    g = build_cycle(6)
    dm = all_pairs_distances(g)
    cover = CycleCover(kind=KIND_PATH, cycles=((0, 1, 2, 3), (3, 4, 5, 0)))
    report = cycle_cover.verify_bf_cover(g, dm, cover)
    assert report == verify_cover(g, dm, cover)
    assert report.passes and gp_upper_bounds(cover, report) == {"from_ip": 4}


def test_unknown_kind_is_named_short(bf2):
    g, dm = bf2
    with pytest.raises(InvalidParameterError) as info:
        verify_cover(g, dm, CycleCover(kind="x" * 10**6, cycles=()))
    assert len(str(info.value)) < 200


def test_untagged_butterfly_is_verified_as_tagged(bf3):
    # distances and verdicts follow the edges, not the family tag
    g, dm = bf3
    untagged = Graph(g.n, g.edges)
    assert untagged.family == "custom" and untagged.butterfly_r == 3
    udm = all_pairs_distances(untagged)
    for u in range(g.n):
        assert [udm.dist(u, v) for v in range(g.n)] == [dm.dist(u, v) for v in range(g.n)]
    cover = construct_bf_cycle_cover(3)
    short = CycleCover(kind=KIND_CYCLE, cycles=cover.cycles[1:])
    for c in (cover, short):
        assert verify_cover(untagged, udm, c) == verify_cover(g, dm, c)


def test_mutated_covers_never_pass(bf2):
    g, dm = bf2
    base = construct_bf_cycle_cover(2)
    killed = 0
    for ci, seq in enumerate(base.cycles):
        for pos in range(len(seq)):
            for replacement in range(g.n):
                if replacement == seq[pos]:
                    continue
                mutated = list(seq)
                mutated[pos] = replacement
                cycles = list(base.cycles)
                cycles[ci] = tuple(mutated)
                cover = CycleCover(kind=KIND_CYCLE, cycles=tuple(cycles))
                try:
                    report = verify_cover(g, dm, cover)
                except InvalidCoverError:
                    killed += 1
                    continue
                assert not report.passes
                killed += 1
    assert killed == 2 * 8 * 11


def test_swap_mutations_never_pass(bf3):
    g, dm = bf3
    base = construct_bf_cycle_cover(3)
    for ci, seq in enumerate(base.cycles):
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                mutated = list(seq)
                mutated[i], mutated[j] = mutated[j], mutated[i]
                cycles = list(base.cycles)
                cycles[ci] = tuple(mutated)
                cover = CycleCover(kind=KIND_CYCLE, cycles=tuple(cycles))
                try:
                    report = verify_cover(g, dm, cover)
                except InvalidCoverError:
                    continue
                assert not report.passes


def test_constructor_rejects_r_below_2():
    with pytest.raises(InvalidParameterError):
        construct_bf_cycle_cover(1)


@pytest.mark.parametrize("r", range(2, 11))
def test_cover_is_cycle_zero_shifted_by_level(r):
    # construct_bf_cycle_cover XORs cycle 0 level by level; candidate_cycle
    # builds each cycle from its corners
    assert construct_bf_cycle_cover(r).cycles == tuple(
        candidate_cycle(r, 2 * k, k) for k in range(2 ** (r - 1)))


def test_candidate_cycle_shape():
    seq = candidate_cycle(3, 0, 0)
    assert len(seq) == 12
    assert len(set(seq)) == 12


def test_gp_bounds_bf(bf2, bf3):
    g2, dm2 = bf2
    cover2 = construct_bf_cycle_cover(2)
    report2 = verify_cover(g2, dm2, cover2)
    assert gp_upper_bounds(cover2, report2) == {"from_ic": 6}
    assert max_general_position(g2, dm2).size <= 6

    g3, dm3 = bf3
    cover3 = construct_bf_cycle_cover(3)
    report3 = verify_cover(g3, dm3, cover3)
    assert gp_upper_bounds(cover3, report3) == {"from_ic": 12}


def test_gp_bounds_cycle_self_cover():
    g = build_cycle(5)
    dm = all_pairs_distances(g)
    cover = CycleCover(kind=KIND_CYCLE, cycles=(tuple(range(5)),))
    report = verify_cover(g, dm, cover)
    assert report.passes
    bounds = gp_upper_bounds(cover, report)
    assert bounds == {"from_ic": 3}
    assert max_general_position(g, dm).size == 3   # the bound is tight here


def test_gp_bounds_path_cover():
    g = build_path(5)
    dm = all_pairs_distances(g)
    cover = CycleCover(kind=KIND_PATH, cycles=((0, 1, 2, 3, 4),))
    report = verify_cover(g, dm, cover)
    assert report.passes
    assert gp_upper_bounds(cover, report) == {"from_ip": 2}


def test_uncovered_edge_is_named():
    # every vertex is covered, two edges are not
    g = build_cycle(6)
    dm = all_pairs_distances(g)
    cover = CycleCover(kind=KIND_PATH, cycles=((0, 1, 2), (3, 4, 5)))
    report = verify_cover(g, dm, cover)
    assert not report.passes
    assert [name for name, ok in report.flags.items() if not ok] == ["edge_partition"]
    assert report.first_failure == {"check": "edge_partition", "cycle_index": None,
                                    "detail": "edge (0, 5) uncovered"}
    assert gp_upper_bounds(cover, report) == {"from_ip": 4}


def test_path_cover_messages():
    # a repeated vertex is named with its position, a non-geodesic path by its first bad pair
    g = build_cycle(6)
    dm = all_pairs_distances(g)
    with pytest.raises(InvalidCoverError) as e:
        verify_cover(g, dm, CycleCover(kind=KIND_PATH, cycles=((0, 1, 2), (3, 4, 3))))
    assert str(e.value) == "path #1: repeated vertex 3 at position 2"
    report = verify_cover(g, dm, CycleCover(kind=KIND_PATH, cycles=((0, 1, 2, 3, 4, 5), (5, 0))))
    assert [name for name, ok in report.flags.items() if not ok] == ["all_isometric"]
    assert report.first_failure == {"check": "all_isometric", "cycle_index": 0,
                                    "detail": "pair (0, 4) violates path distance"}


def test_unknown_cover_kind_is_refused():
    # once read as a path cover: the first passed on P_5 with bound 2, the
    # second named edge (0, 5) uncovered on C_6
    for g, kind in ((build_path(5), "cycle_cover"), (build_cycle(6), "cycle")):
        cover = CycleCover(kind=kind, cycles=(tuple(range(g.n)),))
        with pytest.raises(InvalidParameterError, match="unknown cover kind"):
            verify_cover(g, all_pairs_distances(g), cover)


def _same_outcome(g, dm, cover) -> str:
    """Assert that verify_cover and the reference agree; the first failed check, or "raised"."""
    try:
        expected = reference_verify_cover(g, dm, cover)
    except InvalidCoverError as ref_error:
        with pytest.raises(InvalidCoverError) as e:
            verify_cover(g, dm, cover)
        assert str(e.value) == str(ref_error)
        return "raised"
    assert verify_cover(g, dm, cover) == expected, cover
    return expected.first_failure["check"] if expected.first_failure else "passes"


def _mutated_covers(r: int, rng: random.Random):
    """BF(r)'s closed-form cover with one seeded mutation each, of every kind, 8 of each."""
    cycles = list(construct_bf_cycle_cover(r).cycles)
    k, n, nrows = len(cycles), (r + 1) << r, 1 << r
    for _ in range(8):
        i, j = rng.randrange(k), rng.randrange(k)
        seq, rest = cycles[i], cycles[:i] + cycles[i + 1:]
        shift = rng.randrange(1, len(seq))
        other = candidate_cycle(r, 2 * rng.randrange(k), rng.randrange(k))
        pos, v = rng.randrange(len(seq)), rng.randrange(-1, n + 1)  # v may be out of range
        # a 4-cycle between levels l and l + 1, rows x and x ^ b
        lev, x = rng.randrange(r), rng.randrange(nrows)
        b = nrows >> lev + 1
        square = (lev * nrows + x, (lev + 1) * nrows + x, lev * nrows + (x ^ b),
                  (lev + 1) * nrows + (x ^ b))
        yield rest                                                # dropped
        yield cycles[:j] + [seq] + cycles[j:]                     # duplicated
        yield rest[:j] + [seq] + rest[j:]                         # moved
        for new in (seq[shift:] + seq[:shift], seq[::-1], other,  # rotated, reversed, replaced,
                    seq[:pos] + (v,) + seq[pos + 1:], square):    # one vertex off, too short
            yield cycles[:i] + [new] + cycles[i + 1:]


@pytest.mark.parametrize("r", range(2, 8))
def test_verifier_matches_the_reference_on_mutated_bf_covers(r):
    g = build_butterfly(r)
    dm = all_pairs_distances(g)
    outcomes = {_same_outcome(g, dm, CycleCover(kind=KIND_CYCLE, cycles=tuple(cycles)))
                for cycles in _mutated_covers(r, random.Random(f"cover-mutations/{r}"))}
    assert _same_outcome(g, dm, construct_bf_cycle_cover(r)) == "passes"
    assert outcomes == {"raised", "edge_disjoint", "edge_partition", "passes"}, outcomes


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_verifier_matches_the_reference_on_ring_covers(n):
    ring = tuple(range(n))
    outcomes = set()
    for g in (build_cycle(n), build_path(n)):
        dm = all_pairs_distances(g)
        covers = [(KIND_CYCLE, (ring,)), (KIND_CYCLE, (ring[2:] + ring[:2], ring[::-1])),
                  (KIND_PATH, (ring,)), (KIND_PATH, (ring[::-1],))]
        for k in (1, 2, n // 2, n // 2 + 1):
            # C_n's edges as arcs of k edges (the last one may be shorter) ending at 0
            arcs = tuple(tuple(v % n for v in range(s, min(s + k, n) + 1)) for s in range(0, n, k))
            covers += [(KIND_PATH, arcs), (KIND_PATH, arcs[:-1]),
                       (KIND_PATH, arcs[:-1] + (arcs[-1][:-1],))]
        for kind, members in covers:
            outcomes.add(_same_outcome(g, dm, CycleCover(kind=kind, cycles=members)))
    assert {"raised", "passes", "edge_disjoint", "edge_partition", "all_isometric"} <= outcomes


@pytest.mark.parametrize("kind", [KIND_CYCLE, KIND_PATH])
def test_each_member_is_structure_checked_once(bf2, monkeypatch, kind):
    g, dm = bf2
    calls = []
    walk_defect = cycle_cover.walk_defect

    def counting(g, seq, closed):
        calls.append((seq, closed))
        return walk_defect(g, seq, closed)

    monkeypatch.setattr(cycle_cover, "walk_defect", counting)
    members = GOLDEN_BF2_COVER if kind == KIND_CYCLE else ((0, 4, 8), (1, 5), (2, 6, 10))
    verify_cover(g, dm, CycleCover(kind=kind, cycles=members))
    assert calls == [(seq, kind == KIND_CYCLE) for seq in members]


def test_gp_bounds_refuses_unverified(bf2):
    g, dm = bf2
    cover = CycleCover(kind=KIND_CYCLE, cycles=((0, 4, 2, 6),))
    report = verify_cover(g, dm, cover)   # isometric but far from covering
    assert not report.flags["vertex_cover"]
    with pytest.raises(UnverifiedCoverError):
        gp_upper_bounds(cover, report)


def test_a_report_vouches_for_its_own_cover_only():
    g = build_butterfly(6)
    dm, cover = all_pairs_distances(g), construct_bf_cycle_cover(6)
    report = verify_cover(g, dm, cover)
    assert report.bounds == gp_upper_bounds(cover, report) == {"from_ic": 96}
    # a copy read back from its file is the judged cover, not the same object
    copy = cover_from_dict(cover_to_dict(cover))
    assert copy is not cover and gp_upper_bounds(copy, report) == {"from_ic": 96}
    first_32 = CycleCover(KIND_CYCLE, cover.cycles[:1] * 32, cover.graph_ref)
    assert verify_cover(g, dm, first_32).bounds == {}
    others = (CycleCover(KIND_CYCLE, ((0, 1, 2),)),           # once bounded by 3
              CycleCover(KIND_PATH, cover.cycles),            # same size, other kind
              CycleCover(KIND_CYCLE, cover.cycles + cover.cycles[:1]),  # one longer
              first_32)  # same kind and size, once bounded by 96
    for other in others:
        with pytest.raises(UnverifiedCoverError, match="passed verification"):
            gp_upper_bounds(other, report)
    # flags alone, or flags and bounds without the judged cover, vouch for nothing
    for bare in (CoverReport(flags=report.flags),
                 CoverReport(flags=report.flags, bounds=report.bounds)):
        with pytest.raises(UnverifiedCoverError):
            gp_upper_bounds(cover, bare)


def test_min_cover_exact_cycles():
    for n in (5, 6, 9):
        g = build_cycle(n)
        dm = all_pairs_distances(g)
        cover = CycleCover(kind=KIND_CYCLE, cycles=(tuple(range(n)),))
        assert verify_cover(g, dm, cover).passes
        assert min_cover(g.n, isometric_cycles(g)) == len(cover) == 1


def test_min_cover_exact_paths():
    for n in (1, 5):
        g = build_path(n)
        cover = CycleCover(kind=KIND_PATH, cycles=(tuple(range(n)),))
        assert verify_cover(g, all_pairs_distances(g), cover).passes
        assert min_cover(g.n, maximal_geodesics_by_containment(g)) == len(cover) == 1


def test_closed_form_cover_is_minimum_on_bf2(bf2):
    g, dm = bf2
    cover = construct_bf_cycle_cover(2)
    assert verify_cover(g, dm, cover).passes
    assert min_cover(g.n, isometric_cycles(g)) == len(cover) == 2


def test_isometric_cycle_enumeration_bf2(bf2):
    g, dm = bf2
    cycles = isometric_cycles(g)
    assert len(cycles) == 20
    assert {len(c) for c in cycles} == {4, 8}
    assert all(walk_violation(dm, c, True) is None for c in cycles)


def test_maximal_path_enumeration():
    assert maximal_geodesics_by_containment(build_path(5)) == [(0, 1, 2, 3, 4)]


def test_cover_json_round_trip():
    cover = construct_bf_cycle_cover(2)
    doc = cover_to_dict(cover)
    back = cover_from_dict(doc)
    assert back.cycles == cover.cycles
    assert back.kind == cover.kind
    with pytest.raises(GraphParseError):
        cover_from_dict({"cycles": "nope"})
    with pytest.raises(GraphParseError):
        cover_from_dict({"kind": "weird", "cycles": []})


def test_cover_graph_ref_must_be_a_string():
    for ref in ([1, 2], None, 5):
        with pytest.raises(GraphParseError, match="'graph_ref' must be a string"):
            cover_from_dict({"cycles": [], "graph_ref": ref})
    assert cover_from_dict({"cycles": []}).graph_ref == ""


def test_report_dict_shape(bf2):
    g, dm = bf2
    report = verify_cover(g, dm, construct_bf_cycle_cover(2))
    doc = report_to_dict(report)
    assert doc["passes"] is True
    assert list(doc["flags"]) == ["edge_disjoint", "edge_partition", "all_isometric",
                                  "vertex_cover"]
    assert doc["first_failure"] is None
