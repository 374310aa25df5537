"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
Criterion 8 is split into a queen half and a three-move half.  Both assert
that within-region witnesses exist, since they provably do for every move
set with at least three slopes (the mechanism is explained at
`census.fours_witness`), and 8b checks that each witness is genuine: one
region, complete region enumeration on both sides, differing reachable sets,
exactly one sweep locus crossed and none touched.
"""

from __future__ import annotations

import math
import random
import time

from oracles import (
    brute_force_unlabelled,
    naive_torus_count,
    naive_uncovered,
    random_arrangement,
    random_line_set,
)

from ridertypes.boards import SQUARE, TRIANGLE
from ridertypes.census import (
    count_nonattacking,
    fours_witness,
    geometric_census,
    random_census,
    stabilized_census,
    witness_checks,
    _reachable_keys,
)
from ridertypes.cli import PIECES, family_movesets, main
from ridertypes.finitefield import (
    ff_type_count,
    last_level_count,
    torus_count,
    valid_prime,
)
from ridertypes.formulas import (
    QUEEN_ONLY,
    find_period,
    known_types,
    t3_closed_form,
    types_from_counts,
)
from ridertypes.geometry import (
    Point,
    Side,
    configuration_arrangement,
    intersect,
    move_lines,
    parse_moves,
    point,
    region_representatives,
    region_sample_points,
    side_of,
    sign_vector,
    steiner_count,
)
from ridertypes.signature import Config, is_nonattacking, labelled_type, reorient_type

QUEEN = parse_moves(PIECES["queen"])
ROOK = parse_moves(PIECES["rook"])
SEMIQUEEN = parse_moves(PIECES["semiqueen"])
TRIDENT = parse_moves(PIECES["trident"])
NIGHTRIDER = parse_moves(PIECES["nightrider"])
THIRD_R3 = parse_moves("1,0;1,2;1,-2")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table1_exact_rows():
    checked = 0
    for r in range(1, 7):
        for i, ms in enumerate(family_movesets(r, 3)):
            for q, expected in ((1, 1), (2, r)):
                t0 = time.time()
                geo = geometric_census(ms, q)
                geo_dt = time.time() - t0
                assert geo.size == expected and geo_dt < 1.0, (str(ms), q)
                t0 = time.time()
                ff = ff_type_count(ms, q)
                ff_dt = time.time() - t0
                assert (ff.labelled, ff.unlabelled) == ((1, 1) if q == 1 else (2 * r, r)), \
                    (str(ms), q)
                assert ff_dt < 1.0
                checked += 2
                if i == 0:
                    t0 = time.time()
                    grid, rep = stabilized_census(ms, SQUARE, q, 1, 16, 2)
                    grid_dt = time.time() - t0
                    assert grid.size == expected and rep.stabilized_at is not None
                    assert grid_dt < 1.0
                    t0 = time.time()
                    rand = random_census(ms, q, 1500, seed=2024)
                    rand_dt = time.time() - t0
                    assert rand.size == expected and rand_dt < 1.0
                    checked += 2
    report("criterion 1", True,
           f"t(1)=1 and t(2)=r for r=1..6 across engines ({checked} runs, each < 1 s)")


def test_criterion_2_theorem_q3():
    expected = {2: 6, 3: 17, 4: 36, 5: 65, 6: 106}
    for r, value in expected.items():
        assert t3_closed_form(r) == value
        for ms in family_movesets(r, 3):
            t0 = time.time()
            geo = geometric_census(ms, 3)
            geo_dt = time.time() - t0
            ff = ff_type_count(ms, 3)
            assert geo.size == value, (str(ms), geo.size, value)
            assert geo.exact and geo_dt < 1.0, (str(ms), geo_dt)
            assert (ff.labelled, ff.unlabelled) == (6 * value, value), str(ms)
    report("criterion 2", True,
           "t(3) = r(r^2+3r-1)/3 for r=2..6, three move sets each, "
           "geometric + ff + closed form agree exactly")


def test_criterion_3_theorem_3move_q4():
    results = {}
    for ms in (SEMIQUEEN, TRIDENT, THIRD_R3):
        t0 = time.time()
        res = ff_type_count(ms, 4)
        dt = time.time() - t0
        assert dt < 300.0, f"{ms}: {dt:.0f}s"
        results[str(ms)] = res.unlabelled
        assert res.unlabelled == 151, (str(ms), res.unlabelled)
        assert max(res.counts) <= 47
    assert len(set(results.values())) == 1
    report("criterion 3", True,
           f"three 3-move riders all give 151 unlabelled types at q=4: {results}")


def test_criterion_4_queens_q4():
    t0 = time.time()
    res = ff_type_count(QUEEN, 4)
    dt = time.time() - t0
    golden = known_types(4, 4)
    assert golden is not None and golden[1] == QUEEN_ONLY
    assert res.unlabelled == golden[0] == 574
    assert dt < 300.0
    report("criterion 4", True,
           "queens q=4 give 574 unlabelled types, matching the empirically "
           "sourced starred value (flagged queen-only)")


def test_criterion_5_triple_engine_agreement():
    matrix = [(ROOK, 2), (SEMIQUEEN, 3), (TRIDENT, 3), (QUEEN, 4), (NIGHTRIDER, 4)]
    for ms, r in matrix:
        assert ms.r == r
        for q in (1, 2, 3):
            geo = geometric_census(ms, q)
            ff_unlabelled = ff_type_count(ms, q).unlabelled
            grid, rep = stabilized_census(ms, SQUARE, q, 1, 16, 2,
                                          confirm_size=ff_unlabelled)
            assert rep.stabilized_at is not None, (str(ms), q)
            assert grid.size == geo.size == ff_unlabelled, (str(ms), q)
            assert grid.types == geo.types, (str(ms), q)
            assert grid.exact and geo.exact
    report("criterion 5", True,
           "stabilized grid, geometric, and ff agree (sizes and type sets) "
           "for five move sets at q <= 3")


def test_criterion_6_board_independence(tmp_path, capsys):
    for q in (1, 2, 3):
        sq, rep_sq = stabilized_census(SEMIQUEEN, SQUARE, q, 1, 16, 2)
        tr, rep_tr = stabilized_census(SEMIQUEEN, TRIANGLE, q, 1, 22, 2)
        assert rep_sq.stabilized_at is not None and rep_tr.stabilized_at is not None
        assert sq.types == tr.types, f"q={q}"
    # the triangular-rook move set is the mirrored semiqueen; census sizes match
    triangular_rook = parse_moves("1,0;0,1;1,-1")
    trq, rep = stabilized_census(triangular_rook, TRIANGLE, 3, 1, 22, 2)
    assert rep.stabilized_at is not None
    assert trq.size == 17

    # no OEIS b-files ship with this environment; the comparison pipeline is
    # exercised against locally generated fixtures from an independent oracle
    for board_name, board in (("square", SQUARE), ("triangle", TRIANGLE)):
        rows = [(n, brute_force_unlabelled(SEMIQUEEN, board, n, 3))
                for n in range(1, 8)]
        bfile = tmp_path / f"semiqueen3_{board_name}.txt"
        bfile.write_text("\n".join(f"{n} {v}" for n, v in rows) + "\n")
        code = main(["count", "--moves", "semiqueen", "--q", "3",
                     "--board", board_name, "--n-range", "1:7",
                     "--bfile", str(bfile)])
        capsys.readouterr()
        assert code == 0, board_name
    report("criterion 6", True,
           "semiqueen censuses agree on square and triangular boards (q <= 3); "
           "count sequences match local b-file fixtures on both boards")


def test_criterion_7_reciprocity():
    matrix = [(ROOK, 2), (SEMIQUEEN, 3), (TRIDENT, 3), (QUEEN, 4)]
    for ms, r in matrix:
        for q in (1, 2, 3):
            n_max = 8 if q == 1 else (14 if q == 2 else 18)
            data = [(n, count_nonattacking(ms, SQUARE, n, q))
                    for n in range(1, n_max + 1)]
            period = find_period(data, 2 * q)
            labelled, unlabelled = types_from_counts(data, period, q)
            expected = 1 if q == 1 else (r if q == 2 else t3_closed_form(r))
            assert unlabelled == expected, (str(ms), q, period)
            assert labelled == math.factorial(q) * expected
    report("criterion 7", True,
           "counting quasipolynomials evaluated at n=-1 reproduce the type "
           "counts for q <= 3, r <= 4 (periods found and verified on surplus points)")


def test_criterion_8a_queen_witness():
    w = fours_witness(QUEEN)
    assert w is not None
    report("criterion 8a", True,
           f"queen witness built: P3 at {w.p3_a} vs {w.p3_b} inside one "
           f"region of the two-piece arrangement")


def _sweep_loci(ms, p1, p2):
    """The distinct lines through each crossing X of a P1 move line with a
    P2 move line that have a move slope other than the two crossing at X."""
    loci = {}
    for l1 in move_lines(ms, p1):
        for l2 in move_lines(ms, p2):
            x = intersect(l1, l2)
            if isinstance(x, Point):
                for ln in move_lines(ms, x):
                    if ln.direction not in (l1.direction, l2.direction):
                        loci.setdefault(ln.unoriented_key(), ln)
    return list(loci.values())


def test_criterion_8b_three_move_witnesses_absent_as_stated():
    """Criterion 8's three-move half, asserted as proved: witnesses exist.

    The criterion as first stated claimed that no four-piece witness exists
    for 3-move riders; the name is kept, the claim is refuted here.  The
    sweep argument that refutes it is in the docstring of
    `census.fours_witness`.

    Each witness is checked to be genuine, with locus helpers independent of
    the library: both placements lie in one region of the two-piece
    arrangement, both reachable-type enumerations are complete (region
    count equals the Steiner count), the reachable sets differ at the
    reported type, and the segment between the placements crosses exactly
    one sweep locus with neither endpoint on one.  The library's
    `witness_checks` must agree.
    """
    found = {}
    for ms in (SEMIQUEEN, TRIDENT, THIRD_R3):
        w = fours_witness(ms)
        assert w is not None, f"{ms}: no witness"
        arr12 = configuration_arrangement(ms, (w.p1, w.p2))
        assert sign_vector(arr12, w.p3_a) == sign_vector(arr12, w.p3_b) \
            == w.region_signature, str(ms)
        for p3 in (w.p3_a, w.p3_b):
            arr = configuration_arrangement(ms, (w.p1, w.p2, p3))
            assert len(region_representatives(arr)) == steiner_count(arr), (str(ms), p3)
        ra = _reachable_keys(ms, (w.p1, w.p2, w.p3_a))
        rb = _reachable_keys(ms, (w.p1, w.p2, w.p3_b))
        assert ra != rb, str(ms)
        assert w.differing_type.key in ra ^ rb, str(ms)
        loci = _sweep_loci(ms, w.p1, w.p2)
        on = [ln for ln in loci for p3 in (w.p3_a, w.p3_b) if side_of(ln, p3) is Side.ON]
        assert not on, f"{ms}: a placement lies on the sweep locus {on[0]}"
        crossed = [ln for ln in loci if side_of(ln, w.p3_a) != side_of(ln, w.p3_b)]
        assert len(crossed) == 1, \
            f"{ms}: segment {w.p3_a} - {w.p3_b} crosses {len(crossed)} sweep loci"
        assert all(witness_checks(ms, w).values()), str(ms)
        found[str(ms)] = (f"P2={w.p2} P3={w.p3_a}->{w.p3_b} "
                          f"+{len(rb - ra)}/-{len(ra - rb)} types")
    report("criterion 8b", True,
           f"3-move riders have genuine within-region witnesses: {found}")


def test_criterion_9_property_suites():
    # slab sampling vs the Steiner formula, 1000 random arrangements
    rng = random.Random(424242)
    for _ in range(1000):
        arr = random_arrangement(rng)
        regions = region_sample_points(arr, 1)
        assert len(regions) == steiner_count(arr)
        for sv in regions:
            assert Side.ON not in sv

    # antipodal invariant on 10^4 random nonattacking configurations
    rng = random.Random(777)
    movesets = [QUEEN, TRIDENT, NIGHTRIDER, SEMIQUEEN]
    done = 0
    while done < 10_000:
        ms = movesets[done % len(movesets)]
        q = 2 + (done % 2)
        pieces = tuple(point(rng.randint(-50, 50), rng.randint(-50, 50))
                       for _ in range(q))
        if len(set(pieces)) < q:
            continue
        cfg = Config(pieces)
        if not is_nonattacking(ms, cfg):
            continue
        labelled_type(ms, cfg)  # antipodal invariant asserted in the constructor
        done += 1

    # torus counts vs naive exhaustive enumeration, every valid p <= 11, q <= 3
    for ms in (ROOK, TRIDENT, QUEEN):
        for p in (2, 3, 5, 7, 11):
            if not valid_prime(ms, p):
                continue
            for q in (1, 2, 3):
                assert torus_count(ms, q, p) == naive_torus_count(ms, q, p), \
                    (str(ms), q, p)

    # algebraic last-level counts vs per-cell iteration, 10^4 random line sets
    rng = random.Random(31337)
    for _ in range(10_000):
        p = rng.choice((3, 5, 7, 11, 13))
        lines = random_line_set(rng, p, rng.randint(1, 6))
        assert last_level_count(p, lines) == naive_uncovered(p, lines)

    # reorienting any move maps each full census onto the same census: the
    # angle-anchored numbering keeps every cone's index
    for ms, q in ((QUEEN, 3), (TRIDENT, 3)):
        census = geometric_census(ms, q)
        for j in range(1, ms.r + 1):
            mapped = {reorient_type(t, ms, j).key for t in census.types}
            assert len(mapped) == census.size
            assert geometric_census(ms.reorient(j), q).types == census.types

    # Table 1's "?" cells are unknown in the source and must not be asserted
    unknowns = [(4, 5), (4, 6), (5, 5), (5, 6), (6, 5), (6, 6)]
    assert all(known_types(q, r) is None for q, r in unknowns)

    report("criterion 9", True,
           "property suites green: slab=Steiner x1000, antipodal x10^4, "
           "torus oracle (p <= 11, q <= 3), last-level oracle x10^4, "
           "reorientation bijections; '?' cells left unasserted")
