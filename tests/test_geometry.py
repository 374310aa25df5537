"""Exact-geometry unit tests: predicates, Steiner counts, slab sampling,
linear maps.  Randomized properties run here at reduced volume; the full
volumes live in the acceptance suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracles import fraction_region_sample_points, random_arrangement

from ridertypes.geometry import (
    BasicMove,
    GeometryError,
    INFINITY,
    LinearMap,
    MoveSet,
    OrientedLine,
    Point,
    Side,
    arrangement,
    configuration_arrangement,
    intersect,
    parse_moves,
    parse_point,
    parse_rational,
    point,
    region_representatives,
    region_sample_points,
    sign_vector,
    side_of,
    slope_correspondence_map,
    slope_of,
    steiner_count,
)

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
TRI = parse_moves("1,0;0,1;1,1")


def horizontal(y=0):
    return OrientedLine(point(0, y), BasicMove(1, 0))


def test_slope_basic():
    assert slope_of(BasicMove(1, 0)) == 0
    assert slope_of(BasicMove(0, 1)) is INFINITY
    assert slope_of(BasicMove(2, 4)) == Fraction(2)
    assert slope_of(BasicMove(2, 4)) == slope_of(BasicMove(1, 2))


def test_zero_move_rejected():
    with pytest.raises(GeometryError):
        BasicMove(0, 0)


def test_move_reduction_preserves_sign():
    m = BasicMove(-2, -4)
    assert (m.c, m.d) == (-1, -2)


def test_moveset_rejects_duplicate_slopes():
    with pytest.raises(GeometryError):
        MoveSet((BasicMove(1, 2), BasicMove(2, 4)))


def test_side_convention():
    line = horizontal()
    assert side_of(line, point(0, 1)) is Side.LEFT
    assert side_of(line, point(0, -1)) is Side.RIGHT
    assert side_of(line, point(7, 0)) is Side.ON


def test_point_on_line_for_rational_parameters():
    line = OrientedLine(point(Fraction(1, 3), -2), BasicMove(3, -7))
    for t in (Fraction(0), Fraction(1), Fraction(-5, 2), Fraction(99, 13)):
        p = Point(line.anchor.x + t * 3, line.anchor.y + t * -7)
        assert side_of(line, p) is Side.ON


def test_intersect_axes():
    x_axis = horizontal()
    y_axis = OrientedLine(point(0, 0), BasicMove(0, 1))
    assert intersect(x_axis, y_axis) == point(0, 0)


def test_intersect_slanted():
    flat = horizontal()
    diag = OrientedLine(point(1, 0), BasicMove(1, 1))
    assert intersect(flat, diag) == point(1, 0)


def test_intersect_parallel_and_identical():
    a = OrientedLine(point(0, 0), BasicMove(1, 2))
    b = OrientedLine(point(0, 1), BasicMove(1, 2))
    assert intersect(a, b) is None
    c = OrientedLine(point(2, 4), BasicMove(-1, -2))
    assert intersect(a, c) is None


def test_steiner_two_crossing_lines():
    arr = arrangement([horizontal(), OrientedLine(point(0, 0), BasicMove(0, 1))])
    assert steiner_count(arr) == 4


def test_steiner_three_concurrent():
    arr = arrangement(
        [OrientedLine(point(0, 0), BasicMove(1, s)) for s in (0, 1, -1)]
    )
    assert steiner_count(arr) == 6


def test_steiner_concurrent_pencils():
    for r in range(1, 7):
        lines = [OrientedLine(point(0, 0), BasicMove(1, s)) for s in range(r)]
        assert steiner_count(arrangement(lines)) == 2 * r


def test_steiner_two_piece_arrangement():
    # k = 6 lines, two 3-fold points at the pieces, 6 simple crossings: 17
    arr = configuration_arrangement(TRI, (point(0, 0), point(5, 1)))
    assert steiner_count(arr) == 17


def test_steiner_duplicate_line_rejected():
    with pytest.raises(GeometryError):
        arrangement([horizontal(), OrientedLine(point(3, 0), BasicMove(-1, 0))])


def test_sign_vector_basics():
    assert sign_vector(arrangement([]), point(5, 5)) == ()
    axes = arrangement([horizontal(), OrientedLine(point(0, 0), BasicMove(0, 1))])
    assert sign_vector(axes, point(1, 1)) == (Side.LEFT, Side.RIGHT)
    assert Side.ON in sign_vector(axes, point(0, 3))


def test_representatives_single_line():
    reps = region_representatives(arrangement([horizontal()]))
    assert len(reps) == 2


def test_representatives_two_crossing():
    axes = arrangement([horizontal(), OrientedLine(point(0, 0), BasicMove(0, 1))])
    reps = region_representatives(axes)
    assert len(reps) == 4
    assert len({sign_vector(axes, p) for p in reps}) == 4


def test_representatives_match_steiner_on_two_piece_arrangement():
    arr = configuration_arrangement(TRI, (point(0, 0), point(5, 1)))
    assert len(region_representatives(arr)) == steiner_count(arr)


def test_representatives_equal_steiner_randomized():
    rng = random.Random(20240817)
    for _ in range(150):
        arr = random_arrangement(rng)
        regions = region_sample_points(arr, 1)
        assert len(regions) == steiner_count(arr)
        for sv in regions:
            assert Side.ON not in sv


def test_region_sample_points_multiple_per_region():
    arr = configuration_arrangement(TRI, (point(0, 0), point(5, 1)))
    samples = region_sample_points(arr, 3)
    assert len(samples) == 17
    assert all(1 <= len(pts) <= 3 for pts in samples.values())
    assert sum(len(pts) > 1 for pts in samples.values()) > 10


def test_generic_lines_formula():
    # generic: all pairwise crossings distinct; verified by an in-test solver
    rng = random.Random(7)
    built = 0
    while built < 25:
        k = rng.randint(2, 5)
        lines = []
        for _ in range(k):
            c, d = rng.randint(1, 5), rng.randint(-5, 5)
            lines.append(OrientedLine(point(rng.randint(-9, 9), rng.randint(-9, 9)),
                                      BasicMove(c, d)))
        pts = set()
        ok = True
        count = 0
        for i in range(k):
            for j in range(i + 1, k):
                p = intersect(lines[i], lines[j])
                if not isinstance(p, Point):
                    ok = False
                    break
                pts.add((p.x, p.y))
                count += 1
            if not ok:
                break
        if not ok or len(pts) != count:
            continue
        built += 1
        assert steiner_count(arrangement(lines)) == 1 + k + k * (k - 1) // 2


def test_integer_slab_matches_fraction_reference():
    # same regions in the same order, each with the same points in order
    rng = random.Random(2024)
    for n in range(330):
        arr = random_arrangement(rng)
        samples = 1 + n % 3
        got = region_sample_points(arr, samples)
        want = fraction_region_sample_points(arr, samples)
        assert got == want
        assert list(got) == list(want)


def test_identity_map_fixes_everything():
    identity = LinearMap(1, 0, 0, 1)
    p = point(Fraction(3, 7), -2)
    assert identity.point(p) == p
    assert identity.moveset(QUEEN) == QUEEN


def test_shear_shifts_slopes_by_one():
    shear = LinearMap(1, 0, 1, 1)
    for m in QUEEN.moves:
        image = shear.move(m)
        if m.c != 0:
            assert slope_of(image) == slope_of(m) + 1
        else:
            assert slope_of(image) is INFINITY


def test_singular_linear_map_rejected():
    for entries in ((1, 0, 0, 0), (1, 2, 2, 4), (0, 0, 0, 0), (Fraction(1, 2), 3, 1, 6)):
        with pytest.raises(GeometryError):
            LinearMap(*entries)


def test_linear_map_move_is_primitive():
    m = LinearMap(Fraction(1, 2), 0, 0, Fraction(-1, 3)).move(BasicMove(1, 1))
    assert (m.c, m.d) == (3, -2)


def test_slope_correspondence_zero_two_minustwo():
    src = [Fraction(0), Fraction(2), Fraction(-2)]
    dst = [Fraction(0), Fraction(1), INFINITY]
    lmap = slope_correspondence_map(src, dst)
    image = lmap.moveset(parse_moves("1,0;1,2;1,-2"))
    assert [slope_of(m) for m in image.moves] == dst
    # seeded random triples; INFINITY turns up on either side, and on both
    rng = random.Random(31415)
    pool = [INFINITY, *sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 5)})]
    where_infinity = set()
    for _ in range(300):
        src, dst = rng.sample(pool, 3), rng.sample(pool, 3)
        where_infinity.add((INFINITY in src, INFINITY in dst))
        lmap = slope_correspondence_map(src, dst)
        assert isinstance(lmap, LinearMap)
        for s, t in zip(src, dst):
            u = BasicMove(0, 1) if s is INFINITY else BasicMove(s.denominator, s.numerator)
            assert slope_of(lmap.move(u)) == t
    assert len(where_infinity) == 4


def test_slope_correspondence_input_checks():
    zero, one = Fraction(0), Fraction(1)
    for src, dst in (([zero, one], [zero, one, INFINITY]),
                     ([zero, one, INFINITY], [zero, one]),
                     ([zero, one, zero], [zero, one, INFINITY]),
                     ([zero, one, INFINITY], [INFINITY, one, INFINITY])):
        with pytest.raises(GeometryError):
            slope_correspondence_map(src, dst)


def test_affine_map_preserves_steiner_count():
    lmap = LinearMap(2, 1, 0, 2)
    rng = random.Random(99)
    for _ in range(20):
        arr = random_arrangement(rng)
        image = arrangement([
            OrientedLine(lmap.point(ln.anchor), lmap.move(ln.direction))
            for ln in arr.lines
        ])
        assert steiner_count(image) == steiner_count(arr)


def test_parse_moves_queen():
    assert str(QUEEN) == "1,0;0,1;1,1;1,-1"
    assert parse_moves("2,4") == parse_moves("1,2")


def test_parse_moves_errors():
    for bad in ("", "1", "1,2;", "a,b", "1,2;1,2"):
        with pytest.raises(GeometryError):
            parse_moves(bad)


def test_parse_rational_rejects_decimals():
    assert parse_rational("-7/2") == Fraction(-7, 2)
    with pytest.raises(GeometryError):
        parse_rational("0.5")
    with pytest.raises(GeometryError):
        parse_rational("1e3")


def test_parse_point():
    assert parse_point("1/2,-3") == Point(Fraction(1, 2), Fraction(-3))
    with pytest.raises(GeometryError):
        parse_point("1;2")
