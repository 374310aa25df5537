"""Type-encoding tests: region numbering, T1/T2 conversion, canonicalization,
reorientation.  The queen example table is frozen after checking it against a
float-angle oracle."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from ridertypes.geometry import GeometryError, MoveSet, Point, Side, parse_moves, point
from ridertypes.signature import (
    AttackError,
    Config,
    LabelledType,
    T2Type,
    canonical_unlabelled,
    cone_index,
    cone_of,
    is_nonattacking,
    labelled_type,
    orbit_size,
    region_numbering,
    reorient_type,
    t1_to_t2,
    t2_to_t1,
    type_from_dict,
    type_from_key,
    type_to_dict,
)

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
ROOK = parse_moves("1,0;0,1")
FIG1 = parse_moves("1,0;1,2;1,-2")  # slopes 0 and +-2


def test_region_numbering_rook():
    rays = region_numbering(ROOK)
    assert [(m.c, m.d) for m in rays] == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    # region 1 is the open first quadrant
    assert cone_index(ROOK, (Fraction(3), Fraction(2))) == 1
    assert cone_index(ROOK, (Fraction(-1), Fraction(5))) == 2
    assert cone_index(ROOK, (Fraction(-2), Fraction(-1))) == 3
    assert cone_index(ROOK, (Fraction(1), Fraction(-9))) == 4


def test_region_numbering_fig1_piece():
    rays = region_numbering(FIG1)
    assert len(rays) == 6
    # antipodal pairing: ray k+r is the negative of ray k
    r = FIG1.r
    for k in range(r):
        assert rays[k + r] == rays[k].negated()


def test_cone_antipodal_queen():
    rng = random.Random(5)
    for _ in range(200):
        v = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        if v[0] == 0 or v[1] == 0 or abs(v[0]) == abs(v[1]):
            continue
        k = cone_index(QUEEN, v)
        k_op = cone_index(QUEEN, (-v[0], -v[1]))
        assert k_op == (k + QUEEN.r - 1) % (2 * QUEEN.r) + 1


def test_cone_of_matches_cone_index_and_ray_ranks():
    rng = random.Random(17)
    for ms in (ROOK, QUEEN, FIG1, parse_moves("3,1;5,-2;2,7;7,-3;1,9")):
        rays = [(m.c, m.d) for m in region_numbering(ms)]
        # each ray reads its 0-based rank; the first one wraps to the last cone
        assert [cone_of(rays, x, y) for x, y in rays] == [2 * ms.r] + list(range(1, 2 * ms.r))
        for _ in range(100):
            dx, dy = rng.randint(-20, 20), rng.randint(-20, 20)
            if any(m.c * dy - m.d * dx == 0 for m in ms.moves):
                continue
            assert cone_of(rays, dx, dy) == cone_index(ms, (Fraction(dx), Fraction(dy)))


def test_cone_on_move_line_raises():
    with pytest.raises(AttackError):
        cone_index(QUEEN, (Fraction(2), Fraction(2)))


def test_is_nonattacking():
    assert not is_nonattacking(QUEEN, Config((point(1, 1), point(2, 2))))
    assert is_nonattacking(QUEEN, Config((point(1, 1), point(2, 4))))
    assert is_nonattacking(QUEEN, Config((point(4, 4),)))


def _angle_oracle_region(ms: MoveSet, v) -> int:
    """Float-angle region finder, independent of the exact comparator."""
    def ang(x, y):
        a = math.atan2(y, x)
        return a if a >= 0 else a + 2 * math.pi

    rays = sorted(
        [ang(m.c, m.d) for m in ms.moves] + [ang(-m.c, -m.d) for m in ms.moves]
    )
    target = ang(float(v[0]), float(v[1]))
    count = sum(1 for theta in rays if theta < target - 1e-12)
    return count if count >= 1 else 2 * ms.r


def test_labelled_type_queen_example():
    cfg = Config((point(0, 0), point(3, 1), point(1, 5)))
    t = labelled_type(QUEEN, cfg)
    expected = ((1, 2, 1), (1, 3, 2), (2, 1, 5), (2, 3, 3), (3, 1, 6), (3, 2, 7))
    assert t.entries == expected
    for i, k, region in expected:
        v = cfg.pieces[k - 1] - cfg.pieces[i - 1]
        assert _angle_oracle_region(QUEEN, v) == region


def test_labelled_type_pair_antipodal():
    t = labelled_type(QUEEN, Config((point(0, 0), point(5, 2))))
    assert t.region(2, 1) == (t.region(1, 2) + QUEEN.r - 1) % (2 * QUEEN.r) + 1


def test_labelled_type_attacking_raises_with_details():
    with pytest.raises(AttackError) as err:
        labelled_type(QUEEN, Config((point(0, 0), point(3, 3))))
    assert "attack" in str(err.value)


def test_antipodal_invariant_randomized():
    rng = random.Random(11)
    done = 0
    while done < 2000:
        pieces = tuple(
            Point(Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                  Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
            for _ in range(3)
        )
        if len(set(pieces)) < 3:
            continue
        cfg = Config(pieces)
        if not is_nonattacking(QUEEN, cfg):
            continue
        labelled_type(QUEEN, cfg)  # antipodal invariant asserted on build
        done += 1


def test_translation_invariance():
    rng = random.Random(13)
    base = Config((point(0, 0), point(5, 2), point(2, 7)))
    t0 = labelled_type(QUEEN, base)
    for _ in range(25):
        dx = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        dy = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        moved = Config(tuple(p.translated(dx, dy) for p in base.pieces))
        assert labelled_type(QUEEN, moved).entries == t0.entries


def test_canonical_single_piece():
    t = labelled_type(QUEEN, Config((point(2, 2),)))
    assert t.entries == ()
    assert canonical_unlabelled(t).canonical is t


def test_fig1_two_pieces_three_unlabelled_six_labelled():
    # every region of one piece's arrangement is realizable by the second
    seen_labelled = set()
    seen_unlabelled = set()
    probes = [point(1, 1), point(0, 1), point(-1, 1), point(-1, -1),
              point(0, -1), point(1, -1)]
    for p in probes:
        t = labelled_type(FIG1, Config((point(0, 0), p)))
        seen_labelled.add(t.key())
        seen_unlabelled.add(canonical_unlabelled(t))
    assert len(seen_labelled) == 6
    assert len(seen_unlabelled) == 3


def test_canonical_idempotent_and_permutation_invariant():
    rng = random.Random(17)
    done = 0
    while done < 60:
        pieces = tuple(point(rng.randint(-30, 30), rng.randint(-30, 30))
                       for _ in range(4))
        if len(set(pieces)) < 4:
            continue
        cfg = Config(pieces)
        if not is_nonattacking(QUEEN, cfg):
            continue
        done += 1
        t = labelled_type(QUEEN, cfg)
        canon = canonical_unlabelled(t)
        assert canonical_unlabelled(canon.canonical) == canon
        # relabel by reordering the pieces: piece i of the image is sigma(i)
        orbit = [labelled_type(QUEEN, Config(tuple(pieces[s - 1] for s in sigma)))
                 for sigma in itertools.permutations(range(1, 5))]
        for image in orbit:
            assert canonical_unlabelled(image) == canon
        # the canonical form is the relabelling with the least key
        assert canon.canonical == min(orbit, key=LabelledType.key)
        assert orbit_size(canon) == len({image.key() for image in orbit})


def test_orbit_size_divides_factorial():
    t = labelled_type(QUEEN, Config((point(0, 0), point(3, 1), point(1, 5))))
    u = canonical_unlabelled(t)
    assert math.factorial(3) % orbit_size(u) == 0


def test_reorient_involution():
    for j in range(1, QUEEN.r + 1):
        assert QUEEN.reorient(j).reorient(j) == QUEEN
    t = labelled_type(QUEEN, Config((point(0, 0), point(5, 2), point(2, 7))))
    assert reorient_type(reorient_type(t, QUEEN, 2), QUEEN.reorient(2), 2) == t


def test_reorient_type_preserves_census_sets():
    # the induced map is a bijection on the set of realizable types
    types = set()
    probes = [point(3, 1), point(1, 3), point(-2, 5), point(-4, -1),
              point(5, -2), point(1, -6), point(7, 2), point(-1, -8)]
    for p in probes:
        types.add(labelled_type(QUEEN, Config((point(0, 0), p))).key())
    for j in range(1, QUEEN.r + 1):
        mapped = set()
        for p in probes:
            t = labelled_type(QUEEN, Config((point(0, 0), p)))
            mapped.add(reorient_type(t, QUEEN, j).key())
        assert len(mapped) == len(types)


def test_t2_flip_under_reorientation():
    cfg = Config((point(0, 0), point(5, 2)))
    t = labelled_type(QUEEN, cfg)
    j = 3
    before = t1_to_t2(t, QUEEN)
    after = t1_to_t2(labelled_type(QUEEN.reorient(j), cfg), QUEEN.reorient(j))
    for (i, jj, k, side), (i2, jj2, k2, side2) in zip(before.triples, after.triples):
        assert (i, jj, k) == (i2, jj2, k2)
        if jj == j:
            assert side != side2
        else:
            assert side == side2


def test_t1_t2_round_trip():
    rng = random.Random(23)
    done = 0
    while done < 50:
        pieces = tuple(point(rng.randint(-20, 20), rng.randint(-20, 20))
                       for _ in range(3))
        if len(set(pieces)) < 3:
            continue
        cfg = Config(pieces)
        if not is_nonattacking(QUEEN, cfg):
            continue
        done += 1
        t = labelled_type(QUEEN, cfg)
        assert t2_to_t1(t1_to_t2(t, QUEEN), QUEEN) == t


def test_first_quadrant_sides_for_rook():
    t = labelled_type(ROOK, Config((point(0, 0), point(2, 3))))
    assert t.region(1, 2) == 1
    t2 = t1_to_t2(t, ROOK)
    assert t2.side(1, 1, 2) is Side.LEFT   # above the horizontal move line
    assert t2.side(1, 2, 2) is Side.RIGHT  # right of the upward vertical line
    with pytest.raises(KeyError):
        t2.side(1, 3, 2)


def test_t2_inconsistent_pattern_rejected():
    # for r >= 3 some Left/Right patterns match no cone
    cfg = Config((point(0, 0), point(1, 5)))
    tri = parse_moves("1,0;0,1;1,1")
    t2 = t1_to_t2(labelled_type(tri, cfg), tri)
    patterns = {tuple(side for (_, _, _, side) in t2.triples)}
    bad = []
    for (i, j, k, side) in t2.triples:
        flipped = Side.LEFT if side is Side.RIGHT else Side.RIGHT
        bad.append((i, j, k, flipped if j == 2 else side))
    # flipping a single line's side inside a quadrant-like cone can land on a
    # pattern matching no region; check the error path fires for some pattern
    candidates = []
    for sides in itertools.product((Side.LEFT, Side.RIGHT), repeat=3):
        triples = []
        for j, s in enumerate(sides, start=1):
            triples.append((1, j, 2, s))
            opp = Side.LEFT if s is Side.RIGHT else Side.RIGHT
            triples.append((2, j, 1, opp))
        candidates.append(T2Type(2, 3, tuple(triples)))
    failures = 0
    for cand in candidates:
        try:
            t2_to_t1(cand, tri)
        except GeometryError:
            failures += 1
    assert failures == 2 ** 3 - 2 * 3  # 2r of 2^r patterns are realizable


def test_antipodal_violation_rejected():
    with pytest.raises(GeometryError):
        LabelledType(2, 2, ((1, 2, 1), (2, 1, 2)))


def test_serialization_round_trip():
    t = labelled_type(QUEEN, Config((point(0, 0), point(3, 1), point(1, 5))))
    data = type_to_dict(t)
    assert data["entries"] == sorted(data["entries"])
    assert type_from_dict(json.loads(json.dumps(type_to_dict(t)))) == t


def test_type_from_key_round_trip():
    rng = random.Random(8)
    done = 0
    while done < 200:
        ms = rng.choice((QUEEN, ROOK, FIG1))
        q = rng.randint(1, 5)
        pieces = tuple(point(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(q))
        if len(set(pieces)) < q or not is_nonattacking(ms, Config(pieces)):
            continue
        t = labelled_type(ms, Config(pieces))
        assert type_from_key(t.key(), t.q, t.r) == t
        u = canonical_unlabelled(t).canonical
        assert type_from_key(u.key(), u.q, u.r) == u
        done += 1
