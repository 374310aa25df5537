"""Type-encoding tests: region numbering, cone side masks, canonicalization,
reorientation.  The queen example table is frozen after checking it against a
float-angle oracle."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import cone_of

from ridertypes.cli import PIECES, family_movesets
from ridertypes.geometry import (
    ORIGIN, GeometryError, MoveSet, Point, move_lines, parse_moves, point,
    region_masks,
)
from ridertypes.signature import (
    AttackError,
    Config,
    LabelledType,
    canonical_unlabelled,
    cone_index,
    cone_of_mask,
    cone_patterns,
    is_nonattacking,
    key_from_cones,
    labelled_type,
    orbit_size,
    region_numbering,
    reorient_type,
)

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
ROOK = parse_moves("1,0;0,1")
FIG1 = parse_moves("1,0;1,2;1,-2")  # slopes 0 and +-2
MOVESETS = ([parse_moves(moves) for moves in PIECES.values()]
            + [ms for r in range(1, 7) for ms in family_movesets(r)])


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


def test_cone_of_mask_inverts_cone_patterns():
    for ms in MOVESETS:
        masks = cone_patterns(ms)
        # 2r of the 2^r side masks are cones, each one once
        assert len(masks) == len(set(masks)) == 2 * ms.r, str(ms)
        assert all(0 <= mask < 1 << ms.r for mask in masks), str(ms)
        assert cone_of_mask(ms) == {mask: g for g, mask in enumerate(masks, start=1)}, str(ms)


def test_cone_patterns_are_the_region_masks_around_a_piece():
    # geometry's sweep and signature's cone table agree on the regions of one
    # piece's move lines, on their masks, and on the cone of each region
    for ms in MOVESETS:
        found = region_masks([ln.int_coefficients() for ln in move_lines(ms, ORIGIN)])
        assert set(found) == set(cone_patterns(ms)), str(ms)
        for mask, pts in found.items():
            for xa, xb, y, den in pts:
                v = (Fraction(xa, xb), Fraction(y, den))
                assert cone_index(ms, v) == cone_of_mask(ms)[mask], (str(ms), v)


def test_key_from_cones_matches_labelled_type():
    # placement order: (1, 2), (1, 3), (2, 3), (1, 4), ..., one cone per pair i < k
    rng = random.Random(23)
    for moves in PIECES.values():
        ms = parse_moves(moves)
        for q in (1, 2, 3, 4):
            checked = 0
            while checked < 30:
                pieces = tuple({point(rng.randint(-30, 30), rng.randint(-30, 30))
                                for _ in range(q)})
                if len(pieces) < q or not is_nonattacking(ms, Config(pieces)):
                    continue
                cones = [cone_index(ms, pieces[k] - pieces[i])
                         for k in range(q) for i in range(k)]
                assert key_from_cones(q, ms.r, cones) == \
                    labelled_type(ms, Config(pieces)).key, (moves, pieces)
                checked += 1


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
    assert canonical_unlabelled(t) is t


def test_fig1_two_pieces_three_unlabelled_six_labelled():
    # every region of one piece's arrangement is realizable by the second
    seen_labelled = set()
    seen_unlabelled = set()
    probes = [point(1, 1), point(0, 1), point(-1, 1), point(-1, -1),
              point(0, -1), point(1, -1)]
    for p in probes:
        t = labelled_type(FIG1, Config((point(0, 0), p)))
        seen_labelled.add(t.key)
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
        assert canonical_unlabelled(canon) == canon
        # relabel by reordering the pieces: piece i of the image is sigma(i)
        orbit = [labelled_type(QUEEN, Config(tuple(pieces[s - 1] for s in sigma)))
                 for sigma in itertools.permutations(range(1, 5))]
        for image in orbit:
            assert canonical_unlabelled(image) == canon
        # the canonical form is the relabelling with the least key
        assert canon == min(orbit, key=lambda image: image.key)
        assert orbit_size(canon) == len({image.key for image in orbit})


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
        types.add(labelled_type(QUEEN, Config((point(0, 0), p))).key)
    for j in range(1, QUEEN.r + 1):
        mapped = set()
        for p in probes:
            t = labelled_type(QUEEN, Config((point(0, 0), p)))
            mapped.add(reorient_type(t, QUEEN, j).key)
        assert len(mapped) == len(types)


def test_reorientation_flips_one_bit_of_every_cone_mask():
    for ms in MOVESETS:
        for j in range(1, ms.r + 1):
            flipped = tuple(mask ^ 1 << (j - 1) for mask in cone_patterns(ms))
            assert cone_patterns(ms.reorient(j)) == flipped, (str(ms), j)


def test_first_quadrant_sides_for_rook():
    t = labelled_type(ROOK, Config((point(0, 0), point(2, 3))))
    assert t.region(1, 2) == 1
    # Left of (above) the horizontal move line, Right of the upward vertical one
    assert cone_patterns(ROOK)[t.region(1, 2) - 1] == 0b10


def test_antipodal_violation_rejected():
    with pytest.raises(GeometryError):
        LabelledType(2, 2, (1, 2))


def test_entries_list_each_pairs_region_random():
    rng = random.Random(8)
    done = 0
    while done < 200:
        ms = rng.choice((QUEEN, ROOK, FIG1))
        q = rng.randint(1, 5)
        pieces = tuple(point(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(q))
        if len(set(pieces)) < q or not is_nonattacking(ms, Config(pieces)):
            continue
        t = labelled_type(ms, Config(pieces))
        assert all(t.region(i, k) == g for i, k, g in t.entries)
        done += 1
