"""Finite-field engine tests against naive exhaustive oracles."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    brute_force_direction_group,
    fraction_lagrange,
    naive_torus_count,
    naive_uncovered,
    random_line_set,
    unweighted_torus_count,
)

from ridertypes import finitefield
from ridertypes.cli import PIECES, family_movesets, main
from ridertypes.finitefield import (
    MAX_PRIME,
    CharPoly,
    ExceptionalPrimeError,
    char_poly,
    direction_group,
    direction_orbits,
    ff_type_count,
    interpolate,
    is_prime,
    last_level_count,
    torus_count,
    valid_prime,
    valid_primes_from,
    valid_torus_count,
    window_size,
)
from ridertypes.formulas import known_types, t3_closed_form
from ridertypes.geometry import GeometryError, parse_moves

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
ROOK = parse_moves("1,0;0,1")
TRIDENT = parse_moves("0,1;1,1;1,-1")
SEMIQUEEN = parse_moves("1,0;0,1;1,1")
NIGHTRIDER = parse_moves("1,2;2,1;1,-2;2,-1")
THIRD = parse_moves("1,0;1,2;1,-2")

# The named pieces, a generic 4-move rider and the r = 5 and r = 6 family
# sets: over the primes up to 23 their direction groups have orders 1 to 120.
ORBIT_CASES = (
    [parse_moves(text) for text in PIECES.values()]
    + [parse_moves("1,0;0,1;1,1;1,3")] + family_movesets(5) + family_movesets(6)
)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _random_riders(rng, count):
    # `count` riders of 1, 2, ..., 6, 1, ... moves (c, d) with |c|, |d| <= 9
    riders = []
    while len(riders) < count:
        moves = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(len(riders) % 6 + 1)]
        try:
            riders.append(parse_moves(";".join(f"{c},{d}" for c, d in moves)))
        except GeometryError:  # a zero, non-primitive or parallel move
            pass
    return riders


# q = 2, 3 and 4, where `pinned_count` counts pieces 3 to q from the two
# pinned stars: the named pieces, the generic 4-move rider, the family sets
# for r = 1..6 and seeded random riders, over every valid prime up to 59
Q4_CASES = (
    [parse_moves(text) for text in PIECES.values()] + [parse_moves("1,0;0,1;1,1;1,3")]
    + [ms for r in range(1, 7) for ms in family_movesets(r)]
    + _random_riders(random.Random(20261021), 30)
)
Q4_PRIMES = [p for p in range(60) if is_prime(p)]


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_valid_prime_examples():
    assert not valid_prime(QUEEN, 2)   # slopes 1 and -1 collide mod 2
    assert valid_prime(QUEEN, 5)
    assert not valid_prime(NIGHTRIDER, 3)  # cross product 1*1 - 2*2 = -3
    assert not valid_prime(QUEEN, 9)   # not prime


def test_valid_primes_from():
    assert valid_primes_from(QUEEN, 11, 4) == [11, 13, 17, 19]
    assert valid_primes_from(NIGHTRIDER, 2, 3) == [7, 11, 13]


def test_torus_count_single_piece():
    for p in (3, 5, 11):
        assert torus_count(TRIDENT, 1, p) == p * p


def test_torus_count_q2_closed_form():
    # r lines through a fixed point cover r(p-1)+1 cells
    for ms in (ROOK, TRIDENT, QUEEN):
        for p in (5, 7, 11, 13):
            if not valid_prime(ms, p):
                continue
            r = ms.r
            assert torus_count(ms, 2, p) == p * p * (p * p - r * p + r - 1)


def test_torus_count_matches_naive_oracle():
    cases = [
        (ROOK, 1, 3), (ROOK, 2, 3), (ROOK, 2, 5), (ROOK, 3, 5),
        (TRIDENT, 2, 5), (TRIDENT, 3, 5), (TRIDENT, 3, 7),
        (QUEEN, 2, 5), (QUEEN, 3, 5), (QUEEN, 3, 7),
        (NIGHTRIDER, 2, 7), (NIGHTRIDER, 3, 7),
        (TRIDENT, 4, 5), (TRIDENT, 4, 7), (QUEEN, 4, 5), (QUEEN, 4, 7),
    ]
    for ms, q, p in cases:
        assert valid_prime(ms, p)
        assert torus_count(ms, q, p) == naive_torus_count(ms, q, p)


def test_torus_count_divisibility_and_bound():
    for ms, q, p in ((QUEEN, 3, 11), (TRIDENT, 4, 7)):
        count = torus_count(ms, q, p)
        assert count % (p * p) == 0
        assert count <= p ** (2 * q)


def test_torus_count_invalid_prime_rejected():
    with pytest.raises(GeometryError):
        torus_count(QUEEN, 2, 2)


def test_prime_ceiling():
    assert valid_primes_from(QUEEN, MAX_PRIME - 20, 2) == [239, 241]
    with pytest.raises(GeometryError):
        valid_primes_from(QUEEN, 10**11, 2)  # rejected before any prime search
    with pytest.raises(GeometryError):
        valid_primes_from(QUEEN, MAX_PRIME - 20, 5)  # the search would pass it
    with pytest.raises(GeometryError):
        torus_count(QUEEN, 2, 263)  # the prime after MAX_PRIME


def test_torus_counts_meet_the_invariant():
    # the named riders at q <= 4 over every valid p <= 23; count +- 1 fails it
    for ms in map(parse_moves, PIECES.values()):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if not valid_prime(ms, p):
                continue
            for q in (1, 2, 3, 4):
                count = torus_count(ms, q, p)
                assert valid_torus_count(q, p, count), (str(ms), q, p)
                assert not valid_torus_count(q, p, count + 1), (str(ms), q, p)
                assert not valid_torus_count(q, p, count - 1), (str(ms), q, p)


def test_weighted_torus_count_matches_one_direction_each():
    for ms in ORBIT_CASES:
        for p in SMALL_PRIMES:
            if not valid_prime(ms, p):
                continue
            for q in (2, 3, 5):
                if q == 5 and p > 13:
                    continue
                assert torus_count(ms, q, p) == unweighted_torus_count(ms, q, p), \
                    (str(ms), q, p)
    pairs = 0
    for ms in Q4_CASES:
        for p in Q4_PRIMES:
            if valid_prime(ms, p):
                for q in (2, 3, 4):
                    assert torus_count(ms, q, p) == unweighted_torus_count(ms, q, p), \
                        (str(ms), q, p)
                pairs += 1
    assert pairs > 900


def test_torus_count_q4_builds_no_line_masks(monkeypatch):
    def no_masks(ms, p):
        raise AssertionError("torus_line_masks called at q <= 4")

    monkeypatch.setattr(finitefield, "torus_line_masks", no_masks)
    for ms in ORBIT_CASES:
        for p in (11, 13, 29):
            if valid_prime(ms, p):
                for q in (2, 3, 4):
                    assert valid_torus_count(q, p, torus_count(ms, q, p)), (str(ms), q, p)
    with pytest.raises(AssertionError):
        torus_count(QUEEN, 5, 11)  # q = 5 still counts on the masks


def _direction(x, y, p):
    # (0, 1) or (1, t) on the line through the origin and (x, y)
    x, y = x % p, y % p
    return (0, 1) if x == 0 else (1, y * pow(x, -1, p) % p)


def test_direction_group_permutes_the_move_directions():
    for ms in ORBIT_CASES:
        for p in SMALL_PRIMES:
            if not valid_prime(ms, p):
                continue
            directions = [(0, 1)] + [(1, t) for t in range(p)]
            moves = {_direction(m.c, m.d, p) for m in ms.moves}
            group = direction_group(ms, p)
            perms = set()
            for a, b, c, d in group:
                perm = tuple(_direction(a * x + b * y, c * x + d * y, p)
                             for x, y in directions)
                assert sorted(perm) == directions, (str(ms), p)
                assert {_direction(a * x + b * y, c * x + d * y, p)
                        for x, y in moves} == moves, (str(ms), p)
                perms.add(perm)
            assert len(perms) == len(group)
            assert tuple(directions) in perms  # the identity
            index = {u: i for i, u in enumerate(directions)}
            for f, g in itertools.product(perms, repeat=2):
                assert tuple(f[index[v]] for v in g) in perms, (str(ms), p)
            orbits = direction_orbits(ms, p)
            assert sum(orbits.values()) == p + 1 - ms.r, (str(ms), p)
            assert all(len(group) % size == 0 for size in orbits.values())


def test_direction_group_is_every_matrix_permuting_the_moves():
    # as permutations of the directions, the group is exactly the set of
    # invertible matrices that permute the move directions; below three
    # moves it is the identity alone (`test_direction_group_orders`)
    for ms in (ms for ms in ORBIT_CASES if ms.r >= 3):
        for p in (5, 7, 11, 13):
            if not valid_prime(ms, p):
                continue
            directions = [(0, 1)] + [(1, t) for t in range(p)]
            perms = {tuple(_direction(a * x + b * y, c * x + d * y, p) for x, y in directions)
                     for a, b, c, d in direction_group(ms, p)}
            assert perms == brute_force_direction_group(ms, p), (str(ms), p)


def test_direction_group_orders():
    for ms in (SEMIQUEEN, TRIDENT, THIRD):
        assert len(direction_group(ms, 11)) == 6
    assert len(direction_group(QUEEN, 11)) == 8
    assert len(direction_group(NIGHTRIDER, 11)) == 4
    assert len(direction_group(NIGHTRIDER, 13)) == 12
    assert len(direction_group(family_movesets(6, 1)[0], 11)) == 12
    assert direction_group(ROOK, 11) == [(1, 0, 0, 1)]


def test_last_level_single_line():
    for p in (5, 11):
        assert last_level_count(p, [(1, 2, 3)]) == p * p - p


def test_last_level_concurrent_lines():
    # r distinct lines through the origin cover r(p-1)+1 points
    p = 11
    lines = [(1, 1, 0), (1, 2, 0), (1, 3, 0), (0, 1, 0)]
    assert last_level_count(p, lines) == p * p - 4 * (p - 1) - 1


def test_last_level_duplicate_rejected():
    with pytest.raises(GeometryError):
        last_level_count(5, [(1, 2, 3), (2, 4, 6)])


def test_last_level_matches_naive_randomized():
    rng = random.Random(314)
    for _ in range(1500):
        p = rng.choice((3, 5, 7, 11, 13))
        lines = random_line_set(rng, p, rng.randint(1, 7))
        assert last_level_count(p, lines) == naive_uncovered(p, lines)


def counted(ms, q, primes):
    """`primes` and the torus count of each, as `char_poly` takes them."""
    return primes, {p: torus_count(ms, q, p) for p in primes}


def test_char_poly_q1():
    poly = char_poly(1, *counted(TRIDENT, 1, valid_primes_from(TRIDENT, 3, 4)))
    assert poly.coefficients == (0, 0, 1)


def test_char_poly_q2_queen():
    # t^2 (t - 1) (t - 3)
    poly = char_poly(2, *counted(QUEEN, 2, valid_primes_from(QUEEN, 5, 7)))
    assert poly.coefficients == (0, 0, 3, -4, 1)
    assert poly(-1) == 8


NOT_DIVISIBLE = r"not divisible by p\^2 \(p - 1\)"


def test_char_poly_validates_held_out_primes():
    primes, counts = counted(QUEEN, 2, valid_primes_from(QUEEN, 5, 8))
    last = primes[-1]
    # off by one breaks divisibility by p^2 (p - 1); off by p^2 (p - 1)
    # reaches the fit at the validation prime
    for error in (1, last * last * (last - 1)):
        bad = dict(counts)
        bad[last] += error  # corrupt one validation prime
        with pytest.raises(ExceptionalPrimeError) as err:
            char_poly(2, primes, bad)
        assert str(last) in str(err.value)


def test_char_poly_rejects_non_integer_coefficients():
    primes, counts = counted(QUEEN, 2, valid_primes_from(QUEEN, 5, 7))
    counts[primes[0]] += 1  # one interpolation prime off by one
    with pytest.raises(ExceptionalPrimeError, match=NOT_DIVISIBLE):
        char_poly(2, primes, counts)
    # off by p^2 (p - 1) instead, at q = 3, where h has degree 2
    primes, counts = counted(QUEEN, 3, valid_primes_from(QUEEN, 5, 5))
    counts[primes[0]] += primes[0] ** 2 * (primes[0] - 1)
    with pytest.raises(ExceptionalPrimeError, match="non-integer coefficients"):
        char_poly(3, primes, counts)


def test_char_poly_rejects_non_monic():
    # a doubled chi is still divisible by t^2 (t - 1), so it gets as far as
    # the validation primes
    primes, counts = counted(QUEEN, 2, valid_primes_from(QUEEN, 5, 7))
    doubled = {p: 2 * count for p, count in counts.items()}
    with pytest.raises(ExceptionalPrimeError, match="validation prime 7 disagrees"):
        char_poly(2, primes, doubled)


def test_char_poly_rejects_no_t_squared_factor():
    primes, counts = counted(QUEEN, 2, valid_primes_from(QUEEN, 5, 7))
    for shift in ({p: 7 for p in primes}, {p: 3 * p for p in primes}):
        shifted = {p: count + shift[p] for p, count in counts.items()}
        with pytest.raises(ExceptionalPrimeError, match=NOT_DIVISIBLE):
            char_poly(2, primes, shifted)


def test_char_poly_rejects_any_two_wrong_counts():
    # a wrong count that keeps the torus counts' divisibility, by p^2 (p - 1)
    # and (q - 2)!, at any 1 or 2 primes of a window is rejected
    for q in (2, 3, 4):
        window = valid_primes_from(SEMIQUEEN, 11, window_size(q))
        primes, counts = counted(SEMIQUEEN, q, window)
        chi = char_poly(q, primes, counts)
        assert all(chi(p) == counts[p] for p in primes)
        for k in (1, 2):
            for wrong in itertools.combinations(primes, k):
                for factors in itertools.product((-2, -1, 1, 2), repeat=k):
                    bad = dict(counts)
                    for p, m in zip(wrong, factors):
                        bad[p] += m * p * p * (p - 1) * math.factorial(q - 2)
                    with pytest.raises(ExceptionalPrimeError):
                        char_poly(q, primes, bad)


def test_interpolate_matches_fraction_lagrange():
    rng = random.Random(2718)
    for _ in range(300):
        xs = rng.sample(range(-40, 60), rng.randint(1, 11))
        points = [(x, rng.randint(-10**12, 10**12)) for x in xs]
        nums, den = interpolate(points)
        assert den > 0
        assert [Fraction(n, den) for n in nums] == fraction_lagrange(points)


def test_char_poly_needs_enough_primes():
    primes, counts = counted(QUEEN, 3, [5, 7, 11])
    with pytest.raises(GeometryError):
        char_poly(3, primes, counts)


def test_chi_at_minus_one_r3_q3():
    poly = char_poly(3, *counted(TRIDENT, 3, valid_primes_from(TRIDENT, 5, 8)))
    assert poly(-1) == 102  # 17 unlabelled types, q! = 6 labelings each


def test_ff_type_count_small_q():
    for ms in (ROOK, TRIDENT, QUEEN, NIGHTRIDER):
        for q, expected in ((1, (1, 1)), (2, (2 * ms.r, ms.r))):
            result = ff_type_count(ms, q)
            assert (result.labelled, result.unlabelled) == expected


def test_ff_type_count_q3_closed_form():
    movesets = {
        1: parse_moves("1,0"),
        2: ROOK,
        3: TRIDENT,
        4: QUEEN,
        5: parse_moves("1,0;0,1;1,1;1,-1;1,2"),
        6: family_movesets(6)[0],
    }
    for r, ms in movesets.items():
        result = ff_type_count(ms, 3)
        assert result.unlabelled == t3_closed_form(r)
        assert result.labelled == 6 * result.unlabelled
        # chi_3(t) = t^2 (t - 1)(t + 1 - r)((t - r)^2 + r - 2), ascending
        chi = [0, 0, r * r + r - 2, -2 * r, 1]  # t^2 ((t - r)^2 + r - 2)
        for root in (1, r - 1):  # times t - root
            chi = [lo - root * hi for lo, hi in zip([0, *chi], [*chi, 0])]
        assert list(result.poly.coefficients) == chi, r
        assert result.poly(-1) == 6 * t3_closed_form(r)


def test_ff_type_count_report():
    result = ff_type_count(QUEEN, 2)
    assert result.labelled == 8
    assert result.unlabelled == 4
    assert result.poly.degree == 4
    assert list(result.counts) == valid_primes_from(QUEEN, 11, window_size(2))
    for p, count in result.counts.items():
        assert result.poly(p) == count


def test_ff_semiqueen_q5_matches_golden(tmp_path, capsys):
    # the first cases past the closed forms that the ff engine computes: the
    # three 3-move riders share one polynomial, and queens give 14206.  They
    # run through the CLI, which spreads the 9 per-prime counts of q = 5
    # over a process pool on a host with two or more CPUs, and caches them
    # in one entry
    chi = [0, 0, 27072, -70200, 72610, -40740, 13862, -2970, 395, -30, 1]
    for i, ms in enumerate((SEMIQUEEN, TRIDENT, THIRD, QUEEN)):
        cache = tmp_path / str(i)
        code = main(["--cache-dir", str(cache), "types", "--moves", str(ms),
                     "--q", "5", "--check"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, str(ms)
        expected = known_types(5, ms.r)[0]
        assert report["unlabelled"] == expected == (1899 if ms.r == 3 else 14206)
        assert report["labelled"] == 120 * expected
        assert (report["charpoly"] == chi) == (ms.r == 3), str(ms)
        (entry,) = cache.iterdir()
        value = json.loads(entry.read_text())["value"]
        assert value == {str(p): c for p, c in report["prime_counts"].items()}
        assert len(value) == window_size(5) == 9


# chi of the q = 6 configuration arrangement, ascending coefficients, as
# `types --engine ff --q 6 --check` fits it at the 11 primes 11..47 (9
# fitted, 2 held out): the semiqueen's gives Kotesovec's starred 31709 types
# and the queens' the queen-only 501552, each in about 5 min on two workers
Q6_CHI = {
    SEMIQUEEN: [0, 0, 2397600, -6466680, 7155532, -4462170, 1773510, -475290,
                87682, -11055, 915, -45, 1],
    QUEEN: [0, 0, 65604720, -134523360, 102638238, -43747560, 12016755,
            -2260620, 297361, -27120, 1645, -60, 1],
}


def test_q6_torus_counts_match_the_recorded_chi():
    for ms, chi in Q6_CHI.items():
        def at(t):
            return sum(c * t ** k for k, c in enumerate(chi))

        assert at(-1) == math.factorial(6) * known_types(6, ms.r)[0], str(ms)
        # chi = t^2 (t - 1) g with g monic of degree 9, the form `char_poly`
        # fits: divide t^2 out, then t - 1 by synthetic division
        assert chi[:2] == [0, 0], str(ms)
        g = [chi[-1]]
        for c in reversed(chi[3:-1]):
            g.append(c + g[-1])
        assert chi[2] + g[-1] == 0, str(ms)
        assert len(g) == 10 and g[0] == 1, str(ms)
        for p in (11, 13, 17):
            assert torus_count(ms, 6, p) == at(p), (str(ms), p)


def test_ff_accepts_precomputed_counts(monkeypatch):
    primes = valid_primes_from(TRIDENT, 11, window_size(2))
    counts = {p: torus_count(TRIDENT, 2, p) for p in primes}
    asked = []

    def count(ps):
        asked.append(ps)
        return {p: counts[p] for p in ps}

    def no_count(*args):
        raise AssertionError("torus_count ran")

    monkeypatch.setattr(finitefield, "torus_count", no_count)
    result = ff_type_count(TRIDENT, 2, count=count)
    assert result.unlabelled == 3
    assert asked == [primes]


def test_charpoly_eval():
    poly = CharPoly((0, 0, 3, -4, 1))
    assert poly(0) == 0
    assert poly(1) == 0
    assert poly(3) == 0
    assert poly(10) == 100 * (10 - 1) * (10 - 3)


def test_three_move_riders_agree_for_small_q():
    # the q = 4 agreement (151 each) runs in the acceptance suite
    for q in (1, 2, 3):
        counts = {}
        for ms in (SEMIQUEEN, TRIDENT, THIRD):
            result = ff_type_count(ms, q)
            counts[str(ms)] = (result.labelled, result.unlabelled)
        assert len(set(counts.values())) == 1, (q, counts)


def test_window_sizes():
    assert [window_size(q) for q in range(1, 7)] == [2, 3, 5, 7, 9, 11]


def recorded_windows(monkeypatch) -> list[tuple[int, int]]:
    """The first and last primes of each window that `char_poly` is given
    from now on, in order."""
    windows = []
    real = finitefield.char_poly

    def recording(q, primes, counts):
        windows.append((primes[0], primes[-1]))
        return real(q, primes, counts)

    monkeypatch.setattr(finitefield, "char_poly", recording)
    return windows


def test_nightrider_q4_windows(monkeypatch):
    # the nightrider's counts at 7, 17 and 41 are not chi(p), so the windows
    # 11..31 and 37..61 are rejected, and 67..97 gives 576
    windows = recorded_windows(monkeypatch)
    result = ff_type_count(NIGHTRIDER, 4)
    assert windows == [(11, 31), (37, 61), (67, 97)]
    assert result.unlabelled == 576
    assert list(result.counts) == valid_primes_from(NIGHTRIDER, 67, window_size(4))
    bad = {p for p in valid_primes_from(NIGHTRIDER, 2, 22)
           if torus_count(NIGHTRIDER, 4, p) != result.poly(p)}
    assert bad == {7, 17, 41}


def test_five_move_riders_at_q4(monkeypatch):
    # r = 5 type counts at q = 4.  The third rider has an exceptional prime in
    # every window from the default floor 11; from floor 101 the window
    # 101..131 is rejected and 137..167 is accepted
    assert ff_type_count(parse_moves("1,0;0,1;1,1;1,-1;1,2"), 4).unlabelled == 1659
    assert ff_type_count(parse_moves("2,3;3,-2;1,5;5,1;1,-5"), 4).unlabelled == 1663
    windows = recorded_windows(monkeypatch)
    result = ff_type_count(parse_moves("1,2;2,1;1,-2;2,-1;1,4"), 4, prime_floor=101)
    assert result.unlabelled == 1665
    assert windows == [(101, 131), (137, 167)]
