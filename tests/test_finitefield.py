"""Finite-field engine tests against naive exhaustive oracles."""

from __future__ import annotations

import random

import pytest

from oracles import naive_torus_count, naive_uncovered, random_line_set

from ridertypes import finitefield
from ridertypes.cli import PIECES
from ridertypes.finitefield import (
    MAX_PRIME,
    CharPoly,
    ExceptionalPrimeError,
    char_poly,
    ff_type_count,
    is_prime,
    last_level_count,
    torus_count,
    valid_prime,
    valid_primes_from,
    valid_torus_count,
)
from ridertypes.formulas import known_types, t3_closed_form
from ridertypes.geometry import GeometryError, parse_moves

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
ROOK = parse_moves("1,0;0,1")
TRIDENT = parse_moves("0,1;1,1;1,-1")
SEMIQUEEN = parse_moves("1,0;0,1;1,1")
NIGHTRIDER = parse_moves("1,2;2,1;1,-2;2,-1")


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


def test_char_poly_validates_held_out_primes():
    primes = valid_primes_from(QUEEN, 5, 8)
    counts = {p: torus_count(QUEEN, 2, p) for p in primes}
    counts[primes[-1]] += 1  # corrupt one validation prime
    with pytest.raises(ExceptionalPrimeError) as err:
        char_poly(2, primes, counts)
    assert str(primes[-1]) in str(err.value)


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
    }
    for r, ms in movesets.items():
        result = ff_type_count(ms, 3)
        assert result.unlabelled == t3_closed_form(r)
        assert result.labelled == 6 * result.unlabelled


def test_ff_type_count_report():
    result = ff_type_count(QUEEN, 2)
    assert result.labelled == 8
    assert result.unlabelled == 4
    assert result.poly.degree == 4
    assert list(result.counts) == valid_primes_from(QUEEN, 11, 7)
    for p, count in result.counts.items():
        assert result.poly(p) == count


def test_ff_semiqueen_q5_matches_golden():
    # the first case past the closed forms that the ff engine computes
    result = ff_type_count(SEMIQUEEN, 5)
    assert result.unlabelled == known_types(5, 3)[0] == 1899
    assert result.labelled == 120 * 1899


def test_ff_accepts_precomputed_counts(monkeypatch):
    primes = valid_primes_from(TRIDENT, 11, 7)
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
    third = parse_moves("1,0;1,2;1,-2")
    for q in (1, 2, 3):
        counts = {}
        for ms in (SEMIQUEEN, TRIDENT, third):
            result = ff_type_count(ms, q)
            counts[str(ms)] = (result.labelled, result.unlabelled)
        assert len(set(counts.values())) == 1, (q, counts)
