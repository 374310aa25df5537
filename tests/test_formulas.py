from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from oracles import fraction_lagrange

from ridertypes.finitefield import interpolate
from ridertypes.formulas import (
    EXACT,
    KOTESOVEC,
    QUEEN_ONLY,
    QuasiPoly,
    eval_quasipoly,
    find_period,
    fit_quasipoly,
    golden_types,
    known_types,
    parse_bfile,
    t3_closed_form,
    types_at_minus_one,
    types_from_counts,
)
from ridertypes.geometry import GeometryError, parse_moves

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")


def brute_queen_pairs(n: int) -> int:
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    sets = 0
    for a, b in itertools.combinations(cells, 2):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx != 0 and dy != 0 and dx != dy and dx != -dy:
            sets += 1
    return 2 * sets  # labelled


def test_t3_closed_form_values():
    assert t3_closed_form(1) == 1
    assert t3_closed_form(3) == 17
    assert t3_closed_form(4) == 36
    with pytest.raises(GeometryError):
        t3_closed_form(0)


def test_t3_matches_golden_table():
    for r in range(2, 7):
        value, annotation = known_types(3, r)
        assert annotation == EXACT
        assert t3_closed_form(r) == value


def test_known_types_entries():
    assert known_types(3, 5) == (65, EXACT)
    assert known_types(4, 3) == (151, KOTESOVEC)
    assert known_types(4, 4) == (574, QUEEN_ONLY)
    assert known_types(5, 5) is None
    assert known_types(7, 2) is None


def test_golden_columns():
    for q in range(1, 7):
        assert known_types(q, 1) == (1, EXACT)
        assert known_types(q, 2) == (math.factorial(q), EXACT)


def _linear_image(moves: str, a: int, b: int, c: int, d: int) -> str:
    return ";".join(f"{a * x + b * y},{c * x + d * y}"
                    for x, y in (map(int, m.split(",")) for m in moves.split(";")))


def test_queen_only_entries_follow_the_queen_class():
    images = 0
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4):
        if abs(a * d - b * c) == 1:
            for order in itertools.permutations(str(QUEEN).split(";")):
                ms = parse_moves(_linear_image(";".join(order), a, b, c, d))
                assert golden_types(ms, 4) == (574, QUEEN_ONLY), str(ms)
            images += 1
    assert images == 40
    # harmonic sets that are no unimodular image of the queen: still its class
    for moves in ("1,0;0,1;1,2;1,-2", "1,0;0,1;1,1;1,2", _linear_image(str(QUEEN), 2, 1, 0, 3)):
        assert golden_types(parse_moves(moves), 5) == (14206, QUEEN_ONLY), moves
    # the nightrider (cross-ratio 16/25) and other 4-move riders are not
    for moves in ("1,2;2,1;1,-2;2,-1", "1,0;0,1;1,1;1,3", "3,1;5,-2;2,7;7,-3"):
        assert [golden_types(parse_moves(moves), q) for q in (4, 5, 6)] == [None] * 3
        # entries of other kinds apply to every move set
        assert golden_types(parse_moves(moves), 3) == (36, EXACT)
    assert known_types(4, 4) == (574, QUEEN_ONLY)


def test_types_at_minus_one():
    assert types_at_minus_one(Fraction(12), 3, "labelled") == (12, 2)
    assert types_at_minus_one(Fraction(2), 3, "unlabelled") == (12, 2)
    # off the integers, not divisible by 3!, or below 1: every rider has a type
    for value, kind in ((Fraction(13, 2), "labelled"), (Fraction(13, 2), "unlabelled"),
                        (Fraction(13), "labelled"), (Fraction(0), "unlabelled"),
                        (Fraction(-1), "unlabelled"), (Fraction(0), "labelled"),
                        (Fraction(-6), "labelled")):
        with pytest.raises(GeometryError):
            types_at_minus_one(value, 3, kind)


def test_quasipoly_eval():
    square = QuasiPoly(1, ((0, 0, 1),))
    assert eval_quasipoly(square, -1) == 1
    assert eval_quasipoly(square, 7) == 49


def test_quasipoly_degree_trims_zeros():
    qp = QuasiPoly(2, ((1, 2, 0, 0), (5,)))
    assert qp.degree == 1
    assert qp.constituents[0] == (Fraction(1), Fraction(2))


def test_fit_square_numbers():
    data = [(n, n * n) for n in range(1, 8)]
    qp = fit_quasipoly(data, 1, 2)
    assert qp.constituents == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_fit_period_two_toy():
    def toy(n):
        return n * n + 1 if n % 2 == 0 else 2 * n * n - 3

    data = [(n, toy(n)) for n in range(1, 13)]
    qp = fit_quasipoly(data, 2, 2)
    assert eval_quasipoly(qp, 20) == 401
    assert eval_quasipoly(qp, 21) == 879
    # n = -1 uses the constituent for residue period - 1 = 1 (the odd class)
    assert eval_quasipoly(qp, -1) == 2 - 3


def test_fit_insufficient_points():
    with pytest.raises(GeometryError):
        fit_quasipoly([(1, 1), (2, 4)], 1, 2)
    with pytest.raises(GeometryError):
        fit_quasipoly([(n, n) for n in range(1, 9) if n % 2 == 0], 2, 1)


def test_fit_surplus_inconsistency_reports_n():
    data = [(n, n * n) for n in range(1, 8)] + [(8, 65)]
    with pytest.raises(GeometryError) as err:
        fit_quasipoly(data, 1, 2)
    assert "n = 8" in str(err.value)
    assert "residual" in str(err.value)


def test_fit_duplicate_point_rejected():
    with pytest.raises(GeometryError):
        fit_quasipoly([(1, 1), (1, 2), (2, 4), (3, 9)], 1, 1)


def test_fit_round_trip():
    qp = QuasiPoly(3, ((1, 2), (0, 0, 1), (5, 0, 0, 2)))
    data = [(n, int(eval_quasipoly(qp, n))) for n in range(1, 16)]
    refit = fit_quasipoly(data, 3, 3)
    for n in range(-3, 25):
        assert eval_quasipoly(refit, n) == eval_quasipoly(qp, n)


def test_fit_interpolation_matches_fraction_lagrange():
    # the integer interpolation under fit_quasipoly, on the points of each
    # residue class that it fits: labelled queen pairs on n x n boards
    data = [(n, brute_queen_pairs(n)) for n in range(1, 13)]
    qp = fit_quasipoly(data, 2, 4)
    for res in (0, 1):
        base = [(n, v) for n, v in data if n % 2 == res][:5]
        nums, den = interpolate(base)
        coeffs = fraction_lagrange(base)
        assert [Fraction(n, den) for n in nums] == coeffs
        assert qp.constituents[res] == QuasiPoly(1, (tuple(coeffs),)).constituents[0]


def test_find_period_reports_smallest():
    def toy(n):
        return n * n + (1 if n % 2 else 0)

    data = [(n, toy(n)) for n in range(1, 17)]
    assert find_period(data, 2) == 2
    square = [(n, n * n) for n in range(1, 17)]
    assert find_period(square, 2) == 1
    with pytest.raises(GeometryError):
        find_period([(n, 2 ** n) for n in range(1, 17)], 2)


def test_types_from_counts_two_queens():
    data = [(n, brute_queen_pairs(n)) for n in range(1, 13)]
    assert types_from_counts(data, 1, 2) == (8, 4)


def test_types_from_counts_single_piece():
    data = [(n, n * n) for n in range(1, 6)]
    assert types_from_counts(data, 1, 1) == (1, 1)


def test_types_from_counts_inexact_division():
    data = [(n, n * n) for n in range(1, 8)]
    with pytest.raises(GeometryError):
        types_from_counts(data, 1, 2)  # chi(-1) = 1 is not divisible by 2


def test_parse_bfile_basics():
    assert parse_bfile("1 1\n2 4\n") == [(1, 1), (2, 4)]
    text = "# comment\n\n1 1\n# another\n2 4\n3 9\n"
    assert parse_bfile(text) == [(1, 1), (2, 4), (3, 9)]


def test_parse_bfile_errors():
    with pytest.raises(GeometryError) as err:
        parse_bfile("3 x\n")
    assert "line 1" in str(err.value)
    with pytest.raises(GeometryError) as err:
        parse_bfile("1 1\n1 2\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(GeometryError):
        parse_bfile("1 2 3\n")
