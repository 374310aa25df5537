from __future__ import annotations

import math
from fractions import Fraction

import pytest

from oracles import contains_open

from ridertypes.boards import (
    Board,
    SQUARE,
    TRIANGLE,
    lattice_points,
    parse_board,
)
from ridertypes.geometry import GeometryError, Point, point


def test_square_order_three_is_the_grid():
    assert set(lattice_points(SQUARE, 3)) == {(x, y) for x in (1, 2, 3) for y in (1, 2, 3)}


def test_square_order_one():
    assert lattice_points(SQUARE, 1) == ((1, 1),)


def test_triangle_order_three():
    # strictly inside 4 * triangle: x >= 1, y >= 1, x + y <= 3
    assert set(lattice_points(TRIANGLE, 3)) == {(1, 1), (1, 2), (2, 1)}


def test_square_counts_match_n_squared():
    for n in range(1, 51):
        assert len(lattice_points(SQUARE, n)) == n * n


def test_boxes_above_max_cells_are_refused():
    assert len(lattice_points(SQUARE, 88)) == 88 * 88  # a box of 90^2 <= MAX_CELLS points
    with pytest.raises(GeometryError, match="MAX_CELLS"):
        lattice_points(SQUARE, 89)
    # the box, not the board, is what counts: this one is large at n = 1
    with pytest.raises(GeometryError, match="MAX_CELLS"):
        lattice_points(parse_board("poly:0,0;100,0;0,100"), 1)


def test_contains_open_square():
    assert contains_open(SQUARE, 4, point(2, 2))
    assert not contains_open(SQUARE, 4, point(0, 2))
    assert not contains_open(SQUARE, 4, point(5, 1))


def test_cells_agree_with_contains_open():
    for board in (SQUARE, TRIANGLE):
        for n in (2, 5):
            cells = set(lattice_points(board, n))
            for x in range(-1, n + 3):
                for y in range(-1, n + 3):
                    inside = contains_open(board, n + 1, point(x, y))
                    assert ((x, y) in cells) == inside


def test_cells_equal_contains_open_in_order():
    rational = parse_board("poly:-1/2,0;5/2,-1/3;3,4/3;1/3,7/4")
    for board in (SQUARE, TRIANGLE, rational):
        xs = [v.x for v in board.vertices]
        ys = [v.y for v in board.vertices]
        for n in range(1, 13):
            s = n + 1
            want = tuple(
                (x, y)
                for x in range(math.floor(min(xs) * s), math.ceil(max(xs) * s) + 1)
                for y in range(math.floor(min(ys) * s), math.ceil(max(ys) * s) + 1)
                if contains_open(board, s, point(x, y))
            )
            assert lattice_points(board, n) == want


def test_cell_counts_monotone():
    for board in (SQUARE, TRIANGLE):
        sizes = [len(lattice_points(board, n)) for n in range(1, 16)]
        assert sizes == sorted(sizes)


def test_board_validation():
    with pytest.raises(GeometryError):
        Board((point(0, 0), point(1, 0)))
    with pytest.raises(GeometryError):  # clockwise
        Board((point(0, 0), point(0, 1), point(1, 0)))
    with pytest.raises(GeometryError):  # collinear middle vertex
        Board((point(0, 0), point(1, 0), point(2, 0), point(0, 1)))
    with pytest.raises(GeometryError):
        lattice_points(SQUARE, 0)


def test_parse_board():
    assert parse_board("square") is SQUARE
    assert parse_board("triangle") is TRIANGLE
    hexish = parse_board("poly:0,0;2,0;3,1;2,2;0,2;-1,1")
    assert len(hexish.vertices) == 6
    assert hexish.vertices[2] == Point(Fraction(3), Fraction(1))
    with pytest.raises(GeometryError):
        parse_board("circle")
    with pytest.raises(GeometryError):
        parse_board("poly:0,0;1,0")
