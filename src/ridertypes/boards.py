"""Convex polygonal boards and lattice-point enumeration.

A board of order n holds pieces on the integer points strictly inside the
(n+1)-fold dilation of the polygon; for the unit square that is exactly the
usual n x n grid {1..n}^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .geometry import GeometryError, Point, parse_rational, point

# Most lattice points a board's scaled bounding box may hold.  N cells cost
# N^2 bits of star masks in `census.count_nonattacking`, the `count` command,
# and in the grid census r*N*(N - 1) bits of cone masks and N*(N - 1)/2 of
# stars read off them: at N = 2^13, 8 MiB and, for r <= 6, under 52 MiB.
# `lattice_points` refuses a larger box before it enumerates any point; the
# square board fits up to n = 88.
MAX_CELLS = 1 << 13


@dataclass(frozen=True)
class Board:
    """Strictly convex polygon, vertices in counterclockwise order."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise GeometryError("a board needs at least 3 vertices")
        if len(set(self.vertices)) != n:
            raise GeometryError("board vertices must be distinct")
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            c = self.vertices[(i + 2) % n]
            cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            if cross <= 0:
                raise GeometryError(
                    "board must be strictly convex with counterclockwise vertices"
                )


SQUARE = Board((point(0, 0), point(1, 0), point(1, 1), point(0, 1)))
TRIANGLE = Board((point(0, 0), point(1, 0), point(0, 1)))

NAMED_BOARDS = {"square": SQUARE, "triangle": TRIANGLE}


def contains_open(board: Board, scale: int, p: Point) -> bool:
    """True iff p lies strictly inside scale * board (all edge tests strict)."""
    n = len(board.vertices)
    for i in range(n):
        a = board.vertices[i]
        b = board.vertices[(i + 1) % n]
        # interior of a ccw polygon is strictly left of each directed edge
        cross = (b.x - a.x) * (p.y - scale * a.y) - (b.y - a.y) * (p.x - scale * a.x)
        if cross <= 0:
            return False
    return True


def lattice_points(board: Board, n: int) -> tuple[tuple[int, int], ...]:
    """Integer points strictly inside (n+1) * board, in lexicographic order.

    Runs the strict edge tests of `contains_open` in integers.  Scaled by
    the common denominator den of the vertex coordinates, the vertices are
    integer points A, B, ...; for edge A -> B with (ex, ey) = B - A, den**2
    times the cross product at (x, y) is
    den*(ex*y - ey*x) + scale*(ey*Ax - ex*Ay).  A board whose scaled
    bounding box holds more than MAX_CELLS lattice points is refused.
    """
    if n < 1:
        raise GeometryError("board order n must be >= 1")
    scale = n + 1
    den = math.lcm(*(c.denominator for v in board.vertices for c in (v.x, v.y)))
    verts = [(int(v.x * den), int(v.y * den)) for v in board.vertices]
    edges = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        edges.append((ex * den, ey * den, scale * (ey * ax - ex * ay)))
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    x_lo, x_hi = scale * min(xs) // den, -(-scale * max(xs) // den)
    y_lo, y_hi = scale * min(ys) // den, -(-scale * max(ys) // den)
    box = (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
    if box > MAX_CELLS:
        raise GeometryError(f"the order-{n} board's bounding box holds {box} lattice "
                            f"points, above MAX_CELLS = {MAX_CELLS}")
    return tuple(
        (x, y)
        for x in range(x_lo, x_hi + 1)
        for y in range(y_lo, y_hi + 1)
        if all(e * y - f * x + g > 0 for e, f, g in edges)
    )


def board_sweep(board: Board, orders: Iterable[int]
                ) -> Iterator[tuple[int, tuple[tuple[int, int], ...], int]]:
    """(n, cells, start) for each order n of `orders`: the cells of board n
    in arrival order, and the index of the first cell new at n.

    When every cell of the previous order lies on board n, those cells come
    first, in their old order, and the cells new at n follow in
    lexicographic order; otherwise the sweep restarts with the cells of
    board n alone, in lexicographic order, and start = 0.  So every set of
    cells whose highest-numbered cell is below `start` is a set of the
    previous order's board.  A board whose closed polygon B holds the
    origin never restarts on consecutive orders: (n+1)B = (n+1)B + 0 lies
    inside (n+1)B + B, which is (n+2)B because B is convex, and so the
    interior of the one lies inside that of the other.  Both named boards
    are such boards.
    """
    cells: tuple[tuple[int, int], ...] = ()
    for n in orders:
        fresh = lattice_points(board, n)
        if set(fresh).issuperset(cells):
            start, old = len(cells), set(cells)
            cells += tuple(c for c in fresh if c not in old)
        else:
            start, cells = 0, fresh
        yield n, cells, start


def parse_board(text: str) -> Board:
    """Board spec: `square`, `triangle`, or `poly:x1,y1;x2,y2;...`."""
    text = text.strip()
    if text in NAMED_BOARDS:
        return NAMED_BOARDS[text]
    if text.startswith("poly:"):
        vertices = []
        for part in text[len("poly:"):].split(";"):
            coords = part.strip().split(",")
            if len(coords) != 2:
                raise GeometryError(f"bad board vertex {part!r}")
            vertices.append(Point(parse_rational(coords[0]), parse_rational(coords[1])))
        return Board(tuple(vertices))
    raise GeometryError(f"unknown board spec {text!r}")
