"""Bitmask placement core shared by the board and torus counters and the
grid census.

Cells are numbered 0..N-1 and a set of cells is an int bitmask.  The cells on
one move line form a line mask, and the lines of one move partition the cells.
A cell's star is the union of the r lines through it: the cell itself plus
every cell it attacks.  A board's lines are keyed by d*x - c*y for the move
(c, d); the torus F_p x F_p has the same lines with the keys taken mod p.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .geometry import MoveSet


def line_masks(ms: MoveSet, cells: Sequence[tuple[int, int]]
               ) -> tuple[list[int], list[int]]:
    """(lines, stars) for the cells of a board.

    `lines` lists every move line that holds a cell, one-cell lines included,
    so that the lines of each move partition the cells.  `stars[i]` is the
    part of cell i's star below it, the cells below i that i attacks: all
    that `nonattacking_sets` reads of it.
    """
    stars: list[int] = []
    return grow_line_masks(ms, cells, 0, [{} for _ in ms.moves], stars), stars


def grow_line_masks(ms: MoveSet, cells: Sequence[tuple[int, int]], start: int,
                    groups: list[dict[int, int]], stars: list[int]) -> list[int]:
    """The lines of `line_masks` for `cells`, after putting the cells from
    `start` on: `groups[j]`, the masks of move j's lines by key, holds the
    cells below `start`, and `stars` their stars, as in `line_masks`.  Both
    grow in place.  A star holds only cells below its own, so N stars hold
    N*(N - 1)/2 bits at most, and the new cells, which lie above every old
    one, leave the old stars as they are.
    """
    keyed = [[m.d * x - m.c * y for x, y in cells[start:]] for m in ms.moves]
    for own, keys in zip(groups, keyed):
        for i, k in enumerate(keys, start):
            own[k] = own.get(k, 0) | (1 << i)
    for i in range(start, len(cells)):
        star = 0
        for own, keys in zip(groups, keyed):
            star |= own[keys[i - start]]
        stars.append(star & ((1 << i) - 1))
    return [line for own in groups for line in own.values()]


def torus_line_masks(ms: MoveSet, p: int) -> tuple[list[int], Callable[[int], int]]:
    """(lines, star) as in `line_masks`, for the cells of F_p x F_p, where
    cell (x, y) is bit x*p + y and p is a valid prime for `ms`; `star(i)` is
    the star of cell i.

    Built line by line instead of cell by cell.  A move (c, d) with c = 0
    mod p has the rows x = const as its lines.  Otherwise, with s = d/c mod
    p, the line through (0, k) holds the cells (x, k + s*x): it is the line
    through the origin with every row rotated by k, and the line through
    (x, y) is the one through (0, y - s*x).
    """
    row = (1 << p) - 1
    first_column = ((1 << (p * p)) - 1) // row  # bit x*p of every row x
    rest = first_column * (row - 1)  # every cell with y >= 1
    lines: list[int] = []
    moves = []  # (a, b, own): the line through (x, y) is own[(a*x + b*y) % p]
    for m in ms.moves:
        c, d = m.c % p, m.d % p
        if c == 0:
            own = [row << (x * p) for x in range(p)]
            moves.append((1, 0, own))
        else:
            s = d * pow(c, -1, p) % p
            line = sum(1 << (x * p + s * x % p) for x in range(p))
            own = []
            for _ in range(p):
                own.append(line)
                line = ((line << 1) & rest) | ((line >> (p - 1)) & first_column)
            moves.append((-s, 1, own))
        lines.extend(own)

    def star(i: int) -> int:
        x, y = divmod(i, p)
        mask = 0
        for a, b, own in moves:
            mask |= own[(a * x + b * y) % p]
        return mask

    return lines, star


def pair_count(avail: int, lines: Sequence[int], r: int) -> int:
    """Ordered pairs of distinct, nonattacking cells inside A = `avail`:

        |A|^2 - sum_l |A & l|^2 + (r - 1)|A|,

    where l runs over `lines`, the r partitions of the cells into the lines
    of one move.  Two distinct cells share at most one move line, because
    lines of different moves have different slopes and so meet in at most
    one point.  So an attacking ordered pair lies on exactly one line l and
    is one of that line's |A & l|^2 - |A & l| ordered pairs of distinct
    cells.  Subtracting these from the |A|^2 - |A| ordered pairs of distinct
    cells, and using sum_l |A & l| = r|A|, gives the formula.
    """
    n = avail.bit_count()
    squares = 0
    for line in lines:
        k = (avail & line).bit_count()
        squares += k * k
    return n * n - squares + (r - 1) * n


def nonattacking_sets(avail: int, size: int, star: Callable[[int], int],
                      tops: int = -1) -> Iterator[tuple[tuple[int, ...], int]]:
    """(cells, rest) for each nonattacking `size`-element subset of `avail`
    whose highest cell is in `tops` (default: any cell), for a rider whose
    cell i has star `star(i)`.

    Each set is built once, from its highest cell down, so `cells` is
    decreasing: after choosing a cell, only lower cells stay available,
    which also keeps the masks short, and only the bits of `star(i)` below
    i are read.  `rest` is the set of cells of `avail` below the lowest
    chosen cell that attack none of the chosen ones, the cells that can
    extend the set by one.  The empty set has no highest cell: at size 0
    the one set is yielded with `rest` = `avail`, whatever `tops` is.
    """
    if size == 0:
        yield (), avail
        return
    heads = avail & tops
    while heads:
        i = heads.bit_length() - 1
        heads ^= 1 << i
        below = avail & ~star(i) & ((1 << i) - 1)
        if size == 1:
            yield (i,), below
        else:
            for cells, rest in nonattacking_sets(below, size - 1, star):
                yield (i, *cells), rest


def count_sets(avail: int, size: int, lines: Sequence[int], r: int,
               star: Callable[[int], int], tops: int = -1) -> int:
    """Nonattacking `size`-element subsets of `avail`, for an r-move rider
    whose cell i has star `star(i)`: the first size - 2 cells come from
    `nonattacking_sets`, the last two are counted in closed form by
    `pair_count`.  From size 3 on, only the subsets whose highest cell is
    in `tops` (default: any cell) are counted, as the highest cell is one of
    the first size - 2; the closed forms of sizes 0, 1 and 2 count every
    subset.
    """
    if size < 2:
        return avail.bit_count() if size else 1
    return sum(pair_count(rest, lines, r)
               for _cells, rest in nonattacking_sets(avail, size - 2, star, tops)) // 2
