"""The bitmask placement core's closed-form pair count and set enumerator
against brute force on random cell sets of tori and boards."""

from __future__ import annotations

import itertools
import random

from ridertypes.boards import SQUARE, TRIANGLE, board_sweep, lattice_points
from ridertypes.finitefield import valid_prime
from ridertypes.geometry import parse_moves
from ridertypes.placement import (
    grow_line_masks,
    nonattacking_sets,
    pair_count,
    torus_line_masks,
)

MOVESETS = [parse_moves(text) for text in (
    "1,0",
    "1,0;0,1",
    "0,1;1,1;1,-1",
    "1,0;0,1;1,1;1,-1",
    "1,2;2,1;1,-2;2,-1",
    "1,0;0,1;1,1;1,-1;1,2;2,1",
)]


def brute_pairs(ms, cells, modulus: int = 0) -> int:
    """Ordered pairs of distinct cells on no common move line."""
    def attacks(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if modulus:
            return any((m.c * dy - m.d * dx) % modulus == 0 for m in ms.moves)
        return any(m.c * dy - m.d * dx == 0 for m in ms.moves)

    return sum(1 for a, b in itertools.permutations(cells, 2) if not attacks(a, b))


def check_random_subsets(rng, ms, cells, lines, modulus=0, trials=6):
    for _ in range(trials):
        density = rng.random()
        chosen = [i for i in range(len(cells)) if rng.random() < density]
        avail = sum(1 << i for i in chosen)
        assert pair_count(avail, lines, ms.r) == \
            brute_pairs(ms, [cells[i] for i in chosen], modulus), (ms, modulus, chosen)


def test_pair_count_on_torus_subsets():
    rng = random.Random(2718)
    for ms in MOVESETS:
        for p in (5, 7, 11, 13):
            if not valid_prime(ms, p):
                continue
            cells = [(x, y) for x in range(p) for y in range(p)]
            lines, _star = torus_line_masks(ms, p)
            check_random_subsets(rng, ms, cells, lines, p)


def test_pair_count_on_board_subsets():
    rng = random.Random(1618)
    for ms in MOVESETS:
        for board in (SQUARE, TRIANGLE):
            for n in (1, 2, 4, 7):
                cells = lattice_points(board, n)
                lines = grow_line_masks(ms, cells, 0, [{} for _ in ms.moves], [])
                check_random_subsets(rng, ms, cells, lines)


def test_torus_lines_and_stars():
    # every line has p cells, the lines of one move partition the torus, and
    # each star is the cell plus the cells it attacks
    for ms in MOVESETS + [parse_moves("0,1;3,1;1,-5")]:
        for p in (5, 7, 11):
            if not valid_prime(ms, p):
                continue
            lines, star = torus_line_masks(ms, p)
            assert len(lines) == ms.r * p
            for j in range(ms.r):
                assert sum(lines[j * p:(j + 1) * p]) == (1 << (p * p)) - 1
            cells = [(x, y) for x in range(p) for y in range(p)]
            for i, cell in enumerate(cells):
                want = sum(1 << k for k, other in enumerate(cells)
                           if other == cell or brute_pairs(ms, [cell, other], p) == 0)
                assert star(i) == want, (ms, p, cell)


def check_nonattacking_sets(rng, ms, cells, star, modulus=0, trials=4):
    # pairs of distinct cells on no common move line, by brute force
    compatible_pairs = {
        (a, b) for a, b in itertools.permutations(range(len(cells)), 2)
        if brute_pairs(ms, [cells[a], cells[b]], modulus) == 2
    }

    def compatible(a, b):
        return (a, b) in compatible_pairs

    for _ in range(trials):
        density = rng.random()
        chosen = [i for i in range(len(cells)) if rng.random() < density]
        avail = sum(1 << i for i in chosen)
        for size in (0, 1, 2, 3):
            got = list(nonattacking_sets(avail, size, star))
            sets = [cells_ for cells_, _rest in got]
            assert len(set(sets)) == len(sets), (ms, modulus, chosen, size)
            for set_, rest in got:
                assert list(set_) == sorted(set_, reverse=True)
                assert all(compatible(a, b) for a, b in itertools.combinations(set_, 2))
                lowest = set_[-1] if set_ else len(cells)
                want = sum(1 << i for i in chosen
                           if i < lowest and all(compatible(i, c) for c in set_))
                assert rest == want, (ms, modulus, chosen, set_)
            brute = sum(
                1 for combo in itertools.combinations(chosen, size)
                if all(compatible(a, b) for a, b in itertools.combinations(combo, 2))
            )
            assert len(sets) == brute, (ms, modulus, chosen, size)


def test_nonattacking_sets_on_torus_subsets():
    rng = random.Random(1414)
    for ms in MOVESETS:
        for p in (5, 7):
            if not valid_prime(ms, p):
                continue
            cells = [(x, y) for x in range(p) for y in range(p)]
            _lines, star = torus_line_masks(ms, p)
            check_nonattacking_sets(rng, ms, cells, star, p)


def test_nonattacking_sets_on_board_subsets():
    rng = random.Random(1732)
    for ms in MOVESETS:
        for board in (SQUARE, TRIANGLE):
            for n in (1, 3, 5):
                cells = lattice_points(board, n)
                stars = []
                grow_line_masks(ms, cells, 0, [{} for _ in ms.moves], stars)
                check_nonattacking_sets(rng, ms, cells, stars.__getitem__)


def test_board_stars_hold_only_the_attacked_cells_below():
    # each star is exactly the cells below its own that it attacks, by brute
    # force, whether built at once or grown order by order across a sweep
    for ms in MOVESETS:
        for board in (SQUARE, TRIANGLE):
            groups, grown = [{} for _ in ms.moves], []
            for n, cells, start in board_sweep(board, range(1, 8)):
                grow_line_masks(ms, cells, start, groups, grown)
                stars = []
                grow_line_masks(ms, cells, 0, [{} for _ in ms.moves], stars)
                assert grown == stars, (str(ms), n)
                for i, star in enumerate(stars):
                    assert star >> i == 0, (str(ms), n, i)
                    want = sum(1 << k for k in range(i)
                               if brute_pairs(ms, [cells[i], cells[k]]) == 0)
                    assert star == want, (str(ms), n, i)
