"""Seeded benchmark inputs whose answers stay known and whose work stays
comparable from seed to seed.

The q = 4 rider is an image of one of the three move sets of the 3-move
theorem under a unimodular integer map, with the moves shuffled.  A map of
determinant +-1 keeps every pairwise cross product up to sign, so the valid
primes and the answer (151) are those of the base rider.  The queen of the
count sweep is a D4 image, which maps the square board onto itself and so
keeps every placement count.
"""

from __future__ import annotations

import itertools
import random

from ridertypes import cli
from ridertypes.finitefield import valid_primes_from
from ridertypes.geometry import parse_moves

# The move sets of the 3-move theorem (t = 151 at q = 4).
BASE_3MOVE = ("1,0;0,1;1,1", "0,1;1,1;1,-1", "1,0;1,2;1,-2")

# 2x2 integer matrices (a, b, c, d) with entries in {-1, 0, 1} and det +-1.
UNIMODULAR = tuple(
    m for m in itertools.product((-1, 0, 1), repeat=4)
    if abs(m[0] * m[3] - m[1] * m[2]) == 1
)
# The symmetries of the square: signed permutation matrices.
D4 = tuple(m for m in UNIMODULAR if (m[0] == 0) != (m[1] == 0) and (m[2] == 0) != (m[3] == 0))


def _image(moves: str, m: tuple[int, int, int, int], rng: random.Random) -> str:
    a, b, c, d = m
    out = []
    for part in moves.split(";"):
        x, y = (int(v) for v in part.split(","))
        out.append(f"{a * x + b * y},{c * x + d * y}")
    rng.shuffle(out)
    return ";".join(out)


def rider_q4(base: str, rng: random.Random) -> str:
    """A unimodular image of `base`, checked to keep its valid primes."""
    image = _image(base, rng.choice(UNIMODULAR), rng)
    count = 2 * 4 + 1 + 2  # interpolation plus validation primes at q = 4
    if valid_primes_from(parse_moves(image), 11, count) != \
            valid_primes_from(parse_moves(base), 11, count):
        raise ValueError(f"{image} does not keep the valid primes of {base}")
    return image


def d4_image(moves: str, rng: random.Random) -> str:
    return _image(moves, rng.choice(D4), rng)


def cli_queries(rng: random.Random) -> list[list[str]]:
    """Distinct `types` queries in seeded order: ff and geometric censuses at
    q <= 3 for every move set of the CLI's families, and stabilized grid
    censuses of the named pieces at q <= 3 on both named boards."""
    queries = []
    seen = set()
    for r in range(1, 7):
        for ms in cli.family_movesets(r):
            moves = str(ms)
            if moves in seen:
                continue
            seen.add(moves)
            for engine, q in itertools.product(("ff", "geometric"), (1, 2, 3)):
                queries.append(["types", "--engine", engine, f"--moves={moves}",
                                "--q", str(q)])
    for name, board, q in itertools.product(cli.PIECES, ("square", "triangle"), (1, 2, 3)):
        queries.append(["types", "--engine", "grid", "--board", board,
                        f"--moves={name}", "--q", str(q)])
    rng.shuffle(queries)
    return queries
