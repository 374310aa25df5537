"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes results the slow, obvious way (exhaustive
enumeration, per-cell iteration) without touching the engines' internals.
The `Fraction` line layer (`OrientedLine`, `side_of`, `intersect`,
`steiner_count`, ...) is the reference that the integer line triples of
`ridertypes.geometry` and the fours witness are tested against.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ridertypes.boards import lattice_points
from ridertypes.placement import count_sets, torus_line_masks
from ridertypes.geometry import (
    BasicMove,
    GeometryError,
    MoveSet,
    ORIGIN,
    Point,
    line_through,
    point,
    region_masks,
    unoriented,
)
from ridertypes.signature import Config, canonical_unlabelled, labelled_type


# -- the Fraction line layer -------------------------------------------------

class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    ON = "O"

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class OrientedLine:
    """Line through `anchor` with direction `direction`, oriented by it."""

    anchor: Point
    direction: BasicMove

    def unoriented_key(self) -> tuple[int, int, int]:
        """The `unoriented` key of the line's integer triple."""
        return unoriented(self.int_coefficients())

    def int_coefficients(self) -> tuple[int, int, int]:
        """Integer (A, B, C) with the line equal to {A*x + B*y == C}."""
        return line_through(self.direction, self.anchor)


def side_of(line: OrientedLine, p: Point) -> Side:
    """Which side of the oriented line the point is on (Left = ccw side)."""
    dx, dy = p - line.anchor
    cross = line.direction.c * dy - line.direction.d * dx
    if cross > 0:
        return Side.LEFT
    if cross < 0:
        return Side.RIGHT
    return Side.ON


def intersect(a: OrientedLine, b: OrientedLine) -> Point | None:
    """Intersection point of two lines, or None if they are parallel or equal."""
    d1, d2 = a.direction, b.direction
    denom = d2.c * d1.d - d2.d * d1.c
    if denom == 0:
        return None
    wx, wy = b.anchor - a.anchor
    t = Fraction(d2.c * wy - d2.d * wx, denom)
    return Point(a.anchor.x + t * d1.c, a.anchor.y + t * d1.d)


@dataclass(frozen=True)
class LineArrangement:
    """A finite set of oriented lines, no two on the same unoriented line."""

    lines: tuple[OrientedLine, ...]

    def __post_init__(self):
        seen = {}
        for ln in self.lines:
            key = ln.unoriented_key()
            if key in seen:
                raise GeometryError(f"duplicate line: {ln} repeats {seen[key]}")
            seen[key] = ln

    @property
    def k(self) -> int:
        return len(self.lines)


def arrangement(lines: Iterable[OrientedLine]) -> LineArrangement:
    return LineArrangement(tuple(lines))


def move_lines(ms: MoveSet, anchor: Point) -> list[OrientedLine]:
    """The r move lines of a piece located at `anchor`."""
    return [OrientedLine(anchor, m) for m in ms.moves]


def fraction_configuration_arrangement(ms: MoveSet, pieces: Sequence[Point]) -> LineArrangement:
    """Union of the move-line pencils of all pieces, in piece order."""
    return arrangement(ln for p in pieces for ln in move_lines(ms, p))


def _intersection_multiplicities(arr: LineArrangement) -> dict[Point, set[int]]:
    """Map from intersection point to the set of line indices through it."""
    points: dict[Point, set[int]] = {}
    for i in range(arr.k):
        for j in range(i + 1, arr.k):
            p = intersect(arr.lines[i], arr.lines[j])
            if isinstance(p, Point):
                points.setdefault(p, set()).update((i, j))
    return points


def steiner_count(arr: LineArrangement) -> int:
    """Number of open regions the arrangement cuts the plane into.

    Classic count for k lines with n_p points where exactly p lines meet:
    1 + k + sum over p >= 2 of (p - 1) * n_p.
    """
    total = 1 + arr.k
    for through in _intersection_multiplicities(arr).values():
        total += len(through) - 1
    return total


def sign_vector(arr: LineArrangement, p: Point) -> tuple[Side, ...]:
    """side_of for every line, in arrangement order."""
    return tuple(side_of(ln, p) for ln in arr.lines)


def mask_sides(mask: int, k: int) -> tuple[Side, ...]:
    """A region mask of k lines read as a sign vector: bit n set is Right."""
    return tuple(Side.RIGHT if mask >> n & 1 else Side.LEFT for n in range(k))


def region_sample_points(arr: LineArrangement, samples: int = 1) -> dict[tuple, list[Point]]:
    """`region_masks` of the arrangement's integer triples, each mask read
    as a sign vector and each point as a `Point`, in the same order."""
    return {
        mask_sides(mask, arr.k):
            [Point(Fraction(xa, xb), Fraction(y, den)) for xa, xb, y, den in pts]
        for mask, pts in region_masks([ln.int_coefficients() for ln in arr.lines],
                                      samples).items()
    }


def region_representatives(arr: LineArrangement) -> list[Point]:
    """Exactly one interior point per region of the arrangement."""
    return [pts[0] for pts in region_sample_points(arr, 1).values()]


# -- brute force, references and random inputs ------------------------------


def cone_of(rays, dx: int, dy: int) -> int:
    """Index 1..len(rays) of the open cone holding integer direction (dx, dy),
    by angular rank: the number of `rays` (sorted as in `region_numbering`)
    at a smaller angle in [0, 2*pi), with 0 read as the last cone.  (dx, dy)
    must be parallel to no ray, except that a ray itself reads its rank."""
    half = 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
    count = 0
    for rx, ry in rays:
        ray_half = 0 if (ry > 0 or (ry == 0 and rx > 0)) else 1
        if ray_half < half or (ray_half == half and rx * dy - ry * dx > 0):
            count += 1
    return count or len(rays)


def contains_open(board, scale: int, p: Point) -> bool:
    """True iff p lies strictly inside scale * board (all edge tests strict),
    in `Fraction` arithmetic: the reference for `boards.lattice_points`."""
    n = len(board.vertices)
    for i in range(n):
        a = board.vertices[i]
        b = board.vertices[(i + 1) % n]
        # interior of a ccw polygon is strictly left of each directed edge
        cross = (b.x - a.x) * (p.y - scale * a.y) - (b.y - a.y) * (p.x - scale * a.x)
        if cross <= 0:
            return False
    return True


def nonattacking_cell_sets(ms, cells, q: int):
    """Every nonattacking q-subset of the cells, by direct enumeration."""
    def attacks(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        return any(m.c * dy - m.d * dx == 0 for m in ms.moves)

    for combo in itertools.combinations(cells, q):
        if all(not attacks(a, b) for a, b in itertools.combinations(combo, 2)):
            yield combo


def brute_force_labelled(ms, board, n: int, q: int) -> int:
    """Nonattacking labelled placements by direct enumeration of cell sets."""
    cells = lattice_points(board, n)
    sets = sum(1 for _ in nonattacking_cell_sets(ms, cells, q))
    return sets * math.factorial(q)


def brute_force_grid_types(ms, board, n: int, q: int):
    """Grid census by direct typing: `labelled_type` on every nonattacking
    placement of q pieces on the order-n board.  Returns (set of unlabelled
    types, number of cells)."""
    cells = lattice_points(board, n)
    types = {
        canonical_unlabelled(labelled_type(ms, Config(tuple(point(x, y) for x, y in combo))))
        for combo in nonattacking_cell_sets(ms, cells, q)
    }
    return types, len(cells)


def brute_force_unlabelled(ms, board, n: int, q: int) -> int:
    return brute_force_labelled(ms, board, n, q) // math.factorial(q)


def naive_torus_count(ms, q: int, p: int) -> int:
    """All q-tuples over F_p x F_p, checked pairwise; no symmetry tricks."""
    table = {}
    for dx in range(p):
        for dy in range(p):
            # delta (0, 0) is forbidden too (it satisfies every move equation)
            table[(dx, dy)] = any(
                (m.c * dy - m.d * dx) % p == 0 for m in ms.moves
            )
    cells = [(x, y) for x in range(p) for y in range(p)]

    def extend(chosen: list) -> int:
        if len(chosen) == q:
            return 1
        total = 0
        for c in cells:
            if all(not table[((c[0] - o[0]) % p, (c[1] - o[1]) % p)] for o in chosen):
                total += extend(chosen + [c])
        return total

    return extend([])


def unweighted_torus_count(ms, q: int, p: int) -> int:
    """`finitefield.torus_count` without direction orbits: piece 2 runs over
    every direction, (0, 1) and (1, t), that is not a move direction."""
    if q == 1:
        return p * p
    lines, star = torus_line_masks(ms, p)
    avail = ((1 << (p * p)) - 1) & ~star(0)
    reps = [i for i in (1, *range(p, 2 * p)) if avail >> i & 1]
    subtotal = sum(
        count_sets(avail & ~star(i), q - 2, lines, ms.r, star) for i in reps
    )
    return p * p * (p - 1) * math.factorial(q - 2) * subtotal


def brute_force_direction_group(ms, p: int) -> set[tuple[int, ...]]:
    """Every invertible 2x2 matrix over F_p that permutes the move
    directions, each taken as the permutation it makes of the p + 1
    directions (0, 1), (1, 0), ..., (1, p - 1), listed in that order."""
    def direction(x, y):
        x, y = x % p, y % p
        return (0, 1) if x == 0 else (1, y * pow(x, -1, p) % p)

    directions = [(0, 1)] + [(1, t) for t in range(p)]
    moves = {direction(m.c, m.d) for m in ms.moves}
    perms = set()
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p and all(
                direction(a * x + b * y, c * x + d * y) in moves for x, y in moves):
            perms.add(tuple(direction(a * x + b * y, c * x + d * y) for x, y in directions))
    return perms


def fraction_lagrange(points: list[tuple[int, int]]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through the points, by
    Lagrange's formula in `Fraction` arithmetic."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis[:]
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = Fraction(yi) / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    return coeffs


def naive_uncovered(p: int, lines) -> int:
    """Cells of F_p x F_p on none of the lines, by per-cell iteration."""
    return sum(
        1
        for x in range(p)
        for y in range(p)
        if all((a * x + b * y - c) % p for a, b, c in lines)
    )


def random_line_set(rng: random.Random, p: int, k: int) -> list[tuple[int, int, int]]:
    """k distinct mod-p lines, uniformly drawn."""
    lines = []
    seen = set()
    while len(lines) < k:
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        if a == 0 and b == 0:
            continue
        lead = a if a != 0 else b
        inv = pow(lead, p - 2, p)
        norm = (a * inv % p, b * inv % p, c * inv % p)
        if norm in seen:
            continue
        seen.add(norm)
        lines.append((a, b, c))
    return lines


def random_arrangement(rng: random.Random):
    """Small random line arrangement; ~30% are pencils through the origin."""
    lines = []
    k = rng.randint(1, 6)
    style = rng.random()
    seen = set()
    for _ in range(k):
        c = rng.randint(-4, 4)
        d = rng.randint(-4, 4)
        if c == 0 and d == 0:
            c = 1
        anchor = point(rng.randint(-6, 6), rng.randint(-6, 6))
        if style < 0.3:
            anchor = point(0, 0)
        ln = OrientedLine(anchor, BasicMove(c, d))
        key = ln.unoriented_key()
        if key not in seen:
            seen.add(key)
            lines.append(ln)
    return arrangement(lines)


def random_rational_arrangement(rng: random.Random, max_lines: int = 12, max_den: int = 50):
    """Random arrangement of up to `max_lines` lines whose anchors have
    denominators up to `max_den`.  Directions and anchors come from small
    pools, so parallel lines and crossings of three or more lines turn up."""
    directions = [BasicMove(rng.choice([c for c in range(-5, 6) if c or d]), d)
                  for d in rng.choices(range(-5, 6), k=rng.randint(1, 6))]
    anchors = [point(Fraction(rng.randint(-60, 60), rng.randint(1, max_den)),
                     Fraction(rng.randint(-60, 60), rng.randint(1, max_den)))
               for _ in range(rng.randint(1, max_lines))]
    lines, seen = [], set()
    for _ in range(rng.randint(1, 2 * max_lines)):
        ln = OrientedLine(rng.choice(anchors), rng.choice(directions))
        if ln.unoriented_key() not in seen and len(lines) < max_lines:
            seen.add(ln.unoriented_key())
            lines.append(ln)
    return arrangement(lines)


_SPLITS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(4, 5), Fraction(2, 7), Fraction(5, 7), Fraction(3, 11),
]


def _fraction_slab(arr, split: Fraction, margin: int) -> list:
    # abscissas between and beyond the x-breakpoints (crossings and vertical
    # lines); on each, ordinates between and beyond the lines' crossings
    others = [ln for ln in arr.lines if ln.direction.c != 0]
    xs = {ln.anchor.x for ln in arr.lines if ln.direction.c == 0}
    for i, a in enumerate(arr.lines):
        for b in arr.lines[i + 1:]:
            pt = intersect(a, b)
            if isinstance(pt, Point):
                xs.add(pt.x)
    breaks = sorted(xs)
    if breaks:
        abscissas = [breaks[0] - margin]
        abscissas += [lo + (hi - lo) * split for lo, hi in zip(breaks, breaks[1:])]
        abscissas.append(breaks[-1] + margin)
    else:
        abscissas = [Fraction(0)]
    candidates = []
    for ax in abscissas:
        ybreaks = sorted({
            ln.anchor.y + Fraction(ln.direction.d * (ax - ln.anchor.x), ln.direction.c)
            for ln in others
        })
        if ybreaks:
            ords = [ybreaks[0] - margin]
            ords += [lo + (hi - lo) * split for lo, hi in zip(ybreaks, ybreaks[1:])]
            ords.append(ybreaks[-1] + margin)
        else:
            ords = [Fraction(0)]
        candidates.extend(Point(ax, y) for y in ords)
    return candidates


def fraction_region_sample_points(arr, samples: int = 1) -> dict:
    """Reference slab sampler in `Fraction` arithmetic, with the split and
    margin schedule of `region_sample_points`; sides come from `sign_vector`."""
    regions: dict = {}
    for pass_no in range(samples):
        split = _SPLITS[pass_no % len(_SPLITS)]
        for cand in _fraction_slab(arr, split, 1 + pass_no):
            sv = sign_vector(arr, cand)
            if Side.ON in sv:
                continue
            bucket = regions.setdefault(sv, [])
            if len(bucket) < samples and cand not in bucket:
                bucket.append(cand)
    return regions


def labelled_geometric_types(ms, q: int, refinement: int = 1):
    """Geometric census by direct typing: every configuration that the
    recursive region sampling reaches is typed with `labelled_type`.
    Returns (set of unlabelled types, number of final configurations)."""
    partials = [(ORIGIN,)]
    for _ in range(q - 1):
        partials = [
            cfg + (p,)
            for cfg in partials
            for pts in region_sample_points(fraction_configuration_arrangement(ms, cfg),
                                            refinement).values()
            for p in pts
        ]
    types = {canonical_unlabelled(labelled_type(ms, Config(cfg))) for cfg in partials}
    return types, len(partials)
