"""Exact rational planar geometry for rider move-line arrangements.

Everything here is computed over Q with `fractions.Fraction`, or in
integers: the slab sampler puts the ordinates at each sample abscissa over
one common denominator and sorts and side-tests their numerators.  There is
no floating point anywhere in this module.  The orientation convention is
fixed once and for all: walking along a line's direction vector, Left is the
counterclockwise (positive cross product) side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union


class GeometryError(ValueError):
    """Invalid geometric input (zero move, duplicate line, singular map...)."""


class _Infinity:
    """Vertical slope marker; a single shared atom, never a fraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()

Slope = Union[Fraction, _Infinity]


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    ON = "O"

    def __repr__(self):
        return self.name


@dataclass(frozen=True, order=True)
class BasicMove:
    """Primitive integer direction (c, d); gcd 1, sign preserved."""

    c: int
    d: int

    def __post_init__(self):
        if self.c == 0 and self.d == 0:
            raise GeometryError("basic move (0,0) is not allowed")
        g = gcd(abs(self.c), abs(self.d))
        if g != 1:
            object.__setattr__(self, "c", self.c // g)
            object.__setattr__(self, "d", self.d // g)

    def negated(self) -> "BasicMove":
        return BasicMove(-self.c, -self.d)

    def __str__(self):
        return f"{self.c},{self.d}"


def slope_of(move: BasicMove) -> Slope:
    """Slope d/c of a basic move, or INFINITY for vertical moves."""
    if move.c == 0:
        return INFINITY
    return Fraction(move.d, move.c)


@dataclass(frozen=True)
class MoveSet:
    """An ordered set of basic moves with pairwise distinct slopes."""

    moves: tuple[BasicMove, ...]

    def __post_init__(self):
        if not self.moves:
            raise GeometryError("a move set needs at least one move")
        slopes = [slope_of(m) for m in self.moves]
        for i in range(len(slopes)):
            for j in range(i + 1, len(slopes)):
                if slopes[i] == slopes[j]:
                    raise GeometryError(
                        f"moves {self.moves[i]} and {self.moves[j]} share slope {slopes[i]}"
                    )

    @property
    def r(self) -> int:
        return len(self.moves)

    def reorient(self, j: int) -> "MoveSet":
        """Replace move j (1-based) by its negative."""
        if not 1 <= j <= self.r:
            raise GeometryError(f"move index {j} out of range 1..{self.r}")
        ms = list(self.moves)
        ms[j - 1] = ms[j - 1].negated()
        return MoveSet(tuple(ms))

    def __str__(self):
        return ";".join(str(m) for m in self.moves)


@dataclass(frozen=True, order=True)
class Point:
    x: Fraction
    y: Fraction

    def __sub__(self, other: "Point") -> tuple[Fraction, Fraction]:
        return (self.x - other.x, self.y - other.y)

    def translated(self, dx, dy) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def __str__(self):
        return f"{self.x},{self.y}"


def point(x, y) -> Point:
    """Build a Point from any Fraction-convertible pair (ints, strings)."""
    return Point(Fraction(x), Fraction(y))


ORIGIN = point(0, 0)


@dataclass(frozen=True)
class OrientedLine:
    """Line through `anchor` with direction `direction`, oriented by it."""

    anchor: Point
    direction: BasicMove

    def unoriented_key(self):
        """Canonical key identifying the underlying unoriented line.

        The direction is flipped to the canonical half (c > 0, or c == 0 and
        d > 0) and combined with the line offset cross(direction, anchor).
        """
        c, d = self.direction.c, self.direction.d
        if c < 0 or (c == 0 and d < 0):
            c, d = -c, -d
        return (c, d, d * self.anchor.x - c * self.anchor.y)

    def int_coefficients(self) -> tuple[int, int, int]:
        """Integer (A, B, C) with the line equal to {A*x + B*y == C}.

        Chosen so that cross(direction, p - anchor) and -(A*px + B*py - C)
        have the same sign, i.e. A*px + B*py - C < 0 on the Left side.
        """
        c, d = self.direction.c, self.direction.d
        off = d * self.anchor.x - c * self.anchor.y
        den = off.denominator
        return (d * den, -c * den, off.numerator)


def side_of(line: OrientedLine, p: Point) -> Side:
    """Which side of the oriented line the point is on (Left = ccw side)."""
    dx, dy = p - line.anchor
    cross = line.direction.c * dy - line.direction.d * dx
    if cross > 0:
        return Side.LEFT
    if cross < 0:
        return Side.RIGHT
    return Side.ON


class Parallel:
    """Returned by `intersect` for distinct parallel lines."""

    def __repr__(self):
        return "Parallel"


class Identical:
    """Returned by `intersect` when both arguments are the same line."""

    def __repr__(self):
        return "Identical"


PARALLEL = Parallel()
IDENTICAL = Identical()


def intersect(a: OrientedLine, b: OrientedLine):
    """Intersection point of two lines, or PARALLEL / IDENTICAL."""
    d1, d2 = a.direction, b.direction
    denom = d2.c * d1.d - d2.d * d1.c
    if denom == 0:
        if a.unoriented_key() == b.unoriented_key():
            return IDENTICAL
        return PARALLEL
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


def configuration_arrangement(ms: MoveSet, pieces: Sequence[Point]) -> LineArrangement:
    """Union of the move-line pencils of all pieces (pieces must be nonattacking,
    otherwise pencils share lines and the duplicate check throws)."""
    lines = []
    for p in pieces:
        lines.extend(move_lines(ms, p))
    return arrangement(lines)


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


def _x_breakpoints(coeffs: Sequence[tuple[int, int, int]]) -> list[Fraction]:
    # abscissas of the vertical lines and of every crossing (Cramer's rule)
    xs = set()
    for i, (a1, b1, c1) in enumerate(coeffs):
        if b1 == 0:
            xs.add(Fraction(c1, a1))
        for a2, b2, c2 in coeffs[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det:
                xs.add(Fraction(c1 * b2 - c2 * b1, det))
    return sorted(xs)


def _gaps(values: Sequence, u: int, v: int, reach) -> list:
    # v times: the point at fraction u/v of each gap between the sorted
    # values, and reach/v beyond both ends
    inner = [lo * v + (hi - lo) * u for lo, hi in zip(values, values[1:])]
    return [values[0] * v - reach, *inner, values[-1] * v + reach]


def _slab_candidates(
    coeffs: Sequence[tuple[int, int, int]],
    breaks: Sequence[Fraction],
    split: Fraction,
    margin: int,
) -> list[tuple[Fraction, int, list[int]]]:
    """Candidate interior points, at least one per region (slab method).

    Sample abscissas are taken strictly between consecutive x-breakpoints
    (pairwise intersection points and vertical lines) and strictly beyond both
    extremes; on each sample vertical line, ordinates sit strictly between
    consecutive crossings with the non-vertical lines and beyond both ends.
    `split` picks where inside each gap, `margin` how far past the extremes.

    Returns (abscissa, den, numerators): the candidates at that abscissa are
    (abscissa, Y / den) for Y in numerators.  At x = a/b a non-vertical line
    A*x + B*y = C has ordinate (C*b - A*a) / (b*B), so over the common
    denominator E = b * lcm|B| every ordinate, and with split = u/v every
    gap point lo*v + (hi - lo)*u over E*v, is an integer.
    """
    others = [(a, b, c) for a, b, c in coeffs if b != 0]
    lcm_b = lcm(*(abs(b) for _, b, _ in others))
    u, v = split.numerator, split.denominator
    abscissas = [x / v for x in _gaps(breaks, u, v, margin * v)] if breaks else [Fraction(0)]
    out = []
    for ax in abscissas:
        xa, xb = ax.numerator, ax.denominator
        ys = sorted({(c * xb - a * xa) * (lcm_b // b) for a, b, c in others})
        if ys:
            out.append((ax, xb * lcm_b * v, _gaps(ys, u, v, margin * xb * lcm_b * v)))
        else:
            out.append((ax, 1, [0]))
    return out


_SPLITS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(4, 5), Fraction(2, 7), Fraction(5, 7), Fraction(3, 11),
]


def region_sample_points(arr: LineArrangement, samples: int = 1) -> dict[tuple, list[Point]]:
    """Interior sample points grouped by region (keyed by sign vector).

    One slab pass guarantees at least one point in every region; further
    passes with different split fractions and margins enlarge each region's
    sample list (duplicates removed, capped at `samples` per region).

    A candidate on any line is dropped, so every returned point lies on none
    of the arrangement's lines and its sign vector holds no `Side.ON`.
    """
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    coeffs = [ln.int_coefficients() for ln in arr.lines]
    breaks = _x_breakpoints(coeffs)
    # regions keyed by a bitmask of the lines the point is Right of; a kept
    # candidate is (abscissa, Y, den) until the end
    found: dict[int, list[tuple[Fraction, int, int]]] = {}
    for pass_no in range(samples):
        split = _SPLITS[pass_no % len(_SPLITS)]
        for ax, den, ords in _slab_candidates(coeffs, breaks, split, 1 + pass_no):
            xa, xb = ax.numerator, ax.denominator
            # sign of A*x + B*y - C at (xa/xb, Y/den), scaled by xb*den > 0
            rows = [(1 << n, (a * xa - c * xb) * den, b * xb)
                    for n, (a, b, c) in enumerate(coeffs)]
            for y in ords:
                key = 0
                for bit, base, slope in rows:
                    val = base + slope * y
                    if val == 0:
                        break
                    if val > 0:
                        key |= bit
                else:
                    bucket = found.setdefault(key, [])
                    if len(bucket) < samples and all(
                        ax != bx or y * bden != by * den for bx, by, bden in bucket
                    ):
                        bucket.append((ax, y, den))
    sides = (Side.LEFT, Side.RIGHT)
    return {
        tuple(sides[key >> n & 1] for n in range(len(coeffs))):
            [Point(ax, Fraction(y, den)) for ax, y, den in kept]
        for key, kept in found.items()
    }


def region_representatives(arr: LineArrangement) -> list[Point]:
    """Exactly one interior point per region of the arrangement."""
    return [pts[0] for pts in region_sample_points(arr, 1).values()]


# -- projective maps ---------------------------------------------------------

Matrix3 = tuple[tuple[Fraction, ...], ...]


def _det3(m: Matrix3) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@dataclass(frozen=True)
class ProjectiveMap:
    m: Matrix3

    def __post_init__(self):
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.m)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise GeometryError("projective map needs a 3x3 matrix")
        object.__setattr__(self, "m", rows)
        if _det3(rows) == 0:
            raise GeometryError("projective map must be invertible")

    def is_affine(self) -> bool:
        return self.m[2][0] == 0 and self.m[2][1] == 0


IDENTITY_MAP = ProjectiveMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def apply_projective(pmap: ProjectiveMap, p: Point) -> Point:
    """Image of a point under the map, via homogeneous coordinates."""
    m = pmap.m
    w = m[2][0] * p.x + m[2][1] * p.y + m[2][2]
    if w == 0:
        raise GeometryError(f"{p} maps to the line at infinity")
    x = m[0][0] * p.x + m[0][1] * p.y + m[0][2]
    y = m[1][0] * p.x + m[1][1] * p.y + m[1][2]
    return Point(x / w, y / w)


def apply_projective_move(pmap: ProjectiveMap, move: BasicMove) -> BasicMove:
    """Image of a direction under the linear part of an affine map."""
    if not pmap.is_affine():
        raise GeometryError("direction images are anchor-dependent for non-affine maps")
    m = pmap.m
    vx = m[0][0] * move.c + m[0][1] * move.d
    vy = m[1][0] * move.c + m[1][1] * move.d
    den = vx.denominator * vy.denominator // gcd(vx.denominator, vy.denominator)
    ix, iy = int(vx * den), int(vy * den)
    if ix == 0 and iy == 0:
        raise GeometryError("move collapses to zero under the map")
    return BasicMove(ix, iy)


def apply_projective_moveset(pmap: ProjectiveMap, ms: MoveSet) -> MoveSet:
    """Image move set; raises on slope collisions after mapping."""
    moves = tuple(apply_projective_move(pmap, m) for m in ms.moves)
    try:
        return MoveSet(moves)
    except GeometryError as exc:
        raise GeometryError(f"slope collision after mapping: {exc}") from exc


def _nullspace_vector(rows: list[list[Fraction]], n: int) -> list[Fraction]:
    # One nonzero solution of a homogeneous system with more unknowns than rows.
    rows = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    free = next(c for c in range(n) if c not in pivots)
    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for r, col in enumerate(pivots):
        sol[col] = -rows[r][free]
    return sol


def _slope_direction(s: Slope) -> tuple[int, int]:
    if s is INFINITY:
        return (0, 1)
    return (s.denominator, s.numerator)


def slope_correspondence_map(src: Sequence[Slope], dst: Sequence[Slope]) -> ProjectiveMap:
    """A projective (in fact linear) map of the plane carrying three distinct
    slopes to three distinct slopes, in order.

    A linear map [[a,b],[c,d]] sends the direction of slope mu to one of slope
    (c + d*mu) / (a + b*mu); three prescribed slope pairs give a homogeneous
    3x4 system whose one-dimensional nullspace is the map, unique up to scale.
    """
    if len(src) != 3 or len(dst) != 3:
        raise GeometryError("slope correspondence needs exactly three slopes per side")
    if len({id(s) if s is INFINITY else s for s in src}) != 3:
        raise GeometryError("source slopes must be distinct")
    rows = []
    for s, t in zip(src, dst):
        ux, uy = _slope_direction(s)
        # image (a*ux + b*uy, c*ux + d*uy) must be parallel to direction of t
        tx, ty = _slope_direction(t)
        # cross((tx,ty), (wx,wy)) = tx*wy - ty*wx = 0
        rows.append([
            Fraction(-ty * ux), Fraction(-ty * uy),
            Fraction(tx * ux), Fraction(tx * uy),
        ])
    a, b, c, d = _nullspace_vector(rows, 4)
    pmap = ProjectiveMap(((a, b, 0), (c, d, 0), (0, 0, 1)))
    return pmap


# -- parsing -----------------------------------------------------------------

def parse_moves(text: str) -> MoveSet:
    """Parse the `"c,d;c,d;..."` move-set grammar (e.g. queen = `1,0;0,1;1,1;1,-1`)."""
    moves = []
    for part in text.strip().split(";"):
        part = part.strip()
        if not part:
            raise GeometryError(f"empty move in {text!r}")
        pieces = part.split(",")
        if len(pieces) != 2:
            raise GeometryError(f"move {part!r} is not of the form c,d")
        try:
            c, d = int(pieces[0]), int(pieces[1])
        except ValueError as exc:
            raise GeometryError(f"move {part!r} has non-integer components") from exc
        moves.append(BasicMove(c, d))
    return MoveSet(tuple(moves))


def parse_rational(text: str) -> Fraction:
    """Exact rational literal like `3` or `-7/2`; decimals are rejected."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise GeometryError(f"decimal input is forbidden, use p/q rationals: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GeometryError(f"bad rational {text!r}") from exc


def parse_point(text: str) -> Point:
    """Parse `x,y` with rational coordinates."""
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise GeometryError(f"point {text!r} is not of the form x,y")
    return Point(parse_rational(parts[0]), parse_rational(parts[1]))
