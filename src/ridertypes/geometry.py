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


# -- linear maps -------------------------------------------------------------

@dataclass(frozen=True)
class LinearMap:
    """The invertible linear map (x, y) -> (a*x + b*y, c*x + d*y).

    Linear maps are the maps that carry riders: parallel move lines stay
    parallel, so nonattacking configurations and their types go along, and
    any three slopes can be sent to any three (`slope_correspondence_map`).
    A non-affine projective map sends parallel lines to concurrent ones.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d == self.b * self.c:
            raise GeometryError("linear map must be invertible")

    def point(self, p: Point) -> Point:
        return Point(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def move(self, m: BasicMove) -> BasicMove:
        """Image direction, scaled to a primitive integer move."""
        vx = self.a * m.c + self.b * m.d
        vy = self.c * m.c + self.d * m.d
        den = lcm(vx.denominator, vy.denominator)
        return BasicMove(int(vx * den), int(vy * den))

    def moveset(self, ms: MoveSet) -> MoveSet:
        return MoveSet(tuple(self.move(m) for m in ms.moves))


def _slope_direction(s: Slope) -> tuple[int, int]:
    if s is INFINITY:
        return (0, 1)
    return (s.denominator, s.numerator)


def _frame(slopes: Sequence[Slope], side: str) -> tuple[Fraction, ...]:
    # entries a, b, c, d of the map sending the directions (1, 0), (0, 1) and
    # (1, 1) to those of the three slopes: its columns are s*u1 and t*u2,
    # where u3 = s*u1 + t*u2 (Cramer's rule)
    if len(set(slopes)) != 3:
        raise GeometryError(f"{side} slopes must be distinct")
    (x1, y1), (x2, y2), (x3, y3) = map(_slope_direction, slopes)
    det = x1 * y2 - y1 * x2
    s = Fraction(x3 * y2 - y3 * x2, det)
    t = Fraction(x1 * y3 - y1 * x3, det)
    return (s * x1, t * x2, s * y1, t * y2)


def slope_correspondence_map(src: Sequence[Slope], dst: Sequence[Slope]) -> LinearMap:
    """A linear map of the plane carrying three distinct slopes to three
    distinct slopes, in order: F(dst) * F(src)^-1, where F(u) sends the
    directions (1, 0), (0, 1), (1, 1) to those of u."""
    if len(src) != 3 or len(dst) != 3:
        raise GeometryError("slope correspondence needs exactly three slopes per side")
    a, b, c, d = _frame(src, "source")
    e, f, g, h = _frame(dst, "destination")
    det = a * d - b * c
    return LinearMap((e * d - f * c) / det, (f * a - e * b) / det,
                     (g * d - h * c) / det, (h * a - g * b) / det)


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
