"""Exact rational planar geometry for rider move-line arrangements.

Everything here is computed over Q with `fractions.Fraction`, or in
integers: the slab sampler puts the x-breakpoints over one common
denominator, and the ordinates at each sample abscissa over another, and
sorts and side-tests their numerators.  There is no floating point anywhere
in this module.  The orientation convention is fixed once and for all:
walking along a line's direction vector, Left is the counterclockwise
(positive cross product) side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class GeometryError(ValueError):
    """Invalid geometric input (zero move, duplicate line, singular map...)."""


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


@dataclass(frozen=True)
class MoveSet:
    """An ordered set of basic moves, no two of them parallel."""

    moves: tuple[BasicMove, ...]

    def __post_init__(self):
        if not self.moves:
            raise GeometryError("a move set needs at least one move")
        for i, a in enumerate(self.moves):
            for j, b in enumerate(self.moves[i + 1:], i + 2):
                if a.c * b.d == a.d * b.c:
                    # by position: the moves are already in lowest terms,
                    # so 2,0 would read as 1,0
                    slope = Fraction(a.d, a.c) if a.c else "Infinity"
                    raise GeometryError(f"moves {i + 1} and {j} share slope {slope}")

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

    def unoriented_key(self) -> tuple[int, int, int]:
        """Canonical key identifying the underlying unoriented line: its
        `int_coefficients` up to sign (`unoriented`)."""
        return unoriented(self.int_coefficients())

    def int_coefficients(self) -> tuple[int, int, int]:
        """Integer (A, B, C) with the line equal to {A*x + B*y == C}: the
        `line_coefficients` of its direction through its anchor."""
        x, y = self.anchor.x, self.anchor.y
        return line_coefficients(self.direction, x.numerator, x.denominator,
                                 y.numerator, y.denominator)


def line_coefficients(move: BasicMove, xa: int, xb: int, ya: int, yb: int
                      ) -> tuple[int, int, int]:
    """Integer (A, B, C) with the line of `move` through (xa/xb, ya/yb),
    xb, yb > 0, equal to {A*x + B*y == C}, in integers alone.

    With the offset cross(move, anchor) = d*x - c*y in lowest terms num/den
    (den > 0), the triple is (d*den, -c*den, num).  It is chosen so that
    cross(move, p - anchor) and -(A*px + B*py - C) have the same sign, i.e.
    A*px + B*py - C < 0 on the Left side, and it is primitive, as the move
    is and the offset is in lowest terms.
    """
    num, den = move.d * xa * yb - move.c * ya * xb, xb * yb
    g = gcd(num, den)
    return (move.d * den // g, -move.c * den // g, num // g)


def unoriented(coefficients: tuple[int, int, int]) -> tuple[int, int, int]:
    """The key of the unoriented line of a primitive triple (A, B, C): the
    larger of it and its negative, which is the same line oppositely
    oriented."""
    a, b, c = coefficients
    return max(coefficients, (-a, -b, -c))


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


def _x_breakpoints(coeffs: Sequence[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """(L, numerators): the abscissas of the vertical lines and of every
    crossing (Cramer's rule) are X / L for the sorted distinct integers X,
    with L the lcm of their reduced denominators."""
    xs = set()
    for i, (a1, b1, c1) in enumerate(coeffs):
        if b1 == 0:
            xs.add((c1, a1))
        for a2, b2, c2 in coeffs[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det:
                xs.add((c1 * b2 - c2 * b1, det))
    reduced = set()
    for num, den in xs:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        reduced.add((num // g, den // g))
    common = lcm(*(den for _, den in reduced))
    return common, sorted({num * (common // den) for num, den in reduced})


def _gaps(values: Sequence[int], u: int, v: int, reach: int) -> list[int]:
    # v times: the point at fraction u/v of each gap between the sorted
    # values, and reach/v beyond both ends; [0] when there are no values
    if not values:
        return [0]
    inner = [lo * v + (hi - lo) * u for lo, hi in zip(values, values[1:])]
    return [values[0] * v - reach, *inner, values[-1] * v + reach]


_SPLITS = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
    Fraction(4, 5), Fraction(2, 7), Fraction(5, 7), Fraction(3, 11),
]


def region_masks(coeffs: Sequence[tuple[int, int, int]], samples: int = 1
                 ) -> dict[int, list[tuple[int, ...]]]:
    """Interior sample points grouped by region, in integers: the core of
    `region_sample_points`, for the arrangement of the lines A*x + B*y = C
    given by their `OrientedLine.int_coefficients` (A, B, C).  A region is
    keyed by the mask of the lines its points are Right of (bit n for line
    n), and a point (X, x_den, Y, y_den) is (X / x_den, Y / y_den).

    Slab sweep: sample abscissas lie strictly between consecutive
    x-breakpoints (crossings and vertical lines, `_x_breakpoints`) and
    beyond both extremes.  On each, the ordinates of the non-vertical lines
    go over one common denominator, and the candidates sit strictly between
    consecutive ordinates and beyond both ends.  Pass p takes split
    `_SPLITS[p % 8]` inside each gap and margin p + 1 past the ends, and
    each region keeps its first `samples` distinct candidates.

    One side test per abscissa: no crossing and no vertical line lies at a
    sample abscissa, so no two lines share an ordinate there and the lowest
    candidate, below every ordinate, lies on no line.  Its mask is tested
    against every line; going up from gap i - 1 to gap i crosses exactly the
    line of the i-th lowest ordinate, whose side alone flips.  So every
    candidate is off every line, and one pass meets every region.  Both
    facts are checked: a shared ordinate, or a lowest candidate on a line,
    raises GeometryError.
    """
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    common, breaks = _x_breakpoints(coeffs)
    # at x = a/b the line A*x + B*y = C has ordinate (C*b - A*a) / (b*B),
    # an integer over b * lcm|B|
    lcm_b = lcm(*(abs(b) for _, b, _ in coeffs if b))
    sloped = [(a, c, lcm_b // b, 1 << n) for n, (a, b, c) in enumerate(coeffs) if b]
    found: dict[int, list[tuple[int, ...]]] = {}
    for pass_no in range(samples):
        split = _SPLITS[pass_no % len(_SPLITS)]
        u, v, margin = split.numerator, split.denominator, 1 + pass_no
        for x in _gaps(breaks, u, v, margin * common * v):
            g = gcd(x, common * v)
            xa, xb = x // g, common * v // g
            bit_at = {(c * xb - a * xa) * scale: bit for a, c, scale, bit in sloped}
            if len(bit_at) < len(sloped):
                raise GeometryError(f"two lines share an ordinate at x = {xa}/{xb}")
            ys = sorted(bit_at)
            den = xb * lcm_b * v
            ords = _gaps(ys, u, v, margin * den)
            mask = 0
            for n, (a, b, c) in enumerate(coeffs):
                # sign of A*x + B*y - C at the lowest candidate, times xb*den > 0
                val = (a * xa - c * xb) * den + b * xb * ords[0]
                if val == 0:
                    raise GeometryError(f"the lowest candidate at x = {xa}/{xb} is on line {n}")
                mask |= (val > 0) << n
            # candidate i sits above the lines of ys[0], ..., ys[i - 1]
            for y, flip in zip(ords, (0, *map(bit_at.__getitem__, ys))):
                mask ^= flip
                bucket = found.get(mask)
                if bucket is None:
                    found[mask] = [(xa, xb, y, den)]
                elif len(bucket) < samples and all(
                    (xa, xb) != (bx, bxb) or y * bden != by * den for bx, bxb, by, bden in bucket
                ):
                    bucket.append((xa, xb, y, den))
    return found


def region_sample_points(arr: LineArrangement, samples: int = 1) -> dict[tuple, list[Point]]:
    """Interior sample points grouped by region, keyed by sign vector:
    `region_masks` with each mask read as Left/Right per line and each point
    as a `Point`, in the same order.  Every region gets at least one point
    and at most `samples`, and no point lies on a line, so no sign vector
    holds `Side.ON`."""
    sides = (Side.LEFT, Side.RIGHT)
    return {
        tuple(sides[mask >> n & 1] for n in range(arr.k)):
            [Point(Fraction(xa, xb), Fraction(y, den)) for xa, xb, y, den in pts]
        for mask, pts in region_masks([ln.int_coefficients() for ln in arr.lines],
                                      samples).items()
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
    any three directions can be sent to any three (`slope_correspondence_map`).
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


def frame_map(src: Sequence[tuple[int, int]], dst: Sequence[tuple[int, int]]
              ) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, den) with F(dst) * F(src)^-1 = (a, b; c, d) / den, in
    integers, for two triples of integer directions, each pairwise
    non-parallel.  F(u) sends the directions (1, 0), (0, 1), (1, 1) to
    those of u1, u2, u3, so the map sends the direction of each src[i] to
    that of dst[i].

    F(u) has the columns s*u1 and t*u2, where u3 = s*u1 + t*u2.  By Cramer's
    rule these are S/D and T/D for S = cross(u3, u2), T = cross(u1, u3) and
    D = cross(u1, u2).  So F(u) = G(u) / D for the integer matrix G(u) with
    columns S*u1 and T*u2, whose determinant is S*T*D, and
    F(dst) * F(src)^-1 = G(dst) * adj(G(src)) / (D(dst) * S(src) * T(src)).
    """
    (x1, y1), (x2, y2), (x3, y3) = src
    s, t = x3 * y2 - y3 * x2, x1 * y3 - y1 * x3
    a, b, c, d = s * x1, t * x2, s * y1, t * y2  # G(src)
    (x1, y1), (x2, y2), (x3, y3) = dst
    den = (x1 * y2 - y1 * x2) * s * t
    s, t = x3 * y2 - y3 * x2, x1 * y3 - y1 * x3
    e, f, g, h = s * x1, t * x2, s * y1, t * y2  # G(dst)
    return (e * d - f * c, f * a - e * b, g * d - h * c, h * a - g * b, den)


def slope_correspondence_map(src: Sequence[BasicMove], dst: Sequence[BasicMove]) -> LinearMap:
    """A linear map of the plane carrying three pairwise non-parallel moves
    to the directions of three others, in order: `frame_map` over Q."""
    for moves in (src, dst):
        if len(moves) != 3:
            raise GeometryError("slope correspondence needs exactly three moves per side")
        MoveSet(tuple(moves))  # rejects a parallel pair
    *entries, den = frame_map([(m.c, m.d) for m in src], [(m.c, m.d) for m in dst])
    return LinearMap(*(Fraction(v, den) for v in entries))


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
