"""Exact rational planar geometry for rider move-line arrangements.

Points are over Q with `fractions.Fraction`; lines are integer triples
(A, B, C) for {A*x + B*y == C}.  The slab sampler puts the x-breakpoints
over one common denominator, and the ordinates at each sample abscissa over
another, and sorts and side-tests their numerators.  There is no floating
point anywhere in this module.  The orientation convention is fixed once and
for all: walking along a line's direction vector, Left is the
counterclockwise (positive cross product) side, where A*x + B*y - C < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class GeometryError(ValueError):
    """Invalid geometric input (zero move, duplicate line, singular map...)."""


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


def line_through(move: BasicMove, p: Point) -> tuple[int, int, int]:
    """The `line_coefficients` of the line of `move` through the point p."""
    return line_coefficients(move, p.x.numerator, p.x.denominator,
                             p.y.numerator, p.y.denominator)


def configuration_arrangement(ms: MoveSet, pieces: Sequence[Point]
                              ) -> list[tuple[int, int, int]]:
    """The move lines of all pieces as `line_through` triples, r per piece in
    piece order.  The pieces must be nonattacking: otherwise two pencils share
    a line, and the check on the `unoriented` keys raises GeometryError."""
    lines = [line_through(m, p) for p in pieces for m in ms.moves]
    if len(set(map(unoriented, lines))) < len(lines):
        raise GeometryError("duplicate line: two pieces share a move line")
    return lines


def crossing(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> tuple[int, int, int]:
    """(X, Y, D) by Cramer's rule for two lines A*x + B*y = C: they cross at
    (X / D, Y / D) with D > 0, and D == 0 when they are parallel or equal."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if det < 0:
        return c2 * b1 - c1 * b2, a2 * c1 - a1 * c2, -det
    return c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, det


def region_count(coeffs: Sequence[tuple[int, int, int]]) -> int:
    """Number of open regions the lines A*x + B*y = C cut the plane into:
    Steiner's 1 + k + sum over p >= 2 of (p - 1) * n_p for k lines with n_p
    points where exactly p lines meet, the crossings grouped in lowest terms."""
    through: dict[tuple[int, int, int], set[int]] = {}
    for i, l1 in enumerate(coeffs):
        for j in range(i + 1, len(coeffs)):
            x, y, det = crossing(l1, coeffs[j])
            if det:
                g = gcd(x, y, det)
                through.setdefault((x // g, y // g, det // g), set()).update((i, j))
    return 1 + len(coeffs) + sum(len(lines) - 1 for lines in through.values())


def point_mask(coeffs: Sequence[tuple[int, int, int]], p: Point) -> int | None:
    """The region mask of p, as `region_masks` keys it (bit n set when p is
    Right of line n, where A*x + B*y - C > 0), or None when p is on a line."""
    xn, xd, yn, yd = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
    # the signs of A*x + B*y - C, times xd*yd > 0
    values = [a * xn * yd + b * yn * xd - c * xd * yd for a, b, c in coeffs]
    return None if 0 in values else sum((v > 0) << n for n, v in enumerate(values))


def _x_breakpoints(coeffs: Sequence[tuple[int, int, int]]) -> tuple[int, list[int]]:
    """(L, numerators): the abscissas of the vertical lines and of every
    crossing (Cramer's rule) are X / L for the sorted distinct integers X,
    with L the lcm of their reduced denominators."""
    xs = set()
    for i, l1 in enumerate(coeffs):
        if l1[1] == 0:
            xs.add((l1[2], l1[0]))
        for l2 in coeffs[i + 1:]:
            x, _, det = crossing(l1, l2)
            if det:
                xs.add((x, det))
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
    """Interior sample points grouped by region, in integers, for the
    arrangement of the lines A*x + B*y = C given by their triples (A, B, C).
    A region is keyed by the mask of the lines its points are Right of (bit
    n for line n), and a point (X, x_den, Y, y_den) is (X / x_den, Y / y_den).

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
