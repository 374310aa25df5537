"""Closed forms, the golden table of known type counts, quasipolynomial
fitting of board counting functions, and their evaluation at n = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .finitefield import CharPoly, interpolate
from .geometry import GeometryError, MoveSet


def t3_closed_form(r: int) -> int:
    """Unlabelled types of three nonattacking copies of an r-move rider."""
    if r < 1:
        raise GeometryError("need r >= 1")
    value = r * (r * r + 3 * r - 1)
    if value % 3 != 0:
        raise AssertionError(f"r(r^2+3r-1) = {value} not divisible by 3")
    return value // 3


EXACT = "exact"
KOTESOVEC = "kotesovec-starred"
QUEEN_ONLY = "queen-only"

# Known unlabelled type counts per (q, r).  Starred values were computed from
# empirical counting formulas; queen-only values are the queen's, and
# `golden_types` applies them only to the queen's linear class.
_GOLDEN: dict[tuple[int, int], tuple[int, str]] = {}
for _r in range(1, 7):
    _GOLDEN[(1, _r)] = (1, EXACT)
    _GOLDEN[(2, _r)] = (_r, EXACT)
for _r, _v in zip(range(1, 7), (1, 6, 17, 36, 65, 106)):
    _GOLDEN[(3, _r)] = (_v, EXACT)
for _q in (4, 5, 6):
    _GOLDEN[(_q, 1)] = (1, EXACT)
    _GOLDEN[(_q, 2)] = (math.factorial(_q), EXACT)
_GOLDEN[(4, 3)] = (151, KOTESOVEC)
_GOLDEN[(5, 3)] = (1899, KOTESOVEC)
_GOLDEN[(6, 3)] = (31709, KOTESOVEC)
_GOLDEN[(4, 4)] = (574, QUEEN_ONLY)
_GOLDEN[(5, 4)] = (14206, QUEEN_ONLY)
_GOLDEN[(6, 4)] = (501552, QUEEN_ONLY)


def known_types(q: int, r: int) -> tuple[int, str] | None:
    """(value, annotation) from the golden table, or None where unknown."""
    return _GOLDEN.get((q, r))


# Queen-only values hold for the queen's linear class.  A linear map carries
# a move set's configuration arrangement onto that of its image, and PGL(2, Q)
# is sharply 3-transitive on slopes, so a 4-move rider is a linear image of
# the queen exactly when its four directions, like the queen's, have
# cross-ratio [u1,u3][u2,u4] / ([u1,u4][u2,u3]) in {-1, 2, 1/2}, a set that
# reordering the directions keeps ([a,b] is the 2x2 determinant).

def golden_types(ms: MoveSet, q: int) -> tuple[int, str] | None:
    """`known_types(q, r)` for `ms`, keeping a queen-only entry only when
    `ms` is in the queen's linear class."""
    golden = known_types(q, ms.r)
    if golden is None or golden[1] != QUEEN_ONLY:
        return golden
    u1, u2, u3, u4 = ms.moves
    det = lambda a, b: a.c * b.d - a.d * b.c
    cross = Fraction(det(u1, u3) * det(u2, u4), det(u1, u4) * det(u2, u3))
    return golden if cross in (-1, 2, Fraction(1, 2)) else None


@dataclass(frozen=True)
class QuasiPoly:
    """Cyclically repeating polynomials: constituent n % period applies at n."""

    period: int
    constituents: tuple[tuple[Fraction, ...], ...]  # ascending coefficients

    def __post_init__(self):
        if self.period < 1 or len(self.constituents) != self.period:
            raise GeometryError("need one constituent per residue class")
        trimmed = []
        for poly in self.constituents:
            coeffs = tuple(Fraction(c) for c in poly)
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            trimmed.append(coeffs)
        object.__setattr__(self, "constituents", tuple(trimmed))

    @property
    def degree(self) -> int:
        return max(len(c) - 1 for c in self.constituents)


def eval_quasipoly(qp: QuasiPoly, n: int) -> Fraction:
    """Exact value at any integer; n = -1 uses the class of period - 1."""
    return CharPoly(qp.constituents[n % qp.period])(n)


def fit_quasipoly(data: list[tuple[int, int]], period: int, degree: int) -> QuasiPoly:
    """Interpolate one polynomial of degree <= `degree` per residue class.

    Each class needs at least degree + 1 samples; surplus samples must lie on
    the interpolated polynomial exactly, otherwise the data is inconsistent
    with the declared period/degree and the offending n is reported.
    """
    if period < 1 or degree < 0:
        raise GeometryError("need period >= 1 and degree >= 0")
    seen = set()
    for n, _ in data:
        if n in seen:
            raise GeometryError(f"duplicate data point at n = {n}")
        seen.add(n)
    classes: dict[int, list[tuple[int, int]]] = {res: [] for res in range(period)}
    for n, value in sorted(data):
        classes[n % period].append((n, value))
    constituents = []
    for res in range(period):
        pts = classes[res]
        if len(pts) < degree + 1:
            raise GeometryError(
                f"residue class {res} mod {period} has {len(pts)} points, "
                f"needs {degree + 1}"
            )
        base, surplus = pts[: degree + 1], pts[degree + 1:]
        nums, den = interpolate(base)
        coeffs = tuple(Fraction(n, den) for n in nums)
        poly = CharPoly(coeffs)
        for n, value in surplus:
            got = poly(n)
            if got != value:
                raise GeometryError(
                    f"surplus point n = {n} off the fit: expected {value}, "
                    f"fit gives {got} (residual {got - value})"
                )
        constituents.append(coeffs)
    return QuasiPoly(period, tuple(constituents))


# The periods `find_period` tries, smallest first.
PERIOD_CANDIDATES = (1, 2, 3, 4, 6)


def find_period(data: list[tuple[int, int]], degree: int) -> int:
    """Smallest of `PERIOD_CANDIDATES` under which the data fits exactly.

    Reported rather than guessed silently: callers should surface the value.
    """
    last = None
    for period in PERIOD_CANDIDATES:
        try:
            fit_quasipoly(data, period, degree)
            return period
        except GeometryError as exc:
            last = exc
    raise GeometryError(f"no candidate period fits the data: {last}")


def types_at_minus_one(value: Fraction, q: int, kind: str) -> tuple[int, int]:
    """(labelled, unlabelled) types from the value at n = -1 of a q-piece
    counting quasipolynomial of `kind` "labelled" or "unlabelled" placements."""
    if value.denominator != 1 or value < 1:  # every rider has a type
        raise GeometryError(f"{kind} count at n = -1 is {value}, not an integer >= 1")
    value, orbit = int(value), math.factorial(q)
    if kind == "unlabelled":
        return value * orbit, value
    if value % orbit != 0:
        raise GeometryError(f"labelled count {value} not divisible by {q}!")
    return value, value // orbit


def types_from_counts(data: list[tuple[int, int]], period: int, q: int) -> tuple[int, int]:
    """Fit the degree-2q counting quasipolynomial to labelled placement counts
    and evaluate at -1: (labelled types, unlabelled types)."""
    if q < 1:
        raise GeometryError("need q >= 1")
    return types_at_minus_one(eval_quasipoly(fit_quasipoly(data, period, 2 * q), -1),
                              q, "labelled")


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse OEIS b-file lines `index value`; `#` comments and blanks allowed."""
    out = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GeometryError(f"line {lineno}: expected `index value`, got {raw!r}")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GeometryError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if n in seen:
            raise GeometryError(f"line {lineno}: duplicate index {n}")
        seen.add(n)
        out.append((n, value))
    return out
