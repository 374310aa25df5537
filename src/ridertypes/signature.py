"""Combinatorial types of nonattacking rider configurations.

Two encodings of the same data: T1 gives, for every ordered piece pair
(i, k), the index 1..2r of the cone of piece i's move-line arrangement that
contains piece k; T2 gives, for every (piece i, move line j, piece k), the
side of the oriented line.  Region numbering is anchored at the ray of
smallest nonnegative angle from the positive x-axis and runs counterclockwise,
so signatures are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .geometry import BasicMove, GeometryError, MoveSet, Point, Side


class AttackError(ValueError):
    """Raised when a configuration expected to be nonattacking is not."""


@dataclass(frozen=True)
class Config:
    """Ordered list of piece positions; all distinct."""

    pieces: tuple[Point, ...]

    def __post_init__(self):
        if not self.pieces:
            raise GeometryError("a configuration needs at least one piece")
        if len(set(self.pieces)) != len(self.pieces):
            raise GeometryError("pieces must occupy distinct points")

    @property
    def q(self) -> int:
        return len(self.pieces)


def cone_of(rays: Sequence[tuple[int, int]], dx: int, dy: int) -> int:
    """Index 1..len(rays) of the open cone holding integer direction (dx, dy):
    the number of `rays` (sorted as in `region_numbering`) at a smaller angle
    in [0, 2*pi), with 0 read as the last cone.  (dx, dy) must be parallel to
    no ray, except that a ray itself reads its rank, which `_ray_order` uses.
    """
    half = 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
    count = 0
    for rx, ry in rays:
        ray_half = 0 if (ry > 0 or (ry == 0 and rx > 0)) else 1
        if ray_half < half or (ray_half == half and rx * dy - ry * dx > 0):
            count += 1
    return count or len(rays)


@lru_cache(maxsize=None)
def _ray_order(moves: tuple[BasicMove, ...]) -> tuple[BasicMove, ...]:
    rays = [m for m in moves] + [m.negated() for m in moves]
    pairs = [(m.c, m.d) for m in rays]
    # a ray's count of rays below it is its rank; the first ray reads len(rays)
    return tuple(sorted(rays, key=lambda m: cone_of(pairs, m.c, m.d) % len(rays)))


def region_numbering(ms: MoveSet) -> tuple[BasicMove, ...]:
    """The 2r rays +-m_j sorted counterclockwise from the smallest nonnegative
    angle; region k is the open cone strictly between rays k and k+1 (cyclic),
    and regions k and k+r are antipodal."""
    return _ray_order(ms.moves)


def cone_index(ms: MoveSet, v: tuple[Fraction, Fraction]) -> int:
    """Index 1..2r of the open cone containing direction v.

    Exact: v must not be parallel to any move (raises AttackError otherwise).
    """
    dx = v[0].numerator * v[1].denominator
    dy = v[1].numerator * v[0].denominator
    for j, m in enumerate(ms.moves, start=1):
        if m.c * dy - m.d * dx == 0:
            raise AttackError(f"direction {v} lies on move line {j} (slope of {m})")
    return cone_of([(ray.c, ray.d) for ray in _ray_order(ms.moves)], dx, dy)


def _cone_interior(rays: Sequence[BasicMove], k: int) -> tuple[int, int]:
    # interior direction of the open cone between rays k and k+1 (1-based)
    a = rays[k - 1]
    b = rays[k % len(rays)]
    cross = a.c * b.d - a.d * b.c
    if cross > 0:
        return (a.c + b.c, a.d + b.d)
    # r = 1: the two rays are antipodal, the gap is an open half-plane
    return (-a.d, a.c)


@lru_cache(maxsize=None)
def _cone_side_patterns(moves: tuple[BasicMove, ...]) -> tuple[tuple[Side, ...], ...]:
    """For each region index, the Left/Right pattern against every move line."""
    rays = _ray_order(moves)
    patterns = []
    for k in range(1, len(rays) + 1):
        wx, wy = _cone_interior(rays, k)
        pattern = []
        for m in moves:
            cross = m.c * wy - m.d * wx
            assert cross != 0, "cone interior cannot lie on a move line"
            pattern.append(Side.LEFT if cross > 0 else Side.RIGHT)
        patterns.append(tuple(pattern))
    return tuple(patterns)


def cone_of_pattern(moves: tuple[BasicMove, ...]) -> dict[tuple[Side, ...], int]:
    """Inverse of `_cone_side_patterns`: region index of each side pattern."""
    return {pattern: idx + 1 for idx, pattern in enumerate(_cone_side_patterns(moves))}


def antipode(g: int, r: int) -> int:
    """The cone of piece i around piece k when k lies in cone g around i."""
    return (g + r - 1) % (2 * r) + 1


def is_nonattacking(ms: MoveSet, cfg: Config) -> bool:
    """True iff no piece lies on a move line of another piece."""
    return attack_witness(ms, cfg) is None


def attack_witness(ms: MoveSet, cfg: Config):
    """First (i, k, j) with piece k on move line j of piece i, or None."""
    for i in range(cfg.q):
        for k in range(i + 1, cfg.q):
            dx, dy = cfg.pieces[k] - cfg.pieces[i]
            for j, m in enumerate(ms.moves, start=1):
                if m.c * dy - m.d * dx == 0:
                    return (i + 1, k + 1, j)
    return None


@dataclass(frozen=True)
class LabelledType:
    """T1 encoding: region index of piece k around piece i, all ordered pairs."""

    q: int
    r: int
    entries: tuple[tuple[int, int, int], ...]  # (i, k, region), sorted by (i, k)
    _lookup: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", entries)
        lookup = {(i, k): region for i, k, region in entries}
        object.__setattr__(self, "_lookup", lookup)
        if set(lookup) != set(key_pairs(self.q)):
            raise GeometryError("labelled type must cover every ordered pair exactly once")
        period = 2 * self.r
        for (i, k), region in lookup.items():
            if not 1 <= region <= period:
                raise GeometryError(f"region index {region} outside 1..{period}")
            if lookup[(k, i)] != antipode(region, self.r):
                raise GeometryError(
                    f"antipodal invariant broken at ({i},{k}): "
                    f"{region} vs {lookup[(k, i)]}"
                )

    def region(self, i: int, k: int) -> int:
        return self._lookup[(i, k)]

    def key(self) -> tuple[int, ...]:
        """Flattened region indices in `key_pairs` order; `type_from_key`
        inverts it."""
        return tuple(region for _, _, region in self.entries)


@lru_cache(maxsize=None)
def key_pairs(q: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, k) of pieces 1..q in key order: (1, 2), (1, 3), ..., (q, q - 1)."""
    return tuple(itertools.permutations(range(1, q + 1), 2))


def type_from_key(key: Sequence[int], q: int, r: int) -> LabelledType:
    """The labelled type whose key is `key`."""
    return LabelledType(q, r, tuple((i, k, g) for (i, k), g in zip(key_pairs(q), key)))


def labelled_type(ms: MoveSet, cfg: Config) -> LabelledType:
    """T1 type of a nonattacking configuration (raises AttackError otherwise)."""
    witness = attack_witness(ms, cfg)
    if witness is not None:
        i, k, j = witness
        raise AttackError(
            f"pieces {i} and {k} attack along move {j} ({ms.moves[j - 1]})"
        )
    entries = []
    for i in range(cfg.q):
        for k in range(cfg.q):
            if i == k:
                continue
            v = cfg.pieces[k] - cfg.pieces[i]
            entries.append((i + 1, k + 1, cone_index(ms, v)))
    return LabelledType(cfg.q, ms.r, tuple(entries))


@dataclass(frozen=True)
class UnlabelledType:
    """A labelled type up to piece relabeling, stored as the lexicographic
    minimum of the flattened entries over all q! permutations."""

    canonical: LabelledType


@lru_cache(maxsize=None)
def _relabellings(q: int) -> tuple[itemgetter, ...]:
    # per permutation sigma of 1..q, a getter from a key to the key relabelled
    # by sigma: entry (i, k) reads the position of (sigma(i), sigma(k))
    pairs = key_pairs(q)
    position = {pair: n for n, pair in enumerate(pairs)}
    return tuple(
        itemgetter(*(position[(sigma[i - 1], sigma[k - 1])] for i, k in pairs))
        for sigma in itertools.permutations(range(1, q + 1))
    )


def canonical_unlabelled(t: LabelledType) -> UnlabelledType:
    """Builds the type of the least of the q! relabelled keys."""
    if t.q == 1:
        return UnlabelledType(t)
    key = t.key()
    return UnlabelledType(type_from_key(min(g(key) for g in _relabellings(t.q)), t.q, t.r))


def orbit_size(u: UnlabelledType) -> int:
    """Number of distinct labelled types obtained by relabeling."""
    t = u.canonical
    if t.q == 1:
        return 1
    key = t.key()
    return len({g(key) for g in _relabellings(t.q)})


@dataclass(frozen=True)
class T2Type:
    """Side data per (piece i, move line j, piece k) triple."""

    q: int
    r: int
    triples: tuple[tuple[int, int, int, Side], ...]  # (i, j, k, side), sorted
    _sides: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(sorted(self.triples)))
        object.__setattr__(self, "_sides", {(i, j, k): side for i, j, k, side in self.triples})

    def side(self, i: int, j: int, k: int) -> Side:
        return self._sides[(i, j, k)]


def t1_to_t2(t: LabelledType, ms: MoveSet) -> T2Type:
    """Convert region indices into per-line side data."""
    if ms.r != t.r:
        raise GeometryError("move set size does not match the type")
    patterns = _cone_side_patterns(ms.moves)
    triples = []
    for i, k, region in t.entries:
        for j, side in enumerate(patterns[region - 1], start=1):
            triples.append((i, j, k, side))
    return T2Type(t.q, t.r, tuple(triples))


def t2_to_t1(t2: T2Type, ms: MoveSet) -> LabelledType:
    """Inverse conversion; raises if a side pattern matches no region."""
    if ms.r != t2.r:
        raise GeometryError("move set size does not match the type")
    index_of = cone_of_pattern(ms.moves)
    by_pair: dict[tuple[int, int], dict[int, Side]] = {}
    for i, j, k, side in t2.triples:
        by_pair.setdefault((i, k), {})[j] = side
    entries = []
    for (i, k), sides in by_pair.items():
        if sorted(sides) != list(range(1, t2.r + 1)):
            raise GeometryError(f"pair ({i},{k}) is missing side data for some line")
        pattern = tuple(sides[j] for j in range(1, t2.r + 1))
        region = index_of.get(pattern)
        if region is None:
            raise GeometryError(f"side pattern {pattern} matches no region of {ms}")
        entries.append((i, k, region))
    return LabelledType(t2.q, t2.r, tuple(entries))


def reorient_type(t: LabelledType, ms: MoveSet, j: int) -> LabelledType:
    """Type of the same configuration after reorienting move j.

    Routed through T2 (flip every side on line j, reconvert under the
    reoriented move set).  With the angle-anchored T1 numbering the cones keep
    their indices, so this is the identity on T1 data; the conversion is kept
    as a consistency check rather than shortcut.
    """
    if not 1 <= j <= ms.r:
        raise GeometryError(f"move index {j} out of range 1..{ms.r}")
    t2 = t1_to_t2(t, ms)
    flipped = tuple(
        (i, jj, k, (Side.RIGHT if side is Side.LEFT else Side.LEFT) if jj == j else side)
        for i, jj, k, side in t2.triples
    )
    return t2_to_t1(T2Type(t2.q, t2.r, flipped), ms.reorient(j))


# -- serialization -----------------------------------------------------------

def type_to_dict(t: LabelledType) -> dict:
    return {"q": t.q, "r": t.r, "entries": [list(e) for e in t.entries]}


def type_from_dict(data: dict) -> LabelledType:
    entries = tuple((int(i), int(k), int(region)) for i, k, region in data["entries"])
    return LabelledType(int(data["q"]), int(data["r"]), entries)
