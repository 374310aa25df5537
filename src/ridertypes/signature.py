"""Combinatorial types of nonattacking rider configurations.

A labelled type is its T1 key: for every ordered piece pair (i, k), the
index 1..2r of the cone of piece i's move-line arrangement that contains
piece k.  Each cone has one side mask, bit j - 1 set when the cone is Right
of move line j (`cone_patterns`, inverted by `cone_of_mask`), so the side of
line j of piece i on which piece k lies is bit j - 1 of
`cone_patterns(ms)[t.region(i, k) - 1]`.  Region numbering is anchored at
the ray of smallest nonnegative angle from the positive x-axis and runs
counterclockwise, so signatures are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .geometry import BasicMove, GeometryError, MoveSet, Point


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


def _angle_key(m: BasicMove) -> tuple:
    # the half-plane [0, pi) before [pi, 2*pi); within one the ray on the
    # x-axis comes first, then the cotangent c/d falls as the angle grows
    upper = m.d > 0 or (m.d == 0 and m.c > 0)
    return (not upper, m.d != 0, Fraction(-m.c, m.d) if m.d else 0)


@lru_cache(maxsize=None)
def region_numbering(ms: MoveSet) -> tuple[BasicMove, ...]:
    """The 2r rays +-m_j sorted counterclockwise from the smallest nonnegative
    angle; region k is the open cone strictly between rays k and k+1 (cyclic),
    and regions k and k+r are antipodal."""
    return tuple(sorted((*ms.moves, *(m.negated() for m in ms.moves)), key=_angle_key))


def _cone_interior(rays: Sequence[BasicMove], k: int) -> tuple[int, int]:
    # interior direction of the open cone between rays k and k+1 (1-based)
    a = rays[k - 1]
    b = rays[k % len(rays)]
    cross = a.c * b.d - a.d * b.c
    if cross > 0:
        return (a.c + b.c, a.d + b.d)
    # r = 1: the two rays are antipodal, the gap is an open half-plane
    return (-a.d, a.c)


def _side_mask(ms: MoveSet, v: Sequence[Fraction | int]) -> tuple[int, int]:
    """The side mask of direction v, bit j - 1 set when v is Right of move
    line j (negative cross product), and the first move line v lies on, or 0.
    In integers: v is scaled by the positive product of its denominators."""
    dx, dy = v[0].numerator * v[1].denominator, v[1].numerator * v[0].denominator
    crosses = [m.c * dy - m.d * dx for m in ms.moves]
    mask = sum(1 << j for j, cross in enumerate(crosses) if cross < 0)
    return mask, crosses.index(0) + 1 if 0 in crosses else 0


@lru_cache(maxsize=None)
def cone_patterns(ms: MoveSet) -> tuple[int, ...]:
    """For each region index, the side mask of its cone: bit j - 1 is set
    when the cone is Right of move line j, as in `geometry.region_masks`."""
    rays = region_numbering(ms)
    masks, on = zip(*(_side_mask(ms, _cone_interior(rays, k)) for k in range(1, len(rays) + 1)))
    assert not any(on), "a cone interior lies on a move line"
    return masks


@lru_cache(maxsize=None)
def cone_of_mask(ms: MoveSet) -> dict[int, int]:
    """Inverse of `cone_patterns`: the region index of each side mask."""
    return {mask: g for g, mask in enumerate(cone_patterns(ms), start=1)}


def cone_index(ms: MoveSet, v: tuple[Fraction, Fraction]) -> int:
    """Index 1..2r of the open cone containing direction v: the region whose
    side mask v has against the move lines.  Exact: v must not be parallel to
    any move (raises AttackError otherwise)."""
    mask, j = _side_mask(ms, v)
    if j:
        raise AttackError(f"direction {v} lies on move line {j} (slope of {ms.moves[j - 1]})")
    return cone_of_mask(ms)[mask]


def antipode(g: int, r: int) -> int:
    """The cone of piece i around piece k when k lies in cone g around i."""
    return (g + r - 1) % (2 * r) + 1


def is_nonattacking(ms: MoveSet, cfg: Config) -> bool:
    """True iff no piece lies on a move line of another piece."""
    return attack_witness(ms, cfg) is None


def attack_witness(ms: MoveSet, cfg: Config):
    """First (i, k, j) with piece k on move line j of piece i, or None."""
    for i, k in itertools.combinations(range(cfg.q), 2):
        _, j = _side_mask(ms, cfg.pieces[k] - cfg.pieces[i])
        if j:
            return (i + 1, k + 1, j)
    return None


@dataclass(frozen=True)
class LabelledType:
    """T1 encoding: the region index of piece k around piece i for every
    ordered pair (i, k), in `key_pairs(q)` order."""

    q: int
    r: int
    key: tuple[int, ...]

    def __post_init__(self):
        if len(self.key) != len(key_pairs(self.q)):
            raise GeometryError("labelled type must cover every ordered pair exactly once")
        period = 2 * self.r
        for (i, k), region, back in zip(key_pairs(self.q), self.key, _swapped(self.q)):
            if not 1 <= region <= period:
                raise GeometryError(f"region index {region} outside 1..{period}")
            if self.key[back] != antipode(region, self.r):
                raise GeometryError(
                    f"antipodal invariant broken at ({i},{k}): "
                    f"{region} vs {self.key[back]}"
                )

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """(i, k, region) for every ordered pair, in `key_pairs` order."""
        return tuple((i, k, g) for (i, k), g in zip(key_pairs(self.q), self.key))

    def region(self, i: int, k: int) -> int:
        return self.key[_position(self.q)[(i, k)]]


@lru_cache(maxsize=None)
def key_pairs(q: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, k) of pieces 1..q in key order: (1, 2), (1, 3), ..., (q, q - 1)."""
    return tuple(itertools.permutations(range(1, q + 1), 2))


@lru_cache(maxsize=None)
def _position(q: int) -> dict[tuple[int, int], int]:
    return {pair: n for n, pair in enumerate(key_pairs(q))}


@lru_cache(maxsize=None)
def _swapped(q: int) -> tuple[int, ...]:
    # per pair (i, k) in key order, the position of (k, i)
    return tuple(_position(q)[(k, i)] for i, k in key_pairs(q))


@lru_cache(maxsize=None)
def _from_cones(q: int) -> itemgetter:
    # reads a key off the placement-order cones followed by their antipodes:
    # pair (i, k) with i < k is slot (k-1)(k-2)/2 + i-1, and (k, i) that slot
    # plus q(q-1)/2
    if q == 1:
        return tuple  # one piece: no cones, the empty key
    slot = {(i, k): (k - 1) * (k - 2) // 2 + i - 1
            for i, k in key_pairs(q) if i < k}
    return itemgetter(*(slot[i, k] if i < k else slot[k, i] + len(slot)
                        for i, k in key_pairs(q)))


def key_from_cones(q: int, r: int, cones: Sequence[int]) -> tuple[int, ...]:
    """The T1 key of q pieces given the cone of piece k around piece i for
    each pair i < k in placement order (1, 2), (1, 3), (2, 3), (1, 4), ...;
    each pair (k, i) gets the antipode."""
    return _from_cones(q)((*cones, *(antipode(g, r) for g in cones)))


def labelled_type(ms: MoveSet, cfg: Config) -> LabelledType:
    """T1 type of a nonattacking configuration (raises AttackError otherwise).
    Both cones of each pair are computed: the antipodal check compares them."""
    witness = attack_witness(ms, cfg)
    if witness is not None:
        i, k, j = witness
        raise AttackError(
            f"pieces {i} and {k} attack along move {j} ({ms.moves[j - 1]})"
        )
    pieces = cfg.pieces
    return LabelledType(cfg.q, ms.r, tuple(
        cone_index(ms, pieces[k - 1] - pieces[i - 1]) for i, k in key_pairs(cfg.q)
    ))


@lru_cache(maxsize=None)
def _relabellings(q: int) -> tuple[itemgetter, ...]:
    # per permutation sigma of 1..q, a getter from a key to the key relabelled
    # by sigma: entry (i, k) reads the position of (sigma(i), sigma(k))
    if q == 1:
        return (tuple,)  # one piece: the empty key, and the identity on it
    position = _position(q)
    return tuple(
        itemgetter(*(position[(sigma[i - 1], sigma[k - 1])] for i, k in key_pairs(q)))
        for sigma in itertools.permutations(range(1, q + 1))
    )


def least_relabelling(q: int, key: tuple[int, ...]) -> tuple[int, ...]:
    """The least of the q! relabellings of the key of q pieces."""
    return min(g(key) for g in _relabellings(q))


def canonical_unlabelled(t: LabelledType) -> LabelledType:
    """The unlabelled type of `t`, held as its relabelling with the least key
    over all q! permutations: `t` itself when its key is already the least."""
    least = least_relabelling(t.q, t.key)
    return t if least == t.key else LabelledType(t.q, t.r, least)


def orbit_size(t: LabelledType) -> int:
    """Number of distinct labelled types obtained by relabeling."""
    return len({g(t.key) for g in _relabellings(t.q)})


def reorient_type(t: LabelledType, ms: MoveSet, j: int) -> LabelledType:
    """Type of the same configuration after reorienting move j: bit j - 1 of
    each cone's side mask flips, and the cone is read off the reoriented move
    set.  The angle-anchored cones keep their indices, so this is the identity
    on keys; the lookup is kept as a consistency check rather than shortcut."""
    cone_of = cone_of_mask(ms.reorient(j))  # raises unless 1 <= j <= r
    if ms.r != t.r:
        raise GeometryError("move set size does not match the type")
    patterns = cone_patterns(ms)
    flip = 1 << (j - 1)
    return LabelledType(t.q, t.r, tuple(cone_of[patterns[g - 1] ^ flip] for g in t.key))


# -- report form -------------------------------------------------------------

def type_dict(q: int, r: int, regions: Sequence) -> dict:
    """The report form of a type of q pieces and r moves: an (i, k, region)
    entry per pair, with `regions` in `key_pairs` order.  A report's
    template passes placeholders for the regions."""
    return {"q": q, "r": r, "entries": [[i, k, g] for (i, k), g in zip(key_pairs(q), regions)]}
