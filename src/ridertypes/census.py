"""Census engines: enumerate the combinatorial types a rider can realize.

Three independent routes to the same answer (exact recursive geometric
placement, exhaustive grid enumeration with stabilization, randomized
sampling) plus the built witness, with its checks, for position-dependence
of reachable types with four pieces.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .boards import Board, lattice_points
from .geometry import (
    GeometryError,
    MoveSet,
    ORIGIN,
    OrientedLine,
    Point,
    Side,
    arrangement,
    configuration_arrangement,
    intersect,
    move_lines,
    parse_moves,
    region_representatives,
    region_sample_points,
    sign_vector,
    steiner_count,
)
from .placement import count_sets, line_masks, nonattacking_sets
from .signature import (
    AttackError,
    Config,
    LabelledType,
    UnlabelledType,
    antipode,
    canonical_unlabelled,
    cone_of,
    cone_of_pattern,
    key_pairs,
    labelled_type,
    orbit_size,
    region_numbering,
    type_from_dict,
    type_from_key,
    type_to_dict,
)


@dataclass(frozen=True)
class Census:
    """Set of unlabelled types found by one engine run."""

    ms: MoveSet
    q: int
    engine: str
    types: frozenset[UnlabelledType]
    exact: bool
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def r(self) -> int:
        return self.ms.r

    @property
    def size(self) -> int:
        return len(self.types)

    @property
    def labelled_count(self) -> int:
        return sum(orbit_size(t) for t in self.types)


@dataclass(frozen=True)
class StabilizationReport:
    sizes: tuple[tuple[int, int], ...]  # (n, census size) per order tried
    stabilized_at: int | None  # first n of the constant window, None if unstable
    window: int


# -- grid engine -------------------------------------------------------------

def count_nonattacking(ms: MoveSet, board: Board, n: int, q: int) -> int:
    """Exact number of labelled nonattacking placements on the order-n board.

    Counts the nonattacking q-sets of cells with the bitmask core of
    `placement` (the last two pieces in closed form) and multiplies by q!.
    """
    if q < 1 or n < 1:
        raise GeometryError("need q >= 1 and n >= 1")
    cells = lattice_points(board, n)
    if q == 1:
        return len(cells)
    lines, stars = line_masks(ms, cells)
    sets = count_sets((1 << len(cells)) - 1, q, lines, ms.r, stars.__getitem__)
    return sets * math.factorial(q)


def _keys_to_types(keys: Iterable[tuple[int, ...]], q: int, r: int) -> frozenset[UnlabelledType]:
    return frozenset(canonical_unlabelled(type_from_key(key, q, r)) for key in keys)


def grid_census(ms: MoveSet, board: Board, n: int, q: int) -> Census:
    """Types realized on the order-n lattice board (a lower bound for fixed n).

    Pieces 1..q-1 run over the nonattacking sets of `placement` and the last
    piece over each set's `rest`.
    """
    if q < 1 or n < 1:
        raise GeometryError("need q >= 1 and n >= 1")
    cells = lattice_points(board, n)
    rays = [(m.c, m.d) for m in region_numbering(ms)]
    pairs = [(i - 1, k - 1) for i, k in key_pairs(q)]  # indices into pts
    _lines, masks = line_masks(ms, cells)
    # memoized cone per relative displacement: board deltas repeat a lot
    cone = functools.lru_cache(maxsize=None)(lambda dx, dy: cone_of(rays, dx, dy))
    keys: set[tuple[int, ...]] = set()
    for chosen, rest in nonattacking_sets((1 << len(cells)) - 1, q - 1,
                                          masks.__getitem__):
        while rest:
            last = rest.bit_length() - 1
            rest ^= 1 << last
            pts = [cells[c] for c in (*chosen, last)]
            keys.add(tuple(
                cone(pts[k][0] - pts[i][0], pts[k][1] - pts[i][1])
                for i, k in pairs
            ))
    return Census(ms, q, "grid", _keys_to_types(keys, q, ms.r), False,
                  {"n": n, "cells": len(cells)})


def stabilized_census(
    ms: MoveSet,
    board: Board,
    q: int,
    n_start: int = 1,
    n_max: int = 24,
    window: int = 2,
    confirm_size: int | None = None,
) -> tuple[Census, StabilizationReport]:
    """Grid censuses for growing n until the type set holds still.

    Stops once the census is unchanged for `window` consecutive increments.
    The result is exact only when `confirm_size` (from an independent engine
    or closed form) matches; stabilization alone is heuristic.  When n_max is
    reached without stabilizing, the partial census is returned with
    stabilized_at = None.
    """
    if n_start > n_max or window < 1:
        raise GeometryError("need n_start <= n_max and window >= 1")
    sizes = []
    prev_types: frozenset[UnlabelledType] | None = None
    census = None
    held = 0
    stabilized_at = None
    for n in range(n_start, n_max + 1):
        census = grid_census(ms, board, n, q)
        sizes.append((n, census.size))
        # an empty census never counts as stable: the pieces simply do not fit yet
        if census.size > 0 and prev_types is not None and census.types == prev_types:
            held += 1
            if held >= window:
                stabilized_at = n - window
                break
        else:
            held = 0
        prev_types = census.types
    report = StabilizationReport(tuple(sizes), stabilized_at, window)
    exact = (
        stabilized_at is not None
        and confirm_size is not None
        and census.size == confirm_size
    )
    final = Census(
        ms, q, "grid", census.types, exact,
        {"n": sizes[-1][0], "stabilized_at": stabilized_at, "window": window,
         "stable": stabilized_at is not None},
    )
    return final, report


# -- geometric engine --------------------------------------------------------

def geometric_census(ms: MoveSet, q: int, refinement: int = 1) -> Census:
    """Recursive placement: piece 1 at the origin, each further piece at
    interior sample points of the current move-line arrangement's regions.

    Exact for q <= 3 (one representative per region suffices there); for
    q >= 4 the census is a lower bound that grows monotonically with
    `refinement` (extra sample points per region).

    Types are read off the sign vectors, with no cone computation.  The
    arrangement of pieces 1..k holds the r move lines of piece i at positions
    (i-1)*r .. i*r - 1, so that slice of a region's sign vector is the side
    of the new piece on each move line of piece i: its T2 pattern, which
    `cone_of_pattern` turns into the cone index g of the pair (i, new); the
    pair (new, i) gets the antipodal cone `antipode(g, r)`.
    No attack check is needed: `region_sample_points` drops every point that
    lies on a line of the arrangement, so the new piece is on no move line of
    an earlier piece, hence attacks none of them (attacking is symmetric) and
    sits on none of them.  Every type is still built through `LabelledType`,
    whose coverage and antipodal checks run on it.
    """
    if q < 1 or refinement < 1:
        raise GeometryError("need q >= 1 and refinement >= 1")
    r = ms.r
    index_of = cone_of_pattern(ms.moves)
    pairs = key_pairs(q)
    # (pieces, {(i, k): cone index}), pieces labelled 1, 2, ... in order
    level: list[tuple[tuple[Point, ...], dict]] = [((ORIGIN,), {})]
    keys = {()} if q == 1 else set()
    placements = 1 if q == 1 else 0
    for new in range(2, q + 1):
        extended = []
        for cfg, cones in level:
            arr = configuration_arrangement(ms, cfg)
            for sv, pts in region_sample_points(arr, refinement).items():
                grown = dict(cones)
                for i in range(1, new):
                    g = index_of[sv[(i - 1) * r:i * r]]
                    grown[(i, new)] = g
                    grown[(new, i)] = antipode(g, r)
                if new < q:
                    extended.extend((cfg + (p,), grown) for p in pts)
                else:
                    keys.add(tuple(grown[pair] for pair in pairs))
                    placements += len(pts)
        level = extended
    return Census(
        ms, q, "geometric", _keys_to_types(keys, q, r), q <= 3,
        {"refinement": refinement, "placements": placements},
    )


# -- random engine -----------------------------------------------------------

def random_census(ms: MoveSet, q: int, samples: int, seed: int = 0) -> Census:
    """Monte-Carlo lower bound: q rational points drawn from a large box.

    Deterministic for a fixed seed; attacking draws are skipped.  The result
    is always a subset of the true census.
    """
    if samples < 1:
        raise GeometryError("need samples >= 1")
    rng = random.Random(seed)
    keys = set()
    accepted = 0
    for _ in range(samples):
        pieces = tuple(
            Point(
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)),
            )
            for _ in range(q)
        )
        if len(set(pieces)) != q:
            continue
        cfg = Config(pieces)
        try:
            t = labelled_type(ms, cfg)
        except AttackError:
            continue
        accepted += 1
        keys.add(t.key())
    return Census(
        ms, q, "random", _keys_to_types(keys, q, ms.r), False,
        {"samples": samples, "seed": seed, "nonattacking": accepted},
    )


# -- fours witness -----------------------------------------------------------

@dataclass(frozen=True)
class FoursWitness:
    """Two placements of the third piece inside one region whose reachable
    fourth-piece type sets differ."""

    p1: Point
    p2: Point
    p3_a: Point
    p3_b: Point
    region_signature: tuple
    differing_type: LabelledType


def _reachable_keys(ms: MoveSet, cfg3: tuple[Point, ...]) -> frozenset[tuple[int, ...]]:
    arr = configuration_arrangement(ms, cfg3)
    keys = set()
    for p4 in region_representatives(arr):
        t = labelled_type(ms, Config(cfg3 + (p4,)))
        keys.add(t.key())
    return frozenset(keys)


def sweep_loci(ms: MoveSet, p1: Point, p2: Point) -> list[OrientedLine]:
    """The distinct lines through each crossing X of a P1 move line with a
    P2 move line that have a move slope other than the two crossing at X."""
    loci = {}
    for a, b, c in itertools.permutations(ms.moves, 3):
        ln = OrientedLine(intersect(OrientedLine(p1, a), OrientedLine(p2, b)), c)
        loci.setdefault(ln.unoriented_key(), ln)
    return list(loci.values())


def _toward_nearest(line: OrientedLine, walls: list[OrientedLine], frac: Fraction) -> Point:
    """The point `frac` of the way from the line's anchor to its nearest
    other crossing with `walls` (frac < 0: as far the other way)."""
    a = line.anchor
    xs = [x for x in (intersect(line, w) for w in walls) if isinstance(x, Point) and x != a]
    x = min(xs, key=lambda x: abs(x.x - a.x) + abs(x.y - a.y))
    return a.translated(frac * (x.x - a.x), frac * (x.y - a.y))


def fours_witness(ms: MoveSet) -> FoursWitness | None:
    """Two placements of piece 3 in one region of arr(P1, P2) that reach
    different fourth-piece types, built directly; None exactly when r < 3.

    Why they exist: where a P1 move line (slope a) crosses a P2 move line
    (slope b) at X, the line through X with a third move slope c is a sweep
    locus (`sweep_loci`).  As piece 3 crosses it, its c-line passes over X
    and the small triangle of the a-, b- and c-lines flips.  Three lines in
    general position leave one of the eight side patterns empty, and each
    piece's sector lies in one half-plane of its own line, so a fourth-piece
    type realized in the triangle on one side is realized nowhere on the
    other.  (With two pieces the only crossings are the pieces themselves,
    so one representative per region suffices for three pieces, not four.)

    Construction: P1 at the origin, P2 at P1's first region representative,
    and the locus of the third slope through the crossing X of P1's first
    and P2's second move line.  Piece 3 walks along the locus from X half
    way to the nearest line of arr(P1, P2) or of another locus, then steps
    along the first move half way to the nearest such line on each side, so
    the two placements straddle one locus and nothing else: one type goes
    out and one comes in.
    """
    if ms.r < 3:
        return None
    p1 = ORIGIN
    p2 = region_representatives(arrangement(move_lines(ms, p1)))[0]
    arr12 = configuration_arrangement(ms, (p1, p2))
    walls = [*arr12.lines, *sweep_loci(ms, p1, p2)]
    x = intersect(arr12.lines[0], arr12.lines[ms.r + 1])
    mid = _toward_nearest(OrientedLine(x, ms.moves[2]), walls, Fraction(1, 2))
    across = OrientedLine(mid, ms.moves[0])
    p3_a, p3_b = (_toward_nearest(across, walls, Fraction(f, 2)) for f in (-1, 1))
    ra, rb = (_reachable_keys(ms, (p1, p2, p3)) for p3 in (p3_a, p3_b))
    return FoursWitness(p1, p2, p3_a, p3_b, sign_vector(arr12, p3_a),
                        type_from_key(min(ra ^ rb), 4, ms.r))


def witness_checks(ms: MoveSet, w: FoursWitness) -> dict[str, bool]:
    """The named checks that make `w` a genuine witness."""
    p3s = (w.p3_a, w.p3_b)
    arr12 = configuration_arrangement(ms, (w.p1, w.p2))
    loci = arrangement(sweep_loci(ms, w.p1, w.p2))
    arrs = [configuration_arrangement(ms, (w.p1, w.p2, p3)) for p3 in p3s]
    ra, rb = (_reachable_keys(ms, (w.p1, w.p2, p3)) for p3 in p3s)
    sa, sb = (sign_vector(loci, p3) for p3 in p3s)
    return {
        "one region": {sign_vector(arr12, p3) for p3 in p3s} == {w.region_signature},
        "complete enumerations": all(len(region_representatives(a)) == steiner_count(a)
                                     for a in arrs),
        "reachable sets differ": w.differing_type.key() in ra ^ rb,
        "one locus crossed": Side.ON not in sa + sb and sum(a != b for a, b in zip(sa, sb)) == 1,
    }


# -- serialization and cache -------------------------------------------------

def census_to_dict(census: Census) -> dict:
    types = sorted(census.types, key=lambda t: t.canonical.key())
    return {
        "engine": census.engine,
        "moves": str(census.ms),
        "q": census.q,
        "r": census.r,
        "exact": census.exact,
        "unlabelled": census.size,
        "labelled": census.labelled_count,
        "types": [type_to_dict(t.canonical) for t in types],
        "metadata": census.metadata,
    }


def census_from_dict(data: dict) -> Census:
    types = frozenset(
        canonical_unlabelled(type_from_dict(entry)) for entry in data["types"]
    )
    return Census(
        parse_moves(data["moves"]), int(data["q"]), data["engine"],
        types, bool(data["exact"]), dict(data.get("metadata", {})),
    )


# Hashed into every cache key.  Raise it whenever an engine's results or
# their encoding change, so that entries written by older code are not served.
CACHE_SCHEMA = 1


def cache_key(kind: str, payload: dict) -> str:
    body = json.dumps([CACHE_SCHEMA, kind, payload], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def cache_load(cache_dir: str | os.PathLike | None, key: str,
               decode: Callable[[dict], object]):
    """`decode` of the cached entry for `key`, or None on a miss.

    An entry that does not parse as a JSON object, or that `decode` cannot
    read (a missing key, a value of the wrong type or form), counts as a miss
    and is noted on stderr; the caller recomputes it and `cache_store`
    replaces it.
    """
    if cache_dir is None:
        return None
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            return decode(data)
    except FileNotFoundError:
        return None
    except (LookupError, TypeError, ValueError, AttributeError):
        pass  # ValueError also covers bad JSON and bad UTF-8
    print(f"cache entry {path} does not parse as an entry; recomputing", file=sys.stderr)
    return None


def cache_store(cache_dir: str | os.PathLike | None, key: str, data: dict) -> None:
    """Write the entry atomically: a temporary file in the cache directory,
    then `os.replace`, so a reader never sees a partly written entry."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{key}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
