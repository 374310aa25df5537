"""Census engines: enumerate the combinatorial types a rider can realize.

Three independent routes to the same answer (exact recursive geometric
placement, exhaustive grid enumeration with stabilization, randomized
sampling) plus the built witness, with its checks, for position-dependence
of reachable types with four pieces.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .boards import (
    Board,
    board_sweep,
    lattice_points,  # not called here; bench/run.py traces it in this module
)
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
    line_coefficients,
    move_lines,
    parse_moves,
    region_masks,
    region_representatives,
    region_sample_points,  # not called here; bench/run.py traces it in this module
    sign_vector,
    steiner_count,
    unoriented,
)
from .placement import count_sets, grow_line_masks, nonattacking_sets
from .signature import (
    AttackError,
    Config,
    LabelledType,
    canonical_unlabelled,
    cone_of_mask,
    cone_patterns,
    key_from_cones,
    labelled_type,
    least_relabelling,
    orbit_size,
    type_dict,
)


@dataclass(frozen=True)
class Census:
    """Unlabelled types found by one engine run, as canonical labelled types."""

    ms: MoveSet
    q: int
    engine: str
    types: frozenset[LabelledType]
    exact: bool
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def r(self) -> int:
        return self.ms.r

    @property
    def size(self) -> int:
        return len(self.types)

    @cached_property
    def labelled_count(self) -> int:
        return sum(orbit_size(t) for t in self.types)


@dataclass(frozen=True)
class StabilizationReport:
    sizes: tuple[tuple[int, int], ...]  # (n, census size) per order tried
    stabilized_at: int | None  # first n of the constant window, None if unstable
    window: int


# -- grid engine -------------------------------------------------------------

# Both board engines run on `boards.board_sweep`: at order n they meet only the
# placement sets whose highest-numbered cell is new at n.  Every other set is a
# set of the previous order's board, met there, so a sweep over many orders
# costs about one run at its largest order.  A restart (start = 0) meets every
# set of the board again.  The numbering of the cells changes no result, as
# each set is built from its highest cell down whatever the numbering.

def count_sweep(ms: MoveSet, board: Board, q: int, orders: Iterable[int]
                ) -> Iterator[tuple[int, int]]:
    """(n, labelled count) for each order n of `orders`: the exact number of
    labelled nonattacking placements of q pieces on the order-n board.

    Counts the nonattacking q-sets of cells with `placement.count_sets`
    and multiplies by q!.  The line masks grow by each order's new cells; an
    old cell keeps its star, since the enumerator reads only the bits below
    a cell, which are all old.  q <= 2 counts in closed form on the whole
    board; from q = 3 on, the count adds the sets whose highest cell is new
    to the previous order's.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    for n, cells, start in board_sweep(board, orders):
        if start == 0:
            groups: list[dict[int, int]] = [{} for _ in ms.moves]
            stars: list[int] = []
            sets = 0
        lines = grow_line_masks(ms, cells, start, groups, stars)
        everything = (1 << len(cells)) - 1
        found = count_sets(everything, q, lines, ms.r, stars.__getitem__,
                           everything ^ ((1 << start) - 1))
        sets = found if q <= 2 else sets + found
        yield n, sets * math.factorial(q)


def count_nonattacking(ms: MoveSet, board: Board, n: int, q: int) -> int:
    """Exact number of labelled nonattacking placements on the order-n
    board: the one-order `count_sweep`."""
    return next(count_sweep(ms, board, q, [n]))[1]


def _keys_to_types(keys: Iterable[tuple[int, ...]], q: int, r: int) -> frozenset[LabelledType]:
    # one LabelledType per least key: relabelling keeps a key's coverage,
    # range and antipodal pairs, so its checks on the least keys cover all
    return frozenset(LabelledType(q, r, least)
                     for least in {least_relabelling(q, key) for key in keys})


def _cone_masks(ms: MoveSet, cells: Sequence[tuple[int, int]], start: int,
                groups: Sequence[dict[int, int]]) -> list[list[int]]:
    """`cones[v - start][g - 1]` for each cell v from `start` on: the cells
    below cell v strictly inside the open cone g around v.

    `groups[j]`, the line masks of move j by key d*x - c*y for the move
    (c, d), grows in place by the cells from `start` on.  A cell w has key(w)
    = key(v) - cross(move, w - v), so the cells of smaller key than v lie
    strictly left of v's line of that move and those of larger key strictly
    right of it.  Cone g is the AND of the half-planes its `cone_patterns`
    side mask names (bit j - 1 set: larger keys).
    """
    everything = (1 << len(cells)) - 1
    halves = []  # per move, per cell from `start`: (smaller-key cells, larger-key cells)
    for m, own in zip(ms.moves, groups):
        keys = [m.d * x - m.c * y for x, y in cells[start:]]
        for i, k in enumerate(keys, start):
            own[k] = own.get(k, 0) | (1 << i)
        # one pair per line, shared by its cells: a pair per cell would be N^2 bits
        split, seen = {}, 0
        for k in sorted(own):
            split[k] = (seen, everything ^ seen ^ own[k])
            seen |= own[k]
        halves.append([split[k] for k in keys])
    cones = []
    for v in range(start, len(cells)):
        below = (1 << v) - 1
        sides = [(left & below, right & below)
                 for left, right in (h[v - start] for h in halves)]
        own = []
        for pattern in cone_patterns(ms):
            mask = below
            for j, side in enumerate(sides):
                mask &= side[pattern >> j & 1]
            own.append(mask)
        cones.append(own)
    return cones


def grid_sweep(ms: MoveSet, board: Board, q: int, orders: Iterable[int]
               ) -> Iterator[tuple[int, int, frozenset[LabelledType]]]:
    """(n, cells, types) for each order n of `orders`: the number of cells
    of the order-n lattice board and the types realized on it (a lower
    bound for fixed n).

    Runs on the cone bitmasks of `_cone_masks` alone.  Below cell v, the
    cells v does not attack are exactly the union of its 2r cones, so the
    star that `placement.nonattacking_sets` needs is read off them: pieces
    1..q-1 run over its nonattacking sets, highest cell first, and the last
    piece over each set's `rest`.  The last piece lies in cone g_i around
    chosen piece i exactly when it is in `cones[chosen[i]][g_i - 1]`, so the
    keys one chosen set yields are exactly the cone tuples (g_1, ..., g_{q-1})
    whose cones meet `rest` in a common cell.  The walk ANDs `rest` with one
    cone per chosen piece in turn and drops every empty AND.  Each survivor,
    after the cones between chosen pieces (read off the same masks), lists
    the cones of one key in placement order, which `key_from_cones` turns
    into the key.  (The AND of the cones alone lies inside `rest`, since each
    mask holds only lower cells off its piece's lines; `rest` serves to skip
    a set that no last piece extends.)  The masks hold r*N*(N - 1) bits for
    N cells and the stars N*(N - 1)/2 more, which `boards.MAX_CELLS` bounds.
    q = 1 builds no masks.

    Across orders, an old cell keeps its masks and its star, which are read
    only below the cell, where every cell is old; each new cell gets its
    masks against every lower cell.  The chosen sets run over those whose
    highest cell is new, and only cone tuples not met before are turned
    into least keys.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    r = ms.r
    for n, cells, start in board_sweep(board, orders):
        if start == 0:
            groups: list[dict[int, int]] = [{} for _ in ms.moves]
            stars: list[int] = []
            cones: list[list[int]] = []
            found: set[tuple[int, ...]] = set()
            types: frozenset[LabelledType] = frozenset()
        everything = (1 << len(cells)) - 1
        if q > 1:
            grown = _cone_masks(ms, cells, start, groups)
            cones += grown
            # below v the star is every cell outside v's cones, which are disjoint
            stars += (~sum(own) for own in grown)
        met = set()
        for chosen, rest in nonattacking_sets(everything, q - 1, stars.__getitem__,
                                              everything ^ ((1 << start) - 1)):
            if not rest:
                continue
            frontier = [(rest, tuple(
                next(g for g, mask in enumerate(cones[chosen[i]], 1) if mask >> chosen[k] & 1)
                for k in range(len(chosen)) for i in range(k)
            ))]
            for v in chosen:
                frontier = [(meet, gs + (g,)) for avail, gs in frontier
                            for g, mask in enumerate(cones[v], 1) if (meet := avail & mask)]
            met.update(gs for _avail, gs in frontier)
        met -= found
        found |= met
        types |= _keys_to_types((key_from_cones(q, r, gs) for gs in met), q, r)
        yield n, len(cells), types


def grid_census(ms: MoveSet, board: Board, n: int, q: int) -> Census:
    """Types realized on the order-n lattice board (a lower bound for fixed
    n): the one-order `grid_sweep`."""
    n, cells, types = next(grid_sweep(ms, board, q, [n]))
    return Census(ms, q, "grid", types, False, {"n": n, "cells": cells})


def stabilized_census(
    ms: MoveSet,
    board: Board,
    q: int,
    n_start: int = 1,
    n_max: int = 24,
    window: int = 2,
    confirm_size: int | None = None,
) -> tuple[Census, StabilizationReport]:
    """Grid censuses for growing n, one `grid_sweep`, until the type set
    holds still.

    Stops once the census is unchanged for `window` consecutive increments.
    The result is exact only when `confirm_size` (from an independent engine
    or closed form) matches; stabilization alone is heuristic.  When n_max is
    reached without stabilizing, the partial census is returned with
    stabilized_at = None.
    """
    if n_start > n_max or window < 1:
        raise GeometryError("need n_start <= n_max and window >= 1")
    sizes = []
    prev_types: frozenset[LabelledType] | None = None
    held = 0
    stabilized_at = None
    for n, _cells, types in grid_sweep(ms, board, q, range(n_start, n_max + 1)):
        sizes.append((n, len(types)))
        # an empty census never counts as stable: the pieces simply do not fit yet
        if types and prev_types is not None and types == prev_types:
            held += 1
            if held >= window:
                stabilized_at = n - window
                break
        else:
            held = 0
        prev_types = types
    report = StabilizationReport(tuple(sizes), stabilized_at, window)
    exact = (
        stabilized_at is not None
        and confirm_size is not None
        and len(types) == confirm_size
    )
    final = Census(
        ms, q, "grid", types, exact,
        {"n": sizes[-1][0], "stabilized_at": stabilized_at, "window": window,
         "stable": stabilized_at is not None},
    )
    return final, report


# -- geometric engine --------------------------------------------------------

# The largest q at which a geometric census is exact.
GEOMETRIC_EXACT_MAX_Q = 3


def geometric_census(ms: MoveSet, q: int, refinement: int = 1) -> Census:
    """Recursive placement: piece 1 at the origin, each further piece at
    interior sample points of the current move-line arrangement's regions.

    Exact for q <= 3 (one representative per region suffices there); for
    q >= 4 the census is a lower bound that grows monotonically with
    `refinement` (extra sample points per region).

    Types are read off the region masks of `region_masks`, with no cone
    computation.  The arrangement of pieces 1..k holds the r move lines of
    piece i at positions (i-1)*r .. i*r - 1, so bits (i-1)*r .. i*r - 1 of a
    region's mask are the sides of the new piece on piece i's move lines:
    its side mask, which `cone_of_mask` turns into the cone of the pair
    (i, new).  Each new piece appends its cones to a tuple, so a complete
    placement holds the cones of the pairs i < k in placement order, which
    `key_from_cones` turns into the key.  The arrangement goes down the
    recursion as its lines' integer coefficient triples: each placement
    builds only its new piece's r triples, in integers, and no `Point`.
    The duplicate-line check that `configuration_arrangement` makes runs on
    the carried unoriented keys.
    No attack check is needed: the slab sweep of `region_masks` puts every
    sample strictly between two consecutive lines at an abscissa where no
    lines cross and no vertical line runs, so the new piece is on no move
    line of an earlier piece, hence attacks none of them (attacking is
    symmetric) and sits on none of them.  Every type is still built through
    `LabelledType`, whose coverage and antipodal checks run on its least
    relabelling (see `_keys_to_types`).
    """
    if q < 1 or refinement < 1:
        raise GeometryError("need q >= 1 and refinement >= 1")
    r = ms.r
    cone_of = cone_of_mask(ms)
    low = (1 << r) - 1
    types: set[LabelledType] = set()
    keys = {()} if q == 1 else set()  # labelled, not yet in `types`

    def pencil(xa: int, xb: int, ya: int, yb: int) -> tuple[tuple[int, int, int], ...]:
        # the move lines of the piece at (xa/xb, ya/yb), with no Fraction built
        return tuple(line_coefficients(m, xa, xb, ya, yb) for m in ms.moves)

    def place(coeffs: tuple[tuple[int, int, int], ...], held: frozenset,
              cones: tuple[int, ...]) -> int:
        # the placements completed from the pieces whose move lines are
        # `coeffs`, in placement order, depth first; `held` holds their
        # unoriented keys.  Keys go to `types` in batches of 2^12, so memory
        # does not grow with the placements.
        placed = 0
        for mask, pts in region_masks(coeffs, refinement).items():
            grown = cones + tuple(cone_of[mask >> j & low] for j in range(0, len(coeffs), r))
            if len(coeffs) + r < q * r:
                for xa, xb, y, den in pts:
                    new = pencil(xa, xb, y, den)
                    undirected = frozenset(map(unoriented, new))
                    if not held.isdisjoint(undirected):
                        raise GeometryError(f"duplicate line: the piece at {xa}/{xb},{y}/{den} "
                                            "is on a move line of an earlier piece")
                    placed += place(coeffs + new, held | undirected, grown)
            else:
                keys.add(key_from_cones(q, r, grown))
                placed += len(pts)
        if len(keys) >= 1 << 12:
            types.update(_keys_to_types(keys, q, r))
            keys.clear()
        return placed

    origin = pencil(0, 1, 0, 1)
    placements = place(origin, frozenset(map(unoriented, origin)), ()) if q > 1 else 1
    return Census(
        ms, q, "geometric", _keys_to_types(keys, q, r) | types, q <= GEOMETRIC_EXACT_MAX_Q,
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
        keys.add(t.key)
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
    return frozenset(labelled_type(ms, Config(cfg3 + (p4,))).key
                     for p4 in region_representatives(arr))


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
                        LabelledType(4, ms.r, min(ra ^ rb)))


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
        "reachable sets differ": w.differing_type.key in ra ^ rb,
        "one locus crossed": Side.ON not in sa + sb and sum(a != b for a, b in zip(sa, sb)) == 1,
    }


# -- serialization and cache -------------------------------------------------

def census_fields(census: Census) -> tuple[dict, list[LabelledType]]:
    """The fields of `census_to_dict` but "types", and the types in the
    order it lists them, by key."""
    return {
        "engine": census.engine,
        "moves": str(census.ms),
        "q": census.q,
        "r": census.r,
        "exact": census.exact,
        "unlabelled": census.size,
        "labelled": census.labelled_count,
        "metadata": census.metadata,
    }, sorted(census.types, key=attrgetter("key"))


def census_to_dict(census: Census) -> dict:
    """The cache value: the report's fields, and the types as their keys."""
    fields, types = census_fields(census)
    return {**fields, "types": [t.key for t in types]}


@lru_cache(maxsize=None)
def _type_template(q: int, r: int) -> str:
    # a type whose regions are the strings "@0", "@1", ..., dumped where a
    # report's "types" list holds it, with braces escaped and each
    # placeholder made the format field of its region
    marks = [f"@{n}" for n in range(q * (q - 1))]
    text = json.dumps({"types": [type_dict(q, r, marks)]}, sort_keys=True, indent=2)
    text = text.removeprefix('{\n  "types": [\n').removesuffix('\n  ]\n}')
    text = text.replace("{", "{{").replace("}", "}}")
    for n, mark in enumerate(marks):
        text = text.replace(f'"{mark}"', f"{{{n}}}")
    return text


def report_text(report: dict, types: Sequence[LabelledType]) -> str:
    """`json.dumps({**report, "types": [type_dict(t.q, t.r, t.key) for t in
    types]}, sort_keys=True, indent=2)`, byte for byte.  With `indent` set, `json`
    runs its pure-Python encoder, one step per integer; here `json` writes
    the report with an empty "types" list, and each type is one
    `str.format` of its (q, r) template over its key."""
    text = json.dumps({**report, "types": []}, sort_keys=True, indent=2)
    if not types:
        return text
    # only the top-level key sits at a two-space indent after a newline
    head, tail = text.split('\n  "types": []')
    body = ",\n".join(_type_template(t.q, t.r).format(*t.key) for t in types)
    return f'{head}\n  "types": [\n{body}\n  ]{tail}'


def census_from_dict(query: dict, value: dict) -> Census:
    """The census that the cached `value` of `query` stands for.

    Its move set, q and engine are the query's, `exact` is the engine's
    rule, its metadata is the value's with the query's value laid over each
    option the engine records, and each stored key gives one
    `canonical_unlabelled` type.  One rule decides a hit: that census must
    write back exactly the value, as JSON text.
    """
    ms, q, engine = parse_moves(query["moves"]), query["q"], query["engine"]
    types = frozenset(canonical_unlabelled(LabelledType(q, ms.r, tuple(map(int, key))))
                      for key in value["types"])
    recorded = {k: v for k, v in query.items()
                if k in ("refinement", "samples", "seed", "n", "window")}
    census = Census(ms, q, engine, types, engine == "geometric" and q <= GEOMETRIC_EXACT_MAX_Q,
                    {**value["metadata"], **recorded})
    if json.dumps(census_to_dict(census), sort_keys=True) != json.dumps(value, sort_keys=True):
        raise ValueError("the value is not the census it decodes to")
    return census


# Hashed into every cache key.  Raise it whenever an engine's results or
# their encoding change, so that entries written by older code are not served.
CACHE_SCHEMA = 3


def cache_key(kind: str, query: dict) -> str:
    body = json.dumps([CACHE_SCHEMA, kind, query], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def cache_load(cache_dir: str | os.PathLike | None, key: str,
               decode: Callable[[object], object]):
    """`decode` of the value cached under `key`, or None on a miss.

    One rule decides a hit: the entry's kind and query hash back to `key`.
    Any other entry, or one that does not parse or whose value `decode`
    cannot read (a missing key, a value of the wrong type or form), is a
    miss noted on stderr; the caller recomputes it and `cache_store`
    replaces it.
    """
    if cache_dir is None:
        return None
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        if cache_key(entry["kind"], entry["query"]) == key:
            return decode(entry["value"])
    except FileNotFoundError:
        return None
    except (LookupError, TypeError, ValueError, OverflowError, AttributeError, RecursionError):
        pass  # ValueError also covers bad JSON and bad UTF-8; OverflowError, int(Infinity)
    print(f"cache entry {path} does not parse as an entry; recomputing", file=sys.stderr)
    return None


def cache_store(cache_dir: str | os.PathLike | None, kind: str, query: dict,
                value: object) -> None:
    """Write {"kind", "query", "value"} under `cache_key(kind, query)`: to a
    temporary file, then `os.replace`, so no reader sees a partial entry."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{cache_key(kind, query)}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": kind, "query": query, "value": value},
                                sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
