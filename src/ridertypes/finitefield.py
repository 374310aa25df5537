"""Exact labelled-type counts via finite-field point counting.

A labelled type is a region of the arrangement in R^(2q) whose hyperplanes
say "piece k sits on a move line of piece i".  Counting the q-tuples over
F_p x F_p that avoid every attack line, for enough good primes p, pins down
the integer characteristic polynomial by interpolation; evaluating it at -1
gives the region count.  Only the part of the polynomial that is not known
in advance is interpolated (see `char_poly`).  Exceptional primes are caught
operationally: extra validation primes must reproduce the interpolated
polynomial exactly or the run fails and retries with larger primes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .geometry import GeometryError, MoveSet, crossing, frame_map
from .placement import count_sets, torus_line_masks

# Largest prime the engine counts over.  At q >= 5 `torus_count` holds p
# line masks of p^2 bits for each of the r moves, r * p^3 bits in all:
# under 13 MB for r <= 6 at p = 257 (q <= 4 builds no masks).  The ceiling
# holds at every q.  A floor above it is rejected before any prime search.
MAX_PRIME = 257

# Primes counted beyond the 2q - 3 that interpolation needs; the polynomial
# must fit each of them exactly.
VALIDATION_PRIMES = 2

# Windows of primes `ff_type_count` tries, each above the last, before an
# exceptional sample is reported.
ATTEMPTS = 3


class EngineError(RuntimeError):
    """The ff engine could not produce a result; the CLI exits 3."""


class ExceptionalPrimeError(EngineError):
    """Interpolation detected an inconsistent prime sample."""


# Each census asks again about the same few numbers below MAX_PRIME; the
# cache keeps the trial division from costing ~5% of an ff census at q = 4.
@functools.cache
def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def valid_prime(ms: MoveSet, p: int) -> bool:
    """True iff the move-line geometry survives reduction mod p: no move
    collapses and no two slopes collide (p divides no pairwise cross product)."""
    if not is_prime(p):
        return False
    for m in ms.moves:
        if m.c % p == 0 and m.d % p == 0:
            return False
    for i in range(ms.r):
        for j in range(i + 1, ms.r):
            a, b = ms.moves[i], ms.moves[j]
            if (a.c * b.d - a.d * b.c) % p == 0:
                return False
    return True


def valid_primes_from(ms: MoveSet, floor: int, count: int) -> list[int]:
    """The `count` smallest valid primes >= floor, none above MAX_PRIME."""
    if floor > MAX_PRIME:
        raise GeometryError(f"prime floor {floor} exceeds MAX_PRIME = {MAX_PRIME}")
    primes = []
    p = max(2, floor)
    while len(primes) < count:
        if p > MAX_PRIME:
            raise GeometryError(
                f"only {len(primes)} of {count} valid primes from {floor} "
                f"lie below MAX_PRIME = {MAX_PRIME}"
            )
        if valid_prime(ms, p):
            primes.append(p)
        p += 1
    return primes


def _normalize_line(p: int, line: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = line[0] % p, line[1] % p, line[2] % p
    if a == 0 and b == 0:
        raise GeometryError("degenerate line 0*x + 0*y = c")
    lead = pow(a if a != 0 else b, -1, p)
    return (a * lead % p, b * lead % p, c * lead % p)


# Kept with no engine caller: criterion 9 tests it, `bench/run.py --trace 1` wraps it.
def last_level_count(p: int, lines: list[tuple[int, int, int]]) -> int:
    """Points of F_p x F_p on none of the given lines (a*x + b*y = c mod p).

    Counted algebraically: each line adds p points minus those already
    covered, where the overlap is the number of distinct intersection points
    with the earlier lines (parallel pairs never meet; distinct non-parallel
    lines meet exactly once).
    """
    normalized = [_normalize_line(p, ln) for ln in lines]
    if len(set(normalized)) != len(normalized):
        raise GeometryError("duplicate lines mod p")
    union = 0
    for i, l1 in enumerate(normalized):
        seen = set()
        for l2 in normalized[:i]:
            x, y, det = crossing(l1, l2)
            if det % p:
                dinv = pow(det, -1, p)
                seen.add((x * dinv % p, y * dinv % p))
        union += p - len(seen)
    return p * p - union


def valid_torus_count(q: int, p: int, count: int) -> bool:
    """The invariant of torus counts: p^2 for q = 1.  For q >= 2 translations
    and scalings act freely on nonattacking q-tuples, and so do the q!
    relabellings, so p^2 (p - 1) and q! divide the count, in 0..p^(2q)."""
    if q == 1:
        return count == p * p
    return (0 <= count <= p ** (2 * q) and count % (p * p * (p - 1)) == 0
            and count % math.factorial(q) == 0)


def _direction_cell(x: int, y: int, p: int) -> int:
    # the cell (0, 1) or (1, t) on the line through the origin and (x, y)
    x %= p
    return 1 if x == 0 else p + y * pow(x, -1, p) % p


def _image(linear: tuple[int, int, int, int], cell: int, p: int) -> int:
    # the direction cell of `linear` applied to the direction cell `cell`
    a, b, c, d = linear
    x, y = divmod(cell, p)
    return _direction_cell(a * x + b * y, c * x + d * y, p)


def direction_group(ms: MoveSet, p: int) -> list[tuple[int, int, int, int]]:
    """The linear maps (a, b, c, d): (x, y) -> (a*x + b*y, c*x + d*y) of
    F_p x F_p that permute the r move directions, one per projective map.

    A map of the projective line is fixed by the images of three points.  So
    for each ordered triple v of move directions take the `frame_map` from
    the first three move directions u to v, reduced mod p.  It sends u to v,
    and it is kept when it sends the other move directions to move
    directions too: being invertible, it then permutes them.  Its
    denominator and determinant are products of cross products of move
    directions, which a valid prime does not divide.  The triple v = u gives
    the identity.  For r <= 2 the group is the identity alone.
    """
    if ms.r < 3:
        return [(1, 0, 0, 1)]
    moves = [(m.c, m.d) for m in ms.moves]
    cells = [_direction_cell(x, y, p) for x, y in moves]
    targets = set(cells)
    group = []
    for v in itertools.permutations(moves, 3):
        a, b, c, d, den = frame_map(moves[:3], v)
        inv = pow(den, -1, p)
        linear = (a * inv % p, b * inv % p, c * inv % p, d * inv % p)
        if all(_image(linear, cell, p) in targets for cell in cells[3:]):
            group.append(linear)
    return group


def direction_orbits(ms: MoveSet, p: int) -> dict[int, int]:
    """{cell: orbit size}: the first cell, (0, 1) or (1, t), of each orbit of
    `direction_group` on the directions that are not move directions."""
    group = direction_group(ms, p)
    moves = {_direction_cell(m.c, m.d, p) for m in ms.moves}
    orbits: dict[int, int] = {}
    seen = set(moves)
    for cell in (1, *range(p, 2 * p)):
        if cell not in seen:
            orbit = {_image(linear, cell, p) for linear in group}
            seen |= orbit
            orbits[cell] = len(orbit)
    return orbits


def pinned_count(ms: MoveSet, p: int, q: int) -> int:
    """`torus_count`'s subtotal at q = 2, 3 or 4, with no masks: with piece
    1 at the origin O, the sum over the direction cells P, (0, 1) or (1, t),
    off the move lines of O, of the sets of q - 2 distinct, nonattacking
    cells of F_p x F_p that attack neither O nor P.

    At q = 2 that is the number of such P, p + 1 - r.  Otherwise let A be
    the complement of the stars of O and P, each the r lines through its
    cell, r(p - 1) + 1 cells.  The two stars meet only in the crossings X_ab
    of O's line of move a with P's line of move b, a != b: for a = b the
    lines are parallel and distinct, as P is on no line of O, and two
    crossings coincide only if a = a' (else the point is O, on no line of P)
    and b = b' (likewise).  So the r(r - 1) crossings are distinct and

        |A| = p^2 - 2r(p - 1) - 2 + r(r - 1) = (p - r)^2 + r - 2,

    whatever P is.  At q = 3 the subtotal is (p + 1 - r)|A|, so the torus
    count is chi_3(p), chi_3(t) = t^2 (t - 1)(t + 1 - r)((t - r)^2 + r - 2),
    and chi_3(-1) / 3! = r(r^2 + 3r - 1) / 3, the paper's t(3).

    At q = 4, P runs over the `direction_orbits`, weighted by orbit size
    (see `torus_count`), and the subtotal is half the ordered pairs inside
    A.  They number |A|^2 - sum_l |A & l|^2 + (r - 1)|A|
    (`placement.pair_count`), l over the p lines of each move.

    A line l of move j through O or P lies inside a star, |A & l| = 0.  Any
    other l meets each of the r - 1 lines of O of the other moves once, in
    r - 1 distinct points (they meet each other only at O), and is parallel
    to O's line of move j; likewise for P.  Those 2(r - 1) points count
    each crossing X_ab on l twice, and none has a = j (it is on O's line of
    move j) or b = j (on P's), so

        |A & l| = p - 2r + 2 + m_l,

    m_l being the number of crossings X_ab with a, b != j on l.  Each of
    those (r - 1)(r - 2) crossings lies on exactly one line of move j, never
    the one through O (it would meet O's line of move a at O) or P, so the
    m_l of the p - 2 other lines sum to (r - 1)(r - 2), and with
    k = p - 2r + 2 move j gives

        sum_l |A & l|^2 = (p - 2) k^2 + 2k (r - 1)(r - 2) + sum_l m_l^2.

    Only the last term depends on P: the histogram of the keys of move j's
    lines through the crossings.  The key of move j, K_j(x, y) = d_j x -
    c_j y, is the linear form mu K_a + lambda K_b with lambda =
    cross(a, j) / cross(a, b), cross(u, v) = c_u d_v - d_u c_v (evaluate
    both sides at move a's direction (c_a, d_a), where K_a vanishes).  X_ab
    has K_a = 0 and K_b = K_b(P), so its key of move j is lambda K_b(P).
    A histogram of those keys per move gives every m_l: O(r^3) integer
    work per cell.  A valid prime divides no cross(a, b).
    """
    r = ms.r
    if q == 2:
        return p + 1 - r
    free = p * p - 2 * r * (p - 1) - 2 + r * (r - 1)
    if q == 3:
        return (p + 1 - r) * free
    moves = [(m.c, m.d) for m in ms.moves]
    cross = [[cu * dv - du * cv for cv, dv in moves] for cu, du in moves]
    k = p - 2 * r + 2
    fixed = free * free + (r - 1) * free - r * ((p - 2) * k * k + 2 * k * (r - 1) * (r - 2))
    # per move j: (b, lambda) of each crossing X_ab with a, b != j
    ratios = [[(b, cross[a][j] * pow(cross[a][b], -1, p) % p)
               for a, b in itertools.permutations(range(r), 2) if j not in (a, b)]
              for j in range(r)]
    total = 0
    for cell, size in direction_orbits(ms, p).items():
        x, y = divmod(cell, p)
        at_p = [d * x - c * y for c, d in moves]
        squares = 0
        for own in ratios:
            m: dict[int, int] = {}  # line key -> m_l
            for b, lam in own:
                key = lam * at_p[b] % p
                m[key] = m.get(key, 0) + 1
            squares += sum(n * n for n in m.values())
        total += size * (fixed - squares)
    return total // 2


def torus_count(ms: MoveSet, q: int, p: int) -> int:
    """Number of ordered q-tuples over F_p x F_p with no piece on a move line
    of another.

    Piece 1 is pinned at the origin (factor p^2, exact translation symmetry)
    and piece 2 runs over scaling-orbit representatives, one per direction of
    the projective line (factor p - 1): the attack conditions are homogeneous,
    so simultaneous scaling is a free symmetry once piece 1 is at the origin.
    Pieces 3..q are counted as sets (each set stands for (q - 2)!
    orderings).  At q <= 4 `pinned_count` counts them from the two pinned
    stars, with no masks.  At q >= 5 the bitmask core of `placement`
    counts them on line masks, the last two in closed form: cell (x, y) is
    bit x*p + y, and each move (c, d) has p lines, keyed by d*x - c*y mod p.

    For q >= 4 piece 2 runs over one direction per orbit of
    `direction_group`, weighted by the orbit's size.  A map A of the group
    is linear, so it fixes the origin and sends each line to a line, and it
    sends a move line (one of direction u) to a line of direction A*u, again
    a move direction.  So A, and A^-1 likewise, maps nonattacking tuples
    with piece 1 at the origin to nonattacking tuples with piece 1 at the
    origin: a bijection, which sends piece 2's direction d to A*d.  Hence
    every direction of an orbit has the same count.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    if p > MAX_PRIME:
        raise GeometryError(f"prime {p} exceeds MAX_PRIME = {MAX_PRIME}")
    if not valid_prime(ms, p):
        raise GeometryError(f"{p} is not a valid prime for move set {ms}")
    if q == 1:
        return p * p

    if q <= 4:
        subtotal = pinned_count(ms, p, q)
    else:
        lines, star = torus_line_masks(ms, p)
        avail = ((1 << (p * p)) - 1) & ~star(0)
        subtotal = sum(
            size * count_sets(avail & ~star(i), q - 2, lines, ms.r, star)
            for i, size in direction_orbits(ms, p).items()
        )
    count = p * p * (p - 1) * math.factorial(q - 2) * subtotal
    assert valid_torus_count(q, p, count)
    return count


@dataclass(frozen=True)
class CharPoly:
    """Integer characteristic polynomial of the configuration arrangement.
    `formulas` evaluates a quasipolynomial's constituents with it too, whose
    coefficients are `Fraction`s; the value is then a `Fraction`."""

    coefficients: tuple[int, ...]  # ascending, degree = len - 1

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


def interpolate(points: list[tuple[int, int]]) -> tuple[list[int], int]:
    """(numerators, denominator) of the unique polynomial of degree below
    len(points) through the integer points: its ascending coefficients are
    numerators[k] / denominator, with denominator > 0.

    Lagrange's form over one common denominator, in integers: with
    M(x) = prod_j (x - x_j), weights w_i = prod_{j != i} (x_i - x_j) and
    L = lcm |w_i|, the numerators are the coefficients of
    sum_i y_i (L / w_i) M(x) / (x - x_i), each quotient by synthetic division.
    """
    xs = [x for x, _ in points]
    full = [1]  # M(x), ascending
    for xj in xs:
        full = [lo - xj * hi for lo, hi in zip([0, *full], [*full, 0])]
    weights = [math.prod(xi - xj for j, xj in enumerate(xs) if j != i)
               for i, xi in enumerate(xs)]
    den = math.lcm(*weights)
    nums = [0] * len(xs)
    for (xi, yi), w in zip(points, weights):
        scale = yi * (den // w)
        carry = 0
        for k in range(len(xs), 0, -1):
            carry = full[k] + xi * carry
            nums[k - 1] += scale * carry
    return nums, den


def window_size(q: int) -> int:
    """Primes in one window of `ff_type_count`: the 2q - 3 that `char_poly`
    interpolates through (none at q = 1), plus VALIDATION_PRIMES."""
    return max(2 * q - 3, 0) + VALIDATION_PRIMES


def char_poly(q: int, primes: list[int], counts: dict[int, int]) -> CharPoly:
    """The characteristic polynomial chi of the configuration arrangement,
    from the torus counts chi(p) at the primes.

    For q >= 2, chi(t) = t^2 (t - 1) g(t) with g monic of degree 2q - 3.
    chi is monic of degree 2q, the dimension of the space.  Translating
    every piece by the same vector breaks no hyperplane, so t^2 divides chi.
    The arrangement is central and nonempty, so chi(1) = 0.  Hence every
    count must be divisible by p^2 (p - 1), and only h(t) = g(t) - t^(2q-3),
    of degree <= 2q - 4, is unknown.  h is interpolated through
    h(p) = counts[p] / (p^2 (p - 1)) - p^(2q-3) at the first 2q - 3 primes,
    must have integer coefficients, and chi = t^2 (t - 1) (t^(2q-3) + h)
    must be exact at every later prime.  At q = 1, chi = t^2, checked at
    every prime.

    A window of `window_size(q)` primes with 1 or 2 (VALIDATION_PRIMES)
    wrong counts is rejected.  Were some chi' accepted, (chi' - chi) /
    (t^2 (t - 1)) would have degree <= 2q - 4 and vanish at the >= 2q - 3
    primes whose counts are right, so chi' = chi, which fits no wrong count.
    Fitting all 2q + 1 coefficients through 2q + 3 primes, then checking
    that chi is monic and divisible by t^2, could in theory catch up to 5
    wrong counts; the worst-case guarantee drops from 5 to 2, and the 4
    largest, costliest primes go.
    """
    need = window_size(q)
    if len(primes) < need:
        raise GeometryError(f"need at least {need} primes at q = {q}")
    if len(set(primes)) != len(primes):
        raise GeometryError("primes must be pairwise distinct")
    if q == 1:
        base, poly = [], CharPoly((0, 0, 1))
    else:
        for p in primes:
            if counts[p] % (p * p * (p - 1)):
                raise ExceptionalPrimeError(
                    f"count {counts[p]} at p = {p} is not divisible by p^2 (p - 1)")
        top = 2 * q - 3
        base = primes[:top]
        nums, den = interpolate(
            [(p, counts[p] // (p * p * (p - 1)) - p ** top) for p in base])
        if any(n % den for n in nums):
            raise ExceptionalPrimeError(
                f"non-integer coefficients from primes {base}; retry with larger primes"
            )
        g = [n // den for n in nums] + [1]
        # t^2 (t - 1) g(t), ascending
        poly = CharPoly((0, 0, *(lo - hi for lo, hi in zip([0, *g], [*g, 0]))))
    for p in primes[len(base):]:
        if poly(p) != counts[p]:
            raise ExceptionalPrimeError(
                f"validation prime {p} disagrees with the interpolated polynomial"
            )
    return poly


@dataclass(frozen=True)
class FFTypeCount:
    labelled: int
    unlabelled: int
    poly: CharPoly
    counts: dict[int, int]  # prime -> torus count, primes increasing


def ff_type_count(ms: MoveSet, q: int, prime_floor: int = 11,
                  count: Callable[[list[int]], dict[int, int]] | None = None
                  ) -> FFTypeCount:
    """Labelled and unlabelled type counts from the finite-field engine.

    Each window holds the `window_size(q)` smallest valid primes at or above
    the floor; an exceptional sample is retried with the next larger window,
    ATTEMPTS windows in all.  `count(primes)` gives the torus count
    of each prime, for every attempt; the default counts them one by one
    with `torus_count`.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    if count is None:
        count = lambda primes: {p: torus_count(ms, q, p) for p in primes}
    for _ in range(ATTEMPTS):
        primes = valid_primes_from(ms, prime_floor, window_size(q))
        counts = count(primes)
        try:
            poly = char_poly(q, primes, counts)
        except ExceptionalPrimeError as exc:
            last_error = exc
            prime_floor = primes[-1] + 1
            continue
        labelled = poly(-1)
        if labelled < 0 or labelled % math.factorial(q) != 0:
            raise ExceptionalPrimeError(
                f"chi(-1) = {labelled} is not divisible by {q}! (invariant breach)"
            )
        return FFTypeCount(labelled, labelled // math.factorial(q), poly,
                           {p: counts[p] for p in primes})
    raise last_error
