"""Exact labelled-type counts via finite-field point counting.

A labelled type is a region of the arrangement in R^(2q) whose hyperplanes
say "piece k sits on a move line of piece i".  Counting the q-tuples over
F_p x F_p that avoid every attack line, for enough good primes p, pins down
the integer characteristic polynomial by interpolation; evaluating it at -1
gives the region count.  Exceptional primes are caught operationally: extra
validation primes must reproduce the interpolated polynomial exactly or the
run fails and retries with larger primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .geometry import GeometryError, MoveSet
from .placement import count_sets, torus_line_masks

# Largest prime the engine counts over.  `torus_count` holds p line masks of
# p^2 bits for each of the r moves, r * p^3 bits in all: under 13 MB for
# r <= 6 at p = 257.  A floor above it is rejected before any prime search.
MAX_PRIME = 257

# Primes counted beyond the 2q + 1 that interpolation needs; the polynomial
# must fit each of them exactly.
VALIDATION_PRIMES = 2


class ExceptionalPrimeError(RuntimeError):
    """Interpolation detected an inconsistent prime sample."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(2, n)
    while not is_prime(k):
        k += 1
    return k


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
        p = next_prime(p)
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
    for i, (a1, b1, c1) in enumerate(normalized):
        seen = set()
        for a2, b2, c2 in normalized[:i]:
            det = (a1 * b2 - a2 * b1) % p
            if det == 0:
                continue
            dinv = pow(det, -1, p)
            x = (c1 * b2 - c2 * b1) * dinv % p
            y = (a1 * c2 - a2 * c1) * dinv % p
            seen.add((x, y))
        union += p - len(seen)
    return p * p - union


@dataclass(frozen=True)
class PrimeCount:
    p: int
    count: int


def torus_count(ms: MoveSet, q: int, p: int) -> PrimeCount:
    """Number of ordered q-tuples over F_p x F_p with no piece on a move line
    of another.

    Piece 1 is pinned at the origin (factor p^2, exact translation symmetry)
    and piece 2 runs over scaling-orbit representatives, one per direction of
    the projective line (factor p - 1): the attack conditions are homogeneous,
    so simultaneous scaling is a free symmetry once piece 1 is at the origin.
    Pieces 3..q are counted as sets by the bitmask core of `placement` (each
    set stands for (q - 2)! orderings), the last two of them in closed form.
    Cell (x, y) is bit x*p + y, and each move (c, d) has p lines, keyed by
    d*x - c*y mod p.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    if p > MAX_PRIME:
        raise GeometryError(f"prime {p} exceeds MAX_PRIME = {MAX_PRIME}")
    if not valid_prime(ms, p):
        raise GeometryError(f"{p} is not a valid prime for move set {ms}")
    if q == 1:
        return PrimeCount(p, p * p)

    lines, star = torus_line_masks(ms, p)
    avail = ((1 << (p * p)) - 1) & ~star(0)
    # representatives (0, 1) and (1, t) of the directions; those on a move
    # line of the origin are not available
    reps = [i for i in (1, *range(p, 2 * p)) if avail >> i & 1]
    subtotal = sum(
        count_sets(avail & ~star(i), q - 2, lines, ms.r, star) for i in reps
    )
    count = p * p * (p - 1) * math.factorial(q - 2) * subtotal
    assert count % (p * p) == 0 and count <= p ** (2 * q)
    return PrimeCount(p, count)


@dataclass(frozen=True)
class CharPoly:
    """Integer characteristic polynomial of the configuration arrangement."""

    coefficients: tuple[int, ...]  # ascending, degree = len - 1

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc


def _lagrange(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the unique polynomial through the points."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis[:]
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = Fraction(yi) / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    return coeffs


def char_poly(q: int, primes: list[int], counts: dict[int, int]) -> CharPoly:
    """Interpolate the degree-2q characteristic polynomial through the
    per-prime torus counts, then verify it: monic, divisible by t^2, integer
    coefficients, and an exact fit on every prime beyond the first 2q+1.
    """
    need = 2 * q + 1
    if len(primes) < need:
        raise GeometryError(f"need at least {need} primes for degree {2 * q}")
    if len(set(primes)) != len(primes):
        raise GeometryError("primes must be pairwise distinct")
    base, validation = primes[:need], primes[need:]
    coeffs = _lagrange([(p, counts[p]) for p in base])
    if any(c.denominator != 1 for c in coeffs):
        raise ExceptionalPrimeError(
            f"non-integer coefficients from primes {base}; retry with larger primes"
        )
    ints = [int(c) for c in coeffs]
    if ints[-1] != 1:
        raise ExceptionalPrimeError(f"leading coefficient {ints[-1]} != 1 from primes {base}")
    if ints[0] != 0 or ints[1] != 0:
        raise ExceptionalPrimeError(f"polynomial not divisible by t^2 from primes {base}")
    poly = CharPoly(tuple(ints))
    for p in validation:
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
    prime_counts: tuple[PrimeCount, ...]


def ff_type_count(ms: MoveSet, q: int, prime_floor: int = 11, attempts: int = 3,
                  count: Callable[[list[int]], dict[int, int]] | None = None
                  ) -> FFTypeCount:
    """Labelled and unlabelled type counts from the finite-field engine.

    Primes are the smallest valid ones at or above the floor, plus
    VALIDATION_PRIMES more; an exceptional sample raises and is retried with
    larger primes.  `count(primes)` gives the torus count of each prime, for
    every attempt; the default counts them one by one with `torus_count`.
    """
    if q < 1:
        raise GeometryError("need q >= 1")
    if attempts < 1:
        raise GeometryError("need attempts >= 1")
    if count is None:
        count = lambda primes: {p: torus_count(ms, q, p).count for p in primes}
    floor = prime_floor
    last_error: ExceptionalPrimeError | None = None
    for _ in range(attempts):
        primes = valid_primes_from(ms, floor, 2 * q + 1 + VALIDATION_PRIMES)
        counts = count(primes)
        try:
            poly = char_poly(q, primes, counts)
        except ExceptionalPrimeError as exc:
            last_error = exc
            floor = primes[-1] + 1
            continue
        labelled = poly(-1)
        if labelled < 0 or labelled % math.factorial(q) != 0:
            raise ExceptionalPrimeError(
                f"chi(-1) = {labelled} is not divisible by {q}! (invariant breach)"
            )
        pcs = tuple(PrimeCount(p, counts[p]) for p in primes)
        return FFTypeCount(labelled, labelled // math.factorial(q), poly, pcs)
    raise last_error


def types_ff(ms: MoveSet, q: int, prime_floor: int = 11) -> tuple[int, int]:
    """(labelled, unlabelled) type counts; see `ff_type_count` for details."""
    result = ff_type_count(ms, q, prime_floor=prime_floor)
    return (result.labelled, result.unlabelled)
