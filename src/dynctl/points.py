"""Points of P^1(Q) as normalized coprime integer pairs, with heights and S-integrality."""

from __future__ import annotations

import enum
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BothZeroError, ParseError, SizeBudgetExceededError

LN2 = math.log(2)
# Enumerating H <= B visits (2B+1)*B + 1 candidates; check_enumeration_bound
# refuses more than this many (B > 4471). The largest bound of any README,
# acceptance or bench input, B = 400, visits 320401: 124x headroom.
ENUMERATION_LIMIT = 4 * 10**7
# walk_orbit refuses an iteration cap above this before the first step: only
# the cap bounds a degree-1 orbit, whose heights grow too slowly to meet the
# height budget. The largest README, acceptance, golden, test and bench cap,
# 50, has 2000x headroom.
N_CAP_LIMIT = 10**5
# The iteration cap of every orbit scan over Q and over F_p(t) unless --ncap says otherwise.
DEFAULT_N_CAP = 16
# The least strong pseudoprime to the bases 2, 3, ..., 41 that is_prime tries:
# below it is_prime is exact, at it is_prime is wrong, so SIntSpec refuses a
# member this large before testing it.
PRIME_TEST_LIMIT = 3317044064679887385961981
# A decimal integer literal: an optional sign and ASCII digits, with
# surrounding whitespace. int() alone also takes "1_0" and non-ASCII digits.
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def log_of_int(n: int) -> float:
    """Natural log of a positive integer of arbitrary size.

    math.log overflows past ~1e308; split off the top 64 bits instead.
    """
    if n <= 0:
        raise ValueError("log_of_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * LN2


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the 13 prime bases 2, 3, ..., 41: exact for
    every n < PRIME_TEST_LIMIT = 3317044064679887385961981, the least strong
    pseudoprime to all of them (Sorenson-Webster 2017)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, order=True, slots=True)
class ProjPointQ:
    """A point [a : b] of P^1(Q) in normalized coordinates.

    Invariants: gcd(|a|, |b|) = 1, and either b > 0 or (b = 0 and a = 1).
    Construct through normalize(); the raw constructor trusts its inputs.
    """

    a: int
    b: int

    def is_infinity(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b == 0:
            raise ZeroDivisionError("the point at infinity is not a rational number")
        return Fraction(self.a, self.b)

    def __str__(self) -> str:
        return format_point(self)


INFINITY = ProjPointQ(1, 0)


def normalize(a: int, b: int) -> ProjPointQ:
    """Unique normalized representative of [a : b]; raises BothZeroError on (0, 0)."""
    if a == 0 and b == 0:
        raise BothZeroError("[0 : 0] is not a point of the projective line")
    if b == 0:
        return INFINITY
    g = math.gcd(abs(a), abs(b))
    a //= g
    b //= g
    if b < 0:
        a, b = -a, -b
    return ProjPointQ(a, b)


@dataclass(frozen=True)
class SIntSpec:
    """A finite set of rational primes S; O_S is Z localized at S (Z itself when empty)."""

    primes: frozenset[int]

    def __init__(self, primes=()):
        ps = frozenset(int(p) for p in primes)
        for p in ps:
            if p >= PRIME_TEST_LIMIT:
                raise ValueError(f"{p} is at or above {PRIME_TEST_LIMIT}, where the "
                                 "primality test is no longer exact")
            if p < 2 or not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.primes))


EMPTY_S = SIntSpec()


def strip_s_part(n: int, s: SIntSpec) -> int:
    """Divide out of n every power of every prime in S; n must be nonzero."""
    n = abs(n)
    if not s.primes:
        return n
    for p in s:
        while n % p == 0:
            n //= p
    return n


def is_s_integral(p: ProjPointQ, s: SIntSpec) -> bool:
    """True iff p is a rational number whose denominator's prime factors all lie in S.

    The point at infinity is never S-integral: it is not an element of Q.
    """
    if not s.primes:
        return p.b == 1
    if p.b == 0:
        return False
    return strip_s_part(p.b, s) == 1


def check_enumeration_bound(bound: int) -> None:
    """Refuse a height bound whose (2B+1)*B + 1 candidate points number more
    than ENUMERATION_LIMIT, before any of them is visited."""
    candidates = (2 * bound + 1) * bound + 1
    if candidates > ENUMERATION_LIMIT:
        raise SizeBudgetExceededError(
            f"enumerating H <= {bound} visits {candidates} candidate points, "
            f"over the limit of {ENUMERATION_LIMIT}"
        )


def coprime_row(b: int, bound: int) -> list[ProjPointQ]:
    """Row b of the points with H <= bound, for 0 <= b <= bound, in increasing a.

    Row 0 is the point at infinity; row b >= 1 is the [a : b] with
    |a| <= bound and gcd(a, b) = 1. The rows 0..bound partition the points.
    """
    if b == 0:
        return [INFINITY]
    gcd = math.gcd
    return [ProjPointQ(a, b) for a in range(-bound, bound + 1) if gcd(a, b) == 1]


def coprime_count(b: int, bound: int) -> int:
    """len(coprime_row(b, bound)) without building the row.

    1 for row 0 and 2 * bound + 1 for row 1. Above, a = 0 is not coprime to
    b and a, -a pair up, so the count is 2 * sum of mu(k) * floor(bound / k)
    over the divisors k of rad(b), by inclusion-exclusion over b's primes.
    """
    if b < 2:
        return 1 if b == 0 else 2 * bound + 1
    terms = [(1, 1)]  # (k, mu(k)) over the squarefree k built from b's primes so far
    p = 2
    while p * p <= b:
        if b % p == 0:
            terms += [(k * p, -mu) for k, mu in terms]
            while b % p == 0:
                b //= p
        p += 1
    if b > 1:
        terms += [(k * b, -mu) for k, mu in terms]
    return 2 * sum(mu * (bound // k) for k, mu in terms)


def enumerate_points(bound: int) -> list[ProjPointQ]:
    """All points of P^1(Q) with H <= bound, ordered by (H, a, b).

    The coprime rows 0..bound, sorted. A bound refused by
    check_enumeration_bound is refused before any point is visited.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    check_enumeration_bound(bound)
    out = [p for b in range(bound + 1) for p in coprime_row(b, bound)]
    out.sort(key=lambda p: (max(abs(p.a), abs(p.b)), p.a, p.b))
    return out


def count_points(bound: int) -> int:
    """|{P : H(P) <= bound}| without materializing the points: the coprime_count
    of each row 0..bound."""
    return sum(coprime_count(b, bound) for b in range(bound + 1))


def check_b_values(b_values: Iterable[int]) -> tuple[int, ...]:
    """Height bounds as a tuple of ints: nonempty, >= 1 and strictly increasing."""
    bs = tuple(int(b) for b in b_values)
    if not bs or bs[0] < 1 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
        raise ValueError("b_values must be strictly increasing and >= 1")
    return bs


def tally_by_height(b_values: tuple[int, ...], rows: Iterable[Sequence],
                    folds: Sequence[Callable[[int, int], int]]) -> list[tuple[int, ...]]:
    """Cumulative tallies of rows (h, v_1, ..., v_k) by height bound.

    Returns k + 1 columns, each with one entry per bound B in b_values:
    column 0 counts the rows with h <= B, and column j folds v_j over them
    with folds[j - 1] (operator.add for sums, max for maxima), starting
    from 0; entries of a row past v_k are ignored. Each row goes into the
    bucket of the first bound >= h and the buckets are then accumulated;
    rows above the last bound count nowhere.
    """
    last = len(b_values)
    buckets = [[0] * (len(folds) + 1) for _ in range(last)]
    indexed = tuple(enumerate(folds, 1))
    for row in rows:
        i = bisect_left(b_values, row[0])
        if i < last:
            bucket = buckets[i]
            bucket[0] += 1
            for j, fold in indexed:
                bucket[j] = fold(bucket[j], row[j])
    columns = (operator.add, *folds)
    for i in range(1, last):
        buckets[i] = [fold(x, y) for fold, x, y in zip(columns, buckets[i - 1], buckets[i])]
    return [tuple(column) for column in zip(*buckets)]


def by_population(population: Sequence[int], *columns: Sequence[int]) -> tuple[tuple, ...]:
    """Each column divided by the population, bound by bound: the averages and
    truncated fractions of avg, avg3 and ffavg. None (null in JSON, an empty
    CSV cell) where the population is 0."""
    return tuple(tuple(x / n if n else None for x, n in zip(column, population))
                 for column in columns)


class Truncation(enum.Enum):
    COMPLETED = "completed"
    HEIGHT_BUDGET = "height_budget"
    ITERATION_CAP = "iteration_cap"
    CERTIFIED_TAIL = "certified_tail"


@dataclass(frozen=True)
class OrbitRecord:
    """The computed prefix of an orbit: points[n] = phi^n(b) over the distinct prefix.

    When cycle_entry = (index, period) is present the orbit is fully known and
    the stored distinct points carry the whole infinite orbit's integral count.
    A walk that settles its last step without taking it (walk_orbit's
    last_step) stores one point fewer than a walk that takes it: a point that
    is not integral and is over the height budget's pre_limit. The integral
    indices, cycle entry and truncation are the same either way.
    """

    points: tuple[Any, ...]
    integral_indices: tuple[int, ...]
    cycle_entry: tuple[int, int] | None
    truncation: Truncation


def check_n_cap(n_cap: int) -> None:
    """Refuse an iteration cap above N_CAP_LIMIT."""
    if n_cap > N_CAP_LIMIT:
        raise SizeBudgetExceededError(
            f"an iteration cap of {n_cap} keeps up to {n_cap + 1} orbit points, "
            f"over the limit of {N_CAP_LIMIT + 1}"
        )


def walk_orbit(step: Callable[[Any], Any], size: Callable[[Any], int], b: Any, n_cap: int,
               pre_limit: int, post_limit: int, integral: Callable[[Any], bool],
               tail_limit: int, last_from: int,
               last_step: Callable[[Any, int], bool] | None) -> OrbitRecord:
    """The orbit of b under step, over Q or F_p(t): the one orbit loop of dynctl.

    The walk ends when a cycle closes (COMPLETED), when n_cap steps are kept
    (ITERATION_CAP), or at the height budget (HEIGHT_BUDGET): before stepping
    from a point whose size is over pre_limit, or, after a step that closes
    no cycle, before keeping a point whose size is over post_limit. Else it
    ends before stepping from a point whose size is over tail_limit
    (CERTIFIED_TAIL): the caller vouches that past that size no later point
    is integral and no cycle closes, so the record holds the whole orbit's
    integral points; a tail_limit >= pre_limit never cuts.

    Before stepping from a point P whose size h is over last_from, the walk
    asks last_step(P, h). True is the caller's proof that phi(P) is not
    integral and that its size is over pre_limit and within post_limit. Such
    a step closes no cycle, since every stored point has stepped or is P, so
    its size is at most pre_limit; and the walk would keep phi(P) and then
    end. So it ends at P instead, as that step would have ended it:
    ITERATION_CAP if the step fills the cap, else HEIGHT_BUDGET. The record
    is then one non-integral point shorter, with the same integral indices,
    cycle entry and truncation. A last_from >= pre_limit never asks, and
    last_step may then be None.

    size runs once per point. Truncation is data, not an error; counts on
    records other than COMPLETED are lower bounds. A cap above N_CAP_LIMIT
    is refused first.
    """
    check_n_cap(n_cap)
    points = [b]
    seen = {b: 0}
    truncation = Truncation.ITERATION_CAP
    cycle_entry = None
    limit = min(pre_limit, tail_limit)
    h = size(b)
    while len(points) <= n_cap:
        if h > limit:
            truncation = (Truncation.HEIGHT_BUDGET if h > pre_limit
                          else Truncation.CERTIFIED_TAIL)
            break
        if h > last_from and last_step(points[-1], h):
            truncation = (Truncation.ITERATION_CAP if len(points) == n_cap
                          else Truncation.HEIGHT_BUDGET)
            break
        nxt = step(points[-1])
        if nxt in seen:
            cycle_entry = (seen[nxt], len(points) - seen[nxt])
            truncation = Truncation.COMPLETED
            break
        h = size(nxt)
        if h > post_limit:
            truncation = Truncation.HEIGHT_BUDGET
            break
        seen[nxt] = len(points)
        points.append(nxt)
    indices = tuple(i for i, p in enumerate(points) if integral(p))
    return OrbitRecord(tuple(points), indices, cycle_entry, truncation)


def format_point(p: ProjPointQ) -> str:
    """Serialize as "a/b", a plain integer, or "inf"."""
    if p.b == 0:
        return "inf"
    if p.b == 1:
        return str(p.a)
    return f"{p.a}/{p.b}"


def parse_int(text: str, position: int) -> int:
    """A decimal integer literal (_INT_RE): int() on text, refused with a
    ParseError at position where int() would also take underscores or
    non-ASCII digits. position is where text starts in the caller's input."""
    if _INT_RE.fullmatch(text) is None:
        raise ParseError(f"bad integer literal {text!r}", position)
    return int(text)


def parse_point(text: str) -> ProjPointQ:
    """Parse the format_point grammar back into a normalized point: "inf", or
    one or two _INT_RE literals around a "/"."""
    text = text.strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INFINITY
    num, slash, den = text.partition("/")
    if _INT_RE.fullmatch(num) is None or slash and _INT_RE.fullmatch(den) is None:
        raise ParseError(f"bad point literal {text!r}", 0)
    return normalize(int(num), int(den)) if slash else ProjPointQ(int(num), 1)
