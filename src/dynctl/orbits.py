"""Orbit prefixes, S-integral counting, empirical largest integral iterate, density sweeps."""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass

from .canonical import _require_degree_two, is_preperiodic
from .maps import RationalMapQ, evaluate, is_polynomial, second_iterate_is_polynomial
from .parallel import map_chunks
from .points import (DEFAULT_HEIGHT_BUDGET_BITS, DEFAULT_N_CAP, OrbitRecord, ProjPointQ,
                     SIntSpec, Truncation, check_b_values, check_enumeration_bound, check_n_cap,
                     coprime_count, coprime_row, enumerate_points, is_s_integral, strip_s_part,
                     tally_by_height, walk_orbit)
from .polynomials import FORM_KERNELS


def _bits(p: ProjPointQ) -> int:
    return max(abs(p.a), abs(p.b)).bit_length()


def scan_orbit(m: RationalMapQ, b: ProjPointQ, s: SIntSpec,
               n_cap: int = DEFAULT_N_CAP,
               height_budget_bits: int = DEFAULT_HEIGHT_BUDGET_BITS,
               count_only: bool = False) -> OrbitRecord:
    """points.walk_orbit of b under m, cut before a point whose coordinates outgrow the budget.

    The walk stops before evaluating a point P of bits(P) bits when
    d * bits(P) + step_bits > budget, for step_bits of the map's scan
    constants (maps.make_map), so the scan never pays for a point it would
    discard. The post check never fires: each coordinate of the image has
    at most d * bits(P) + step_bits - 1 bits.

    A count_only scan with S = {} also stops, as CERTIFIED_TAIL, before
    stepping from a point above maps.tail_threshold, where one exists: the
    record then has the whole orbit's integral points and largest integral
    index, and still counts as truncated. From a point P over the map's
    switch_bits it walks the rest of the orbit on residues, not coordinates
    (_residue_walk), so its cost no longer depends on the budget: the record
    then ends at P, with the integral indices, cycle entry and truncation of
    the whole walk. Where the residues cannot decide, the step from P is
    taken exactly and the next point tries again. Scans that report every
    point (orbit, verify) and scans with S nonempty keep the whole record.
    """
    pre_limit, tail_limit = _scan_limits(m, s, height_budget_bits, count_only)
    hand_off = None
    if count_only and not s.primes and len(m.numerator.coeffs) > 2:
        hand_off = functools.partial(_residue_walk, m, pre_limit, tail_limit)
    return walk_orbit(functools.partial(evaluate, m), _bits, b, n_cap,
                      pre_limit, height_budget_bits, lambda p: is_s_integral(p, s),
                      tail_limit, hand_off)


def _residue_walk(m: RationalMapQ, pre_limit: int, tail_limit: int, p: ProjPointQ,
                  h: int, steps: int) -> Truncation | None:
    """The truncation of a count-only scan with S = {} from p, a point of
    h bits with at most steps steps left, walked on the residues of the
    coordinates, no point after p being integral; None where p is not over
    the switch or the residues cannot decide, and the scan steps from p
    exactly. The map's scan constants (maps.make_map) hold the switch,
    lam and step_bits.

    Bits: with lam = bits(hadamard_loss(F, G)), H(P)^d <= L' * H(phi(P)) and
    L' < 2^lam, so lo <= bits(P) <= hi gives lo' <= bits(phi(P)) <= hi' for
    lo' = d (lo - 1) + 1 - lam and hi' = d hi + step_bits - 1. Past the
    switch, H(P)^(d-1) > L', so heights rise strictly from p on and no
    cycle closes. A point steps when its bits are within
    limit = min(pre_limit, tail_limit), so its image is within the budget
    and kept. A bracket that straddles limit falls back, and so does one
    over limit that straddles pre_limit, which parts HEIGHT_BUDGET from
    CERTIFIED_TAIL.

    Integral: the coordinates are known mod N, from N = (|Res| 2^64 + 1) |Res|^k
    for the k steps the cap and the bracket allow. The gcd g that evaluate
    divides out divides Res, so g = gcd(|Res|, F mod N, G mod N), and the
    residues and N are divided by g. They are kept up to one common sign,
    which forms of degree d carry through. A kept point is integral exactly
    when its b is 1, so b = +-1 mod N is a candidate, and a candidate falls
    back.

    A bracket that straddles limit = pre_limit with a step to spare is still
    settled when the image is no candidate and its bracket is over
    pre_limit: the scan then ends at the height budget whether the point
    steps or not, with no further integral point.
    """
    step_bits, _, switch_bits, lam = m.scan
    if h <= switch_bits:
        return None
    d, res = len(m.numerator.coeffs) - 1, abs(m.resultant)
    limit = min(pre_limit, tail_limit)
    k, lo = 0, h
    while k < steps and lo <= limit:
        k, lo = k + 1, d * (lo - 1) + 1 - lam
    modulus = ((res << 64) + 1) * res**k
    kernel, f, g = FORM_KERNELS[m.shape], m.numerator.coeffs, m.denominator.coeffs
    a, b = p.a % modulus, p.b % modulus
    lo = hi = h
    while steps:
        if lo > limit:
            if lo > pre_limit:
                return Truncation.HEIGHT_BUDGET
            return Truncation.CERTIFIED_TAIL if hi <= pre_limit else None
        straddles = hi > limit
        if straddles and (limit < pre_limit or steps == 1):
            return None
        fa, gb = kernel(f, g, a, b)
        a, b = fa % modulus, gb % modulus
        e = math.gcd(res, a, b)
        if e > 1:
            modulus //= e
            a //= e
            b //= e
        if b == 1 or b == modulus - 1:
            return None
        lo, hi = d * (lo - 1) + 1 - lam, d * hi + step_bits - 1
        steps -= 1
        if straddles:
            return Truncation.HEIGHT_BUDGET if lo > pre_limit else None
    return Truncation.ITERATION_CAP


def _scan_limits(m: RationalMapQ, s: SIntSpec, height_budget_bits: int,
                 count_only: bool) -> tuple[int, int]:
    """scan_orbit's (pre_limit, tail_limit) for walk_orbit: a point steps only
    if its bits are at most both."""
    step_bits, tail_bits, _, _ = m.scan
    pre_limit = (height_budget_bits - step_bits) // (len(m.numerator.coeffs) - 1)
    if tail_bits is None or not count_only or s.primes:
        return pre_limit, pre_limit
    return pre_limit, tail_bits


def count_s_integral(record: OrbitRecord) -> tuple[int, bool]:
    """Count of S-integral points among the distinct stored points.

    exact is True only for completed (cycle-closed) records; otherwise the
    count is a certified lower bound for the infinite orbit.
    """
    return len(record.integral_indices), record.truncation is Truncation.COMPLETED


def _image_top(c: ProjPointQ, m: RationalMapQ, s: SIntSpec, n_cap: int,
               height_budget_bits: int) -> int:
    """-2 for preperiodic c, else the largest integral index of c's scanned
    prefix with one step fewer than n_cap: one pool task of nmax."""
    if is_preperiodic(m, c):
        return -2
    rec = scan_orbit(m, c, s, n_cap - 1, height_budget_bits, count_only=True)
    return max(rec.integral_indices, default=-1)


def empirical_max_iterate(m: RationalMapQ, s: SIntSpec, bound: int,
                          n_cap: int = DEFAULT_N_CAP,
                          height_budget_bits: int = DEFAULT_HEIGHT_BUDGET_BITS,
                          workers: int = 1) -> tuple[int, ProjPointQ | None]:
    """Largest n <= n_cap with phi^n(b) S-integral, over wandering b with H(b) <= bound.

    Returns (-1, None) when no integral point ever shows up. The wandering
    filter is the exact preperiodicity decision, so a degree-1 map is refused
    before any point is enumerated. The reduction keeps the first witness in
    enumeration order, so worker count never changes output.

    The basepoints are grouped by their first image c = phi(b), and the pool
    gets one task per distinct c (_image_top). This is exact: b is
    preperiodic exactly when c is, and a wandering b never recurs, so after
    index 0 the scan of b is the scan of c with one step fewer under the
    same limits. Index i of c's orbit is index i + 1 of b's, provided b
    steps (n_cap >= 1 and b's bits within scan_orbit's limits) and c is
    kept (its bits within the budget); else b's scan is b alone. A b that
    cannot step is not evaluated: its task is keyed on b itself, whose
    preperiodicity is c's.
    """
    if second_iterate_is_polynomial(m):
        raise ValueError("the second iterate is a polynomial; the uniform-iterate bound needs phi^2 not in Q[x]")
    _require_degree_two(m)
    check_n_cap(n_cap)
    points = enumerate_points(bound)
    limit = min(_scan_limits(m, s, height_budget_bits, True)) if n_cap >= 1 else -1
    slot_of: dict[ProjPointQ, int] = {}
    # slots[i] is the task slot of points[i]'s image, or ~slot when points[i] does not
    # step; one that cannot step keys its slot on itself and is not evaluated.
    slots = array("q")
    for b in points:
        if _bits(b) > limit:
            slots.append(~slot_of.setdefault(b, len(slot_of)))
            continue
        c = evaluate(m, b)
        slot = slot_of.setdefault(c, len(slot_of))
        slots.append(slot if _bits(c) <= height_budget_bits else ~slot)
    worker = functools.partial(_image_top, m=m, s=s, n_cap=n_cap,
                               height_budget_bits=height_budget_bits)
    tops = map_chunks(worker, slot_of, workers)
    best = -1
    witness: ProjPointQ | None = None
    for b, slot in zip(points, slots):
        top = tops[slot if slot >= 0 else ~slot]
        if top == -2:
            continue
        if slot < 0 or top < 0:
            top = 0 if is_s_integral(b, s) else -1
        else:
            top += 1
        if top > best:
            best = top
            witness = b
    return best, witness


@dataclass(frozen=True)
class DensityReport:
    """Exact hit counts for T(f, S) = {b : f(b) in O_S} against all points, per height bound.

    trap_hits counts points whose denominator-form value divides the resultant
    (after stripping S); it is the O(B) envelope the divisor-trap argument
    bounds, and always contains the actual hits. totals are counted in closed
    form; with S = {} only the points with 0 < |G(a, b)| <= |Res| are
    evaluated in full, since every hit and trap hit is among them.
    """

    b_values: tuple[int, ...]
    hits: tuple[int, ...]
    totals: tuple[int, ...]
    ratios: tuple[float, ...]
    trap_checked: bool
    trap_violations: int
    trap_hits: tuple[int, ...] | None = None

    def loglog_slope(self) -> float | None:
        """Least-squares slope of log(ratio) against log(B).

        None when undefined: fewer than two bounds, or a zero ratio.
        """
        if len(self.b_values) < 2 or 0 in self.ratios:
            return None
        xs = [math.log(b) for b in self.b_values]
        ys = [math.log(r) for r in self.ratios]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = sum((x - mean_x) ** 2 for x in xs)
        return num / den


def _density_point(p: ProjPointQ, f: RationalMapQ, s: SIntSpec,
                   check_trap: bool, res: int) -> tuple[int, bool, bool, bool]:
    """(H(p), hit, in trap, trap violation), from one evaluation of F and G at p.

    f(p) = [F/g : G/g] with g = gcd(F(a, b), G(a, b)), so p is a hit when
    G(a, b) != 0 and G(a, b)/g is an S-unit, as evaluate would find.
    """
    fa, gb = FORM_KERNELS[f.shape](f.numerator.coeffs, f.denominator.coeffs, p.a, p.b)
    hit = gb != 0 and strip_s_part(gb // math.gcd(fa, gb), s) == 1
    in_trap = check_trap and gb != 0 and res % strip_s_part(gb, s) == 0
    return max(abs(p.a), abs(p.b)), hit, in_trap, check_trap and hit and not in_trap


def _density_row(b: int, f: RationalMapQ, s: SIntSpec, check_trap: bool, res: int,
                 bs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The (totals, hits, trap hits, violations) columns of row b of the points
    with H <= bs[-1], cumulative over the bounds bs: one pool task of the density sweep.

    The totals are points.coprime_count of the row at each bound b may enter.
    With S = {} only the points with 0 < |G(a, b)| <= res go to
    _density_point, since every hit and trap hit is among them; with S
    nonempty every point does.
    """
    totals = tuple(coprime_count(b, bound) if b <= bound else 0 for bound in bs)
    points = coprime_row(b, bs[-1])
    if not s.primes:
        g = f.denominator
        points = [p for p in points if 0 < abs(g(p.a, p.b)) <= res]
    rows = (_density_point(p, f, s, check_trap, res) for p in points)
    return [totals, *tally_by_height(bs, rows, (operator.add,) * 3)[1:]]


def density_of_integral_preimages(f: RationalMapQ, s: SIntSpec,
                                  b_values: tuple[int, ...],
                                  workers: int = 1) -> DensityReport:
    """Exact counts of T(f, S) up to each height bound, through the divisor trap.

    The rows b = 0..B of points.coprime_row go to the workers, and each
    worker tallies its own rows; the columns of all rows are summed entry
    by entry. Every fold is a sum over disjoint rows, so the report does
    not depend on row order or worker count. A bound refused by
    check_enumeration_bound is refused before any row is visited.

    Each row's totals are counted in closed form. With S = {} a hit has
    G(a, b) = +-gcd(F(a, b), G(a, b)), and that gcd divides Res, while a trap
    hit has G(a, b) | Res; so every hit and every trap hit has
    0 < |G(a, b)| <= |Res|, and only the points that pass this test on G
    alone are evaluated in full. This holds for any map, polynomial or not,
    with or without a denominator bound. With S nonempty every point is
    evaluated in full. When f has a genuine denominator, every
    evaluated hit [a : b] is cross-checked against the divisor trap: the
    non-S part of G(a, b) must divide the resultant.
    """
    bs = check_b_values(b_values)
    check_enumeration_bound(bs[-1])
    check_trap = not is_polynomial(f)
    worker = functools.partial(_density_row, f=f, s=s, check_trap=check_trap,
                               res=abs(f.resultant), bs=bs)
    rows = map_chunks(worker, range(bs[-1] + 1), workers)
    totals, hits, trap_hits, violations = (tuple(map(sum, zip(*column)))
                                           for column in zip(*rows))
    ratios = tuple(n / total for n, total in zip(hits, totals))
    return DensityReport(bs, hits, totals, ratios, check_trap, violations[-1],
                         trap_hits if check_trap else None)
