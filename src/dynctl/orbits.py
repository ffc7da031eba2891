"""Orbit prefixes, S-integral counting, empirical largest integral iterate, density sweeps."""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

from .canonical import _require_degree_two, is_preperiodic
from .errors import SizeBudgetExceededError
from .maps import RationalMapQ, evaluate, is_polynomial, map_height, second_iterate_is_polynomial
from .parallel import map_chunks
from .points import (ProjPointQ, SIntSpec, check_b_values, enumerate_points, is_s_integral,
                     strip_s_part, tally_by_height)


class Truncation(enum.Enum):
    COMPLETED = "completed"
    HEIGHT_BUDGET = "height_budget"
    ITERATION_CAP = "iteration_cap"


DEFAULT_N_CAP = 16
DEFAULT_HEIGHT_BUDGET_BITS = 10**6
# scan_orbit refuses an iteration cap above this before iterating: only the
# cap bounds a degree-1 orbit, whose heights grow too slowly to meet the
# height budget. The largest README, acceptance, golden, test and bench cap,
# 50, has 2000x headroom.
N_CAP_LIMIT = 10**5


@dataclass(frozen=True)
class OrbitPolicy:
    """Truncation policy shared by the sweep experiments."""

    n_cap: int = DEFAULT_N_CAP
    height_budget_bits: int = DEFAULT_HEIGHT_BUDGET_BITS


@dataclass(frozen=True)
class OrbitRecord:
    """The computed prefix of an orbit: points[n] = phi^n(b) over the distinct prefix.

    When cycle_entry = (index, period) is present the orbit is fully known and
    the stored distinct points carry the whole infinite orbit's integral count.
    """

    points: tuple[ProjPointQ, ...]
    integral_indices: tuple[int, ...]
    cycle_entry: tuple[int, int] | None
    truncation: Truncation


def scan_orbit(m: RationalMapQ, b: ProjPointQ, s: SIntSpec,
               n_cap: int = DEFAULT_N_CAP,
               height_budget_bits: int = DEFAULT_HEIGHT_BUDGET_BITS) -> OrbitRecord:
    """Iterate until a cycle closes, n_cap is reached, or coordinates outgrow the budget.

    The budget cut fires before computing a point whose size bound
    (d * bits + coefficient slack) already exceeds the budget, so the scan
    never pays for a point it would discard. Truncation is data, not an
    error; counts on truncated records are lower bounds. A cap above
    N_CAP_LIMIT is refused before the first evaluation.
    """
    if n_cap > N_CAP_LIMIT:
        raise SizeBudgetExceededError(
            f"an iteration cap of {n_cap} keeps up to {n_cap + 1} orbit points, "
            f"over the limit of {N_CAP_LIMIT + 1}"
        )
    d = m.degree
    slack = map_height(m).bit_length() + (d + 1).bit_length() + 1
    points = [b]
    seen = {b: 0}
    truncation = Truncation.ITERATION_CAP
    cycle_entry = None
    while len(points) <= n_cap:
        cur = points[-1]
        if d * max(abs(cur.a), abs(cur.b)).bit_length() + slack > height_budget_bits:
            truncation = Truncation.HEIGHT_BUDGET
            break
        nxt = evaluate(m, cur)
        if nxt in seen:
            cycle_entry = (seen[nxt], len(points) - seen[nxt])
            truncation = Truncation.COMPLETED
            break
        seen[nxt] = len(points)
        points.append(nxt)
    integral = tuple(i for i, p in enumerate(points) if is_s_integral(p, s))
    return OrbitRecord(tuple(points), integral, cycle_entry, truncation)


def count_s_integral(record: OrbitRecord) -> tuple[int, bool]:
    """Count of S-integral points among the distinct stored points.

    exact is True only for completed (cycle-closed) records; otherwise the
    count is a certified lower bound for the infinite orbit.
    """
    return len(record.integral_indices), record.truncation is Truncation.COMPLETED


def _max_integral_index(b: ProjPointQ, m: RationalMapQ, s: SIntSpec,
                        n_cap: int, height_budget_bits: int) -> int:
    """-2 for preperiodic b, else the largest integral index of the scanned prefix."""
    if is_preperiodic(m, b):
        return -2
    rec = scan_orbit(m, b, s, n_cap=n_cap, height_budget_bits=height_budget_bits)
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
    """
    if second_iterate_is_polynomial(m):
        raise ValueError("the second iterate is a polynomial; the uniform-iterate bound needs phi^2 not in Q[x]")
    _require_degree_two(m)
    points = enumerate_points(bound)
    worker = functools.partial(_max_integral_index, m=m, s=s, n_cap=n_cap,
                               height_budget_bits=height_budget_bits)
    tops = map_chunks(worker, points, workers)
    best = -1
    witness: ProjPointQ | None = None
    for b, top in zip(points, tops):
        if top > best:
            best = top
            witness = b
    return best, witness


@dataclass(frozen=True)
class DensityReport:
    """Exact hit counts for T(f, S) = {b : f(b) in O_S} against all points, per height bound.

    trap_hits counts points whose denominator-form value divides the resultant
    (after stripping S); it is the O(B) envelope the divisor-trap argument
    bounds, and always contains the actual hits.
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
    h = max(abs(p.a), abs(p.b))
    hit = is_s_integral(evaluate(f, p), s)
    in_trap = False
    violation = False
    if check_trap:
        g_val = f.denominator(p.a, p.b)
        if g_val != 0:
            in_trap = res % strip_s_part(g_val, s) == 0
        violation = hit and not in_trap
    return h, hit, in_trap, violation


def density_of_integral_preimages(f: RationalMapQ, s: SIntSpec,
                                  b_values: tuple[int, ...],
                                  workers: int = 1) -> DensityReport:
    """Exact enumeration of T(f, S) up to each height bound.

    When f has a genuine denominator, every hit [a : b] is cross-checked
    against the divisor trap: the non-S part of G(a, b) must divide the
    resultant. The trap is a cross-check only; counting is by enumeration.
    """
    bs = check_b_values(b_values)
    check_trap = not is_polynomial(f)
    res = abs(f.resultant)
    worker = functools.partial(_density_point, f=f, s=s, check_trap=check_trap, res=res)
    results = map_chunks(worker, enumerate_points(bs[-1]), workers)
    totals, hits, trap_hits, violations = tally_by_height(bs, results, (operator.add,) * 3)
    ratios = tuple(n / total for n, total in zip(hits, totals))
    return DensityReport(bs, hits, totals, ratios, check_trap, violations[-1],
                         trap_hits if check_trap else None)
