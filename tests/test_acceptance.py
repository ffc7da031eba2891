"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import random

import pytest

from dynctl.canonical import canonical_height, is_preperiodic
from dynctl.families import (BasepointSpec, avg_experiment, cube_sum_bound_check,
                             pell_map, pell_stream, phi_t_identities, three_param_avg,
                             three_param_slice_bounds_check)
from dynctl.funcfield import FFPoly, FFRat, ff_family, ff_family_verification, ff_orbit_avg
from dynctl.maps import (cofactor_certificates_check, evaluate, make_map, random_map)
from dynctl.orbits import density_of_integral_preimages, empirical_max_iterate
from dynctl.points import EMPTY_S, count_points, enumerate_points, normalize
from dynctl.polynomials import IntPoly

SWEEP = {"n_cap": 16, "height_budget_bits": 10**4}


def record(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def test_criterion_01_phi_t_resultant_identity():
    report = phi_t_identities()
    assert record(1, "phi_t second iterate and resultant, exact", report.ok,
                  "; ".join(report.lines()))


def test_criterion_02_cofactor_certificates():
    report = cofactor_certificates_check(seed=20260808)
    assert record(2, "cofactor certificates and divisor trap", report.ok,
                  "; ".join(c.detail for c in report.checks))


def test_criterion_03_canonical_height_certification():
    sq = make_map([0, 0, 1], [1, 0, 0])
    est = canonical_height(sq, normalize(2, 1), 1e-6)
    part_a = est.radius <= 1e-6 and abs(est.value - math.log(2)) <= 1e-6

    rng = random.Random(20260808)
    tol = 1e-3
    worst = 0.0
    part_b = True
    for _ in range(50):
        d = rng.randint(2, 4)
        m = random_map(rng, d, coeff_bound=5)
        p = normalize(rng.randint(-8, 8), rng.randint(1, 8))
        e1 = canonical_height(m, p, tol)
        e2 = canonical_height(m, evaluate(m, p), tol)
        residual = abs(e2.value - d * e1.value)
        worst = max(worst, residual)
        part_b = part_b and residual <= (d + 1) * tol
    assert record(3, "canonical-height certification", part_a and part_b,
                  f"hhat(2)={est.value:.8f} vs ln2; worst residual {worst:.2e} at tol {tol}")


def _orbit_table_oracle(m, p, height_cutoff=10**9, step_cap=200):
    seen = {p}
    cur = p
    for _ in range(step_cap):
        cur = evaluate(m, cur)
        if cur in seen:
            return True
        if max(abs(cur.a), abs(cur.b)) > height_cutoff:
            return False
        seen.add(cur)
    raise AssertionError("oracle undecided; raise the cutoff")


def test_criterion_04_preperiodicity_oracle_agreement():
    maps = {
        "x^2": make_map([0, 0, 1], [1, 0, 0]),
        "x^2-1": make_map([-1, 0, 1], [1, 0, 0]),
        "pell(2)": pell_map(2),
    }
    disagreements = 0
    checked = 0
    for m in maps.values():
        for p in enumerate_points(20):
            checked += 1
            if is_preperiodic(m, p) != _orbit_table_oracle(m, p):
                disagreements += 1
    assert record(4, "preperiodicity vs orbit-table oracle", disagreements == 0,
                  f"{checked} points across 3 maps, {disagreements} disagreements")


def test_criterion_05_density_decay():
    phi_1 = make_map([-1, 1, 0, 0], [1, 0, 0, 1])
    report = density_of_integral_preimages(phi_1, EMPTY_S, (10, 20, 40, 80))
    decreasing = all(r2 < r1 for r1, r2 in zip(report.ratios, report.ratios[1:]))
    slope = report.loglog_slope()
    in_window = -1.4 <= slope <= -0.6
    ok = decreasing and in_window
    record(5, "density decay for (x-1)/(x^3+1)", ok,
           f"ratios {[f'{r:.5f}' for r in report.ratios]}, slope {slope:.3f}, "
           f"window [-1.4, -0.6]; trap envelope {report.trap_hits}")
    assert decreasing
    # The hit set T here is provably finite (cube-sum bound), so the measured
    # slope is about -2: faster decay than the stated window. See the density
    # report's trap envelope for the O(B) object the window describes.
    assert in_window, (
        f"log-log slope {slope:.3f} outside [-1.4, -0.6]: T(f, S) is finite for this map, "
        f"hits {report.hits} against totals {report.totals}"
    )


def test_criterion_06_zero_average_trend():
    beta = BasepointSpec(IntPoly.var("t", ("t",)), IntPoly.const(1, ("t",)))
    report = avg_experiment(pell_map(2), beta, EMPTY_S, (10, 20, 40, 80), **SWEEP)
    nonincreasing = all(a2 <= a1 for a1, a2 in zip(report.averages, report.averages[1:]))
    big_drop = report.averages[-1] < report.averages[0] / 4
    assert record(6, "zero-average trend for the Pell map", nonincreasing and big_drop,
                  f"averages {[f'{a:.5f}' for a in report.averages]}")


def test_criterion_07_pell_infinitude_vs_density():
    sols = pell_stream(2, 10)
    m = pell_map(2)
    eq_ok = all(u * u - 2 * v * v == 1 for u, v in sols)
    int_ok = all(evaluate(m, normalize(u, v)).b == 1 for u, v in sols)
    report = density_of_integral_preimages(m, EMPTY_S, (10, 20, 40, 80))
    decays = all(r2 < r1 for r1, r2 in zip(report.ratios, report.ratios[1:]))
    assert record(7, "Pell infinitude with decaying density", eq_ok and int_ok and decays,
                  f"10 exact solutions; ratios {[f'{r:.5f}' for r in report.ratios]}")


def test_criterion_08_cube_sum_lemma():
    report = cube_sum_bound_check()
    assert record(8, "cube-sum height bound, exhaustive |x|,|y| <= 100", report.ok,
                  report.checks[0].detail)


def test_criterion_09_three_param_family():
    report = three_param_avg(6, 6, 6, (5, 10), **SWEEP)
    t_zero_ok = all(
        cell["t_zero"].total == cell["t_zero"].population and cell["t_zero"].max_count == 1
        for cell in report.cells
    )
    slices = three_param_slice_bounds_check()
    open_max_stable = report.open_cell_maxima[0] == report.open_cell_maxima[1]
    ok = t_zero_ok and slices.ok and open_max_stable
    assert record(
        9, "three-parameter family boxed average", ok,
        f"averages {[f'{a:.4f}' for a in report.averages]}, "
        f"open-cell max {report.open_cell_maxima[0]} at B=5 vs {report.open_cell_maxima[1]} at B=10",
    )


def test_criterion_10_empirical_uniform_iterate():
    m = pell_map(2)
    n50, w50 = empirical_max_iterate(m, EMPTY_S, 50, height_budget_bits=10**4)
    n100, w100 = empirical_max_iterate(m, EMPTY_S, 100, height_budget_bits=10**4)
    assert record(10, "empirical uniform iterate stabilizes", n50 == n100,
                  f"N_emp(50)={n50} (witness {w50}), N_emp(100)={n100} (witness {w100})")


def test_criterion_11_function_field_family():
    bundle_ok = ff_family_verification(seed=20260808).ok
    scalars_ok = True
    for p, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        f = FFRat.from_poly(FFPoly.t_var(p))
        _m, report = ff_family(d, f, "ff_family")
        ok = {c.name: c.ok for c in report.checks}
        scalars_ok = (scalars_ok and ok["ff_family.second_iterate_scalar"]
                      and ok["ff_family.second_iterate_degrees"])
    avg = ff_orbit_avg(2, 2, [0, 0, 0, 0, 1], [], (1, 2, 3, 4))
    nonincreasing = all(a2 <= a1 for a1, a2 in zip(avg.averages, avg.averages[1:]))
    assert record(
        11, "function-field family checks and average", bundle_ok and scalars_ok and nonincreasing,
        f"ff averages {[f'{a:.4f}' for a in avg.averages]}",
    )


def test_criterion_12_schanuel_constant():
    measured = count_points(500) / 500**2
    reference = 12 / math.pi**2
    rel = abs(measured - reference) / reference
    assert record(12, "Schanuel constant for P^1(Q)", rel < 0.05,
                  f"count(500)/500^2 = {measured:.6f} vs 12/pi^2 = {reference:.6f} "
                  f"(rel err {rel:.4%})")
