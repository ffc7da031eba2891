import pytest

from dynctl.errors import SizeBudgetExceededError
from dynctl.families import pell_map, specialize, three_param_family
from dynctl.maps import make_map
from dynctl.orbits import (Truncation, count_s_integral, density_of_integral_preimages,
                           empirical_max_iterate, scan_orbit)
from dynctl.points import EMPTY_S, ProjPointQ, SIntSpec, normalize

X_SQUARED = make_map([0, 0, 1], [1, 0, 0])
PELL_2 = pell_map(2)
PHI_1 = make_map([-1, 1, 0, 0], [1, 0, 0, 1])


def test_scan_orbit_pell_example():
    rec = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=6)
    assert rec.integral_indices == (1,)
    assert rec.points[1] == ProjPointQ(81, 1)
    assert rec.points[2] == ProjPointQ(6561**2, 6559**2)
    assert rec.truncation is Truncation.ITERATION_CAP
    assert count_s_integral(rec) == (1, False)


def test_scan_orbit_fixed_point():
    rec = scan_orbit(X_SQUARED, ProjPointQ(0, 1), EMPTY_S)
    assert rec.points == (ProjPointQ(0, 1),)
    assert rec.cycle_entry == (0, 1)
    assert rec.truncation is Truncation.COMPLETED
    assert count_s_integral(rec) == (1, True)


def test_scan_orbit_two_cycle():
    m = make_map([-1, 0, 1], [1, 0, 0])  # x^2 - 1
    rec = scan_orbit(m, ProjPointQ(0, 1), EMPTY_S)
    assert rec.points == (ProjPointQ(0, 1), ProjPointQ(-1, 1))
    assert rec.cycle_entry == (0, 2)
    assert count_s_integral(rec) == (2, True)


def test_scan_orbit_three_param_t_zero_slice():
    m = specialize(three_param_family(), (2, 3, 0))
    rec = scan_orbit(m, ProjPointQ(0, 1), EMPTY_S)
    assert rec.points == (ProjPointQ(0, 1),)
    assert count_s_integral(rec) == (1, True)


def test_scan_orbit_prefix_stability():
    short = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=3)
    long = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=7)
    assert long.points[: len(short.points)] == short.points


def test_scan_orbit_points_chain():
    from dynctl.maps import evaluate

    rec = scan_orbit(PELL_2, normalize(5, 3), EMPTY_S, n_cap=5)
    assert rec.points[0] == normalize(5, 3)
    for cur, nxt in zip(rec.points, rec.points[1:]):
        assert evaluate(PELL_2, cur) == nxt


def test_scan_orbit_height_budget():
    rec = scan_orbit(PELL_2, normalize(10, 3), EMPTY_S, n_cap=16, height_budget_bits=40)
    assert rec.truncation is Truncation.HEIGHT_BUDGET
    assert count_s_integral(rec) == (0, False)
    assert rec.points[0] == normalize(10, 3)


def test_scan_orbit_respects_s():
    rec0 = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=2)
    rec2 = scan_orbit(PELL_2, normalize(3, 2), SIntSpec([2]), n_cap=2)
    assert 0 not in rec0.integral_indices
    assert 0 in rec2.integral_indices  # 3/2 is a 2-integer


def test_empirical_max_iterate_precondition():
    with pytest.raises(ValueError):
        empirical_max_iterate(X_SQUARED, EMPTY_S, 5)


def test_empirical_max_iterate_b1():
    n_emp, witness = empirical_max_iterate(PELL_2, EMPTY_S, 1)
    assert n_emp == -1 and witness is None  # all four height-1 points are preperiodic


def test_empirical_max_iterate_small():
    n_emp, witness = empirical_max_iterate(PELL_2, EMPTY_S, 5, height_budget_bits=10**4)
    assert n_emp == 1
    assert witness == ProjPointQ(-2, 1)


def test_density_report_phi_1():
    report = density_of_integral_preimages(PHI_1, EMPTY_S, (10, 20, 40, 80))
    assert report.totals == (128, 512, 1960, 7864)
    assert report.hits == (3, 3, 3, 3)  # T = {inf, 0, 1}, provably finite here
    assert all(r2 < r1 for r1, r2 in zip(report.ratios, report.ratios[1:]))
    assert report.ratios[-1] < report.ratios[0] / 4
    assert report.trap_checked
    assert report.trap_violations == 0


def test_density_ratio_at_least_one_over_b_decay():
    report = density_of_integral_preimages(PHI_1, EMPTY_S, (10, 20, 40, 80))
    c = report.ratios[0] * report.b_values[0]
    for b, ratio in zip(report.b_values, report.ratios):
        assert ratio <= c / b + 1e-12


def test_density_polynomial_case():
    report = density_of_integral_preimages(X_SQUARED, EMPTY_S, (10, 20))
    # hits are exactly the integers: 2B+1 of them; infinity maps to infinity
    assert report.hits == (21, 41)
    assert not report.trap_checked
    assert report.ratios[1] < report.ratios[0]


def test_density_pell_includes_pell_points():
    report = density_of_integral_preimages(PELL_2, EMPTY_S, (10, 20))
    assert report.hits[0] >= 8  # 0, ±1, ±2, 3/2, 7/5, 10/7 at least
    assert report.trap_violations == 0
    assert all(r2 < r1 for r1, r2 in zip(report.ratios, report.ratios[1:]))


def test_density_rejects_bad_bounds():
    with pytest.raises(ValueError):
        density_of_integral_preimages(PHI_1, EMPTY_S, (10, 10))


def test_completed_count_independent_of_cap():
    m = make_map([-1, 0, 1], [1, 0, 0])
    counts = {count_s_integral(scan_orbit(m, ProjPointQ(0, 1), EMPTY_S, n_cap=cap))
              for cap in (5, 16, 50)}
    assert counts == {(2, True)}


def test_nmax_nondecreasing_in_bound():
    n2, _ = empirical_max_iterate(PELL_2, EMPTY_S, 2, height_budget_bits=10**4)
    n5, _ = empirical_max_iterate(PELL_2, EMPTY_S, 5, height_budget_bits=10**4)
    assert n2 <= n5


def test_nmax_deterministic_across_workers():
    serial = empirical_max_iterate(PELL_2, EMPTY_S, 8, height_budget_bits=10**4, workers=1)
    pooled = empirical_max_iterate(PELL_2, EMPTY_S, 8, height_budget_bits=10**4, workers=3)
    assert serial == pooled


def test_scan_orbit_cap_limit_is_inclusive():
    from dynctl import orbits

    m = make_map([0, 1], [1, 1])  # x/(x+1): 1/n -> 1/(n+1), a degree-1 wandering orbit
    rec = scan_orbit(m, ProjPointQ(1, 1), EMPTY_S, n_cap=orbits.N_CAP_LIMIT)
    assert len(rec.points) == orbits.N_CAP_LIMIT + 1
    with pytest.raises(SizeBudgetExceededError):
        scan_orbit(m, ProjPointQ(1, 1), EMPTY_S, n_cap=orbits.N_CAP_LIMIT + 1)
