import itertools
import math
import random

import pytest

from dynctl.canonical import (canonical_height, is_preperiodic, transition_constants,
                              transition_constants_check)
from dynctl.families import pell_map
from dynctl.maps import evaluate, make_map, map_height, random_map
from dynctl.points import INFINITY, ProjPointQ, enumerate_points, log_of_int, normalize

X_SQUARED = make_map([0, 0, 1], [1, 0, 0])
X_SQ_MINUS_1 = make_map([-1, 0, 1], [1, 0, 0])
PELL_2 = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])


def _h(p: ProjPointQ) -> float:
    return log_of_int(max(abs(p.a), abs(p.b)))


@pytest.mark.parametrize("m", [X_SQUARED, PELL_2], ids=["x^2", "pell2"])
def test_transition_constants_bruteforce_h50(m):
    tc = transition_constants(m)
    assert tc.c_up >= 0 and tc.c_low >= 0
    d = m.degree
    for p in enumerate_points(50):
        img = evaluate(m, p)
        drift = _h(img) - d * _h(p)
        assert -tc.c_low - 1e-9 <= drift <= tc.c_up + 1e-9


def test_transition_constants_c_up_formula():
    tc = transition_constants(X_SQUARED)
    assert tc.c_up == pytest.approx(map_height(X_SQUARED).log + math.log(3))


def test_transition_constants_registry_check():
    assert transition_constants_check(bound=20).ok


def test_canonical_height_power_map():
    est = canonical_height(X_SQUARED, ProjPointQ(2, 1), 1e-6)
    assert est.radius <= 1e-6
    assert abs(est.value - math.log(2)) <= est.radius


def test_canonical_height_fixed_point():
    est = canonical_height(X_SQUARED, ProjPointQ(1, 1), 1e-6)
    assert est.value <= est.radius


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
def test_canonical_height_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        canonical_height(X_SQUARED, ProjPointQ(2, 1), tol)


def test_canonical_height_rejects_degree_one():
    mobius = make_map([1, 1], [1, 0])
    with pytest.raises(ValueError):
        canonical_height(mobius, ProjPointQ(1, 1), 1e-3)
    with pytest.raises(ValueError):
        is_preperiodic(mobius, ProjPointQ(1, 1))


def test_functional_equation_pell():
    tol = 1e-4
    p = normalize(3, 2)
    e1 = canonical_height(PELL_2, p, tol)
    e2 = canonical_height(PELL_2, evaluate(PELL_2, p), tol)
    assert abs(e2.value - 4 * e1.value) <= 5 * tol


def test_functional_equation_random():
    rng = random.Random(17)
    tol = 1e-3
    for _ in range(15):
        d = rng.randint(2, 3)
        m = random_map(rng, d, coeff_bound=4)
        p = normalize(rng.randint(-6, 6), rng.randint(1, 6))
        e1 = canonical_height(m, p, tol)
        e2 = canonical_height(m, evaluate(m, p), tol)
        assert abs(e2.value - d * e1.value) <= (d + 1) * tol


def test_radius_monotone_in_iterations():
    prev_iters = -1
    prev_radius = float("inf")
    for tol in (1e-1, 1e-2, 1e-4, 1e-6):
        est = canonical_height(X_SQUARED, ProjPointQ(3, 1), tol)
        assert est.iterations_used >= prev_iters
        assert est.radius <= prev_radius
        prev_iters, prev_radius = est.iterations_used, est.radius


def test_height_vs_canonical_height_bound():
    tc = transition_constants(PELL_2)
    margin = (tc.c_up + tc.c_low) / (PELL_2.degree - 1)
    for p in enumerate_points(10):
        est = canonical_height(PELL_2, p, 1e-4)
        assert abs(est.value - _h(p)) <= margin + est.radius + 1e-9


def test_preperiodicity_examples():
    assert is_preperiodic(X_SQ_MINUS_1, ProjPointQ(0, 1))  # 0 -> -1 -> 0
    assert not is_preperiodic(X_SQUARED, ProjPointQ(2, 1))
    assert is_preperiodic(X_SQUARED, INFINITY)


def _orbit_table_oracle(m, p, height_cutoff=10**9, step_cap=200):
    """Independent decision: iterate exactly; repeat = preperiodic, blow-up = wandering."""
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


@pytest.mark.parametrize("m", [X_SQUARED, X_SQ_MINUS_1, PELL_2], ids=["x^2", "x^2-1", "pell2"])
def test_preperiodicity_matches_orbit_table(m):
    for p in enumerate_points(10):
        assert is_preperiodic(m, p) == _orbit_table_oracle(m, p)


def test_preperiodic_iff_hhat_near_zero():
    for p in enumerate_points(8):
        est = canonical_height(X_SQ_MINUS_1, p, 1e-5)
        if is_preperiodic(X_SQ_MINUS_1, p):
            assert est.value <= est.radius
        else:
            assert est.value - est.radius > 0


@pytest.mark.parametrize("m", [X_SQ_MINUS_1, PELL_2], ids=["x^2-1", "pell2"])
def test_certified_intervals_are_nested(m):
    # the coarse interval must contain the sharper estimate's value
    for p in (ProjPointQ(2, 1), ProjPointQ(3, 2), ProjPointQ(-5, 3)):
        coarse = canonical_height(m, p, 1e-2)
        sharp = canonical_height(m, p, 1e-4)
        assert sharp.radius < coarse.radius
        assert abs(coarse.value - sharp.value) <= coarse.radius + sharp.radius


def test_certificate_solved_once_per_map(monkeypatch):
    import dynctl.maps as maps_mod

    solves = []
    real_solve = maps_mod.solve_exact

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(maps_mod, "solve_exact", counting_solve)
    m = pell_map(2)
    points = list(itertools.islice(enumerate_points(10), 50))
    assert len(points) == 50
    for p in points:
        is_preperiodic(m, p)
    canonical_height(m, ProjPointQ(3, 2), 1e-4)
    assert len(solves) == 2  # one Sylvester solve per cofactor identity
