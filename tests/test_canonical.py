import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dynctl import canonical
from dynctl.canonical import (canonical_height, is_preperiodic, transition_constants,
                              transition_constants_check)
from dynctl.errors import SizeBudgetExceededError
from dynctl.families import pell_map
from dynctl.maps import evaluate, make_map, random_map
from dynctl.points import INFINITY, ProjPointQ, enumerate_points, log_of_int, normalize

X_SQUARED = make_map([0, 0, 1], [1, 0, 0])
X_SQ_MINUS_1 = make_map([-1, 0, 1], [1, 0, 0])
PELL_2 = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])
# (x^2 - 2)/(-2x^2 + x + 2) sends 4/3 to 1, so H(P)^2 = 16 against L = 24:
# the lower constant is attained within a factor 2/3.
NEAR_SHARP = make_map([-2, 0, 1], [2, 1, -2])


def _height(p: ProjPointQ) -> int:
    return max(abs(p.a), abs(p.b))


def _h(p: ProjPointQ) -> float:
    return log_of_int(_height(p))


def _assert_one_step_bounds(m, bound):
    up, low = transition_constants(m)
    d = m.degree
    for p in enumerate_points(bound):
        h_d = _height(p) ** d
        h_img = _height(evaluate(m, p))
        assert h_d <= low * h_img and h_img <= up * h_d, p


@pytest.mark.parametrize("m", [X_SQUARED, PELL_2, NEAR_SHARP], ids=["x^2", "pell2", "near_sharp"])
def test_transition_constants_bruteforce_h50(m):
    up, low = transition_constants(m)
    assert up >= 1 and low >= 1
    _assert_one_step_bounds(m, 50)


# Coefficients in [-1, 1] often give maps whose L is attained within a factor 2.
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.sampled_from((1, 9)))
@settings(max_examples=100, deadline=None)
def test_transition_constants_exact_on_random_maps(seed, degree, coeff_bound):
    _assert_one_step_bounds(random_map(random.Random(seed), degree, coeff_bound), 30)


def test_transition_constants_c_up_formula():
    assert transition_constants(X_SQUARED) == (3 * X_SQUARED.height, 4)
    assert transition_constants(NEAR_SHARP) == (3 * NEAR_SHARP.height, 24)


def test_transition_constants_registry_check():
    assert transition_constants_check().ok


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
    up, low = transition_constants(PELL_2)
    margin = (log_of_int(up) + log_of_int(low)) / (PELL_2.degree - 1)
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


@pytest.mark.parametrize("m", [X_SQUARED, X_SQ_MINUS_1, PELL_2, NEAR_SHARP],
                         ids=["x^2", "x^2-1", "pell2", "near_sharp"])
def test_preperiodic_points_sit_below_the_ceiling(m):
    _, low = transition_constants(m)
    for p in enumerate_points(10):
        if _orbit_table_oracle(m, p):
            assert _height(p) ** (m.degree - 1) <= low, p


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
    real_solve = maps_mod.bareiss

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(maps_mod, "bareiss", counting_solve)
    m = pell_map(2)
    points = list(itertools.islice(enumerate_points(10), 50))
    assert len(points) == 50
    for p in points:
        is_preperiodic(m, p)
    canonical_height(m, ProjPointQ(3, 2), 1e-4)
    assert len(solves) == 1  # one Sylvester elimination for both cofactor identities


def _count_evaluations(monkeypatch):
    calls = []
    real_evaluate = canonical.evaluate

    def counting_evaluate(m, p):
        calls.append(p)
        return real_evaluate(m, p)

    monkeypatch.setattr(canonical, "evaluate", counting_evaluate)
    return calls


def test_walk_that_cannot_fit_is_refused_early(monkeypatch):
    # x^2 at 2 with tol 1e-15 needs 51 steps; coordinates pass 2^25 bits at
    # step 25. Bit lengths only grow certifiably from H = 16 (L = 4), so the
    # walk is refused after 2 evaluations instead of 25.
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(SizeBudgetExceededError,
                       match=f"the {canonical.HEIGHT_ITER_BITS}-bit coordinate budget"):
        canonical_height(X_SQUARED, ProjPointQ(2, 1), 1e-15)
    assert len(calls) == 2


def test_walk_from_a_high_point_is_refused_before_any_evaluation(monkeypatch):
    monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", 100)
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(SizeBudgetExceededError, match="100-bit coordinate budget"):
        canonical_height(PELL_2, ProjPointQ(2**40 + 1, 3), 1e-3)
    assert calls == []


def test_preperiodic_point_walks_the_whole_way(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    est = canonical_height(X_SQUARED, ProjPointQ(1, 1), 1e-15)
    assert est.value == 0.0 and est.iterations_used == 51 == len(calls)


def test_walk_at_the_budget_boundary(monkeypatch):
    # Each walk fits a budget equal to its largest coordinate bit length and
    # gives the same estimate there; one bit less, it is refused.
    rng = random.Random(5)
    for _ in range(80):
        m = random_map(rng, rng.randint(2, 3), coeff_bound=9)
        p = normalize(rng.randint(-40, 40), rng.randint(1, 40))
        tol = rng.choice((1e-1, 1e-2, 1e-3))
        est = canonical_height(m, p, tol)
        walk = [p]
        for _ in range(est.iterations_used):
            walk.append(evaluate(m, walk[-1]))
        widest = max((_height(q).bit_length() for q in walk[1:]), default=0)
        monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", widest)
        assert canonical_height(m, p, tol) == est
        monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", widest - 1)
        with pytest.raises(SizeBudgetExceededError):
            canonical_height(m, p, tol)
        monkeypatch.undo()


def test_outgrows_recurrence_at_its_threshold(monkeypatch):
    # H = 2^10 gives lb_0 = 10, then lb_1 = 2*10 - 3 = 17 and lb_2 = 31.
    monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", 17)
    assert canonical._outgrows(2**10, 2, 3, 1)
    assert not canonical._outgrows(2**10 - 1, 2, 3, 1)
    monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", 31)
    assert canonical._outgrows(2**10, 2, 3, 2)
    assert not canonical._outgrows(2**10, 2, 3, 1)
    assert not canonical._outgrows(4, 2, 3, 10**6)  # lb 2, 1, ... never grows


@pytest.mark.parametrize("m", [X_SQUARED, NEAR_SHARP, PELL_2, random_map(random.Random(8), 3)],
                         ids=["x^2", "near_sharp", "pell2", "random_cubic"])
def test_outgrows_never_refuses_a_walk_that_fits(m, monkeypatch):
    # Set the budget to the largest bit length the next `steps` points really
    # reach: then no point passes it, and the recurrence must not claim one does.
    loss = transition_constants(m)[1].bit_length()
    for p in enumerate_points(12):
        walk = [p]
        for _ in range(5):
            walk.append(evaluate(m, walk[-1]))
        bits = [_height(q).bit_length() for q in walk]
        for start in range(5):
            for steps in range(1, 6 - start):
                budget = max(bits[start + 1:start + 1 + steps])
                monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", budget)
                assert not canonical._outgrows(_height(walk[start]), m.degree, loss, steps)
