import itertools
import operator
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dynctl.orbits as orbits_mod
from dynctl.canonical import is_preperiodic
from dynctl.errors import DegenerateMapError, DegreeDropError, SizeBudgetExceededError
from dynctl.families import phi_t_family, pell_map, specialize, three_param_family
from dynctl.maps import (TAIL_FORMS, evaluate, is_polynomial, make_map,
                         random_coprime_pair, random_map, second_iterate_is_polynomial,
                         trap_height)
from dynctl.orbits import (DEFAULT_N_CAP, count_s_integral, density_of_integral_preimages,
                           empirical_max_iterate, scan_orbit)
from dynctl.parallel import map_chunks
from dynctl.polynomials import form_compose
from dynctl.points import (EMPTY_S, N_CAP_LIMIT, ProjPointQ, SIntSpec, Truncation,
                           enumerate_points, is_s_integral, normalize, strip_s_part,
                           tally_by_height)
from test_points import count_points

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


def _brute_density(f, s, bs):
    """(totals, hits, trap hits, violations) by bound, one evaluate per enumerated point."""
    check_trap = not is_polynomial(f)
    res = abs(f.resultant)
    rows = []
    for p in enumerate_points(bs[-1]):
        hit = is_s_integral(evaluate(f, p), s)
        g = f.denominator(p.a, p.b)
        in_trap = check_trap and g != 0 and res % strip_s_part(g, s) == 0
        rows.append((max(abs(p.a), abs(p.b)), hit, in_trap, check_trap and hit and not in_trap))
    return tally_by_height(bs, rows, (operator.add,) * 3)


@st.composite
def _density_maps(draw):
    """A random map, a polynomial map, or F / (c * g) with g in TAIL_FORMS, whose
    trap box H <= trap_height holds every point that density evaluates in full
    with S = {} (small coefficients keep |Res|, and so the box, below most bounds)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("random", "polynomial", "trap")))
    if kind == "random":
        return random_map(rng, degree)
    if kind == "polynomial":
        num = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-2, -1, 1, 3))]
        return make_map(num, [rng.randint(1, 4)] + [0] * degree)
    form = rng.choice(sorted(TAIL_FORMS))
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    try:
        return make_map([rng.randint(-3, 3) for _ in form], [c * x for x in form])
    except (DegenerateMapError, DegreeDropError):
        assume(False)


@given(_density_maps(), st.sampled_from((EMPTY_S, SIntSpec([2, 3]))),
       st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True),
       st.sampled_from((1, 2)))
@settings(max_examples=40, deadline=None)
def test_density_rows_match_brute_force(f, s, bounds, workers):
    bs = tuple(sorted(bounds))
    report = density_of_integral_preimages(f, s, bs, workers=workers)
    totals, hits, trap_hits, violations = _brute_density(f, s, bs)
    assert report.totals == totals == tuple(count_points(b) for b in bs)
    assert report.hits == hits
    assert report.trap_checked is not is_polynomial(f)
    assert report.trap_hits == (trap_hits if report.trap_checked else None)
    assert report.trap_violations == violations[-1] == 0


def test_density_sends_one_task_per_row(monkeypatch):
    import dynctl.orbits as orbits_mod

    sizes = []

    def recording_map_chunks(fn, items, workers=1):
        items = list(items)
        sizes.append(len(items))
        return map_chunks(fn, items, workers)

    monkeypatch.setattr(orbits_mod, "map_chunks", recording_map_chunks)
    report = density_of_integral_preimages(PHI_1, EMPTY_S, (50,), workers=2)
    assert report.totals == (3096,) == (count_points(50),)
    assert sizes == [51]


def test_density_evaluates_only_inside_the_trap_box(monkeypatch):
    import dynctl.orbits as orbits_mod

    heights = []
    real_point = orbits_mod._density_point

    def recording_point(p, *args):
        heights.append(max(abs(p.a), abs(p.b)))
        return real_point(p, *args)

    monkeypatch.setattr(orbits_mod, "_density_point", recording_point)
    report = density_of_integral_preimages(PHI_1, EMPTY_S, (50,))
    assert trap_height(PHI_1.denominator.coeffs, PHI_1.resultant) == 2
    assert heights and max(heights) <= 2 and len(heights) <= count_points(2)
    assert report.totals == (count_points(50),) and report.hits == (3,)
    heights.clear()
    density_of_integral_preimages(PHI_1, SIntSpec([2]), (50,))
    assert len(heights) == count_points(50)  # S nonempty: every point


def test_density_sieves_on_g_without_a_denominator_bound(monkeypatch):
    import dynctl.orbits as orbits_mod

    evaluated = []
    real_point = orbits_mod._density_point

    def recording_point(p, *args):
        evaluated.append(p)
        return real_point(p, *args)

    monkeypatch.setattr(orbits_mod, "_density_point", recording_point)
    # (x^2 + 2)/x: G = XY has no TAIL_FORMS bound, and |Res| = 2.
    f = make_map([2, 0, 1], [0, 1, 0])
    assert trap_height(f.denominator.coeffs, f.resultant) is None
    bs = (10, 30)
    report = density_of_integral_preimages(f, EMPTY_S, bs)
    totals, hits, trap_hits, _ = _brute_density(f, EMPTY_S, bs)
    assert (report.totals, report.hits, report.trap_hits) == (totals, hits, trap_hits)
    res = abs(f.resultant)
    assert all(0 < abs(f.denominator(p.a, p.b)) <= res for p in evaluated)
    assert 0 < len(evaluated) < count_points(30) // 10


@pytest.mark.parametrize("t", [2, 3, 5])
def test_density_counts_a_hit_on_the_edge_of_the_trap_box(t):
    # (x^2 - x + t + 1)/(x^2 + 1) has |Res| = t^2 + 1, so trap_height = t, and
    # phi(t) = 1: the box H <= trap_height is tight, with a hit on its edge.
    f = make_map([t + 1, -1, 1], [1, 0, 1])
    assert trap_height(f.denominator.coeffs, f.resultant) == t
    assert is_s_integral(evaluate(f, ProjPointQ(t, 1)), EMPTY_S)
    bs = (t - 1, t, 3 * t)
    report = density_of_integral_preimages(f, EMPTY_S, bs)
    totals, hits, trap_hits, _ = _brute_density(f, EMPTY_S, bs)
    assert (report.totals, report.hits, report.trap_hits) == (totals, hits, trap_hits)
    assert hits[1] > hits[0]


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


def _nmax_oracle(m, s, bound, n_cap, height_budget_bits):
    """nmax one basepoint at a time: the preperiodicity filter, then b's own scan."""
    best, witness = -1, None
    for b in enumerate_points(bound):
        if is_preperiodic(m, b):
            continue
        rec = scan_orbit(m, b, s, n_cap=n_cap, height_budget_bits=height_budget_bits,
                         count_only=True)
        top = max(rec.integral_indices, default=-1)
        if top > best:
            best, witness = top, b
    return best, witness


@st.composite
def _nmax_maps(draw):
    """A random map, an even map g(x^2), a map g(x + c/x) invariant under
    x -> c/x, or c*F/g for g in TAIL_FORMS (whose count-only scans cut)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "even", "inversion", "tail")))
    try:
        if kind == "random":
            m = random_map(rng, rng.randint(2, 3))
        elif kind == "even":
            g = random_map(rng, rng.randint(1, 2))
            spread = lambda coeffs: [x for c in coeffs for x in (c, 0)][:-1]
            m = make_map(spread(g.numerator.coeffs), spread(g.denominator.coeffs))
        elif kind == "inversion":
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            g = random_map(rng, rng.randint(1, 2))
            m = make_map(*form_compose(g.numerator.coeffs, g.denominator.coeffs,
                                       [c, 0, 1], [0, 1, 0]))
        else:
            form = rng.choice(sorted(TAIL_FORMS))
            num = [rng.randint(-9, 9) for _ in form]
            m = make_map(num, [rng.choice((-2, -1, 1, 3)) * x for x in form])
    except (DegenerateMapError, DegreeDropError):
        assume(False)
    assume(m.degree >= 2 and not second_iterate_is_polynomial(m))
    return m


@given(_nmax_maps(), st.sampled_from((EMPTY_S, SIntSpec([2]), SIntSpec([2, 3]))),
       st.integers(1, 12), st.sampled_from((0, 1, 2, 16)),
       st.sampled_from((1, 40, 400, 10000)))
@settings(max_examples=80, deadline=None)
def test_grouped_nmax_matches_one_scan_per_basepoint(m, s, bound, n_cap, budget):
    want = _nmax_oracle(m, s, bound, n_cap, budget)
    for workers in (1, 2):
        assert empirical_max_iterate(m, s, bound, n_cap=n_cap, height_budget_bits=budget,
                                     workers=workers) == want


@given(_nmax_maps(), st.sampled_from((EMPTY_S, SIntSpec([2]))), st.integers(1, 8),
       st.sampled_from((0, 1)), st.sampled_from((1, 8, 40)))
@settings(max_examples=60, deadline=None)
def test_nmax_evaluates_no_basepoint_that_cannot_step(m, s, bound, n_cap, budget):
    import dynctl.orbits as orbits_mod

    want = _nmax_oracle(m, s, bound, n_cap, budget)
    calls = []

    def counting_evaluate(f, p):
        calls.append(p)
        return evaluate(f, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits_mod, "evaluate", counting_evaluate)
        assert empirical_max_iterate(m, s, bound, n_cap=n_cap, height_budget_bits=budget) == want
    limit = min(orbits_mod._scan_limits(m.scan, m.degree, s, budget, True)) if n_cap else -1
    assert all(orbits_mod._bits(p) <= limit for p in calls)
    if n_cap == 0:
        assert calls == []


def test_scan_orbit_cap_limit_is_inclusive():
    m = make_map([0, 1], [1, 1])  # x/(x+1): 1/n -> 1/(n+1), a degree-1 wandering orbit
    rec = scan_orbit(m, ProjPointQ(1, 1), EMPTY_S, n_cap=N_CAP_LIMIT)
    assert len(rec.points) == N_CAP_LIMIT + 1
    with pytest.raises(SizeBudgetExceededError):
        scan_orbit(m, ProjPointQ(1, 1), EMPTY_S, n_cap=N_CAP_LIMIT + 1)


def _bits(p):
    return max(abs(p.a), abs(p.b)).bit_length()


def _reference_scan(m, b, s, n_cap, height_budget_bits):
    """The Q scan as one plain loop: cut before a point P with
    d*bits(P) + slack > budget, else evaluate and keep the image, whose
    coordinates must have at most d*bits(P) + slack - 1 bits."""
    d = m.degree
    slack = m.height.bit_length() + (d + 1).bit_length() + 1
    points = [b]
    seen = {b: 0}
    cycle_entry = None
    truncation = Truncation.ITERATION_CAP
    while len(points) <= n_cap:
        bound = d * _bits(points[-1]) + slack
        if bound > height_budget_bits:
            truncation = Truncation.HEIGHT_BUDGET
            break
        nxt = evaluate(m, points[-1])
        if nxt in seen:
            cycle_entry = (seen[nxt], len(points) - seen[nxt])
            truncation = Truncation.COMPLETED
            break
        assert _bits(nxt) <= bound - 1
        seen[nxt] = len(points)
        points.append(nxt)
    integral = tuple(i for i, p in enumerate(points) if is_s_integral(p, s))
    return tuple(points), integral, cycle_entry, truncation


def test_scan_orbit_matches_evaluate_then_keep():
    # 2400 fixed-seed cases over maps of degree 1-4; over Q the walk's post
    # check never fires, so every evaluated point that closes no cycle is kept.
    rng = random.Random(16)
    seen = set()
    for _ in range(300):
        m = random_map(rng, rng.randint(1, 4))
        for _ in range(8):
            b = normalize(*random_coprime_pair(rng))
            s = SIntSpec(rng.choice(((), (2,), (2, 3))))
            budget, n_cap = rng.randint(1, 200), rng.randint(0, DEFAULT_N_CAP)
            rec = scan_orbit(m, b, s, n_cap=n_cap, height_budget_bits=budget)
            want = _reference_scan(m, b, s, n_cap, budget)
            assert (rec.points, rec.integral_indices, rec.cycle_entry, rec.truncation) == want
            seen.add(rec.truncation)
    # A whole-record scan (count_only=False) never takes the certified tail cut.
    assert seen == set(Truncation) - {Truncation.CERTIFIED_TAIL}


# ---------------------------------------------------------------------------
# The certified tail cut of count-only scans
# ---------------------------------------------------------------------------


@st.composite
def _sweep_maps(draw):
    """A map with a tail threshold, as the sweeps meet them, and a basepoint:
    the three_param open cell at r^6 s^6 t^6 or a random point, its s = 0 and
    r = 0 slices at 0 or a random point, phi_t, or c*F/g for g in TAIL_FORMS."""
    kind = draw(st.sampled_from(("open", "s_zero", "r_zero", "phi_t", "form")))
    small = st.integers(-12, 12)
    r, s, t = draw(small), draw(small), draw(small)
    try:
        if kind == "open":
            m = specialize(three_param_family(), (r, s, t))
            base = ProjPointQ(r**6 * s**6 * t**6, 1)
        elif kind == "s_zero":
            m, base = make_map([t, 0, 0], [1, 0, 1]), ProjPointQ(0, 1)
        elif kind == "r_zero":
            m, base = make_map([t, s, 0], [1, 0, 1]), ProjPointQ(0, 1)
        elif kind == "phi_t":
            m, base = specialize(phi_t_family(), (t,)), ProjPointQ(t, 1)
        else:
            form = draw(st.sampled_from(sorted(TAIL_FORMS)))
            num = draw(st.lists(small, min_size=len(form), max_size=len(form)))
            m, base = make_map(num, [r * x for x in form]), ProjPointQ(s, 1)
    except (DegenerateMapError, DegreeDropError):
        assume(False)
    if draw(st.booleans()):
        base = normalize(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**3)))
    return m, base


@given(_sweep_maps(), st.integers(0, DEFAULT_N_CAP), st.integers(1, 3000))
@settings(max_examples=300, deadline=None)
def test_count_only_scan_agrees_with_the_whole_scan(case, n_cap, budget):
    m, b = case
    full = scan_orbit(m, b, EMPTY_S, n_cap=n_cap, height_budget_bits=budget)
    cut = scan_orbit(m, b, EMPTY_S, n_cap=n_cap, height_budget_bits=budget, count_only=True)
    assert count_s_integral(cut) == count_s_integral(full)
    assert max(cut.integral_indices, default=-1) == max(full.integral_indices, default=-1)
    assert cut.points == full.points[:len(cut.points)]
    # The cut is taken at the first point over the threshold, and only there,
    # unless the scan handed off to the residue walk before it.
    above = [_bits(p) > m.scan[1] for p in cut.points]
    if cut.truncation is Truncation.CERTIFIED_TAIL:
        assert not any(above[:-1])
        assert above[-1] or _handed_off(cut, m)
        assert not any(is_s_integral(p, EMPTY_S) for p in full.points[len(cut.points):])
    else:
        _assert_residue_cut(cut, full, m)
        assert not any(above[:-1])


def test_count_only_scan_stops_at_the_open_cell_basepoint():
    # The avg3 open cell at B = 2: every basepoint r^6 s^6 t^6 but +-1 is above
    # the threshold, so its count-only scan keeps the basepoint alone.
    fam = three_param_family()
    for r, s, t in itertools.product((-2, -1, 1, 2), repeat=3):
        m = specialize(fam, (r, s, t))
        b = ProjPointQ(r**6 * s**6 * t**6, 1)
        cut = scan_orbit(m, b, EMPTY_S, height_budget_bits=10000, count_only=True)
        full = scan_orbit(m, b, EMPTY_S, height_budget_bits=10000)
        assert count_s_integral(cut) == count_s_integral(full)
        if b.a > 1:
            assert cut.truncation is Truncation.CERTIFIED_TAIL and cut.points == (b,)
            assert count_s_integral(cut) == (1, False)


def test_count_only_scan_with_s_or_without_a_threshold_keeps_the_whole_record():
    m = specialize(three_param_family(), (2, 3, 5))
    b = ProjPointQ(2**6 * 3**6 * 5**6, 1)
    s = SIntSpec([2])
    assert scan_orbit(m, b, s, count_only=True) == scan_orbit(m, b, s)
    # Without a threshold the scan hands off at its first point over the switch.
    b = normalize(3, 2)
    cut = scan_orbit(PELL_2, b, EMPTY_S, count_only=True)
    full = scan_orbit(PELL_2, b, EMPTY_S)
    _assert_residue_cut(cut, full, PELL_2)
    assert cut.points == full.points[:2] and len(full.points) == 10
    assert count_s_integral(cut) == count_s_integral(full) == (1, False)


# ---------------------------------------------------------------------------
# The residue walk of count-only scans past the growth switch
# ---------------------------------------------------------------------------


def _pre_limit(m, budget):
    return (budget - m.scan[0]) // m.degree


def _handed_off(cut, m):
    """True when cut ends at a point over the switch, where a walk may hand off."""
    switch_bits = m.scan[2]
    return switch_bits is not None and _bits(cut.points[-1]) > switch_bits


def _assert_residue_cut(cut, full, m):
    """cut is the whole scan full with the same integral indices, cycle entry
    and truncation; its points are a prefix of full's; and where points are
    dropped, none of them is integral and cut ends at a point over the
    switch, where the walk handed off."""
    assert cut.integral_indices == full.integral_indices
    assert cut.cycle_entry == full.cycle_entry
    assert cut.truncation is full.truncation
    assert cut.points == full.points[:len(cut.points)]
    dropped = full.points[len(cut.points):]
    assert not any(is_s_integral(p, EMPTY_S) for p in dropped)
    if dropped:
        assert _handed_off(cut, m)


@st.composite
def _threshold_free_maps(draw):
    """A map with no tail threshold, so only the residue walk cuts its
    count-only scans: random_map of degree 2-4, or pell(D) for D in {2, 3, 5};
    and a basepoint."""
    if draw(st.booleans()):
        m = random_map(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 4)))
        assume(m.scan[1] is None)
    else:
        m = pell_map(draw(st.sampled_from((2, 3, 5))))
    a, b = draw(st.integers(-10**4, 10**4)), draw(st.integers(1, 10**3))
    return m, normalize(a, b)


def _pell_unit_point(sign):
    """pell(2) with its denominator times sign, and u/v for
    u + v sqrt(2) = (3 + 2 sqrt(2))^251: G(u, v) = sign, so phi(u/v) = sign * u^4
    is integral and u/v, of 638 bits, is over the switch at budget 10000."""
    m = make_map(PELL_2.numerator.coeffs, [sign * c for c in PELL_2.denominator.coeffs])
    u, v = 1, 0
    for _ in range(251):
        u, v = 3 * u + 4 * v, 2 * u + 3 * v
    return m, normalize(u, v)


# The residue walk's oracle runs under one fixed profile: the same draws on every run.
RESIDUE_ORACLE = settings(max_examples=1500, deadline=None, derandomize=True)


@RESIDUE_ORACLE
@given(_threshold_free_maps(), st.integers(0, DEFAULT_N_CAP), st.integers(64, 20000))
@example(_pell_unit_point(1), DEFAULT_N_CAP, 10000)
@example(_pell_unit_point(-1), DEFAULT_N_CAP, 10000)
@example((PELL_2, normalize(3, 2)), 7, 10000)
def test_count_only_scan_settles_only_a_non_integral_last_step(case, n_cap, budget):
    # The oracle of the residue walk. The examples fall back: a candidate
    # b = +-1 at the first residue step, and a bracket that straddles
    # pre_limit with one step left.
    m, b = case
    full = scan_orbit(m, b, EMPTY_S, n_cap=n_cap, height_budget_bits=budget)
    cut = scan_orbit(m, b, EMPTY_S, n_cap=n_cap, height_budget_bits=budget, count_only=True)
    _assert_residue_cut(cut, full, m)
    assert count_s_integral(cut) == count_s_integral(full)
    # A scan with S nonempty keeps the whole record.
    s = SIntSpec([2])
    assert scan_orbit(m, b, s, n_cap=n_cap, height_budget_bits=budget, count_only=True) == \
        scan_orbit(m, b, s, n_cap=n_cap, height_budget_bits=budget)


def test_count_only_scan_settles_the_last_step_of_most_wandering_orbits():
    # The budgets above are ones at which the residue walk cuts: over fixed
    # seeds it drops points from most scans that end at the height budget.
    rng = random.Random(25)
    ended = settled = 0
    for _ in range(200):
        m = pell_map(2) if rng.random() < 0.2 else random_map(rng, rng.randint(2, 4))
        if m.scan[1] is not None:
            continue
        b = normalize(*random_coprime_pair(rng))
        budget = rng.randint(200, 4000)
        full = scan_orbit(m, b, EMPTY_S, height_budget_bits=budget)
        cut = scan_orbit(m, b, EMPTY_S, height_budget_bits=budget, count_only=True)
        _assert_residue_cut(cut, full, m)
        if full.truncation is Truncation.HEIGHT_BUDGET:
            ended += 1
            settled += len(cut.points) < len(full.points)
    assert ended >= 100 and settled >= 0.9 * ended


def test_settled_last_step_ends_as_the_taken_step_would():
    # pell(2) from 3/2 at budget 10000 keeps points of 2, 7, 26, 102, 408,
    # 1630 and 6520 bits, and pre_limit is 2498. The count-only scan hands
    # off at the 7-bit point (switch_bits 6) and ends there, as the whole
    # walk would: at the cap up to n_cap = 6, at the budget from n_cap = 8.
    # At n_cap = 7 the bracket of the 6520-bit point, [1371, 9214] bits,
    # straddles pre_limit with one step left, so the residue walk falls back:
    # the scan takes one step exactly and hands off again from the 26-bit point.
    assert PELL_2.scan == (7, None, 6, 14) and _pre_limit(PELL_2, 10000) == 2498
    seen = set()
    for n_cap in range(10):
        full = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=n_cap, height_budget_bits=10000)
        cut = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=n_cap,
                         height_budget_bits=10000, count_only=True)
        _assert_residue_cut(cut, full, PELL_2)
        assert len(cut.points) == {0: 1, 1: 2, 7: 3}.get(n_cap, 2)
        seen.add((full.truncation, len(cut.points) < len(full.points)))
    assert seen == {(Truncation.ITERATION_CAP, False), (Truncation.ITERATION_CAP, True),
                    (Truncation.HEIGHT_BUDGET, True)}
    p = scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, n_cap=1).points[1]
    assert orbits_mod._residue_walk(PELL_2, 2498, 2498, p, 7, 6) is None
    assert orbits_mod._residue_walk(PELL_2, 2498, 2498, p, 7, 7) is Truncation.HEIGHT_BUDGET


@pytest.mark.parametrize("sign", [1, -1])
def test_count_only_scan_takes_a_last_step_that_passes_the_residue_test(sign):
    # u + v sqrt(2) = (3 + 2 sqrt(2))^251 solves u^2 - 2 v^2 = 1, and u/v has
    # 638 bits: over the switch at budget 10000, but G(u, v) =
    # +-(u^2 - 2 v^2)^2 = +-1, so the residue of phi(u/v)'s b is +-1 (M - 1
    # from G's other side): a candidate. The residue walk falls back, the
    # step is taken exactly, and phi(u/v) = +-u^4 is integral.
    m = make_map(PELL_2.numerator.coeffs, [sign * c for c in PELL_2.denominator.coeffs])
    u, v = 1, 0
    for _ in range(251):
        u, v = 3 * u + 4 * v, 2 * u + 3 * v
    b = normalize(u, v)
    assert u * u - 2 * v * v == 1 and _bits(b) == 638
    assert m.scan[2] < _bits(b) <= _pre_limit(m, 10000)
    assert m.denominator(u, v) == sign
    pre_limit = _pre_limit(m, 10000)
    assert orbits_mod._residue_walk(m, pre_limit, pre_limit, b, 638, DEFAULT_N_CAP) is None
    cut = scan_orbit(m, b, EMPTY_S, height_budget_bits=10000, count_only=True)
    assert cut == scan_orbit(m, b, EMPTY_S, height_budget_bits=10000)
    assert cut.points == (b, ProjPointQ(sign * u**4, 1)) and cut.integral_indices == (1,)
    assert cut.truncation is Truncation.HEIGHT_BUDGET


def test_degree_one_map_never_takes_the_last_step_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan handed off to the residue walk")

    monkeypatch.setattr(orbits_mod, "_residue_walk", refuse)
    # x -> 2x + 1 from 0 climbs one bit a step, all of them integral, to the budget.
    m = make_map([1, 2], [1, 0])
    assert m.scan[2] is None
    rec = scan_orbit(m, ProjPointQ(0, 1), EMPTY_S, n_cap=500, height_budget_bits=60,
                     count_only=True)
    assert rec.truncation is Truncation.HEIGHT_BUDGET
    assert rec.integral_indices == tuple(range(len(rec.points)))
    rng = random.Random(1)
    for _ in range(30):
        m = random_map(rng, 1)
        for budget in (8, 60, 400):
            b = normalize(*random_coprime_pair(rng))
            cut = scan_orbit(m, b, EMPTY_S, n_cap=500, height_budget_bits=budget,
                             count_only=True)
            assert cut == scan_orbit(m, b, EMPTY_S, n_cap=500, height_budget_bits=budget)
    # The same scan of a degree-2 map does hand off.
    with pytest.raises(AssertionError, match="handed off"):
        scan_orbit(PELL_2, normalize(3, 2), EMPTY_S, count_only=True)
