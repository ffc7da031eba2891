import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from dynctl.errors import (DegenerateFamilyError, DegenerateMapError, DegreeDropError,
                           SizeBudgetExceededError)
from dynctl.families import (SYMBOLIC_RESULTANT_BUDGET, AvgReport, BasepointSpec, FamilySpec,
                             PHI_T_SECOND_DEN, PHI_T_SECOND_NUM, _member_map, avg_experiment,
                             cube_sum_bound_check, pell_fundamental, pell_map, pell_stream,
                             phi_t_family, phi_t_identities, phi_t_resultant_closed_form,
                             preimage_height_bound_check, resultant_specialization_check,
                             resultant_specialization_grid_check, specialize,
                             symbolic_second_iterate, three_param_avg, three_param_family,
                             three_param_slice_bounds_check)
from dynctl import families as families_mod
from dynctl import maps as maps_mod
from dynctl import orbits as orbits_mod
from dynctl.maps import evaluate, make_map
from dynctl.orbits import count_s_integral, scan_orbit
from dynctl.parsing import parse_map
from dynctl.points import (EMPTY_S, N_CAP_LIMIT, ProjPointQ, Truncation, enumerate_points,
                           is_s_integral, normalize)
from dynctl.polynomials import IntPoly, resultant_from_coeffs

SWEEP = {"n_cap": 16, "height_budget_bits": 10**4}


def second_iterate_family(family: FamilySpec) -> FamilySpec:
    """The family of second iterates, from symbolic_second_iterate."""
    num, den = symbolic_second_iterate(family)
    return FamilySpec(
        param_names=family.param_names,
        degree=family.degree**2,
        num_coeffs=tuple(num),
        den_coeffs=tuple(den),
        name=f"{family.name}^2" if family.name else "",
    )


def test_specialize_phi_t():
    fam = phi_t_family()
    with pytest.raises(DegenerateMapError):
        specialize(fam, (-1,))
    m = specialize(fam, (1,))
    assert m.degree == 3
    assert m.numerator.coeffs == (-1, 1, 0, 0)
    m_half = specialize(fam, (Fraction(1, 2),))
    assert m_half.numerator.coeffs == (-1, 2, 0, 0)  # denominators cleared


def test_specialize_three_param():
    m = specialize(three_param_family(), (1, 1, 1))
    assert m.numerator.coeffs == (1, 1, 0, 1)
    assert m.denominator.coeffs == (1, 0, 1, 0)


def test_i_membership_phi_t():
    fam = phi_t_family()
    for t in (2, 0, 5, Fraction(1, 3), Fraction(-2, 7), 100):
        assert _member_map(fam, (t,)) is not None
    assert _member_map(fam, (-1,)) is None


def test_i_membership_three_param_polynomial_cell():
    fam = three_param_family()
    assert _member_map(fam, (1, 2, 0)) is None  # reduces to the polynomial 2x
    assert _member_map(fam, (1, 1, 1)) is not None


def test_family_rejects_identically_degenerate():
    zero = IntPoly.const(0, ("t",))
    one = IntPoly.const(1, ("t",))
    two = IntPoly.const(2, ("t",))
    with pytest.raises(DegenerateFamilyError):
        FamilySpec(("t",), 2, (zero, zero, one), (zero, zero, two))


def test_phi_t_identities_report():
    report = phi_t_identities()
    assert report.ok


def test_phi_t_second_iterate_displayed_coefficients():
    num, den = symbolic_second_iterate(phi_t_family())
    assert tuple(num) == PHI_T_SECOND_NUM
    assert tuple(den) == PHI_T_SECOND_DEN
    t_minus4 = IntPoly(("t",), {(1,): -4})
    assert num[7] == IntPoly.const(1, ("t",))
    assert num[6] == t_minus4


def test_phi_t_resultant_closed_form_values():
    assert phi_t_resultant_closed_form(1) == 2**12
    assert phi_t_resultant_closed_form(0) == 1


def test_symbolic_resultant_matches_closed_form():
    sym = second_iterate_family(phi_t_family()).symbolic_resultant()
    t = IntPoly.var("t", ("t",))
    one = IntPoly.const(1, ("t",))
    assert sym == (t + one) ** 12 * (t * t - t + one) ** 12


def test_three_param_second_iterate_leading_terms():
    num, den = symbolic_second_iterate(three_param_family())
    r4s4 = IntPoly(("r", "s", "t"), {(4, 4, 0): 1})
    r2s2 = IntPoly(("r", "s", "t"), {(2, 2, 0): 1})
    assert num[9] == r4s4
    assert den[8] == r2s2
    assert den[9].is_zero()


def test_resultant_specialization_phi_t_second_iterate():
    fam2 = second_iterate_family(phi_t_family())
    report = resultant_specialization_check(fam2, [(2,), (3,), (-5,)])
    assert report.ok
    assert "282429536481" in report.checks[0].detail  # 3^24 at t = 2


def test_resultant_specialization_three_param():
    report = resultant_specialization_check(three_param_family(), [(1, 1, 1), (2, -1, 3)])
    assert report.ok


def test_resultant_specialization_degree_drop_note():
    t = IntPoly.var("t", ("t",))
    zero = IntPoly.const(0, ("t",))
    one = IntPoly.const(1, ("t",))
    fam = FamilySpec(("t",), 2, (one, zero, t), (t, zero, one))
    report = resultant_specialization_check(fam, [(0,), (2,)])
    assert report.ok
    assert "excluded" in report.checks[0].detail


def test_cube_sum_examples():
    # (1, 2): B = 9, max = 2 <= 2*sqrt(9); (1, 1): B = 2, max = 1 <= 2*sqrt(2)
    assert 2 * 2 <= 4 * 9
    assert 1 * 1 <= 4 * 2
    assert cube_sum_bound_check().ok


def test_preimage_height_bound_small():
    assert preimage_height_bound_check().ok


def test_pell_fundamentals():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(3) == (2, 1)
    assert pell_fundamental(5) == (9, 4)


def test_pell_stream_d2():
    assert pell_stream(2, 3) == [(3, 2), (17, 12), (99, 70)]
    for u, v in pell_stream(2, 10):
        assert u * u - 2 * v * v == 1


def test_pell_rejects_bad_d():
    with pytest.raises(ValueError):
        pell_stream(4, 2)
    with pytest.raises(ValueError):
        pell_stream(1, 2)


def test_pell_points_are_integral_preimages():
    m = pell_map(2)
    for u, v in pell_stream(2, 10):
        assert is_s_integral(evaluate(m, normalize(u, v)), EMPTY_S)


def test_avg_preconditions():
    from dynctl.maps import make_map

    beta_t = BasepointSpec((0, 1), (1, 0))
    beta_const = BasepointSpec((3,), (1,))
    with pytest.raises(ValueError):
        avg_experiment(pell_map(2), beta_const, EMPTY_S, (5, 10))
    with pytest.raises(ValueError):
        avg_experiment(make_map([0, 0, 1], [1, 0, 0]), beta_t, EMPTY_S, (5, 10))
    with pytest.raises(ValueError, match="one-parameter"):
        avg_experiment(three_param_family(), beta_t, EMPTY_S, (5, 10))


def test_avg_constant_map_decreasing():
    beta = BasepointSpec((0, 1), (1, 0))
    report = avg_experiment(pell_map(2), beta, EMPTY_S, (5, 10, 20), **SWEEP)
    assert report.population == tuple(len(enumerate_points(b)) for b in (5, 10, 20))
    assert all(a2 < a1 for a1, a2 in zip(report.averages, report.averages[1:]))
    assert report.excluded == (0, 0, 0)


def test_avg_family_population_excludes_bad_parameters():
    beta = BasepointSpec((2, 0, 0, 1), (1, 0, 0, 0))
    report = avg_experiment(phi_t_family(), beta, EMPTY_S, (5, 10), **SWEEP)
    # t = -1 and t = infinity fall outside the good locus
    assert report.excluded == (2, 2)
    assert report.population == (len(enumerate_points(5)) - 2, len(enumerate_points(10)) - 2)
    assert report.averages[1] <= report.averages[0]


def test_three_param_exponent_validation():
    with pytest.raises(ValueError):
        three_param_avg(5, 6, 6, (2,))
    with pytest.raises(SizeBudgetExceededError):
        three_param_avg(6, 6, 6, (1,), n_cap=N_CAP_LIMIT + 1)


def test_three_param_avg_small_box():
    report = three_param_avg(6, 6, 6, (2, 3), **SWEEP)
    for i, b in enumerate(report.b_values):
        assert report.population[i] == (2 * b + 1) ** 3
        cells = report.cells[i]
        assert sum(c.population for c in cells.values()) == report.population[i]
        # the t = 0 slice contributes exactly 1 per point
        assert cells["t_zero"].total == cells["t_zero"].population
        assert cells["t_zero"].max_count == 1
        # paper-style boundedness: average <= open-cell max + 3
        assert report.averages[i] <= report.open_cell_maxima[i] + 3


def test_three_param_slice_bounds():
    assert three_param_slice_bounds_check().ok


def _assert_same_map(got, want):
    # resultant and scan are compare=False, so they are checked on their own.
    assert got == want
    assert got.resultant == want.resultant and type(got.resultant) is int
    assert got.scan == want.scan


def _check_slice_map(s, t):
    closed = families_mod._slice_map(s, t)
    assert closed.resultant == s * s + t * t == resultant_from_coeffs([t, s, 0], [1, 0, 1], 2)
    _assert_same_map(closed, make_map([t, s, 0], [1, 0, 1]))


def test_slice_resultant_closed_form_on_the_box():
    for s, t in itertools.product(range(-10, 11), repeat=2):
        if (s, t) != (0, 0):
            _check_slice_map(s, t)


@given(st.integers(-2**300, 2**300), st.integers(-2**300, 2**300))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_slice_resultant_closed_form_on_large_ints(s, t):
    if (s, t) != (0, 0):
        _check_slice_map(s, t)


def test_specialize_integer_fraction_and_cleared_members_agree():
    fam = three_param_family()
    for params in ((1, 1, 1), (2, -1, 3), (-4, 3, -2), (5, -5, 7)):
        ints = specialize(fam, params)
        _assert_same_map(ints, specialize(fam, tuple(Fraction(v, 1) for v in params)))
        r, s, t = params
        _assert_same_map(ints, make_map([t, s, 0, r * s], [1, 0, 1, 0]))
    # phi_t at t = 1/2: (x - 1/2)/(x^3 + 1), cleared by lcm 2.
    _assert_same_map(specialize(phi_t_family(), (Fraction(1, 2),)),
                     make_map([-1, 2, 0, 0], [2, 0, 0, 2]))


def _bareiss_orbit_count(triple, exponents, family, s_spec, n_cap, height_budget_bits):
    """The per-triple count with every slice map built by make_map's own
    Bareiss resultant and scanned afresh: no closed form, no cache."""
    r, s, t = triple
    h = max(abs(r), abs(s), abs(t))
    if t == 0:
        return h, 1, False, "t_zero"
    if s == 0 or r == 0:
        m, base = make_map([t, s, 0], [1, 0, 1]), ProjPointQ(0, 1)
    else:
        m = specialize(family, triple)
        base = ProjPointQ(r ** exponents[0] * s ** exponents[1] * t ** exponents[2], 1)
    rec = scan_orbit(m, base, s_spec, n_cap, height_budget_bits, count_only=True)
    count, exact = count_s_integral(rec)
    return h, count, not exact, "s_zero" if s == 0 else "r_zero" if r == 0 else "open"


def test_three_param_avg_matches_an_uncached_bareiss_oracle(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(families_mod, "_three_param_orbit_count", _bareiss_orbit_count)
        want = three_param_avg(6, 6, 6, (1, 2, 3), **SWEEP)
    families_mod._s_zero_count.cache_clear()
    assert three_param_avg(6, 6, 6, (1, 2, 3), **SWEEP) == want
    # B = 3: the s = 0 slice holds 7 * 6 triples and 6 maps.
    info = families_mod._s_zero_count.cache_info()
    assert (info.misses, info.hits) == (6, 7 * 6 - 6)
    assert three_param_avg(6, 6, 6, (1, 2, 3), **SWEEP) == want  # a warm cache
    families_mod._s_zero_count.cache_clear()  # each forked worker starts cold
    assert three_param_avg(6, 6, 6, (1, 2, 3), workers=2, **SWEEP) == want


_OPEN_BOX = [triple for triple in itertools.product(range(-4, 5), repeat=3) if 0 not in triple]


@given(st.tuples(*[st.integers(6, 9)] * 3), st.integers(1, 10**4), st.sampled_from((0, 1, 16)))
@settings(max_examples=100, deadline=None, derandomize=True)
@example((6, 6, 6), 8, 16)  # r = s = t = 1: a basepoint of 1 bit at a limit of 1 bit
@example((6, 6, 6), 10**4, 16)  # the 8 members with |r| = |s| = |t| = 1 step
def test_open_members_match_a_per_triple_scan(exponents, height_budget_bits, n_cap):
    """Every open triple of the B = 4 box, against specialize and a scan of
    its own; small budgets stop every walk at HEIGHT_BUDGET before a step."""
    fam = three_param_family()
    n1, n2, n3 = exponents
    for r, s, t in _OPEN_BOX:
        m = specialize(fam, (r, s, t))
        base = ProjPointQ(r**n1 * s**n2 * t**n3, 1)
        rec = scan_orbit(m, base, EMPTY_S, n_cap, height_budget_bits, count_only=True)
        count, exact = count_s_integral(rec)
        want = max(abs(r), abs(s), abs(t)), count, not exact, "open"
        assert families_mod._three_param_orbit_count(
            (r, s, t), exponents, fam, EMPTY_S, n_cap, height_budget_bits) == want


def test_open_member_at_its_limit_steps(monkeypatch):
    # The first example above: the basepoint's bits equal min(pre_limit,
    # tail_limit), so the member is built and its walk takes a step.
    fam = three_param_family()
    m = specialize(fam, (1, 1, 1))
    assert min(orbits_mod._scan_limits(m.scan, 3, EMPTY_S, 8, True)) == 1
    records = []

    def recording(*args, **kwargs):
        records.append(scan_orbit(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(families_mod, "scan_orbit", recording)
    got = families_mod._three_param_orbit_count((1, 1, 1), (6, 6, 6), fam, EMPTY_S, 16, 8)
    assert got == (1, 1, True, "open")
    assert [rec.points for rec in records] == [(ProjPointQ(1, 1), ProjPointQ(3, 2))]
    assert families_mod._three_param_orbit_count((1, 1, 1), (6, 6, 6), fam, EMPTY_S, 16, 7) == got
    assert len(records) == 1


def test_open_member_of_a_degenerate_map_still_raises():
    # r = 1 makes the numerator equal the denominator: Res = 0. A budget of
    # one bit would settle the member without a step.
    r, s, t = (IntPoly.var(v, ("r", "s", "t")) for v in "rst")
    zero = IntPoly.const(0, ("r", "s", "t"))
    fam = FamilySpec(("r", "s", "t"), 3, (t, s, zero, r * s), (t, s, zero, s))
    with pytest.raises(DegenerateMapError):
        specialize(fam, (1, 2, 3))
    with pytest.raises(DegenerateMapError):
        families_mod._three_param_orbit_count((1, 2, 3), (6, 6, 6), fam, EMPTY_S, 16, 1)


def test_three_param_avg_builds_only_the_members_that_step(monkeypatch):
    # 8000 open members at B = 10, of which 8 step; 420 slice maps; 1 family sample.
    real = maps_mod.RationalMapQ
    built = []

    def counting(*args):
        built.append(args)
        return real(*args)

    families_mod._s_zero_count.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(maps_mod, "RationalMapQ", counting)
        three_param_avg(6, 6, 6, (5, 10), height_budget_bits=10000)
    families_mod._s_zero_count.cache_clear()
    assert len(built) <= 430


def test_lemma_3dim_shadow_random_rational_triples():
    rng = random.Random(42)
    fam = three_param_family()
    for _ in range(200):
        params = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        n1 = n2 = n3 = 6
        beta_val = params[0] ** n1 * params[1] ** n2 * params[2] ** n3
        try:
            m = specialize(fam, params)
        except (DegenerateMapError, DegreeDropError):
            # rs = 0 or t = 0 cells; the slice analysis covers those orbits
            continue
        rec = scan_orbit(m, normalize(beta_val.numerator, beta_val.denominator), EMPTY_S, **SWEEP)
        count = len(rec.integral_indices)
        assert count <= len(rec.points)
        if rec.truncation is Truncation.COMPLETED:
            assert count <= len(rec.points)


# ---------------------------------------------------------------------------
# The compiled specialization path
# ---------------------------------------------------------------------------


def _fraction_specialize(family, params):
    """Reference: Fraction evaluation, lcm clearing and make_map's own Bareiss."""
    values = {name: Fraction(v) for name, v in zip(family.param_names, params)}
    num = [Fraction(c.evaluate(values)) for c in family.num_coeffs]
    den = [Fraction(c.evaluate(values)) for c in family.den_coeffs]
    lcm = math.lcm(*(v.denominator for v in num + den))
    return make_map([int(v * lcm) for v in num], [int(v * lcm) for v in den])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateMapError, DegreeDropError) as err:
        return type(err)


@st.composite
def _random_family(draw):
    arity = draw(st.integers(1, 3))
    names = ("r", "s", "t")[3 - arity:]
    degree = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 1)] * arity)
    coeff = st.dictionaries(exps, st.integers(-3, 3), max_size=2).map(
        lambda terms: IntPoly(names, terms))
    num = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    den = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    try:
        return FamilySpec(names, degree, tuple(num), tuple(den))
    except DegenerateFamilyError:
        reject()


_families = st.one_of(st.just(three_param_family()), st.just(phi_t_family()), _random_family())
_param = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=5))


@given(_families, st.data())
@settings(max_examples=150, deadline=None)
def test_specialize_matches_fraction_path(family, data):
    params = data.draw(st.tuples(*[_param] * family.arity))
    got = _outcome(specialize, family, params)
    want = _outcome(_fraction_specialize, family, params)
    assert got == want
    if not isinstance(got, type):
        # resultant is compare=False, so it is checked on its own.
        assert got.resultant == want.resultant
        assert got.resultant == resultant_from_coeffs(got.numerator.coeffs,
                                                      got.denominator.coeffs, got.degree)


def test_specialize_runs_no_resultant_after_compiling(monkeypatch):
    fam = three_param_family()
    specialize(fam, (1, 1, 1))
    calls = []

    def counting(*args):
        calls.append(args)
        return resultant_from_coeffs(*args)

    monkeypatch.setattr(maps_mod, "resultant_from_coeffs", counting)
    rng = random.Random(3)
    for _ in range(50):
        specialize(fam, tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)))
    assert calls == []


def test_avg_family_specializes_once_per_parameter(monkeypatch):
    fam = phi_t_family()
    calls = []
    real = families_mod.specialize

    def counting(family, params):
        calls.append(params)
        return real(family, params)

    monkeypatch.setattr(families_mod, "specialize", counting)
    beta = BasepointSpec((2, 0, 0, 1), (1, 0, 0, 0))
    avg_experiment(fam, beta, EMPTY_S, (3,), **SWEEP)
    finite = [p for p in enumerate_points(3) if not p.is_infinity()]
    assert sorted(calls) == sorted((p.as_fraction(),) for p in finite)


def test_family_coefficients_must_use_param_names():
    t = IntPoly.var("t", ("t",))
    one_rt = IntPoly.const(1, ("r", "t"))
    with pytest.raises(ValueError):
        FamilySpec(("t",), 1, (t, t), (one_rt, one_rt))


def test_resultant_specialization_grid_check():
    report = resultant_specialization_grid_check()
    assert report.ok
    assert [c.name for c in report.checks] == ["phi_t.resultant_specialization",
                                               "three_param.resultant_specialization"]


def _dense_family(d):
    return parse_map(f"((x+t)^{d} + 1)/((x-1)^{d - 1} + t)").to_family()


def test_families_build_without_a_symbolic_resultant(monkeypatch):
    def refuse(self):
        raise AssertionError("symbolic resultant computed")

    monkeypatch.setattr(FamilySpec, "symbolic_resultant", refuse)
    phi_t_family()
    three_param_family()
    dense = _dense_family(16)
    second = second_iterate_family(three_param_family())
    # Both are over budget, so specializing them runs make_map's Bareiss.
    assert specialize(dense, (2,)).degree == 16
    assert specialize(second, (1, 2, 3)).degree == 9
    with pytest.raises(AssertionError):
        specialize(three_param_family(), (1, 2, 3))


def test_symbolic_resultant_budget_selects_the_path():
    assert phi_t_family().compiled((2,))[2] == phi_t_family().symbolic_resultant().evaluate({"t": 2})
    assert three_param_family().compiled((1, 2, 3))[2] is not None
    for fam in (_dense_family(8), second_iterate_family(three_param_family())):
        assert fam.symbolic_resultant_cost() > SYMBOLIC_RESULTANT_BUDGET
        assert fam.compiled((2,) * fam.arity)[2] is None
        m = specialize(fam, (2,) * fam.arity)
        assert m.resultant == resultant_from_coeffs(m.numerator.coeffs, m.denominator.coeffs,
                                                    m.degree)


def test_specializer_compiles_a_coefficient_of_thousands_of_terms():
    # Built as IntPolys, as the parser caps exponents at 64: one coefficient is
    # the sum of r^i s^j t^k over i, j, k < 18, 5832 distinct monomials.
    rst = ("r", "s", "t")
    big = IntPoly(rst, {e: 1 for e in itertools.product(range(18), repeat=3)})
    assert len(big.terms) == 5832
    one = IntPoly.const(1, rst)
    zero = IntPoly.const(0, rst)
    r, s, t = (IntPoly.var(v, rst) for v in rst)
    fam = FamilySpec(rst, 2, (big, r * s, one), (t, zero, one))
    for params in ((2, -1, 3), (Fraction(1, 2), Fraction(-2, 3), 5), (1, 1, Fraction(7, 4))):
        assert _outcome(specialize, fam, params) == _outcome(_fraction_specialize, fam, params)
