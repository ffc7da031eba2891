import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from dynctl.errors import DegenerateFamilyError, DegenerateMapError, DegreeDropError
from dynctl.families import (SYMBOLIC_RESULTANT_BUDGET, AvgReport, BasepointSpec, FamilySpec,
                             PHI_T_SECOND_DEN, PHI_T_SECOND_NUM, _member_map, avg_experiment,
                             cube_sum_bound_check, pell_fundamental, pell_map, pell_stream,
                             phi_t_family, phi_t_identities, phi_t_resultant_closed_form,
                             preimage_height_bound_check, resultant_specialization_check,
                             resultant_specialization_grid_check,
                             second_iterate_family, specialize, symbolic_second_iterate,
                             three_param_avg, three_param_family,
                             three_param_slice_bounds_check)
from dynctl import families as families_mod
from dynctl import maps as maps_mod
from dynctl.maps import evaluate, make_map
from dynctl.orbits import OrbitPolicy, scan_orbit
from dynctl.parsing import parse_map
from dynctl.points import (EMPTY_S, ProjPointQ, Truncation, enumerate_points, is_s_integral,
                           normalize)
from dynctl.polynomials import IntPoly, resultant_from_coeffs

SWEEP_POLICY = OrbitPolicy(n_cap=16, height_budget_bits=10**4)


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
    assert cube_sum_bound_check(40).ok


def test_preimage_height_bound_small():
    assert preimage_height_bound_check(3).ok


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

    beta_t = BasepointSpec(IntPoly.var("t", ("t",)), IntPoly.const(1, ("t",)))
    beta_const = BasepointSpec(IntPoly.const(3, ("t",)), IntPoly.const(1, ("t",)))
    with pytest.raises(ValueError):
        avg_experiment(pell_map(2), beta_const, EMPTY_S, (5, 10))
    with pytest.raises(ValueError):
        avg_experiment(make_map([0, 0, 1], [1, 0, 0]), beta_t, EMPTY_S, (5, 10))
    with pytest.raises(ValueError, match="one-parameter"):
        avg_experiment(three_param_family(), beta_t, EMPTY_S, (5, 10))


def test_avg_constant_map_decreasing():
    beta = BasepointSpec(IntPoly.var("t", ("t",)), IntPoly.const(1, ("t",)))
    report = avg_experiment(pell_map(2), beta, EMPTY_S, (5, 10, 20), policy=SWEEP_POLICY)
    assert report.population == tuple(len(enumerate_points(b)) for b in (5, 10, 20))
    assert all(a2 < a1 for a1, a2 in zip(report.averages, report.averages[1:]))
    assert report.excluded == (0, 0, 0)


def test_avg_family_population_excludes_bad_parameters():
    t = IntPoly.var("t", ("t",))
    beta = BasepointSpec(t**3 + 2, IntPoly.const(1, ("t",)))
    report = avg_experiment(phi_t_family(), beta, EMPTY_S, (5, 10), policy=SWEEP_POLICY)
    # t = -1 and t = infinity fall outside the good locus
    assert report.excluded == (2, 2)
    assert report.population == (len(enumerate_points(5)) - 2, len(enumerate_points(10)) - 2)
    assert report.averages[1] <= report.averages[0]


def test_three_param_exponent_validation():
    with pytest.raises(ValueError):
        three_param_avg(5, 6, 6, (2,))


def test_three_param_avg_small_box():
    report = three_param_avg(6, 6, 6, (2, 3), policy=SWEEP_POLICY)
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
    assert three_param_slice_bounds_check(6).ok


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
        rec = scan_orbit(m, normalize(beta_val.numerator, beta_val.denominator), EMPTY_S,
                         n_cap=SWEEP_POLICY.n_cap,
                         height_budget_bits=SWEEP_POLICY.height_budget_bits)
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
        # _res is compare=False, so the cached resultant is checked on its own.
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
    beta = BasepointSpec(IntPoly.var("t", ("t",)) ** 3 + 2, IntPoly.const(1, ("t",)))
    avg_experiment(fam, beta, EMPTY_S, (3,), policy=SWEEP_POLICY)
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
    assert phi_t_family().compiled.resultant is not None
    assert three_param_family().compiled.resultant is not None
    for fam in (_dense_family(8), second_iterate_family(three_param_family())):
        assert fam.symbolic_resultant_cost() > SYMBOLIC_RESULTANT_BUDGET
        assert fam.compiled.resultant is None
        m = specialize(fam, (2,) * fam.arity)
        assert m.resultant == resultant_from_coeffs(m.numerator.coeffs, m.denominator.coeffs,
                                                    m.degree)
