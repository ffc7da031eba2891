import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynctl import canonical, maps
from dynctl.canonical import canonical_height
from dynctl.errors import DegenerateMapError, DegreeDropError, SizeBudgetExceededError
from dynctl.maps import (TAIL_FORMS, cofactor_certificates_check, cofactors, compose,
                         denominator_bound, evaluate, hadamard_loss, is_polynomial, iterate,
                         make_map, map_height, random_coprime_pair, random_map,
                         second_iterate_is_polynomial, tail_threshold, trap_height)
from dynctl.points import INFINITY, ProjPointQ, normalize
from dynctl.parallel import map_chunks
from dynctl.polynomials import FORM_KERNELS, resultant_from_coeffs

X_SQUARED = make_map([0, 0, 1], [1, 0, 0])
PHI_1 = make_map([-1, 1, 0, 0], [1, 0, 0, 1])  # (x-1)/(x^3+1)
PELL_2 = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])  # x^4/(x^2-2)^2


def test_make_map_examples():
    assert X_SQUARED.degree == 2
    assert X_SQUARED.resultant == 1
    assert PHI_1.degree == 3
    with pytest.raises(DegenerateMapError):
        make_map([0, 0, 1], [0, 1, 0])  # X^2 and XY share the root [0:1]


def test_make_map_degree_drop():
    with pytest.raises(DegreeDropError):
        make_map([1, 1, 0], [2, 0, 0])


def test_make_map_zero_form():
    with pytest.raises(DegenerateMapError):
        make_map([0, 0, 0], [1, 0, 1])


def test_make_map_scaling_invariance():
    base = make_map([-1, 1, 0, 0], [1, 0, 0, 1])
    for k in (2, -3, 7):
        m = make_map([k * c for c in (-1, 1, 0, 0)], [k * c for c in (1, 0, 0, 1)])
        assert m.numerator == base.numerator
        assert m.denominator == base.denominator


def test_sign_canonicalization():
    m = make_map([1, -1, 0, 0], [-1, 0, 0, -1])  # -(x-1)/-(x^3+1) variants
    lead = next(c for c in m.numerator.coeffs[::-1] + m.denominator.coeffs[::-1] if c)
    assert lead > 0


def test_resultant_examples():
    assert resultant_from_coeffs((0, 0, 1), (1, 0, 0), 2) == 1
    f = (-2, 0, 1)
    assert resultant_from_coeffs(f, f, 2) == 0


def test_second_iterate_resultant_phi_1():
    it2 = iterate(PHI_1, 2)
    assert it2.degree == 9
    assert it2.resultant == 2**12


def test_cofactors_x_squared():
    cert = cofactors(X_SQUARED)
    assert cert.exponent == 3
    assert cert.r == 1
    assert cert.verify(X_SQUARED)


def test_cofactors_phi_1():
    cert = cofactors(PHI_1)
    assert cert.exponent == 5
    assert cert.verify(PHI_1)


def test_cofactor_gcd_divides_resultant_bruteforce():
    r = abs(PELL_2.resultant)
    for a in range(-50, 51):
        for b in range(-50, 51):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            g = math.gcd(PELL_2.numerator(a, b), PELL_2.denominator(a, b))
            assert g != 0 and r % g == 0


def test_cofactor_random_sweep():
    report = cofactor_certificates_check(seed=3, n_maps=10, n_pairs=20)
    assert report.ok


def test_certificate_cached_matches_fresh_solve():
    m = make_map([-1, 1, 0, 0], [1, 0, 0, 1])
    cert = m.certificate
    assert m.certificate is cert
    assert cert == cofactors(m)
    assert cert.verify(m)


def test_certificate_cache_keeps_equality_and_hash():
    m = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])
    m.certificate
    fresh = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])
    assert m == fresh
    assert hash(m) == hash(fresh)


def test_certificate_survives_pickle(monkeypatch):
    import dynctl.maps as maps_mod

    m = make_map([-1, 1, 0, 0], [1, 0, 0, 1])
    cert = m.certificate
    back = pickle.loads(pickle.dumps(m))

    def no_solve(*args):
        raise AssertionError("the unpickled map solved its certificate again")

    monkeypatch.setattr(maps_mod, "solve_exact", no_solve)
    assert back == m
    assert back.certificate == cert


def test_maps_of_one_shape_share_one_kernel():
    rng = random.Random(15)
    ms = []
    while len(ms) < 1000:
        num = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3)]
        den = [rng.choice((-1, 1)) * rng.randint(1, 9), 0, rng.choice((-1, 1)) * rng.randint(1, 9)]
        try:
            ms.append(make_map(num, den))
        except DegenerateMapError:
            continue
    before = set(FORM_KERNELS)
    pt = normalize(7, 3)
    for m in ms:
        a, b = pt.a, pt.b
        want = normalize(sum(c * a**i * b ** (2 - i) for i, c in enumerate(m.numerator.coeffs)),
                         sum(c * a**i * b ** (2 - i) for i, c in enumerate(m.denominator.coeffs)))
        assert evaluate(m, pt) == want
    assert {m.shape for m in ms} == {(2, 0b111, 0b101)}
    assert set(FORM_KERNELS) - before <= {(2, 0b111, 0b101)}


def _orbit_tail(task):
    m, pt = task
    for _ in range(4):
        pt = evaluate(m, pt)
    return pt, m.shape


def test_evaluated_map_survives_pickle_and_the_pool():
    m = make_map([-1, 1, 0, 0], [1, 0, 0, 1])
    pt = evaluate(m, normalize(2, 3))
    m.denominator(2, 3)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and hash(back) == hash(m)
    assert back.shape == m.shape == (3, 0b11, 0b1001)
    assert back.denominator.shape == (3, 0b1001)
    assert evaluate(back, normalize(2, 3)) == pt
    fresh = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])
    tasks = [(mm, normalize(a, b)) for mm in (m, fresh, back) for a, b in ((1, 2), (3, 5), (-7, 2))]
    assert map_chunks(_orbit_tail, tasks, workers=2) == map_chunks(_orbit_tail, tasks, workers=1)


def test_evaluate_examples():
    assert evaluate(PELL_2, normalize(3, 2)) == ProjPointQ(81, 1)
    assert evaluate(X_SQUARED, INFINITY) == INFINITY
    assert evaluate(PHI_1, ProjPointQ(1, 1)) == ProjPointQ(0, 1)


def test_evaluate_budget(monkeypatch):
    # canonical_height checks each evaluated point of its walk against the budget
    monkeypatch.setattr(canonical, "HEIGHT_ITER_BITS", 100)
    big = ProjPointQ(2**40 + 1, 3)
    with pytest.raises(SizeBudgetExceededError, match="100-bit coordinate budget"):
        canonical_height(PELL_2, big, 1e-3)


def test_iterate_power_map():
    it = iterate(X_SQUARED, 2)
    assert it.numerator.coeffs == (0, 0, 0, 0, 1)
    assert is_polynomial(it)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_iterate_degree(d, n):
    rng = random.Random(d * 10 + n)
    m = random_map(rng, d, coeff_bound=3)
    assert iterate(m, n).degree == d**n


def test_evaluate_commutes_with_iterate():
    rng = random.Random(99)
    for _ in range(100):
        m = random_map(rng, rng.randint(2, 4), coeff_bound=5)
        a, b = random_coprime_pair(rng, 20)
        p = normalize(a, b)
        assert evaluate(iterate(m, 2), p) == evaluate(m, evaluate(m, p))


def test_polynomial_detection():
    assert is_polynomial(X_SQUARED)
    assert second_iterate_is_polynomial(X_SQUARED)
    inv_sq = make_map([1, 0, 0], [0, 0, 1])  # 1/x^2
    assert not is_polynomial(inv_sq)
    assert second_iterate_is_polynomial(inv_sq)
    assert not second_iterate_is_polynomial(PHI_1)


def test_polynomial_fixes_infinity():
    rng = random.Random(5)
    for _ in range(20):
        m = random_map(rng, rng.randint(2, 3), coeff_bound=4)
        if is_polynomial(m):
            assert evaluate(m, INFINITY) == INFINITY


def test_map_height():
    assert map_height(X_SQUARED) == 1
    phi_5 = make_map([-5, 1, 0, 0], [1, 0, 0, 1])
    assert map_height(phi_5) == 5
    assert map_height(PELL_2) == 4


def test_compose_budget(monkeypatch):
    monkeypatch.setattr(maps, "COEFF_BITS", 40)
    with pytest.raises(SizeBudgetExceededError):
        big = make_map([0, 0, 2**30 - 1], [1, 0, 0])
        compose(big, big)


def _sympy_form(coeffs, x, y):
    import sympy

    d = len(coeffs) - 1
    return sympy.Poly(sum(c * x**i * y ** (d - i) for i, c in enumerate(coeffs)), x, y)


def _sympy_apply(m, pair, x, y):
    """m's forms evaluated at a pair of sympy forms, without any reduction."""
    f, g = pair
    d = m.degree
    return tuple(sum((c * f**i * g ** (d - i) for i, c in enumerate(form.coeffs)),
                     _sympy_form([0], x, y))
                 for form in (m.numerator, m.denominator))


def _canonical(pair, degree, x, y):
    """Primitive integer coefficients, sign fixed by the first nonzero one
    from the numerator's leading coefficient down, then the denominator's."""
    num, den = ([int(f.coeff_monomial(x**i * y ** (degree - i))) for i in range(degree + 1)]
                for f in pair)
    content = math.gcd(*num, *den)
    sign = -1 if next(c for c in num[::-1] + den[::-1] if c) < 0 else 1
    return (tuple(sign * c // content for c in num), tuple(sign * c // content for c in den))


@st.composite
def _maps(draw, max_degree=3, bound=5):
    d = draw(st.integers(1, max_degree))
    coeffs = st.lists(st.integers(-bound, bound), min_size=d + 1, max_size=d + 1)
    try:
        return make_map(draw(coeffs), draw(coeffs))
    except (DegenerateMapError, DegreeDropError):
        assume(False)


@given(_maps(), _maps())
@settings(max_examples=60, deadline=None)
def test_compose_matches_sympy(outer, inner):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    pair = tuple(_sympy_form(form.coeffs, x, y) for form in (inner.numerator, inner.denominator))
    degree = outer.degree * inner.degree
    got = compose(outer, inner)
    assert got.degree == degree
    want = _canonical(_sympy_apply(outer, pair, x, y), degree, x, y)
    assert (got.numerator.coeffs, got.denominator.coeffs) == want


@given(_maps(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_iterate_matches_sympy(m, n):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    pair = (_sympy_form([0, 1], x, y), _sympy_form([1, 0], x, y))  # the identity X, Y
    for _ in range(n):
        pair = _sympy_apply(m, pair, x, y)
    got = iterate(m, n)
    assert got.degree == m.degree**n
    assert (got.numerator.coeffs, got.denominator.coeffs) == _canonical(pair, m.degree**n, x, y)


# ---------------------------------------------------------------------------
# The certified tail threshold
# ---------------------------------------------------------------------------


@st.composite
def tail_maps(draw, bound=9):
    """A valid map F / (c * g) with g in TAIL_FORMS, F and c random in [-bound, bound]."""
    form = draw(st.sampled_from(sorted(TAIL_FORMS)))
    c = draw(st.integers(-bound, bound).filter(bool))
    num = draw(st.lists(st.integers(-bound, bound), min_size=len(form), max_size=len(form)))
    try:
        return make_map(num, [c * x for x in form])
    except (DegenerateMapError, DegreeDropError):
        assume(False)


def _coprime_box(bound):
    return [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
            if math.gcd(a, b) == 1]


@given(tail_maps())
@settings(max_examples=60, deadline=None)
def test_denominator_bound_holds_on_a_box(m):
    # |G(a, b)| >= kappa * H^e wherever G(a, b) != 0, by brute force over |a|, |b| <= 25;
    # make_map's content division and sign fix leave G = c * g with c of either sign.
    kappa, e = denominator_bound(m)
    assert e >= 1
    for a, b in _coprime_box(25):
        g = m.denominator(a, b)
        assert g == 0 or abs(g) >= kappa * max(abs(a), abs(b)) ** e


def test_denominator_bound_is_none_without_an_elementary_bound():
    assert denominator_bound(PELL_2) is None  # (X^2 - 2Y^2)^2 has irrational roots
    assert denominator_bound(X_SQUARED) is None  # Y^2
    assert denominator_bound(make_map([0, 0, 1], [2, 0, 3])) is None  # 2Y^2 + 3X^2
    assert tail_threshold(PELL_2) is None and PELL_2.tail_bits is None


@given(_maps(max_degree=4, bound=9))
@settings(max_examples=80, deadline=None)
def test_hadamard_loss_bounds_the_cofactor_constant(m):
    assert hadamard_loss(m) >= canonical.transition_constants(m)[1]


def _least(ok):
    """The least T >= 0 with ok(T), for ok monotone, by doubling and bisection."""
    hi = 1
    while not ok(hi):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@given(tail_maps(bound=40))
@settings(max_examples=100, deadline=None)
def test_tail_threshold_is_the_least_certified_height(m):
    kappa, e = denominator_bound(m)
    res, loss, d = abs(m.resultant), hadamard_loss(m), m.degree
    want = _least(lambda t: kappa * t**e > res and t ** (d - 1) > loss)
    assert tail_threshold(m) == want
    assert 1 << (m.tail_bits - 1) <= want < 1 << m.tail_bits


@given(tail_maps(bound=40))
@settings(max_examples=100, deadline=None)
def test_trap_height_is_the_largest_trapped_height(m):
    kappa, e = denominator_bound(m)
    res = abs(m.resultant)
    assert trap_height(m) == _least(lambda t: kappa * (t + 1) ** e > res)
    assert tail_threshold(m) >= trap_height(m) + 1


@given(tail_maps())
@settings(max_examples=60, deadline=None)
def test_trap_box_holds_every_divisor_of_the_resultant(m):
    # Every coprime (a, b) with |a|, |b| <= 25 and 0 < |G(a, b)| <= |Res| has
    # H <= trap_height: the hits and trap hits of density, with S = {}.
    res, trap = abs(m.resultant), trap_height(m)
    for a, b in _coprime_box(25):
        assert not 0 < abs(m.denominator(a, b)) <= res or max(abs(a), abs(b)) <= trap


def test_trap_height_is_none_without_a_denominator_bound():
    assert trap_height(PELL_2) is None and trap_height(X_SQUARED) is None
    assert trap_height(PHI_1) == 2  # |Res| = 2, kappa = 1/4, e = 2: H^2 <= 8
