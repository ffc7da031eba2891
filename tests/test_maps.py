import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynctl import canonical
from dynctl.canonical import canonical_height
from dynctl.errors import DegenerateMapError, DegreeDropError, SizeBudgetExceededError
from dynctl.maps import (TAIL_FORMS, cofactor_certificates_check, cofactors, denominator_bound,
                         evaluate, hadamard_loss, is_polynomial, make_map,
                         random_coprime_pair, random_map, second_iterate_is_polynomial,
                         tail_threshold, trap_height)
from dynctl.points import INFINITY, ProjPointQ, normalize
from dynctl.parallel import map_chunks
from dynctl.polynomials import FORM_KERNELS, form_compose, resultant_from_coeffs

X_SQUARED = make_map([0, 0, 1], [1, 0, 0])
PHI_1 = make_map([-1, 1, 0, 0], [1, 0, 0, 1])  # (x-1)/(x^3+1)
PELL_2 = make_map([0, 0, 0, 0, 1], [4, 0, -4, 0, 1])  # x^4/(x^2-2)^2


def _forms(m):
    return m.numerator.coeffs, m.denominator.coeffs


def compose(outer, inner):
    """outer after inner, by form_compose and make_map."""
    return make_map(*form_compose(*_forms(outer), *_forms(inner)))


def iterate(m, n):
    """phi^n by n - 1 compositions."""
    out = m
    for _ in range(n - 1):
        out = compose(m, out)
    return out


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
    assert resultant_from_coeffs(*form_compose(*_forms(PHI_1), *_forms(PHI_1)), 9) == 2**12


def test_cofactors_x_squared():
    cert = cofactors(X_SQUARED)
    assert cert.exponent == 3
    assert cert.r == 1
    assert cert.verify(X_SQUARED)


def test_cofactors_phi_1():
    cert = cofactors(PHI_1)
    assert cert.exponent == 5
    assert cert.verify(PHI_1)


def test_certificate_verify_refuses_any_changed_coefficient():
    # Both identities p1 F + q1 G = R X^D and p2 F + q2 G = R Y^D are checked,
    # in every coefficient: one cofactor coefficient or R off by one fails.
    cert = cofactors(PHI_1)
    assert not dataclasses.replace(cert, r=cert.r + 1).verify(PHI_1)
    for name in ("p1", "q1", "p2", "q2"):
        form = getattr(cert, name)
        for i in range(len(form.coeffs)):
            coeffs = list(form.coeffs)
            coeffs[i] += 1
            changed = dataclasses.replace(form, coeffs=tuple(coeffs))
            assert not dataclasses.replace(cert, **{name: changed}).verify(PHI_1)


def test_cofactor_gcd_divides_resultant_bruteforce():
    r = abs(PELL_2.resultant)
    for a in range(-50, 51):
        for b in range(-50, 51):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            g = math.gcd(PELL_2.numerator(a, b), PELL_2.denominator(a, b))
            assert g != 0 and r % g == 0


def test_cofactor_r_is_the_resultant():
    # The transposed Sylvester matrix has determinant Res itself, so the
    # certificate's R is the map's resultant, sign included.
    rng = random.Random(11)
    for _ in range(60):
        m = random_map(rng, rng.randint(1, 5))
        assert cofactors(m).r == m.resultant


def test_tail_forms_have_degree_two_or_three():
    # tail_threshold takes the (d-1)-th root of L' as L' itself or its isqrt.
    assert {len(g) - 1 for g in TAIL_FORMS} == {2, 3}


def test_cofactor_random_sweep():
    report = cofactor_certificates_check(seed=3)
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

    monkeypatch.setattr(maps_mod, "bareiss", no_solve)
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


@st.composite
def _second_iterate_maps(draw, bound=4):
    """A map a + c/(x - a)^d or, for b != a, b + c/(x - a)^d; r + c/g(x) for r
    the mean of g's roots; a polynomial; a Moebius map of trace zero (an
    involution) or not; or a random map, with Y | G in some."""
    kind = draw(st.sampled_from(("shifted_power", "mean_root", "polynomial", "moebius",
                                 "random")))
    coeff = st.integers(-bound, bound)
    nonzero = coeff.filter(bool)
    d = draw(st.integers(1, 4))
    if kind == "shifted_power":
        # a = p/q: G = q * L^d and F = p' * L^d + c * q^(d+1) * Y^d for L = qX - pY.
        p, q, c = draw(coeff), draw(nonzero), draw(nonzero)
        p2 = draw(st.sampled_from((p, draw(coeff))))
        power = [math.comb(d, i) * q**i * (-p) ** (d - i) for i in range(d + 1)]
        num = [p2 * x for x in power]
        num[0] += c * q ** (d + 1)
        den = [q * x for x in power]
    elif kind == "mean_root":
        # F = aG + bcY^d over bG, r = a/b: bF - aG has no X^i term, so only a
        # second root of g keeps phi^2 out of Q[x].
        g = draw(st.lists(coeff, min_size=d, max_size=d)) + [draw(nonzero)]
        a, b, c = -g[d - 1], d * g[d], draw(nonzero)
        num = [a * x for x in g]
        num[0] += b * c
        den = [b * x for x in g]
    elif kind == "polynomial":
        num = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
        den = [draw(nonzero)] + [0] * d
    elif kind == "moebius":
        alpha, beta, gamma = draw(coeff), draw(coeff), draw(coeff)
        num, den = [beta, alpha], [draw(st.sampled_from((-alpha, draw(coeff)))), gamma]
    else:
        num = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
        den = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
        top = draw(st.integers(0, d))  # below d: Y^(d - top) | G, so inf is a root of G
        den[top + 1:] = [0] * (d - top)
    try:
        return make_map(num, den)
    except (DegenerateMapError, DegreeDropError):
        assume(False)


@given(_second_iterate_maps())
@settings(max_examples=300, deadline=None)
def test_second_iterate_shape_test_matches_the_composed_denominator(m):
    # phi^2 is a polynomial iff its denominator G(F, G) is c * Y^(d^2).
    composed_den = form_compose(*_forms(m), *_forms(m))[1]
    assert second_iterate_is_polynomial(m) == (not any(composed_den[1:]))


def test_polynomial_fixes_infinity():
    rng = random.Random(5)
    for _ in range(20):
        m = random_map(rng, rng.randint(2, 3), coeff_bound=4)
        if is_polynomial(m):
            assert evaluate(m, INFINITY) == INFINITY


def test_map_height():
    assert X_SQUARED.height == 1
    phi_5 = make_map([-5, 1, 0, 0], [1, 0, 0, 1])
    assert phi_5.height == 5
    assert PELL_2.height == 4


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
    # k * |G(a, b)| >= c * H^e wherever G(a, b) != 0, by brute force over |a|, |b| <= 25;
    # make_map's content division and sign fix leave G = c * g with c of either sign.
    c, k = denominator_bound(m.denominator.coeffs)
    assert c >= 1 and k >= 1
    for a, b in _coprime_box(25):
        g = m.denominator(a, b)
        assert g == 0 or k * abs(g) >= c * max(abs(a), abs(b)) ** 2


def test_denominator_bound_is_none_without_an_elementary_bound():
    # (X^2 - 2Y^2)^2 has irrational roots
    assert denominator_bound(PELL_2.denominator.coeffs) is None
    assert denominator_bound(X_SQUARED.denominator.coeffs) is None  # Y^2
    assert denominator_bound(make_map([0, 0, 1], [2, 0, 3]).denominator.coeffs) is None  # 2Y^2+3X^2
    assert tail_threshold(PELL_2.denominator.coeffs, PELL_2.resultant,
                          hadamard_loss(*_forms(PELL_2))) is None
    assert PELL_2.scan[1] is None


def _scanned_bound(m):
    """denominator_bound by a direct scan of TAIL_FORMS for G = c * g, c = G's first coefficient."""
    g = m.denominator.coeffs
    c = g[0]
    for form, k in TAIL_FORMS.items():
        if c and g == tuple(c * x for x in form):
            return abs(c), k
    return None


@st.composite
def _table_or_random_denominators(draw, bound=40):
    """A valid map whose G is c * g for g in TAIL_FORMS and c != 0 of either
    sign, or a random G of degree 2 or 3."""
    if draw(st.booleans()):
        form = draw(st.sampled_from(sorted(TAIL_FORMS)))
        c = draw(st.integers(-bound, bound).filter(bool))
        den = [c * x for x in form]
    else:
        den = draw(st.lists(st.integers(-bound, bound), min_size=3, max_size=4))
    num = draw(st.lists(st.integers(-bound, bound), min_size=len(den), max_size=len(den)))
    try:
        return make_map(num, den)
    except (DegenerateMapError, DegreeDropError):
        assume(False)


@given(_table_or_random_denominators())
@settings(max_examples=200, deadline=None)
def test_denominator_bound_matches_a_table_scan(m):
    assert denominator_bound(m.denominator.coeffs) == _scanned_bound(m)


@given(_maps(max_degree=4, bound=9))
@settings(max_examples=80, deadline=None)
def test_hadamard_loss_bounds_the_cofactor_constant(m):
    assert hadamard_loss(*_forms(m)) >= canonical.transition_constants(m)[1]


@given(_maps(max_degree=4, bound=9), st.integers(-10**30, 10**30), st.integers(1, 10**30))
@settings(max_examples=150, deadline=None)
def test_heights_rise_past_the_switch(m, a, b):
    # A point with more than switch_bits bits has H^(d-1) > hadamard_loss,
    # so its image is higher still; degree 1 has no switch.
    d, (_, _, switch_bits, lam) = m.degree, m.scan
    loss = hadamard_loss(*_forms(m))
    assert lam == loss.bit_length()
    if d == 1:
        assert switch_bits is None
        return
    assert (1 << switch_bits) ** (d - 1) > loss
    p = normalize(a, b)
    if max(abs(p.a), abs(p.b)).bit_length() > switch_bits:
        q = evaluate(m, p)
        assert max(abs(q.a), q.b) > max(abs(p.a), p.b)


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
    g = m.denominator.coeffs
    c, k = denominator_bound(g)
    res, loss, d = abs(m.resultant), hadamard_loss(*_forms(m)), m.degree
    want = _least(lambda t: c * t**2 > k * res and t ** (d - 1) > loss)
    assert tail_threshold(g, m.resultant, loss) == want
    tail_bits = m.scan[1]
    assert 1 << (tail_bits - 1) <= want < 1 << tail_bits


@given(tail_maps(bound=40))
@settings(max_examples=100, deadline=None)
def test_trap_height_is_the_largest_trapped_height(m):
    g = m.denominator.coeffs
    c, k = denominator_bound(g)
    res = abs(m.resultant)
    trap = trap_height(g, m.resultant)
    assert trap == _least(lambda t: c * (t + 1) ** 2 > k * res)
    assert tail_threshold(g, m.resultant, hadamard_loss(*_forms(m))) >= trap + 1


@given(tail_maps())
@settings(max_examples=60, deadline=None)
def test_trap_box_holds_every_divisor_of_the_resultant(m):
    # Every coprime (a, b) with |a|, |b| <= 25 and 0 < |G(a, b)| <= |Res| has
    # H <= trap_height: the hits and trap hits of density, with S = {}.
    res, trap = abs(m.resultant), trap_height(m.denominator.coeffs, m.resultant)
    for a, b in _coprime_box(25):
        assert not 0 < abs(m.denominator(a, b)) <= res or max(abs(a), abs(b)) <= trap


def test_trap_height_is_none_without_a_denominator_bound():
    assert trap_height(PELL_2.denominator.coeffs, PELL_2.resultant) is None
    assert trap_height(X_SQUARED.denominator.coeffs, X_SQUARED.resultant) is None
    # |Res| = 2, (c, k) = (1, 4): H^2 <= 8
    assert trap_height(PHI_1.denominator.coeffs, PHI_1.resultant) == 2


@given(st.one_of(_maps(max_degree=4, bound=9), tail_maps(bound=40)))
@settings(max_examples=150, deadline=None)
def test_scan_record_holds_the_helpers_values(m):
    # make_map's record (step_bits, tail_bits, switch_bits, lam) against
    # hadamard_loss, denominator_bound, trap_height and tail_threshold on the
    # map's own forms and resultant.
    f, g = _forms(m)
    d, res = m.degree, m.resultant
    step_bits, tail_bits, switch_bits, lam = m.scan
    assert step_bits == m.height.bit_length() + (d + 1).bit_length() + 1
    loss = hadamard_loss(f, g)
    assert lam == loss.bit_length()
    if d == 1:
        assert switch_bits is None
    else:  # switch_bits - 1 = ceil(lam / (d-1))
        assert (switch_bits - 2) * (d - 1) < lam <= (switch_bits - 1) * (d - 1)
    tail = tail_threshold(g, res, loss)
    assert (tail is None) == (denominator_bound(g) is None) == (trap_height(g, res) is None)
    if tail is None:
        assert tail_bits is None
    else:
        assert tail >= trap_height(g, res) + 1
        assert 1 << (tail_bits - 1) <= tail < 1 << tail_bits


@given(_maps(max_degree=4, bound=9), st.integers(-12, 12).filter(bool))
@settings(max_examples=100, deadline=None)
def test_given_resultant_is_divided_by_the_content(m, c):
    # A pair scaled by c has Res times c^(2d); make_map divides that back out
    # and builds the same map, resultant and scan record as the unscaled pair.
    f, g = _forms(m)
    scaled = ([c * x for x in f], [c * x for x in g])
    built = make_map(*scaled, resultant=resultant_from_coeffs(*scaled, m.degree))
    assert built == m == make_map(*scaled)
    assert built.resultant == m.resultant and built.scan == m.scan
