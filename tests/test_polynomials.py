import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dynctl import polynomials
from dynctl.maps import cofactors, random_map
from dynctl.polynomials import (FORM_KERNELS, IntPoly, bareiss, form_compose, form_mul,
                                form_shape, gcd_degree, resultant_from_coeffs,
                                sylvester_matrix)

T = ("t",)
RS = ("r", "s")


def tpoly(*coeffs: int) -> IntPoly:
    return IntPoly(T, {(i,): c for i, c in enumerate(coeffs)})


def test_basic_arithmetic():
    t = IntPoly.var("t", T)
    p = (t + 1) * (t - 1)
    assert p == tpoly(-1, 0, 1)
    assert (t**3).degree_in("t") == 3
    assert (p - p).is_zero()
    assert p.evaluate({"t": 5}) == 24
    assert p.evaluate({"t": Fraction(1, 2)}) == Fraction(-3, 4)


def test_multivariate():
    r = IntPoly.var("r", RS)
    s = IntPoly.var("s", RS)
    p = (r + s) ** 2
    assert p.coefficient((1, 1)) == 2
    assert p.total_degree() == 2
    assert p.evaluate({"r": 2, "s": 3}) == 25


def test_content_and_const():
    assert IntPoly.const(7, T).const_value() == 7
    assert IntPoly.const(0, T).is_zero()


def test_exact_div():
    t = IntPoly.var("t", T)
    num = (t + 2) * (3 * t - 5)
    assert num.exact_div(t + 2) == 3 * t - 5
    with pytest.raises(ValueError):
        num.exact_div(t + 1)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(lambda c: tpoly(*c))


@given(small_polys, small_polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=100)
def test_exact_div_roundtrip(a, b):
    assert (a * b).exact_div(b) == a


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == tpoly(0)


@given(small_polys, small_polys, st.integers(-5, 5))
@settings(max_examples=60)
def test_evaluation_is_a_ring_map(a, b, t):
    values = {"t": t}
    assert (a * b).evaluate(values) == a.evaluate(values) * b.evaluate(values)
    assert (a + b).evaluate(values) == a.evaluate(values) + b.evaluate(values)


def _det_fraction_oracle(rows):
    """Independent determinant by fraction-based Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return det.numerator


def _fraction_solve(rows, b):
    """M^-1 b by Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(rows)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(n):
            if i != k and m[i][k]:
                factor = m[i][k] / m[k][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return [m[i][n] / m[i][i] for i in range(n)]


def test_bareiss_matches_fraction_elimination():
    # Small entries make zero pivots, row swaps and singular matrices common.
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        bound = rng.choice((1, 2, 9))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        columns = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        det = _det_fraction_oracle(rows)
        assert bareiss(rows) == (det, [])
        if det == 0:
            with pytest.raises(ValueError, match="singular"):
                bareiss(rows, columns)
        else:
            assert bareiss(rows, columns) == (det, [[det * x for x in _fraction_solve(rows, b)]
                                                    for b in columns])


def test_bareiss_singular():
    assert bareiss([[1, 2], [2, 4]]) == (0, [])
    assert bareiss([[0, 0], [0, 0]]) == (0, [])


def test_bareiss_polynomial_entries():
    t = IntPoly.var("t", T)
    one = IntPoly.const(1, T)
    det, _ = bareiss([[t, one], [one, t]])
    assert det == t * t - 1


def test_sylvester_linear_case():
    # Res(x - a, x - b) = a - b with the rows-of-f-first convention.
    for a, b in [(3, 5), (-2, 7), (0, 0)]:
        m = sylvester_matrix([-a, 1], [-b, 1], 1)
        assert bareiss(m)[0] == a - b


def test_resultant_examples():
    assert resultant_from_coeffs([0, 0, 1], [1, 0, 0], 2) == 1  # X^2 vs Y^2
    assert resultant_from_coeffs([-2, 0, 1], [-2, 0, 1], 2) == 0  # equal forms


def test_resultant_vs_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 4)
        # nonzero leading coefficients so the binary-form and univariate
        # conventions agree
        f = [rng.randint(-6, 6) for _ in range(d)] + [rng.randint(1, 6)]
        g = [rng.randint(-6, 6) for _ in range(d)] + [rng.randint(1, 6)]
        mine = resultant_from_coeffs(f, g, d)
        fx = sum(c * x**i for i, c in enumerate(f))
        gx = sum(c * x**i for i, c in enumerate(g))
        assert mine == sympy.resultant(fx, gx, x)


_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5)


@given(_polys, _polys, _polys)
@settings(max_examples=150, deadline=None)
def test_gcd_degree_matches_sympy_and_the_resultant(a, b, common):
    # f = a * common and g = b * common, so the gcd often has positive degree.
    sympy = pytest.importorskip("sympy")
    f, g = (form_mul(p, common) if p and common else [] for p in (a, b))
    x = sympy.Symbol("x")
    fx, gx = (sum(c * x**i for i, c in enumerate(p)) for p in (f, g))
    want = -1 if fx == 0 and gx == 0 else sympy.degree(sympy.gcd(fx, gx), x)
    assert gcd_degree(f, g) == want
    # As forms of degree e = max(deg f, deg g), Res = 0 exactly when the gcd
    # has positive degree.
    e = max(sympy.degree(fx, x), sympy.degree(gx, x))
    if e >= 1:
        pad = lambda p: (list(p) + [0] * (e + 1))[:e + 1]
        assert (resultant_from_coeffs(pad(f), pad(g), e) == 0) == (want > 0)


def test_gcd_degree_of_large_coprime_powers_is_zero():
    # (t + 1000)^64 and (t - 999)^64: the Sylvester resultant of these
    # degree-64 forms takes about a minute; the remainder sequence does not.
    f, g = [1], [1]
    for _ in range(64):
        f, g = form_mul(f, [1000, 1]), form_mul(g, [-999, 1])
    assert gcd_degree(f, g) == 0
    assert gcd_degree(form_mul(f, [2, 1]), form_mul(g, [2, 1])) == 1


def _forms(max_degree, bound):
    """Two binary forms of one degree <= max_degree, as ascending coefficient lists."""
    coeffs = lambda d: st.lists(st.integers(-bound, bound), min_size=d + 1, max_size=d + 1)
    return st.integers(1, max_degree).flatmap(lambda d: st.tuples(coeffs(d), coeffs(d)))


@given(_forms(4, 9))
@settings(max_examples=150, deadline=None)
def test_form_resultant_matches_sympy(forms):
    # Leading coefficients may vanish here. The substitution Y -> Y + cX has
    # determinant 1, so it leaves Res(F, G) unchanged; at a c with
    # F(1, c) * G(1, c) != 0 both forms keep x-degree d, where the form
    # resultant is sympy's univariate one.
    sympy = pytest.importorskip("sympy")
    f, g = forms
    d = len(f) - 1
    mine = resultant_from_coeffs(f, g, d)
    if not any(f) or not any(g):
        assert mine == 0
        return
    at = lambda cs, c: sum(ci * c ** (d - i) for i, ci in enumerate(cs))
    c = next(c for c in range(2 * d + 1) if at(f, c) and at(g, c))
    x = sympy.Symbol("x")
    fx = sympy.expand(sum(ci * x**i * (1 + c * x) ** (d - i) for i, ci in enumerate(f)))
    gx = sympy.expand(sum(ci * x**i * (1 + c * x) ** (d - i) for i, ci in enumerate(g)))
    assert mine == sympy.resultant(fx, gx, x)


def test_bareiss_solve():
    assert bareiss([[2, 0], [1, 3]], [[4, 5]]) == (6, [[12, 6]])
    assert bareiss([[0, 1], [1, 0]], [[1, 0], [0, 1]]) == (-1, [[0, -1], [-1, 0]])
    with pytest.raises(ValueError, match="singular"):
        bareiss([[1, 1], [2, 2]], [[1, 1]])


def test_cofactors_match_a_fraction_solve():
    # p F + q G = R X^(2d-1) and R Y^(2d-1): row k is the coefficient of X^k.
    rng = random.Random(12)
    for _ in range(40):
        m = random_map(rng, rng.randint(1, 6))
        d, f, g = m.degree, m.numerator.coeffs, m.denominator.coeffs
        rows = [[form[k - i] if 0 <= k - i <= d else 0 for form in (f, g) for i in range(d)]
                for k in range(2 * d)]
        cert = cofactors(m)
        for p, q, k in ((cert.p1, cert.q1, 2 * d - 1), (cert.p2, cert.q2, 0)):
            unit = [int(i == k) for i in range(2 * d)]
            assert list(p.coeffs + q.coeffs) == [m.resultant * x for x in _fraction_solve(rows, unit)]


def test_form_mul_and_compose_ints():
    # (x^2, y^2) composed with itself: x^4, y^4
    num, den = form_compose([0, 0, 1], [1, 0, 0], [0, 0, 1], [1, 0, 0])
    assert num == [0, 0, 0, 0, 1]
    assert den == [1, 0, 0, 0, 0]
    assert form_mul([1, 1], [1, 1]) == [1, 2, 1]


def horner(coeffs, a, b):
    """Reference value of sum c_i a^i b^(d-i): dense Horner in a, with the
    powers of b folded in on the way down, starting at b itself."""
    val = coeffs[-1]
    if len(coeffs) == 1:
        return val
    bpow = b
    for i in range(len(coeffs) - 2, 0, -1):
        val = val * a + coeffs[i] * bpow
        bpow = bpow * b
    return val * a + coeffs[0] * bpow


def kernel_eval(coeffs, a, b):
    return FORM_KERNELS[form_shape(coeffs)](coeffs, a, b)


# Sparse forms of degree <= 8: zero is drawn as often as a nonzero coefficient.
SPARSE_COEFF = st.one_of(st.just(0), st.integers(-50, 50))
SPARSE_COEFFS = st.lists(SPARSE_COEFF, min_size=1, max_size=9)
# Coordinates from 0 up to ~3000 bits.
COORD = st.one_of(st.just(0), st.integers(-10**6, 10**6), st.integers(-2**3000, 2**3000))


@given(SPARSE_COEFFS, COORD, COORD)
@example([0, 0, 0, 0], 5, 7)  # all-zero form
@example([0, 0, 0, 0, 0, 9, 0, 0, 0], 3, -2)  # single term
@example([4, 0, -4, 0, 1], 2**3000 - 1, 2**2999 + 1)  # the denominator of pell(2)
@example([1, 2, 3], 1, 0)  # b = 0: the point at infinity
@example([1, 2, 3], 0, 1)  # a = 0
def test_form_eval_matches_monomial_sum(coeffs, a, b):
    d = len(coeffs) - 1
    want = sum(c * a**i * b ** (d - i) for i, c in enumerate(coeffs))
    assert horner(coeffs, a, b) == want
    assert kernel_eval(coeffs, a, b) == want


@given(st.integers(0, 8).flatmap(
           lambda d: st.tuples(*[st.lists(SPARSE_COEFF, min_size=d + 1, max_size=d + 1)] * 2)),
       COORD, COORD)
def test_two_form_kernel_is_two_one_form_kernels(forms, a, b):
    f, g = forms
    assert FORM_KERNELS[form_shape(f, g)](f, g, a, b) == (kernel_eval(f, a, b),
                                                          kernel_eval(g, a, b))


def test_kernel_compiles_at_high_degree():
    # One statement per term: a dense degree-400 form nests no expression.
    rng = random.Random(400)
    f = [rng.randint(-9, 9) for _ in range(401)]
    g = [0] * 400 + [1]
    assert FORM_KERNELS[form_shape(f, g)](f, g, 3, -2) == (horner(f, 3, -2), horner(g, 3, -2))


def test_form_shape_masks_the_nonzero_coefficients():
    assert form_shape([0, 0, 0, 0, 1], [4, 0, -4, 0, 1]) == (4, 0b10000, 0b10101)
    assert form_shape([0, 0, 0]) == (2, 0)
    assert form_shape([tpoly(), tpoly(0, 1)]) == (1, 0b10)


def test_kernel_squares_even_powers():
    # x^8 + y^8 needs a^8 and b^8 only: three squarings each.
    src = polynomials._kernel_source(form_shape([1, 0, 0, 0, 0, 0, 0, 0, 1]))
    assert "a2 = a1 * a1" in src and "a4 = a2 * a2" in src and "a8 = a4 * a4" in src
    assert "b8 = b4 * b4" in src and "a3" not in src and "b3" not in src


def test_form_eval_over_a_ring_without_int_one():
    # Coefficients and coordinates in Z[t]: the powers of b start at b itself.
    t = IntPoly.var("t", T)
    coeffs = [tpoly(1, 1), IntPoly.const(0, T), tpoly(0, 0, 3)]  # (1+t) Y^2 + 3t^2 X^2
    got = kernel_eval(coeffs, t, t + 2)
    assert got == tpoly(1, 1) * (t + 2) ** 2 + tpoly(0, 0, 3) * t**2
    assert got == horner(coeffs, t, t + 2)
    assert kernel_eval([tpoly(5)], t, t) == tpoly(5)
