import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynctl.polynomials import (IntPoly, bareiss_determinant, form_compose, form_eval, form_mul,
                                resultant_from_coeffs, solve_exact, sylvester_matrix)

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
    assert tpoly(4, 8, 12).content() == 4
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


def test_restrict_and_extend_vars():
    p = tpoly(1, 2)
    q = IntPoly(("t", "u"), {(0, 0): 1, (1, 0): 2})
    assert q.vars == ("t", "u")
    assert q.restrict_vars(T) == p
    with pytest.raises(ValueError):
        (IntPoly.var("u", ("t", "u"))).restrict_vars(T)


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


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(rows) == _det_fraction_oracle(rows)


def test_bareiss_singular():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0


def test_bareiss_polynomial_entries():
    t = IntPoly.var("t", T)
    one = IntPoly.const(1, T)
    det = bareiss_determinant([[t, one], [one, t]])
    assert det == t * t - 1


def test_sylvester_linear_case():
    # Res(x - a, x - b) = a - b with the rows-of-f-first convention.
    for a, b in [(3, 5), (-2, 7), (0, 0)]:
        m = sylvester_matrix([-a, 1], [-b, 1], 1, 1)
        assert bareiss_determinant(m) == a - b


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


def test_solve_exact():
    sol = solve_exact([[2, 0], [1, 3]], [4, 5])
    assert sol == [Fraction(2), Fraction(1)]
    with pytest.raises(ValueError):
        solve_exact([[1, 1], [2, 2]], [1, 1])


def test_form_mul_and_compose_ints():
    # (x^2, y^2) composed with itself: x^4, y^4
    num, den = form_compose([0, 0, 1], [1, 0, 0], [0, 0, 1], [1, 0, 0])
    assert num == [0, 0, 0, 0, 1]
    assert den == [1, 0, 0, 0, 0]
    assert form_mul([1, 1], [1, 1]) == [1, 2, 1]


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=7),
       st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_form_eval_matches_monomial_sum(coeffs, a, b):
    d = len(coeffs) - 1
    assert form_eval(coeffs, a, b) == sum(c * a**i * b ** (d - i) for i, c in enumerate(coeffs))


def test_form_eval_over_a_ring_without_int_one():
    # Coefficients and coordinates in Z[t]: the powers of b start at b itself.
    t = IntPoly.var("t", T)
    coeffs = [tpoly(1, 1), IntPoly.const(0, T), tpoly(0, 0, 3)]  # (1+t) Y^2 + 3t^2 X^2
    got = form_eval(coeffs, t, t + 2)
    assert got == tpoly(1, 1) * (t + 2) ** 2 + tpoly(0, 0, 3) * t**2
    assert form_eval([tpoly(5)], t, t) == tpoly(5)
