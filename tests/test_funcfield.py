import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from dynctl import funcfield as funcfield_mod
from dynctl.errors import DegenerateFamilyError, SizeBudgetExceededError
from dynctl.funcfield import (FFMap, FFPoly, FFRat,
                              enumerate_ff_elements, evaluate_ff, ff_family, ff_family_map,
                              ff_family_verification, ff_infinity, ff_is_s_integral,
                              ff_orbit_avg, ff_scan_orbit, format_ffpoly, is_irreducible,
                              normalize_ff_point, parse_ffpoly, validate_s_set)
from dynctl.points import DEFAULT_N_CAP, Truncation
from dynctl.polynomials import FORM_KERNELS, form_shape, resultant_from_coeffs
from test_polynomials import horner


def make_ff_map(num_coeffs, den_coeffs):
    """Reference map builder: clear coefficient denominators, reduce pair content,
    and take the resultant as a Bareiss determinant."""
    if len(num_coeffs) != len(den_coeffs):
        raise ValueError("coefficient sequences must have equal length")
    d = len(num_coeffs) - 1
    if d < 1:
        raise ValueError("map degree must be >= 1")
    p = num_coeffs[0].p
    common = FFPoly.const(p, 1)
    for c in list(num_coeffs) + list(den_coeffs):
        g = common.gcd(c.den)
        common = common * c.den.exact_div(g)
    nf = [c.num * common.exact_div(c.den) for c in num_coeffs]
    df = [c.num * common.exact_div(c.den) for c in den_coeffs]
    content = FFPoly(p, ())
    for c in nf + df:
        content = content.gcd(c)
    if content.is_zero():
        raise ValueError("zero map")
    if not content.is_constant():
        nf = [c.exact_div(content) for c in nf]
        df = [c.exact_div(content) for c in df]
    res = resultant_from_coeffs(nf, df, d)
    if res.is_zero():
        raise DegenerateFamilyError("the defining forms share a root over F_p(t)-bar (Res = 0)")
    return FFMap(p, d, tuple(nf), tuple(df), res)


class Rat(FFRat):
    """An FFRat with the field operations, for the oracles in this file: dynctl
    itself never adds, multiplies or divides points of P^1(F_p(t))."""

    @staticmethod
    def of(x: FFRat) -> "Rat":
        return Rat(x.num, x.den)

    @staticmethod
    def reduced(num: FFPoly, den: FFPoly) -> "Rat":
        return Rat.of(FFRat.make(num, den))

    def __add__(self, other: "Rat | int") -> "Rat":
        if isinstance(other, int):
            # num + c*den stays coprime to den, and den stays monic.
            return Rat(self.num + self.den * other, self.den)
        return Rat.reduced(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Rat") -> "Rat":
        return Rat.reduced(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other: "Rat | int") -> "Rat":
        if isinstance(other, int):
            return Rat.reduced(self.num * other, self.den)
        return Rat.reduced(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Rat") -> "Rat":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in F_p(t)")
        return Rat.reduced(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "Rat":
        if n < 0:
            return Rat.reduced(self.den, self.num) ** (-n)
        return Rat.reduced(self.num**n, self.den**n)


def _naive_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_ffpoly_mul_matches_schoolbook():
    rng = random.Random(4)
    for p in (2, 3, 5, 97):
        for _ in range(25):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 12))]
            b = [rng.randrange(p) for _ in range(rng.randint(1, 12))]
            got = FFPoly(p, a) * FFPoly(p, b)
            want = FFPoly(p, _naive_mul(p, a, b))
            assert got == want
            f = FFPoly(p, a)
            assert f * f == FFPoly(p, _naive_mul(p, a, a))


def test_ffpoly_divmod_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        a = FFPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 8))])
        b = FFPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()


@pytest.mark.parametrize("p, lengths", [
    (2, (255, 256)),   # 1-byte slots hold sums up to 255
    (3, (63, 64)),     # 4 * 63 < 2^8 <= 4 * 64
    (17, (1, 255, 256)),  # 16^2 = 2^8 already needs 2 bytes; 256 * 256 needs 4
    (97, (7, 8)),      # 96^2 * 7 < 2^16 <= 96^2 * 8
])
def test_ffpoly_mul_largest_sums_at_slot_boundaries(p, lengths):
    for n in lengths:
        for m in (n, n + 3):
            a = [p - 1] * n
            b = [p - 1] * m
            assert FFPoly(p, a) * FFPoly(p, b) == FFPoly(p, _naive_mul(p, a, b))


@pytest.mark.parametrize("p, n", [(2, 65535), (2, 65536), (3, 16383), (3, 16384)])
def test_ffpoly_mul_largest_sums_at_wide_slot_boundaries(p, n):
    # All-(p-1) factors: coefficient k counts the pairs i + j = k, times (p-1)^2.
    got = FFPoly(p, [p - 1] * n) * FFPoly(p, [p - 1] * n)
    want = [(p - 1) ** 2 * (min(k, 2 * n - 2 - k) + 1) for k in range(2 * n - 1)]
    assert got == FFPoly(p, want)


def test_ffpoly_mul_refuses_sums_wider_than_its_slots(monkeypatch):
    import dynctl.funcfield as ff

    monkeypatch.setattr(ff, "_SLOTS", ff._SLOTS[:1])
    with pytest.raises(OverflowError):
        FFPoly(97, [96, 96]) * FFPoly(97, [96])


@pytest.mark.parametrize("p", (2, 3, 97))
def test_ffpoly_divmod_long_dividends(p):
    rng = random.Random(p)
    t = FFPoly.t_var(p)
    divisors = [
        FFPoly(p, [1] + [0] * 5 + [1]),                      # sparse: 1 + t^6
        FFPoly(p, [rng.randrange(1, p) for _ in range(40)]),  # dense
        t * FFPoly(p, [rng.randrange(p) for _ in range(8)] + [1]),  # zero constant term
        FFPoly(p, [rng.randrange(1, p)]),                    # nonzero constant
    ]
    for b in divisors:
        for n in (600, 777):
            a = FFPoly(p, [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)])
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree() < b.degree()
            assert (a * b).exact_div(b) == a


def _to_sympy(f, x):
    import sympy

    return sympy.Poly(list(reversed(f.coeffs)) or [0], x, modulus=f.p)


def _from_sympy(p, poly):
    # sympy keeps residues in the symmetric range; map them into [0, p).
    return FFPoly(p, [int(c) % p for c in reversed(poly.all_coeffs())])


@given(st.sampled_from((2, 3, 5, 17, 97)), st.data())
@settings(max_examples=80, deadline=None)
def test_ffpoly_kernels_match_sympy(p, data):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = st.lists(st.integers(0, p - 1), max_size=40)
    a = FFPoly(p, data.draw(coeffs))
    b = FFPoly(p, data.draw(coeffs))
    sa, sb = _to_sympy(a, x), _to_sympy(b, x)
    assert a * b == _from_sympy(p, sa * sb)
    if not b.is_zero():
        sq, sr = sa.div(sb)
        assert divmod(a, b) == (_from_sympy(p, sq), _from_sympy(p, sr))
        assert a % b == _from_sympy(p, sr)
    if not (a.is_zero() and b.is_zero()):
        assert a.gcd(b) == _from_sympy(p, sa.gcd(sb))


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=80, deadline=None)
def test_ff_form_kernel_matches_reference_horner(p, data):
    d = data.draw(st.integers(0, 6))
    poly = lambda size: st.lists(st.integers(0, p - 1), max_size=size).map(lambda cs: FFPoly(p, cs))
    # Coefficients are zero about half the time, so the shapes are sparse.
    coeff = st.one_of(st.just(FFPoly(p, ())), poly(4))
    f, g = (data.draw(st.lists(coeff, min_size=d + 1, max_size=d + 1)) for _ in range(2))
    a, b = data.draw(poly(30)), data.draw(poly(30))
    assert FORM_KERNELS[form_shape(f, g)](f, g, a, b) == (horner(f, a, b), horner(g, a, b))


ff_polys = st.builds(
    lambda p, coeffs: FFPoly(p, coeffs),
    st.sampled_from((2, 3, 5)),
    st.lists(st.integers(0, 4), max_size=8),
)


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=60)
def test_ffpoly_ring_axioms(p, data):
    coeffs = st.lists(st.integers(0, p - 1), max_size=8)
    a = FFPoly(p, data.draw(coeffs))
    b = FFPoly(p, data.draw(coeffs))
    c = FFPoly(p, data.draw(coeffs))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=60)
def test_ffpoly_gcd_divides_both(p, data):
    coeffs = st.lists(st.integers(0, p - 1), min_size=1, max_size=6)
    a = FFPoly(p, data.draw(coeffs))
    b = FFPoly(p, data.draw(coeffs))
    if a.is_zero() and b.is_zero():
        return
    g = a.gcd(b)
    if not a.is_zero():
        assert (a % g).is_zero()
    if not b.is_zero():
        assert (b % g).is_zero()


def test_ffpoly_gcd_monic():
    p = 5
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    a = (t + one) * (t + one) * (2 * t + one)
    b = (t + one) * (3 * t + one)
    g = a.gcd(b)
    assert g == (t + one)


def test_ffpoly_pow_squares_from_the_base(monkeypatch):
    # Left to right from the base: bit_length - 1 squarings and popcount - 1
    # multiplies by the base, each power equal to repeated multiplication.
    p = 3
    base = FFPoly(p, (2, 1, 1))
    real = FFPoly.__mul__
    calls = []

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    want = FFPoly.const(p, 1)
    for n in range(1, 17):
        want = want * base
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(FFPoly, "__mul__", counting)
            got = base ** n
        assert got == want
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1
    assert base ** 0 == FFPoly.const(p, 1) == FFPoly(p, ()) ** 0


def test_monic_and_evaluate_ff_keep_a_monic_operand(monkeypatch):
    p = 5
    f = FFPoly(p, (3, 0, 1))
    assert f.monic() is f
    assert FFPoly(p, (3, 0, 2)).monic() == FFPoly(p, (4, 0, 1))
    assert FFPoly(p, ()).monic().is_zero()
    # Over F_2 every nonzero leading coefficient is 1: evaluate_ff scales by no constant.
    real = FFPoly.__mul__
    scalings = []

    def counting(self, other):
        if isinstance(other, int):
            scalings.append(other)
        return real(self, other)

    t = FFPoly.t_var(2)
    m = ff_family_map(2, FFRat.from_poly(t))
    point = FFRat.make(t * t + FFPoly.const(2, 1), t)
    want = evaluate_ff(m, point)
    with monkeypatch.context() as patch:
        patch.setattr(FFPoly, "__mul__", counting)
        assert evaluate_ff(m, point) == want
    assert scalings == []


def test_ff_serialization():
    f = parse_ffpoly(3, "1+2*t+t^2")
    assert format_ffpoly(f) == "1+2*t+t^2"
    assert parse_ffpoly(5, "0").is_zero()
    assert format_ffpoly(FFPoly(3, (0, 0, 2))) == "2*t^2"


@pytest.mark.parametrize("text", ["t^2+t+1+t^-1", "t^-1", "t^100000000", "t^65"])
def test_parse_ffpoly_refuses_exponents_outside_the_grammar(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_ffpoly(2, text)


def test_parse_ffpoly_takes_the_largest_exponent():
    assert parse_ffpoly(2, "t^64+1").degree() == 64


@pytest.mark.parametrize("text", ["3t", "2**t", "1_0*t", "t^", "*t", "3*", "-t",
                                  "2*3*t", "t*2", "\u0663*t", "tt", "t^2^3"])
def test_parse_ffpoly_refuses_a_malformed_term(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_ffpoly(5, f"1+{text}")


# Every F_p[t] literal of the README, the goldens and the tests, over F_p, with
# its ascending coefficients mod p.
FFPOLY_LITERALS = [
    (2, "t^4+t+1", (1, 1, 0, 0, 1)),
    (3, "t", (0, 1)),
    (2, "t", (0, 1)),
    (2, "1+t", (1, 1)),
    (3, "1+2*t+t^2", (1, 2, 1)),
    (5, "0", ()),
    (2, "t^64+1", (1,) + (0,) * 63 + (1,)),
    (5, "-3+4*t^0+7*t^1+t^ 2", (1, 2, 1)),
]


@pytest.mark.parametrize("p, text, coeffs", FFPOLY_LITERALS)
def test_parse_ffpoly_reads_every_documented_literal(p, text, coeffs):
    assert parse_ffpoly(p, text) == FFPoly(p, coeffs)


def test_ff_heights():
    p = 3
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    assert normalize_ff_point(t, one).height() == 1
    assert ff_infinity(p).height() == 0
    assert normalize_ff_point(t * t + one, t).height() == 2


def test_ff_point_normalization_idempotent():
    p = 3
    t = FFPoly.t_var(p)
    pt = normalize_ff_point(2 * (t + FFPoly.const(p, 1)) * t, 2 * t)
    assert pt.den.is_zero() or pt.den.leading() == 1
    again = normalize_ff_point(pt.num, pt.den)
    assert again == pt


def test_ff_s_integrality():
    p = 3
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    assert ff_is_s_integral(normalize_ff_point(t * t + one, t), [t])
    assert not ff_is_s_integral(normalize_ff_point(one, t + one), [t])
    assert not ff_is_s_integral(ff_infinity(p), [t])
    assert ff_is_s_integral(normalize_ff_point(t * t + one, one), [])


def test_validate_s_set():
    t2 = FFPoly(2, (0, 1))
    one2 = FFPoly.const(2, 1)
    validate_s_set([t2, t2 + one2, t2 * t2 + t2 + one2])
    with pytest.raises(ValueError):
        validate_s_set([t2 * t2 + one2])  # (t+1)^2 over F_2
    with pytest.raises(ValueError):
        validate_s_set([2 * t2])  # not monic over... scaled to zero mod 2
    with pytest.raises(ValueError):
        validate_s_set([FFPoly(3, (1, 2))])  # not monic


def test_validate_s_set_tests_each_distinct_member_once(monkeypatch):
    calls = []
    real = funcfield_mod.is_irreducible

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(funcfield_mod, "is_irreducible", counting)
    t2 = FFPoly(2, (0, 1))
    one2 = FFPoly.const(2, 1)
    q = t2 * t2 + t2 + one2
    validate_s_set([q] * 20)
    assert calls == [q]
    # Order is kept: the first bad member is the one reported.
    bad, worse = t2 * t2 + one2, t2 * t2
    with pytest.raises(ValueError, match=r"got 1\+t\^2$"):
        validate_s_set([q, bad, q, worse, bad])


def test_is_irreducible():
    assert is_irreducible(FFPoly(2, (1, 1, 1)))  # t^2+t+1
    assert not is_irreducible(FFPoly(2, (1, 0, 1)))  # t^2+1 = (t+1)^2
    assert is_irreducible(FFPoly(3, (1, 0, 1)))  # t^2+1 over F_3


def _mobius(n):
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5)])
def test_is_irreducible_counts_match_gauss(p, max_degree):
    # Gauss: (1/n) sum_{k | n} mu(k) p^(n/k) monic irreducibles of degree n over F_p.
    for n in range(1, max_degree + 1):
        expected = sum(_mobius(k) * p ** (n // k) for k in range(1, n + 1) if n % k == 0) // n
        found = sum(is_irreducible(FFPoly(p, list(lower) + [1]))
                    for lower in itertools.product(range(p), repeat=n))
        assert found == expected, (p, n)


def test_is_irreducible_at_a_large_prime_and_degree():
    p = 97
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    # t^8 - 5 is irreducible over F_97: 5 is not a square mod 97 and 97 = 1 mod 4.
    assert is_irreducible(t ** 8 - 5 * one)
    assert not is_irreducible((t ** 4 + t + one) * (t ** 4 + 3 * one))


def _named_checks(report):
    """The CheckResults of an ff_family report by check name, without the label."""
    return {c.name.split(".", 1)[1]: c for c in report.checks}


def _scalar_detail(f, d):
    """The second_iterate_scalar detail when the scalar is (f + 1)^d."""
    return f"direct composition = ({(Rat.of(f) + Rat.constant(f.p, 1)) ** d}) * displayed pair"


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_ff_family_bundle_at_generic_f(p, d):
    f = FFRat.from_poly(FFPoly.t_var(p))
    m, report = ff_family(d, f, "ff_family")
    checks = _named_checks(report)
    assert m.degree == d
    assert list(checks) == ["fixed_points", "derivative", "separable", "second_iterate_degrees",
                            "second_iterate_not_polynomial", "second_iterate_scalar"]
    assert all(c.name.startswith("ff_family.") for c in report.checks)
    assert checks["fixed_points"].ok
    assert checks["derivative"].ok
    assert checks["separable"].ok
    assert not f.is_constant()
    assert checks["second_iterate_degrees"].ok
    assert checks["second_iterate_not_polynomial"].ok
    assert checks["second_iterate_scalar"].ok
    assert checks["second_iterate_scalar"].detail == _scalar_detail(f, d)


@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (5, 4)])
def test_ff_family_bundle_fails_on_a_wrong_map(p, d, monkeypatch):
    # u and v swapped in G: the derivative and the second iterate no longer match
    # the closed forms built from f.
    import dynctl.funcfield as funcfield_mod

    family_map = funcfield_mod.ff_family_map

    def swapped(d, f):
        m = family_map(d, f)
        u, *middle, v, top = m.den_forms
        return FFMap(m.p, m.degree, m.num_forms, (v, *middle, u, top), m.res)

    monkeypatch.setattr(funcfield_mod, "ff_family_map", swapped)
    _m, report = ff_family(d, FFRat.from_poly(FFPoly.t_var(p)), "ff_family")
    checks = _named_checks(report)
    assert not checks["derivative"].ok
    assert not checks["second_iterate_scalar"].ok
    assert not report.ok


def test_ff_family_isotrivial_flag():
    # over F_3 the constant 2 is -1 (degenerate), so use F_5 for the flag
    f = FFRat.constant(5, 2)
    _m, report = ff_family(2, f, "ff_family")
    assert f.is_constant()
    assert _named_checks(report)["fixed_points"].ok


def test_ff_family_degenerate_values():
    with pytest.raises(DegenerateFamilyError):
        ff_family(2, FFRat.constant(3, 2), "ff_family")  # 2 = -1 over F_3
    with pytest.raises(DegenerateFamilyError):
        ff_family(2, FFRat.constant(5, 0), "ff_family")


def test_ff_family_second_iterate_example_p3_d2():
    # denominator of phi^2 for d = 2, f = t: (x + t)((t+1) x^2 + t x + t^2)
    p = 3
    f = FFRat.from_poly(FFPoly.t_var(p))
    _m, report = ff_family(2, f, "ff_family")
    # denominator degree 3 = d^2 - 1
    assert _named_checks(report)["second_iterate_degrees"].ok


@pytest.mark.parametrize("d", [2, 3])
def test_ff_second_iterate_scalar_five_samples(d):
    p = 3
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    samples = [
        FFRat.from_poly(t),
        FFRat.from_poly(t + one),
        FFRat.from_poly(t * t + one),
        FFRat.make(one, t),
        FFRat.make(t + one, t * t + one),
    ]
    for f in samples:
        _m, report = ff_family(d, f, "ff_family")
        scalar = _named_checks(report)["second_iterate_scalar"]
        assert scalar.ok
        assert scalar.detail == _scalar_detail(f, d)


def test_ff_height_transition_bound():
    for p in (2, 3):
        f = FFRat.from_poly(FFPoly.t_var(p))
        m = ff_family_map(2, f)
        c = max(poly.degree() for poly in m.num_forms + m.den_forms) + m.res.degree()
        constants = [FFRat.constant(p, c) for c in range(p)]
        for elem in enumerate_ff_elements(p, 3) + constants:
            pt = normalize_ff_point(elem.num, elem.den)
            img = evaluate_ff(m, pt)
            drift = img.height() - m.degree * pt.height()
            assert -c <= drift <= c


def test_ff_fixed_points_random_f():
    assert ff_family_verification(seed=1).ok


def test_ff_family_verification_builds_a_bundle_only_at_f_equal_t(monkeypatch):
    calls = []
    real = funcfield_mod.ff_family

    def counting(d, f, label):
        calls.append((f.p, d))
        return real(d, f, label)

    monkeypatch.setattr(funcfield_mod, "ff_family", counting)
    assert ff_family_verification(seed=1).ok
    assert calls == [(2, 2), (2, 3), (3, 2), (3, 3)]


# (p, largest height of f, family degrees) for the closed-form family map test.
FAMILY_MAP_CASES = ((2, 2, (2, 3, 4)), (3, 2, (2, 3, 4)), (3, 1, (5, 6, 7)),
                    (5, 1, (2, 3, 4, 5, 6)), (7, 1, (2, 3, 5)))


@pytest.mark.parametrize("p, height, degrees", FAMILY_MAP_CASES,
                         ids=[f"p{p}-h{h}" for p, h, _ in FAMILY_MAP_CASES])
def test_ff_family_map_matches_the_generic_construction(p, height, degrees):
    # Every f up to the height, constants included: forms and resultant equal
    # make_ff_map's on (f+1) x^d / (x^(d-1) + f), and f in {0, -1} is refused.
    one, zero = Rat.constant(p, 1), Rat.constant(p, 0)
    constants = [Rat.constant(p, c) for c in range(p)]
    for f in list(map(Rat.of, enumerate_ff_elements(p, height))) + constants:
        for d in degrees:
            if f.is_zero() or (f + one).is_zero():
                with pytest.raises(DegenerateFamilyError):
                    ff_family_map(d, f)
                continue
            want = make_ff_map([zero] * d + [f + one], [f] + [zero] * (d - 2) + [one, zero])
            assert ff_family_map(d, f) == want, (f, d)


def test_ff_scan_orbit_fixed_point():
    p = 2
    f = FFRat.from_poly(FFPoly.t_var(p))
    m = ff_family_map(2, f)
    one_pt = normalize_ff_point(FFPoly.const(p, 1), FFPoly.const(p, 1))
    rec = ff_scan_orbit(m, one_pt, [])
    assert rec.truncation is Truncation.COMPLETED
    assert rec.points == (one_pt,)
    assert rec.integral_indices == (0,)


def _reference_scan(m, b, s, n_cap, height_budget):
    """The scan without the pre-evaluation cut: evaluate, then discard."""
    points = [b]
    seen = {b: 0}
    cycle_entry = None
    truncation = Truncation.ITERATION_CAP
    while len(points) <= n_cap:
        nxt = evaluate_ff(m, points[-1])
        if nxt in seen:
            cycle_entry = (seen[nxt], len(points) - seen[nxt])
            truncation = Truncation.COMPLETED
            break
        if nxt.height() > height_budget:
            truncation = Truncation.HEIGHT_BUDGET
            break
        seen[nxt] = len(points)
        points.append(nxt)
    return tuple(points), cycle_entry, truncation


def _random_ffpoly(rng, p, max_degree):
    return FFPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, max_degree + 1))])


def _random_ff_map(rng, p, d):
    """A map of degree d over F_p(t) whose coefficients have degree <= 3."""
    while True:
        num = [FFRat.from_poly(_random_ffpoly(rng, p, 3)) for _ in range(d + 1)]
        den = [FFRat.from_poly(_random_ffpoly(rng, p, 3)) for _ in range(d + 1)]
        try:
            return make_ff_map(num, den)
        except (DegenerateFamilyError, ValueError):  # Res = 0, or the zero map
            continue


def _random_ff_point(rng, p):
    """A point of height <= 8, now and then the point at infinity."""
    while True:
        z0, z1 = _random_ffpoly(rng, p, 8), _random_ffpoly(rng, p, 8)
        if not (z0.is_zero() and z1.is_zero()):
            return normalize_ff_point(z0, z1)


def _scan_cases(seed=12, n_maps=300, per_map=8):
    """(map, basepoint, budget) over p in {2, 3, 5}, d in {2, 3}, budgets 0-30."""
    rng = random.Random(seed)
    for _ in range(n_maps):
        p, d = rng.choice((2, 3, 5)), rng.choice((2, 3))
        m = _random_ff_map(rng, p, d)
        for _ in range(per_map):
            yield m, _random_ff_point(rng, p), rng.randint(0, 30)


def _degree_constant(m):
    """C = (2d-1) * (largest coefficient degree of F and G)."""
    return (2 * m.degree - 1) * max(poly.degree() for poly in m.num_forms + m.den_forms)


def test_ff_scan_orbit_matches_evaluate_then_discard():
    # 2400 fixed-seed cases; the scan's pre-evaluation cut must change no
    # record. Some basepoints sit above the budget.
    above = 0
    for m, b, budget in _scan_cases():
        above += b.height() > budget
        rec = ff_scan_orbit(m, b, [], height_budget=budget)
        want = _reference_scan(m, b, [], DEFAULT_N_CAP, budget)
        assert (rec.points, rec.cycle_entry, rec.truncation) == want, (m, b, budget)
    assert above > 100


def test_ff_height_lower_bound_is_certified():
    # h(phi(P)) >= d*h(P) - C exactly, on the maps and points of the scan sweep.
    for m, b, _ in _scan_cases():
        assert evaluate_ff(m, b).height() >= m.degree * b.height() - _degree_constant(m)


def test_ff_scan_orbit_fixed_basepoint_above_budget():
    # phi(x) = x + (v x - u)^2 / w fixes b = u/v, whose height 3 is over the
    # budget; the scan must still close the cycle at b.
    p = 3
    t = FFPoly.t_var(p)
    one = FFPoly.const(p, 1)
    u, v, w = t * t * t + t + one, t, t + one
    num = [u * u, w - 2 * u * v, v * v]
    den = [w, FFPoly(p, ()), FFPoly(p, ())]
    m = make_ff_map([FFRat.from_poly(c) for c in num], [FFRat.from_poly(c) for c in den])
    b = normalize_ff_point(u, v)
    assert evaluate_ff(m, b) == b and b.height() == 3
    rec = ff_scan_orbit(m, b, [], height_budget=1)
    assert rec.truncation is Truncation.COMPLETED
    assert rec.cycle_entry == (0, 1) and rec.points == (b,)


def test_ff_scan_orbit_identity_keeps_a_basepoint_above_budget():
    # For degree 1 the bound is h(P) - C with C = 0 here, which puts phi(b)
    # over the budget; only the comparison with h(b) keeps b's cycle.
    p = 2
    t = FFPoly.t_var(p)
    zero, one = FFRat.constant(p, 0), FFRat.constant(p, 1)
    identity = make_ff_map([zero, one], [one, zero])
    b = normalize_ff_point(t**5 + t, FFPoly.const(p, 1))
    rec = ff_scan_orbit(identity, b, [], height_budget=2)
    assert rec.truncation is Truncation.COMPLETED
    assert rec.cycle_entry == (0, 1) and rec.points == (b,)


def test_enumerate_ff_elements_b1():
    elems = enumerate_ff_elements(2, 1)
    assert len(elems) == 6
    assert all(not f.is_constant() for f in elems)


def test_ff_enumeration_limit_is_checked_before_enumerating(monkeypatch):
    import dynctl.funcfield as ff

    monkeypatch.setattr(ff, "FF_ENUMERATION_LIMIT", 31 * 32)  # p = 2, B = 4
    assert len(enumerate_ff_elements(2, 4)) == 510
    with pytest.raises(SizeBudgetExceededError, match="visits 4032 "):
        enumerate_ff_elements(2, 5)
    with pytest.raises(SizeBudgetExceededError, match="height 10000 visits more than "):
        enumerate_ff_elements(97, 10000)


def test_ff_orbit_avg_b1_hand_table():
    # beta = f^4; over F_2 at height 1 only the two polynomials t, t+1 give an
    # S-integral basepoint, and their orbits gain no further integral points
    # before truncation.
    report = ff_orbit_avg(2, 2, [0, 0, 0, 0, 1], [], (1,))
    assert report.population == (6,)
    assert report.totals == (2,)


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=150, deadline=None)
def test_ff_basepoint_at_u_v_is_the_normalized_ffrat_value(p, data):
    # beta of degree 4 to 6 with its top coefficient nonzero, f = u/v reduced and
    # not constant; the FFRat evaluation at (f, 1) is the reference.
    beta = (data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=6))
            + [data.draw(st.integers(1, p - 1))])
    u = FFPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=5)))
    v = FFPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=4)) + [1])
    f = Rat.reduced(u, v)
    assume(not f.is_constant())
    kernel = FORM_KERNELS[form_shape(beta)]
    value = kernel(beta, f, 1)
    point = FFRat(kernel(beta, f.num, f.den), f.den ** (len(beta) - 1))
    assert point == normalize_ff_point(value.num, value.den)


@pytest.mark.parametrize("p, beta", [(2, [1, 0, 1, 1, 1]), (3, [0, 2, 0, 1, 0, 2]),
                                     (5, [4, 0, 0, 0, 3])])
def test_ff_orbit_avg_scans_the_normalized_beta_f(p, beta, monkeypatch):
    import dynctl.funcfield as funcfield_mod

    scan = funcfield_mod.ff_scan_orbit
    basepoints = []

    def spy(m, b, *args, **kwargs):
        basepoints.append(b)
        return scan(m, b, *args, **kwargs)

    monkeypatch.setattr(funcfield_mod, "ff_scan_orbit", spy)
    ff_orbit_avg(p, 2, beta, [], (1,))
    kernel = FORM_KERNELS[form_shape(beta)]
    expected = []
    for f in map(Rat.of, enumerate_ff_elements(p, 1)):
        value = kernel(beta, f, 1)
        expected.append(normalize_ff_point(value.num, value.den))
    assert basepoints == expected


def test_ff_orbit_avg_beta_degree_validation():
    with pytest.raises(ValueError):
        ff_orbit_avg(2, 2, [0, 0, 0, 1], [], (1, 2))  # degree 3 is not > (2d-1)/(d-1)


def test_ff_orbit_avg_refuses_a_degree_over_its_limit_before_any_work(monkeypatch):
    import dynctl.funcfield as funcfield_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the degree was checked")

    monkeypatch.setattr(funcfield_mod, "enumerate_ff_elements", no_work)
    monkeypatch.setattr(funcfield_mod, "ff_family_map", no_work)
    limit = funcfield_mod.FF_DEGREE_LIMIT
    with pytest.raises(SizeBudgetExceededError, match=f"degree of {limit + 1} is over"):
        ff_orbit_avg(2, limit + 1, [0, 0, 0, 1], [], (1,))


def test_ff_orbit_avg_nonincreasing():
    report = ff_orbit_avg(2, 2, [0, 0, 0, 0, 1], [], (1, 2, 3))
    assert all(a2 <= a1 for a1, a2 in zip(report.averages, report.averages[1:]))


def _det_over_ff_fraction_field(entries):
    """Independent determinant: Gaussian elimination over F_p(t) with FFRat pivots."""
    n = len(entries)
    m = [[Rat.from_poly(e) for e in row] for row in entries]
    p = entries[0][0].p
    det = Rat.constant(p, 1)
    sign = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if pivot is None:
            return FFPoly(p, ())
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        det = det * m[k][k]
        inv = Rat.constant(p, 1) / m[k][k]
        for i in range(k + 1, n):
            if m[i][k].is_zero():
                continue
            factor = m[i][k] * inv
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    assert det.den.is_one()
    return det.num * (1 if sign == 1 else -1)


def test_ff_resultant_vs_fraction_field_oracle():
    from dynctl.polynomials import sylvester_matrix

    for p, d in ((3, 2), (5, 3), (2, 4)):
        f = FFRat.from_poly(FFPoly.t_var(p))
        m = ff_family_map(d, f)
        matrix = sylvester_matrix(list(m.num_forms), list(m.den_forms), d)
        assert _det_over_ff_fraction_field(matrix) == m.res


def test_ff_population_growth_like_q_pow_2b():
    for bound in (2, 3, 4):
        pop = len(enumerate_ff_elements(2, bound))
        assert 1.5 <= pop / 4**bound <= 2.5


def test_make_ff_map_clears_denominators():
    p = 3
    t = FFPoly.t_var(p)
    half = FFRat.make(FFPoly.const(p, 1), t)  # 1/t
    one = FFRat.constant(p, 1)
    zero = FFRat.constant(p, 0)
    m = make_ff_map([zero, zero, half], [one, zero, zero])
    assert all(isinstance(c, FFPoly) for c in m.num_forms + m.den_forms)
    assert not m.res.is_zero()


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=60)
def test_ffrat_plus_int_matches_plus_constant(p, data):
    coeffs = st.lists(st.integers(0, p - 1), max_size=4)
    num = FFPoly(p, data.draw(coeffs))
    den = FFPoly(p, data.draw(coeffs) + [1])
    c = data.draw(st.integers(-2 * p, 2 * p))
    f = Rat.reduced(num, den)
    assert f + c == f + Rat.constant(p, c)


# ---------------------------------------------------------------------------
# The certified tail cut of count-only scans
# ---------------------------------------------------------------------------


@given(st.sampled_from((2, 3, 5)), st.data())
@settings(max_examples=150, deadline=None)
def test_ff_count_only_scan_agrees_with_the_whole_scan(p, data):
    # The d = 2 family at random f = u/v from beta(f) for random beta, or from
    # a random point; the cut is taken at the first point of height over
    # max(deg Res + deg u, C), and only there.
    u = FFPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=4))
               + [data.draw(st.integers(1, p - 1))])
    v = FFPoly(p, data.draw(st.lists(st.integers(0, p - 1), max_size=3)) + [1])
    f = Rat.reduced(u, v)
    assume(not (f + Rat.constant(p, 1)).is_zero())
    m = ff_family_map(2, f)
    if data.draw(st.booleans()):
        beta = (data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=6))
                + [data.draw(st.integers(1, p - 1))])
        value = FORM_KERNELS[form_shape(beta)](beta, f, 1)
        b = normalize_ff_point(value.num, value.den)
    else:
        b = _random_ff_point(random.Random(data.draw(st.integers(0, 2**32))), p)
    n_cap, budget = data.draw(st.integers(0, DEFAULT_N_CAP)), data.draw(st.integers(0, 48))
    full = ff_scan_orbit(m, b, [], n_cap=n_cap, height_budget=budget)
    cut = ff_scan_orbit(m, b, [], n_cap=n_cap, height_budget=budget, count_only=True)
    assert len(cut.integral_indices) == len(full.integral_indices)
    assert max(cut.integral_indices, default=-1) == max(full.integral_indices, default=-1)
    assert (cut.truncation is Truncation.COMPLETED) == (full.truncation is Truncation.COMPLETED)
    assert cut.points == full.points[:len(cut.points)]
    u, v = f.num, f.den
    tail = max(2 * ((u + v).degree() + u.degree()) + max(u.degree(), 0),
               3 * max(u.degree(), v.degree(), (u + v).degree()))
    above = [pt.height() > tail for pt in cut.points]
    if cut.truncation is Truncation.CERTIFIED_TAIL:
        assert above[-1] and not any(above[:-1])
    else:
        assert cut == full and not any(above[:-1])


def test_ff_count_only_scan_needs_the_family_shape_and_empty_s():
    # With S nonempty, at d = 3, or for a G not of the form Y (vX + uY), the
    # count-only scan keeps the whole record.
    p = 2
    t = FFPoly.t_var(p)
    f = FFRat.from_poly(t * t * t + t)
    b = normalize_ff_point(t**5 + t, t + FFPoly.const(p, 1))
    for m, s in ((ff_family_map(2, f), [t]), (ff_family_map(3, f), []),
                 (_random_ff_map(random.Random(5), p, 2), [])):
        assert ff_scan_orbit(m, b, s, count_only=True) == ff_scan_orbit(m, b, s)
    cut = ff_scan_orbit(ff_family_map(2, f), b, [], count_only=True)
    assert cut.truncation is Truncation.CERTIFIED_TAIL
