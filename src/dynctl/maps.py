"""Rational self-maps of P^1 over Q as pairs of integer binary forms.

Evaluation, composition, iteration, Sylvester resultants, cofactor
certificates, polynomial detection, and coefficient height.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateMapError, DegreeDropError, SizeBudgetExceededError
from .points import ProjPointQ
from .polynomials import (FORM_KERNELS, form_compose, form_mul, form_shape, resultant_from_coeffs,
                          solve_exact)

# Composed coefficients are refused past this many bits; read at call time.
COEFF_BITS = 10**6
# Denominator forms g, by ascending coefficients, mapped to k such that
# |g(a, b)| >= H^2 / k at every coprime (a, b) where g(a, b) != 0, with
# H = max(|a|, |b|): a^2 + b^2 >= H^2; b (a^2 + b^2) too, as |b| >= 1 there;
# a^3 + b^3 = (a + b)(a^2 - ab + b^2) with |a + b| >= 1 and
# a^2 - ab + b^2 >= 3 H^2 / 4 (k = 4 is the cube-sum bound verify checks).
TAIL_FORMS = {(1, 0, 1): 1, (1, 0, 1, 0): 1, (1, 0, 0, 1): 4}


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous binary form; coeffs[i] is the coefficient of X^i Y^(degree-i).

    The evaluation shape is computed on first use and cached on the form.
    """

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """polynomials.form_shape of the form."""
        return form_shape(self.coeffs)

    def __call__(self, a: int, b: int) -> int:
        return FORM_KERNELS[self.shape](self.coeffs, a, b)


@dataclass(frozen=True)
class RationalMapQ:
    """A degree-d rational self-map [F : G] of P^1 with Res(F, G) != 0.

    The stored pair is content-reduced and sign-canonicalized (the first
    nonzero coefficient, scanning numerator then denominator from the leading
    coefficient down, is positive). Constructed via make_map or compose.
    The resultant, the cofactor certificate, the evaluation shape of the
    pair and the orbit scan's constants are cached on the map (all but the
    resultant are computed on first use), and travel with it when pickled.
    """

    numerator: BinaryForm
    denominator: BinaryForm
    _res: int | None = field(default=None, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.numerator.degree

    @property
    def resultant(self) -> int:
        if self._res is None:
            r = resultant_from_coeffs(self.numerator.coeffs, self.denominator.coeffs, self.degree)
            object.__setattr__(self, "_res", r)
        return self._res

    @functools.cached_property
    def certificate(self) -> "CofactorCertificate":
        """The verified cofactor certificate, solved by cofactors()."""
        return cofactors(self)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """polynomials.form_shape of (F, G)."""
        return form_shape(self.numerator.coeffs, self.denominator.coeffs)

    @functools.cached_property
    def height(self) -> int:
        """map_height of the map."""
        return map_height(self)

    @functools.cached_property
    def step_bits(self) -> int:
        """bits(H(phi)) + bits(d+1) + 1: each coordinate of phi(P) has fewer than
        d * bits(P) + step_bits bits, as |F(a, b)|, |G(a, b)| <= (d+1) H(phi) H(P)^d."""
        return self.height.bit_length() + (self.degree + 1).bit_length() + 1

    @functools.cached_property
    def last_step_constants(self) -> tuple[int, int, int]:
        """(bits(hadamard_loss(m)), |Res|, |Res| * 2^64 + 1): the constants of
        the count-only scan's last-step test, orbits._no_integral_image."""
        res = abs(self.resultant)
        return hadamard_loss(self).bit_length(), res, (res << 64) + 1

    @functools.cached_property
    def tail_bits(self) -> int | None:
        """bits(tail_threshold(m)): a point with more bits is above the threshold;
        None when the map has no threshold."""
        t = tail_threshold(self)
        return None if t is None else t.bit_length()


def _canonical_pair(num: Sequence[int], den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide out the pair content and fix the sign convention."""
    content = math.gcd(*num, *den)
    lead = next(filter(None, reversed(num)), 0) or next(filter(None, reversed(den)), 0)
    if lead < 0:
        content = -content
    if content in (0, 1):
        return tuple(num), tuple(den)
    return tuple([c // content for c in num]), tuple([c // content for c in den])


def make_map(num_coeffs: Sequence[int], den_coeffs: Sequence[int],
             resultant: int | None = None) -> RationalMapQ:
    """Build a validated map from ascending coefficient sequences of length d+1.

    `resultant`, if given, must be Res(F, G) of the pair exactly as passed; it
    replaces the Sylvester determinant. Dividing out the content c divides it
    by c^(2d) exactly, since Res(cF, cG) = c^(2d) Res(F, G), and the sign fix
    leaves it unchanged.
    """
    num = list(map(int, num_coeffs))
    den = list(map(int, den_coeffs))
    if len(num) != len(den):
        raise ValueError("numerator and denominator need the same coefficient count")
    d = len(num) - 1
    if d < 1:
        raise ValueError("map degree must be >= 1")
    if not any(num) or not any(den):
        raise DegenerateMapError("a defining form is identically zero")
    if num[d] == 0 and den[d] == 0:
        raise DegreeDropError("both forms are divisible by Y; true degree < declared degree")
    num_t, den_t = _canonical_pair(num, den)
    if resultant is None:
        res = resultant_from_coeffs(num_t, den_t, d)
    else:
        res = resultant // math.gcd(*num, *den) ** (2 * d)
    if res == 0:
        raise DegenerateMapError("the defining forms share a projective root (Res = 0)")
    return RationalMapQ(BinaryForm(d, num_t), BinaryForm(d, den_t), res)


@dataclass(frozen=True)
class CofactorCertificate:
    """Forms of degree d-1 with p1*F + q1*G = R*X^D and p2*F + q2*G = R*Y^D, D = 2d-1."""

    p1: BinaryForm
    q1: BinaryForm
    p2: BinaryForm
    q2: BinaryForm
    r: int
    exponent: int

    def verify(self, m: RationalMapQ) -> bool:
        f, g = m.numerator.coeffs, m.denominator.coeffs

        def combination(p: BinaryForm, q: BinaryForm) -> list[int]:
            return [x + y for x, y in zip(form_mul(p.coeffs, f), form_mul(q.coeffs, g))]

        zeros = [0] * self.exponent
        return (combination(self.p1, self.q1) == zeros + [self.r]
                and combination(self.p2, self.q2) == [self.r] + zeros)

    @functools.cached_property
    def max_coefficient(self) -> int:
        """The largest |c| over the four cofactors."""
        return max(abs(c) for form in (self.p1, self.q1, self.p2, self.q2) for c in form.coeffs)


def cofactors(m: RationalMapQ) -> CofactorCertificate:
    """Solve the Sylvester system for the cofactor identities, then re-verify symbolically.

    The right-hand exponent forced by homogeneity is D = 2d-1 (degree d-1
    cofactors against degree d forms); the realized exponent is stored.
    Always solves afresh; RationalMapQ.certificate caches one result per map.
    """
    d = m.degree
    big = 2 * d
    f = m.numerator.coeffs
    g = m.denominator.coeffs
    # column i: X^i * F, column d+i: X^i * G, both of degree 2d-1 (2d coefficients).
    matrix = [[0] * big for _ in range(big)]
    for i in range(d):
        for j, c in enumerate(f):
            matrix[i + j][i] = c
        for j, c in enumerate(g):
            matrix[i + j][d + i] = c
    r = m.resultant

    def solve(target_index: int) -> tuple[BinaryForm, BinaryForm]:
        rhs = [0] * big
        rhs[target_index] = r
        sol = solve_exact(matrix, rhs)
        ints = []
        for v in sol:
            if v.denominator != 1:
                raise ArithmeticError("cofactor solution unexpectedly non-integral")
            ints.append(v.numerator)
        return BinaryForm(d - 1, tuple(ints[:d])), BinaryForm(d - 1, tuple(ints[d:]))

    p1, q1 = solve(big - 1)
    p2, q2 = solve(0)
    cert = CofactorCertificate(p1, q1, p2, q2, r, big - 1)
    if not cert.verify(m):
        raise ArithmeticError("cofactor certificate failed symbolic verification")
    return cert


def evaluate(m: RationalMapQ, p: ProjPointQ) -> ProjPointQ:
    """Apply the map to a normalized point, exactly.

    The gcd divided out always divides Res(F, G), so for validated maps the
    common factor is found by reducing modulo the (small) resultant instead
    of running a full gcd on enormous coordinates.
    """
    fa, gb = FORM_KERNELS[m.shape](m.numerator.coeffs, m.denominator.coeffs, p.a, p.b)
    r = m._res
    if r is None:
        g = math.gcd(fa, gb)
    elif r in (1, -1):
        g = 1
    else:
        r = abs(r)
        g = math.gcd(r, fa % r)
        if g > 1:
            g = math.gcd(g, gb % g)
    if g > 1:
        fa //= g
        gb //= g
    if gb == 0:
        fa = 1
    elif gb < 0:
        fa, gb = -fa, -gb
    return ProjPointQ(fa, gb)


def compose(outer: RationalMapQ, inner: RationalMapQ) -> RationalMapQ:
    """outer after inner; degree multiplies, pair stays coprime, content is re-reduced."""
    num, den = form_compose(outer.numerator.coeffs, outer.denominator.coeffs,
                            inner.numerator.coeffs, inner.denominator.coeffs)
    num_t, den_t = _canonical_pair(num, den)
    worst = max(max(abs(c) for c in num_t), max(abs(c) for c in den_t))
    if worst.bit_length() > COEFF_BITS:
        raise SizeBudgetExceededError(
            f"composed coefficients outgrew the {COEFF_BITS}-bit budget"
        )
    # Composition of valid maps is valid: a common root of the composite forms
    # would push down to a common root of the outer pair.
    deg = outer.degree * inner.degree
    return RationalMapQ(BinaryForm(deg, num_t), BinaryForm(deg, den_t), None)


def iterate(m: RationalMapQ, n: int) -> RationalMapQ:
    if n < 1:
        raise ValueError("iterate needs n >= 1")
    out = m
    for _ in range(n - 1):
        out = compose(m, out)
    return out


def is_polynomial(m: RationalMapQ) -> bool:
    """True iff the denominator form is c * Y^d, i.e. the map lies in Q[x] as written."""
    return all(c == 0 for c in m.denominator.coeffs[1:])


def second_iterate_is_polynomial(m: RationalMapQ) -> bool:
    return is_polynomial(iterate(m, 2))


def map_height(m: RationalMapQ) -> int:
    """Projective height H(phi) of the (2d+2)-tuple of coefficients: the largest |c|."""
    return max(map(abs, m.numerator.coeffs + m.denominator.coeffs))


def denominator_bound(m: RationalMapQ) -> tuple[int, int, int] | None:
    """(|c|, k, e) with k * |G(a, b)| >= |c| * H(a, b)^e at every coprime (a, b)
    where G(a, b) != 0, for G = c * g with g in TAIL_FORMS; None for any other G.

    (k, e) = _primitive_bound(g), for g = G / c the primitive part of G (c its
    content, of the sign of G's first nonzero coefficient). All three are
    integers, so callers compare without building the fraction |c| / k.
    """
    g = m.denominator.coeffs
    c = math.gcd(*g)
    if next(filter(None, g)) < 0:
        c = -c
    bound = _primitive_bound(tuple([x // c for x in g]))
    if bound is None:
        return None
    return (abs(c), *bound)


# Primitive denominators kept by _primitive_bound's memo. A sweep over one
# family meets few: the box of avg3 meets two, (1, 0, 1, 0) and (1, 0, 1).
PRIMITIVE_BOUND_MEMO = 256


@functools.lru_cache(maxsize=PRIMITIVE_BOUND_MEMO)
def _primitive_bound(g: tuple[int, ...]) -> tuple[int, int] | None:
    """(k, e) with |g(a, b)| >= H(a, b)^e / k at every coprime (a, b) where
    g(a, b) != 0, for a primitive g whose first nonzero coefficient is
    positive; None when TAIL_FORMS has no bound for g. Looked up once per g."""
    k = TAIL_FORMS.get(g)
    return None if k is None else (k, 2)


def hadamard_loss(m: RationalMapQ) -> int:
    """L' >= L, the constant of H(P)^d <= L * H(phi(P)), without a cofactor solve.

    L = 2d * M for M the largest cofactor coefficient (canonical.transition_constants),
    and each cofactor coefficient is a (2d-1)-minor of the Sylvester matrix,
    whose columns are d shifts of F and d of G. Hadamard's inequality bounds
    it by the product of the kept column norms, so with NF = |F|^2 and
    NG = |G|^2, M^2 <= NF^d * NG^d / min(NF, NG) and L' = 2d * (isqrt(...) + 1).
    """
    d = m.degree
    nf = sum(c * c for c in m.numerator.coeffs)
    ng = sum(c * c for c in m.denominator.coeffs)
    return 2 * d * (math.isqrt(nf**d * ng**d // min(nf, ng)) + 1)


def _root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1: math.isqrt for k = 2, else by
    integer Newton steps from above."""
    if k == 2:
        return math.isqrt(n)
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def trap_height(m: RationalMapQ) -> int | None:
    """The largest H with c * H^e <= k * |Res|, for (c, k, e) = denominator_bound(m);
    None when there is no such bound.

    The divisor trap with S = {}: if phi([a : b]) is integral, or if G(a, b)
    divides Res, then 0 < |G(a, b)| <= |Res|, so c * H(a, b)^e <= k * |Res|
    and H(a, b) <= trap_height(m).
    """
    bound = denominator_bound(m)
    if bound is None:
        return None
    c, k, e = bound
    return _root_floor(abs(m.resultant) * k // c, e)


def tail_threshold(m: RationalMapQ) -> int | None:
    """The least T with c * T^e > k * |Res| and T^(d-1) > hadamard_loss(m), for
    (c, k, e) = denominator_bound(m); None when there is no such bound.

    From an orbit point P with H(P) > T no later point is integral (S = {})
    and no cycle closes. P lies above trap_height(m), so phi(P) is not
    integral. And H(P)^d <= L * H(phi(P)) with H(P)^(d-1) > L' >= L
    gives H(phi(P)) > H(P), so heights rise strictly from P on: no later
    point repeats one, since a repeat would put P on a cycle.
    """
    trap = trap_height(m)
    if trap is None:
        return None
    growth = _root_floor(hadamard_loss(m), m.degree - 1) + 1
    return max(trap + 1, growth)


def random_map(rng, degree: int, coeff_bound: int = 9) -> RationalMapQ:
    """A random valid map of the given degree with coefficients in [-bound, bound]."""
    while True:
        num = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree + 1)]
        den = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree + 1)]
        try:
            return make_map(num, den)
        except (DegenerateMapError, DegreeDropError):
            continue


def random_coprime_pair(rng, bound: int = 50) -> tuple[int, int]:
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1:
            return a, b


def cofactor_certificates_check(seed: int = 0) -> "VerificationReport":
    """Both cofactor identities hold exactly for 50 random maps of degree 2..4,
    and gcd(F(a,b), G(a,b)) divides R on 100 random coprime pairs per map."""
    import random

    from .reports import CheckResult, VerificationReport

    rng = random.Random(seed)
    n_maps, n_pairs = 50, 100
    identity_bad = 0
    divisor_bad = 0
    for _ in range(n_maps):
        m = random_map(rng, rng.randint(2, 4))
        cert = cofactors(m)
        if not cert.verify(m):
            identity_bad += 1
            continue
        r = abs(cert.r)
        for _ in range(n_pairs):
            a, b = random_coprime_pair(rng)
            g = math.gcd(m.numerator(a, b), m.denominator(a, b))
            if g == 0 or r % g != 0:
                divisor_bad += 1
    return VerificationReport((
        CheckResult("cofactors.identities", identity_bad == 0,
                    f"{n_maps} random maps, {identity_bad} failures"),
        CheckResult("cofactors.gcd_divides_resultant", divisor_bad == 0,
                    f"{n_maps * n_pairs} coprime pairs, {divisor_bad} violations"),
    ))


VERIFICATION_CHECKS = {
    "cofactor_certificates": cofactor_certificates_check,
}
