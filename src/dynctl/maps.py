"""Rational self-maps of P^1 over Q as pairs of integer binary forms.

Evaluation, Sylvester resultants, cofactor certificates, polynomial and
second-iterate detection, and coefficient height.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateMapError, DegreeDropError
from .points import ProjPointQ
from .polynomials import (FORM_KERNELS, bareiss, form_mul, form_shape, resultant_from_coeffs,
                          sylvester_matrix)

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

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
    coefficient down, is positive). Constructed only by make_map, which
    computes Res(F, G) and the orbit scan's constants. The cofactor
    certificate and the evaluation shape of the pair are cached on the map
    on first use; all of these travel with the map when pickled.
    """

    numerator: BinaryForm
    denominator: BinaryForm
    resultant: int = field(repr=False, compare=False)
    # The orbit scan's constants (step_bits, tail_bits, switch_bits, lam); see make_map.
    scan: tuple[int, int | None, int | None, int] = field(repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.numerator.degree

    @functools.cached_property
    def certificate(self) -> "CofactorCertificate":
        """The verified cofactor certificate, solved by cofactors()."""
        return cofactors(self)

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """polynomials.form_shape of (F, G)."""
        return form_shape(self.numerator.coeffs, self.denominator.coeffs)

    @property
    def height(self) -> int:
        """Projective height H(phi) of the (2d+2)-tuple of coefficients: the largest |c|."""
        return _height(self.numerator.coeffs, self.denominator.coeffs)


def _height(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    return max(map(abs, f + g))


def _canonical_pair(num: Sequence[int],
                    den: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Divide out the pair content and fix the sign convention; also return
    the content divided out, of the sign that fixed it."""
    content = math.gcd(*num, *den)
    lead = next(filter(None, reversed(num)), 0) or next(filter(None, reversed(den)), 0)
    if lead < 0:
        content = -content
    if content in (0, 1):
        return tuple(num), tuple(den), content
    return tuple([c // content for c in num]), tuple([c // content for c in den]), content


def make_map(num_coeffs: Sequence[int], den_coeffs: Sequence[int],
             resultant: int | None = None) -> RationalMapQ:
    """Build a validated map from ascending coefficient sequences of length d+1.

    `resultant`, if given, must be Res(F, G) of the pair exactly as passed; it
    replaces the Sylvester determinant. Dividing out the content c divides it
    by c^(2d) exactly, since Res(cF, cG) = c^(2d) Res(F, G), and the sign fix
    leaves it unchanged.

    The map's `scan` is the orbit scan's constants (step_bits, tail_bits,
    switch_bits, lam), from the canonical pair and Res:
    - step_bits = bits(H(phi)) + bits(d+1) + 1: each coordinate of phi(P)
      has fewer than d * bits(P) + step_bits bits, as |F(a, b)|, |G(a, b)|
      <= (d+1) H(phi) H(P)^d;
    - lam = bits(L') for L' = hadamard_loss(F, G) >= L, so that
      H(P)^d <= L' * H(phi(P)) with L' < 2^lam;
    - switch_bits = ceil(lam / (d-1)) + 1: past it heights rise strictly,
      as H(P)^(d-1) > L'; None for d = 1;
    - tail_bits = bits(tail_threshold(G, Res, L')), so a point with more
      bits is above the threshold; None when the map has none.
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
    f, g, content = _canonical_pair(num, den)
    if resultant is None:
        res = resultant_from_coeffs(f, g, d)
    else:
        res = resultant // content ** (2 * d)
    if res == 0:
        raise DegenerateMapError("the defining forms share a projective root (Res = 0)")
    loss = hadamard_loss(f, g)
    lam = loss.bit_length()
    tail = tail_threshold(g, res, loss)
    scan = (_height(f, g).bit_length() + (d + 1).bit_length() + 1,
            None if tail is None else tail.bit_length(),
            None if d == 1 else -(-lam // (d - 1)) + 1, lam)
    return RationalMapQ(BinaryForm(f), BinaryForm(g), res, scan)


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
    """Solve the Sylvester system for both cofactor identities, then re-verify symbolically.

    The right-hand exponent forced by homogeneity is D = 2d-1 (degree d-1
    cofactors against degree d forms); the realized exponent is stored.
    Row k of the transposed Sylvester matrix is the coefficient of X^(D-k)
    in p*F + q*G, and its columns are the coefficients of p, then of q, from
    the top down. One elimination against the unit columns for X^D and Y^D
    gives y = det * M^-1 e, and det M = Res, so the halves of each y,
    reversed, are the cofactors.
    Always solves afresh; RationalMapQ.certificate caches one result per map.
    """
    d = m.degree
    big = 2 * d
    transpose = list(zip(*sylvester_matrix(m.numerator.coeffs, m.denominator.coeffs, d)))
    units = [[int(i == k) for i in range(big)] for k in (0, big - 1)]
    det, solutions = bareiss(transpose, units)
    p1, q1, p2, q2 = (BinaryForm(tuple(half[::-1])) for y in solutions for half in (y[:d], y[d:]))
    cert = CofactorCertificate(p1, q1, p2, q2, det, big - 1)
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
    r = m.resultant
    if r in (1, -1):
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


def is_polynomial(m: RationalMapQ) -> bool:
    """True iff the denominator form is c * Y^d, i.e. the map lies in Q[x] as written."""
    return all(c == 0 for c in m.denominator.coeffs[1:])


def second_iterate_is_polynomial(m: RationalMapQ) -> bool:
    """True iff phi^2 lies in Q[x], read from the shape of phi in O(d) integer steps.

    (phi^2)^-1(inf) = phi^-1(roots of G) is {inf} iff G has one root r and
    phi^-1(r) = {inf}. G = c * Y^d has the one root inf. A G with g_d = 0 and
    another term has the roots inf and a second one. Otherwise G has one root
    iff G * b^d = g_d * (bX - aY)^d, for a = -g_(d-1) and b = d * g_d, the
    root then being r = a / b; and phi^-1(r) is the root set of bF - aG,
    which is {inf} iff bF - aG has no X^i term for i >= 1.
    """
    if is_polynomial(m):
        return True
    f, g = m.numerator.coeffs, m.denominator.coeffs
    d = m.degree
    if g[d] == 0:
        return False
    a, b = -g[d - 1], d * g[d]
    bd = b**d
    return (all(g[i] * bd == g[d] * math.comb(d, i) * b**i * (-a) ** (d - i) for i in range(d + 1))
            and not any(b * x - a * y for x, y in zip(f[1:], g[1:])))


def denominator_bound(g: Sequence[int]) -> tuple[int, int] | None:
    """(|c|, k) with k * |G(a, b)| >= |c| * H(a, b)^2 at every coprime (a, b)
    where G(a, b) != 0, for the denominator form G = c * g, by ascending
    coefficients, with g in TAIL_FORMS; None for any other G.

    c is G's content, of the sign of G's first nonzero coefficient, so
    g = G / c is primitive with a positive first nonzero coefficient, as the
    keys of TAIL_FORMS are. Both are integers, so callers compare without
    building the fraction |c| / k.
    """
    c = math.gcd(*g)
    if next(filter(None, g)) < 0:
        c = -c
    k = TAIL_FORMS.get(tuple([x // c for x in g]))
    return None if k is None else (abs(c), k)


def hadamard_loss(f: Sequence[int], g: Sequence[int]) -> int:
    """L' >= L, the constant of H(P)^d <= L * H(phi(P)) for phi = [F : G]
    given by ascending coefficients, without a cofactor solve.

    L = 2d * M for M the largest cofactor coefficient (canonical.transition_constants),
    and each cofactor coefficient is a (2d-1)-minor of the Sylvester matrix,
    whose columns are d shifts of F and d of G. Hadamard's inequality bounds
    it by the product of the kept column norms, so with NF = |F|^2 and
    NG = |G|^2, M^2 <= NF^d * NG^d / min(NF, NG) and L' = 2d * (isqrt(...) + 1).
    """
    d = len(f) - 1
    nf = sum(map(operator.mul, f, f))
    ng = sum(map(operator.mul, g, g))
    return 2 * d * (math.isqrt(nf**d * ng**d // min(nf, ng)) + 1)


def trap_height(g: Sequence[int], res: int) -> int | None:
    """The largest H with c * H^2 <= k * |Res|, for the denominator form G,
    the resultant Res and (c, k) = denominator_bound(G); None when there is
    no such bound.

    The divisor trap with S = {}: if phi([a : b]) is integral, or if G(a, b)
    divides Res, then 0 < |G(a, b)| <= |Res|, so c * H(a, b)^2 <= k * |Res|
    and H(a, b) <= trap_height(G, Res).
    """
    bound = denominator_bound(g)
    if bound is None:
        return None
    c, k = bound
    return math.isqrt(abs(res) * k // c)


def tail_threshold(g: Sequence[int], res: int, loss: int) -> int | None:
    """The least T with c * T^2 > k * |Res| and T^(d-1) > loss, for the
    denominator form G of degree d, the resultant Res, loss = hadamard_loss(F, G)
    and (c, k) = denominator_bound(G); None when there is no such bound.

    From an orbit point P with H(P) > T no later point is integral (S = {})
    and no cycle closes. P lies above trap_height(G, Res), so phi(P) is not
    integral. And H(P)^d <= L * H(phi(P)) with H(P)^(d-1) > L' >= L
    gives H(phi(P)) > H(P), so heights rise strictly from P on: no later
    point repeats one, since a repeat would put P on a cycle. The keys of
    TAIL_FORMS have degree 2 or 3, so the least T with T^(d-1) > L' is
    L' + 1 or isqrt(L') + 1.
    """
    trap = trap_height(g, res)
    if trap is None:
        return None
    growth = (loss if len(g) == 3 else math.isqrt(loss)) + 1
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
