"""Arithmetic over K = F_p(t): polynomial heights, S-integrality, and the
explicit self-map family (f+1) x^d / (x^(d-1) + f) with its checks.

Heights use the degree convention (log base q of the multiplicative height),
so every height in this module is an integer.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFamilyError, SizeBudgetExceededError
from .points import (DEFAULT_FF_HEIGHT_BUDGET, DEFAULT_N_CAP, OrbitRecord, Truncation,
                     by_population, check_b_values, is_prime, tally_by_height, walk_orbit)
from .polynomials import (FORM_KERNELS, MAX_EXPONENT, form_compose, form_mul, form_shape,
                          resultant_from_coeffs)
from .reports import CheckResult, VerificationReport

MAX_PRIME = 97
# Kronecker slot types, narrowest first: (array typecode, slot width in bytes).
_SLOTS = tuple((code, array(code).itemsize) for code in "BHIQ")


class FFPoly:
    """Dense univariate polynomial over F_p (p prime, p <= 97), exact mod-p arithmetic."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        self.p = p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, p: int, cs: list[int]) -> "FFPoly":
        """Wrap coefficients already in [0, p); only trailing zeros are trimmed."""
        while cs and cs[-1] == 0:
            cs.pop()
        out = cls.__new__(cls)
        out.p = p
        out.coeffs = tuple(cs)
        return out

    @classmethod
    def const(cls, p: int, c: int) -> "FFPoly":
        return cls(p, (c,))

    @classmethod
    def t_var(cls, p: int) -> "FFPoly":
        return cls(p, (0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "FFPoly") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: "FFPoly") -> "FFPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return FFPoly(self.p, out)

    def __neg__(self) -> "FFPoly":
        return FFPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "FFPoly") -> "FFPoly":
        return self + (-other)

    def __mul__(self, other) -> "FFPoly":
        if isinstance(other, int):
            return FFPoly(self.p, [c * other for c in self.coeffs])
        self._check(other)
        p, a, b = self.p, self.coeffs, other.coeffs
        if not a or not b:
            return FFPoly._reduced(p, [])
        # Kronecker substitution into the narrowest slot that holds every
        # convolution sum, so packing, the one big-int multiply and unpacking
        # all run in C; each slot is then reduced mod p once.
        bound = (p - 1) ** 2 * min(len(a), len(b))
        for code, width in _SLOTS:
            if bound < 1 << (8 * width):
                break
        else:
            raise OverflowError("F_p[t] product too long for 8-byte Kronecker slots")
        x = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
        # One object for a square lets the big-int multiply square.
        y = x if other is self else int.from_bytes(array(code, b).tobytes(), sys.byteorder)
        n = len(a) + len(b) - 1
        slots = memoryview((x * y).to_bytes(n * width, sys.byteorder)).cast(code)
        return FFPoly._reduced(p, [c % p for c in slots])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FFPoly":
        if n < 0:
            raise ValueError("negative power")
        out = FFPoly.const(self.p, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _long_division(self, other: "FFPoly", keep_quotient: bool) -> tuple[list[int], "FFPoly"]:
        """The quotient's coefficients (empty unless keep_quotient) and the
        remainder of self by other."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        inv_lead = pow(dv[-1], p - 2, p)
        # Only the divisor's nonzero lower terms touch the remainder, stored
        # negated so the update is an addition. Remainder slots are reduced
        # when read; the constructor reduces the final remainder.
        lower = [(j, p - d) for j, d in enumerate(dv[:dd]) if d]
        steps = max(len(rem) - dd, 0)
        quo = [0] * steps if keep_quotient else []
        for base in range(steps - 1, -1, -1):
            c = rem[base + dd] % p
            if c:
                q = c * inv_lead % p
                if keep_quotient:
                    quo[base] = q
                for j, nd in lower:
                    rem[base + j] += q * nd
        return quo, FFPoly(p, rem[:dd])

    def __divmod__(self, other: "FFPoly") -> tuple["FFPoly", "FFPoly"]:
        quo, rem = self._long_division(other, True)
        return FFPoly._reduced(self.p, quo), rem

    def __mod__(self, other: "FFPoly") -> "FFPoly":
        return self._long_division(other, False)[1]

    def exact_div(self, other: "FFPoly") -> "FFPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("not an exact division in F_p[t]")
        return q

    def monic(self) -> "FFPoly":
        if self.is_zero():
            return self
        inv = pow(self.leading(), self.p - 2, self.p)
        return self * inv

    def gcd(self, other: "FFPoly") -> "FFPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __eq__(self, other) -> bool:
        return isinstance(other, FFPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self) -> str:
        return format_ffpoly(self)

    __repr__ = __str__


def format_ffpoly(f: FFPoly) -> str:
    """Serialize as "c0+c1*t+c2*t^2" (zero terms dropped, zero polynomial as "0")."""
    if f.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(parts)


# One term of an F_p[t] literal: c, t, c*t, t^e or c*t^e, with c an optionally
# signed decimal integer and e decimal digits. A minus sign on e is matched
# only so that parse_ffpoly can refuse it as an exponent out of range.
_FF_TERM = re.compile(r"(?:([+-]?[0-9]+)|(?:([+-]?[0-9]+)\*)?t(?:\^(-?[0-9]+))?)", re.ASCII)


def parse_ffpoly(p: int, text: str) -> FFPoly:
    """The polynomial of a sum of _FF_TERM terms, exponents in [0, MAX_EXPONENT]."""
    text = text.replace(" ", "")
    if text == "0":
        return FFPoly(p, ())
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        if not term:
            raise ValueError("empty term in polynomial literal")
        match = _FF_TERM.fullmatch(term)
        if match is None:
            raise ValueError(f"bad term {term!r}")
        const, coef, exp = match.groups()
        if const is not None:
            c, e = int(const), 0
        else:
            c, e = int(coef or 1), int(exp or 1)
        if exp is not None and exp[0] == "-" or e > MAX_EXPONENT:
            raise ValueError(f"exponent {exp} outside [0, {MAX_EXPONENT}] in {term!r}")
        coeffs[e] = coeffs.get(e, 0) + c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return FFPoly(p, out)


def is_irreducible(f: FFPoly) -> bool:
    """Ben-Or's test: f of degree d is irreducible iff gcd(t^(p^i) - t, f) = 1 for
    every i <= d/2, as t^(p^i) - t is the product of the monic irreducibles of
    degree dividing i. Each t^(p^i) is the p-th power of the last, mod f."""
    d = f.degree()
    if d < 1:
        return False
    p = f.p
    t = FFPoly.t_var(p)
    x = t
    for _ in range(d // 2):
        y = FFPoly.const(p, 1)
        for bit in bin(p)[2:]:
            y = y * y % f
            if bit == "1":
                y = y * x % f
        x = y
        if not (x - t).gcd(f).is_constant():
            return False
    return True


@dataclass(frozen=True)
class FFRat:
    """u/v in F_p(t), or the point [u : v] of P^1(F_p(t)): u and v coprime with
    v monic, or [1 : 0], the point at infinity."""

    num: FFPoly
    den: FFPoly

    @staticmethod
    def make(num: FFPoly, den: FFPoly) -> "FFRat":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in F_p(t)")
        return normalize_ff_point(num, den)

    @classmethod
    def from_poly(cls, f: FFPoly) -> "FFRat":
        return cls(f, FFPoly.const(f.p, 1))

    @classmethod
    def constant(cls, p: int, c: int) -> "FFRat":
        return cls(FFPoly.const(p, c), FFPoly.const(p, 1))

    @property
    def p(self) -> int:
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def height(self) -> int:
        """max(deg u, deg v) with nonzero constants contributing degree 0."""
        return max(self.num.degree(), self.den.degree(), 0)

    def __str__(self) -> str:
        if self.den.is_one():
            return format_ffpoly(self.num)
        return f"({format_ffpoly(self.num)})/({format_ffpoly(self.den)})"


def normalize_ff_point(z0: FFPoly, z1: FFPoly) -> FFRat:
    if z0.is_zero() and z1.is_zero():
        raise ValueError("[0 : 0] is not a point")
    p = z0.p
    if z1.is_zero():
        return FFRat(FFPoly.const(p, 1), z1)
    g = z0.gcd(z1)
    if not g.is_constant():
        z0 = z0.exact_div(g)
        z1 = z1.exact_div(g)
    inv = pow(z1.leading(), p - 2, p)
    return FFRat(z0 * inv, z1 * inv)


def ff_infinity(p: int) -> FFRat:
    return FFRat(FFPoly.const(p, 1), FFPoly(p, ()))


def ff_is_s_integral(point: FFRat, s: Sequence[FFPoly]) -> bool:
    """True iff the denominator is nonzero and all its monic irreducible factors lie in S."""
    den = point.den
    if den.is_zero():
        return False
    for q in s:
        while den.degree() >= q.degree():
            quo, rem = divmod(den, q)
            if not rem.is_zero():
                break
            den = quo
    return den.is_constant()


def validate_s_set(s: Sequence[FFPoly]) -> None:
    """Raise ValueError at the first S member that is not monic irreducible.
    A repeated member is tested once."""
    for q in dict.fromkeys(s):
        if q.is_zero() or q.leading() != 1 or not is_irreducible(q):
            raise ValueError(f"S members must be monic irreducible; got {q}")


# ---------------------------------------------------------------------------
# Maps over F_p(t)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FFMap:
    """Degree-d self-map of P^1 over F_p(t), stored as cleared coprime forms over F_p[t].

    The evaluation shape of the pair is computed on first use and cached.
    """

    p: int
    degree: int
    num_forms: tuple[FFPoly, ...]
    den_forms: tuple[FFPoly, ...]
    res: FFPoly

    @functools.cached_property
    def shape(self) -> tuple[int, ...]:
        """polynomials.form_shape of the pair."""
        return form_shape(self.num_forms, self.den_forms)


def evaluate_ff(m: FFMap, point: FFRat) -> FFRat:
    """Apply the map exactly; the gcd divided out divides the resultant, so the
    common factor is located modulo the small resultant polynomial.

    gcd(F(z), G(z)) = gcd(F(z), G(z), Res), so after the division the pair is
    coprime and only the monic rescaling of a full normalization remains.
    """
    fa, gb = FORM_KERNELS[m.shape](m.num_forms, m.den_forms, point.num, point.den)
    r = m.res
    if not r.is_constant():
        g = r.gcd(fa % r)
        if not g.is_constant():
            g = g.gcd(gb % g)
        if not g.is_constant():
            fa = fa.exact_div(g)
            gb = gb.exact_div(g)
    p = m.p
    if gb.is_zero():
        return FFRat(FFPoly.const(p, 1), gb)
    inv = pow(gb.leading(), p - 2, p)
    return FFRat(fa * inv, gb * inv)


# ---------------------------------------------------------------------------
# The explicit family phi(f)(x) = (f+1) x^d / (x^(d-1) + f)
# ---------------------------------------------------------------------------


def ff_family_map(d: int, f: FFRat) -> FFMap:
    """Just the family map, without its checks (sweeps call this).

    With f = u/v (reduced, v monic) the cleared forms are F = (u+v) X^d and
    G = v X^(d-1) Y + u Y^d, of unit content as gcd(u, v) = 1, and
    Res(F, G) = ((u+v) u)^d: F is (u+v) times the d-fold root [0 : 1], where G is u.
    """
    if d < 2:
        raise ValueError("family degree must be >= 2")
    p = f.p
    u, v = f.num, f.den
    w = u + v
    if w.is_zero() or u.is_zero():
        raise DegenerateFamilyError("f in {0, -1} degenerates the family (Res = 0)")
    zero = FFPoly(p, ())
    return FFMap(p, d, (zero,) * d + (w,), (u,) + (zero,) * (d - 2) + (v, zero), (w * u) ** d)


def _fixes_zero_one_infinity(m: FFMap) -> bool:
    """True when m fixes 0, 1 and infinity, as every family map does."""
    p = m.p
    return all(evaluate_ff(m, pt) == pt
               for pt in (FFRat.constant(p, 0), FFRat.constant(p, 1), ff_infinity(p)))


def ff_family(d: int, f: FFRat, label: str) -> tuple[FFMap, VerificationReport]:
    """Build phi(f)(x) = (f+1) x^d / (x^(d-1) + f) with its six checks, each
    named label.<check>.

    f = -1 and f = 0 are degenerate (the resultant vanishes).
    """
    m = ff_family_map(d, f)
    p = f.p
    u, v = f.num, f.den
    w = u + v
    zero = FFPoly(p, ())
    # The identities run on the cleared forms F = w X^d, G = v X^(d-1) Y + u Y^d,
    # which are v times the displayed pair; a form's coefficient list, read with
    # Y = 1, is the x-polynomial.
    num, den = m.num_forms, m.den_forms

    def degree(form: Sequence[FFPoly]) -> int:
        return max((i for i, c in enumerate(form) if not c.is_zero()), default=-1)

    # The formal derivative F'G - FG' against v^2 times the closed form
    # (f+1) x^(d-2) (x^d + d f x), that is w x^(d-2) (v x^d + d u x).
    num_deriv = [c * i for i, c in enumerate(num)][1:]
    den_deriv = [c * i for i, c in enumerate(den)][1:]
    deriv_num = [a - b for a, b in zip(form_mul(num_deriv, den), form_mul(num, den_deriv))]
    expected = [zero] * (2 * d)
    expected[d - 1] = w * u * d
    expected[2 * d - 2] = w * v

    # The direct second iterate: degrees, non-polynomiality, scalar vs the displayed pair.
    comp_num, comp_den = form_compose(num, den, num, den)
    deg_ok = degree(comp_num) == d * d and degree(comp_den) == d * d - 1
    # A nonzero resultant leaves no common factor, so the pair is already reduced.
    not_poly = (not resultant_from_coeffs(comp_num, comp_den, d * d).is_zero()
                and degree(comp_den) >= 1)
    # displayed pair: (f+1) x^(d^2) over (f+1)^(d-1) x^(d(d-1)) (x^(d-1)+f) + f (x^(d-1)+f)^d.
    # Times v^(d+1), with D = v (x^(d-1) + f): v^d w x^(d^2) over
    # v w^(d-1) x^(d(d-1)) D + u D^d. The composition is that times (w^d / v^d, 1).
    wd, vd = w ** d, v ** d
    disp_d = [u] + [zero] * (d - 2) + [v, zero]
    disp_num = [zero] * (d * d) + [vd * w]
    disp_den = [v * w ** (d - 1) * a + u * b
                for a, b in zip([zero] * (d * (d - 1)) + disp_d,
                                functools.reduce(form_mul, [disp_d] * d))]
    scalar_matches = (comp_den == disp_den
                      and [vd * c for c in comp_num] == [wd * c for c in disp_num])
    return m, VerificationReport((
        CheckResult(f"{label}.fixed_points", _fixes_zero_one_infinity(m), "0, 1, infinity fixed"),
        CheckResult(f"{label}.derivative", deriv_num == expected,
                    "formal x-derivative matches the closed form"),
        CheckResult(f"{label}.separable", degree(deriv_num) >= 0, "derivative nonzero"),
        CheckResult(f"{label}.second_iterate_degrees", deg_ok,
                    "numerator degree d^2, denominator degree d^2 - 1"),
        CheckResult(f"{label}.second_iterate_not_polynomial", not_poly,
                    "reduced denominator nonconstant"),
        CheckResult(f"{label}.second_iterate_scalar", scalar_matches,
                    f"direct composition = ({FFRat.make(wd, vd)}) * displayed pair"),
    ))


# ---------------------------------------------------------------------------
# Orbits and the function-field average experiment
# ---------------------------------------------------------------------------

# enumerate_ff_elements(p, B) visits (p^(B+1) - 1)/(p - 1) monic denominators
# times p^(B+1) numerators and refuses more pairs than this (B > 8 at p = 2).
# The largest README, acceptance and bench input, p = 2 and B = 4, visits
# 992: 1008x headroom.
FF_ENUMERATION_LIMIT = 10**6
# ff_orbit_avg refuses a family degree above this, as parsing.MAX_DEGREE bounds
# Q maps: each family map holds length-d forms and ((u+v) u)^d. The largest
# README, golden, test or bench degree is 7; at this limit, p = 2 and B = 4
# take ~1.2 s.
FF_DEGREE_LIMIT = 64


def ff_scan_orbit(m: FFMap, b: FFRat, s: Sequence[FFPoly],
                  n_cap: int = DEFAULT_N_CAP,
                  height_budget: int = DEFAULT_FF_HEIGHT_BUDGET,
                  count_only: bool = False) -> OrbitRecord:
    """points.walk_orbit of b under m, cut where a degree passes height_budget.

    Before evaluating a point P the walk applies the certified lower bound
    h(phi(P)) >= d*h(P) - C with C = (2d-1)*D, where D is the largest
    coefficient degree of F and G. Proof: A*F + B*G = Res*X^(2d-1) and
    A'*F + B'*G = Res*Y^(2d-1) with cofactors of degree d-1 whose
    coefficients are (2d-1)-minors of the Sylvester matrix, so of degree at
    most C. At coprime (z0, z1) of height h one right-hand side has degree
    deg Res + (2d-1)*h, so max(deg F(z), deg G(z)) >= d*h + deg Res - C.
    The gcd that evaluate_ff divides out divides Res, so h(phi(P)) >= d*h - C.

    Every stored point but b has height <= height_budget. So a next point
    certified above cut = max(height_budget, h(b)), that is d*h(P) - C > cut
    or h(P) > (cut + C) // d, is not yet stored and is over the budget:
    evaluating it would only end the walk with the same record. A point
    evaluated is kept only if its height is within height_budget.

    A count_only scan with S = {} of a degree-2 map with G = Y (vX + uY),
    v != 0 (the ffavg family, f = u/v), also stops, as CERTIFIED_TAIL, before
    stepping from a point of height over max(deg Res + deg u, C). Where
    G(z) != 0, h(P) <= deg G(z) + deg u: vz0 and uz1 cancel in degree only
    when deg z0 = deg z1 + deg u - deg v. An integral phi(P) needs
    deg G(z) <= deg Res, as G(z) / gcd is a unit and the gcd divides Res; and
    h(phi(P)) >= 2h - C > h past C, so heights rise strictly and no cycle
    closes. The record then has the whole orbit's integral points. The
    walk never hands off.
    """
    d = m.degree
    c = (2 * d - 1) * max(poly.degree() for poly in m.num_forms + m.den_forms)
    pre_limit = (max(height_budget, b.height()) + c) // d
    tail_limit = pre_limit
    if count_only and not s and d == 2:
        u, v, y2 = m.den_forms
        if y2.is_zero() and not v.is_zero():
            tail_limit = max(m.res.degree() + max(u.degree(), 0), c)
    return walk_orbit(functools.partial(evaluate_ff, m), FFRat.height, b, n_cap,
                      pre_limit, height_budget, lambda pt: ff_is_s_integral(pt, s),
                      tail_limit, None)


def enumerate_ff_elements(p: int, bound: int) -> list[FFRat]:
    """All non-constant reduced u/v in F_p(t) with max(deg u, deg v) <= bound, v monic.

    Ordered deterministically by (height, denominator coeffs, numerator coeffs).
    A bound with more than FF_ENUMERATION_LIMIT (v, u) pairs to visit is
    refused before any is built.
    """
    # p^(B+1) polynomials of degree <= B, (p^(B+1) - 1)/(p - 1) of them monic.
    # Past B = 64 the count alone would be a huge integer; it is over the
    # limit at any p, so the count at 64 is named instead.
    height = min(bound, 64)
    polys = p ** (height + 1)
    pairs = (polys - 1) // (p - 1) * polys
    if pairs > FF_ENUMERATION_LIMIT:
        more = "more than " if height < bound else ""
        raise SizeBudgetExceededError(
            f"enumerating F_{p}(t) up to height {bound} visits {more}{pairs} "
            f"(denominator, numerator) pairs, over the limit of {FF_ENUMERATION_LIMIT}"
        )
    out = []
    numerators = [FFPoly(p, coeffs) for n in range(bound + 2)
                  for coeffs in itertools.product(range(p), repeat=n)
                  if n == 0 or coeffs[-1] != 0]
    for dv in range(bound + 1):
        for lower in itertools.product(range(p), repeat=dv):
            v = FFPoly(p, list(lower) + [1])
            for u in numerators:
                if not u.gcd(v).is_constant():
                    continue
                f = FFRat(u, v)
                if f.is_constant():
                    continue
                out.append(f)
    out.sort(key=lambda f: (f.height(), f.den.coeffs, f.num.coeffs))
    return out


@dataclass(frozen=True)
class FFAvgReport:
    b_values: tuple[int, ...]
    population: tuple[int, ...]
    totals: tuple[int, ...]
    averages: tuple[float | None, ...]
    truncated_fractions: tuple[float | None, ...]


def ff_orbit_avg(p: int, d: int, beta_coeffs: Sequence[int], s: Sequence[FFPoly],
                 b_values: Sequence[int], n_cap: int = DEFAULT_N_CAP) -> FFAvgReport:
    """Average S-integral orbit count of beta(f) under phi(f), over non-constant f,
    each orbit cut at the height budget DEFAULT_FF_HEIGHT_BUDGET.

    beta is a polynomial in f given by its integer coefficients mod p; its
    degree must strictly exceed (2d-1)/(d-1). f = -1 and f = 0 never enter
    the population (both are constants).
    """
    if not is_prime(p) or p > MAX_PRIME:
        raise ValueError(f"p must be a prime <= {MAX_PRIME}")
    if d < 2:
        raise ValueError("d must be >= 2")
    if d > FF_DEGREE_LIMIT:
        raise SizeBudgetExceededError(f"a family degree of {d} is over the limit of "
                                      f"{FF_DEGREE_LIMIT}")
    beta = [c % p for c in beta_coeffs]
    while beta and beta[-1] == 0:
        beta.pop()
    beta_deg = len(beta) - 1
    if beta_deg * (d - 1) <= 2 * d - 1:
        raise ValueError("beta degree must strictly exceed (2d-1)/(d-1)")
    validate_s_set(s)
    bs = check_b_values(b_values)

    # beta(f) is the form B = sum beta_i X^i Y^(deg - i) at (u, v), for f = u/v.
    # [B(u, v) : v^deg] is already normalized: v^deg is monic, and
    # B(u, v) = beta_deg u^deg mod v with beta_deg != 0 and gcd(u, v) = 1.
    beta_kernel = FORM_KERNELS[form_shape(beta)]
    rows = []
    for f in enumerate_ff_elements(p, bs[-1]):
        m = ff_family_map(d, f)
        basepoint = FFRat(beta_kernel(beta, f.num, f.den), f.den ** beta_deg)
        rec = ff_scan_orbit(m, basepoint, s, n_cap=n_cap,
                            height_budget=DEFAULT_FF_HEIGHT_BUDGET, count_only=True)
        rows.append((f.height(), len(rec.integral_indices),
                     rec.truncation is not Truncation.COMPLETED))
    population, totals, truncated = tally_by_height(bs, rows, (operator.add, operator.add))
    return FFAvgReport(bs, population, totals, *by_population(population, totals, truncated))


def ff_family_verification(seed: int = 0) -> VerificationReport:
    """Fixed points for random non-constant f over F_2 and F_3, plus ff_family's
    symbolic checks at the transcendental specialization f = t for d = 2, 3."""
    import random

    rng = random.Random(seed)
    checks: list[CheckResult] = []
    for p in (2, 3):
        ok = True
        for _ in range(20):
            deg_u = rng.randint(1, 3)
            u = FFPoly(p, [rng.randrange(p) for _ in range(deg_u)] + [rng.randrange(1, p)])
            v = FFPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [1])
            f = FFRat.make(u, v)
            if f.is_constant():
                f = FFRat.from_poly(FFPoly.t_var(p))
            ok = ok and _fixes_zero_one_infinity(ff_family_map(2, f))
        checks.append(CheckResult(f"ff_family.fixed_points_random_f[p={p}]", ok,
                                  "20 random non-constant f, d = 2"))
    for p, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        f = FFRat.from_poly(FFPoly.t_var(p))
        checks.extend(ff_family(d, f, f"ff_family[p={p},d={d}]")[1].checks)
    return VerificationReport(tuple(checks))
