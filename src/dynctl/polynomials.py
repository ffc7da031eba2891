"""Exact multivariate integer polynomials and fraction-free linear algebra.

These are the workhorses behind symbolic family coefficients, Sylvester
resultants (over Z and over Z[params]), and cofactor solving.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence


class IntPoly:
    """Immutable sparse polynomial over Z in a fixed ordered tuple of variables.

    terms maps exponent tuples to nonzero integer coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: Mapping[tuple[int, ...], int]):
        self.vars = tuple(variables)
        self.terms = {tuple(e): int(c) for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: int, variables: tuple[str, ...] = ()) -> "IntPoly":
        zero = (0,) * len(variables)
        return cls(variables, {zero: c} if c else {})

    @classmethod
    def var(cls, name: str, variables: tuple[str, ...]) -> "IntPoly":
        e = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise ValueError(f"{name!r} not among {variables}")
        return cls(variables, {e: 1})

    def restrict_vars(self, variables: tuple[str, ...]) -> "IntPoly":
        """Drop variables that never occur; raises if a used variable is dropped."""
        used = self.used_vars()
        missing = used - set(variables)
        if missing:
            raise ValueError(f"cannot drop used variables {sorted(missing)}")
        idx = [self.vars.index(v) for v in variables]
        terms = {tuple(e[i] for i in idx): c for e, c in self.terms.items()}
        return IntPoly(variables, terms)

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def const_value(self) -> int:
        if not self.terms:
            return 0
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient(self, exponents: tuple[int, ...]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def content(self) -> int:
        return math.gcd(*self.terms.values()) if self.terms else 0

    def used_vars(self) -> set[str]:
        used = set()
        for e in self.terms:
            for v, k in zip(self.vars, e):
                if k:
                    used.add(v)
        return used

    # -- ring operations ------------------------------------------------

    def _check(self, other: "IntPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other, self.vars)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_const() and self.const_value() == other
        return isinstance(other, IntPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises ValueError when other does not divide self."""
        if isinstance(other, int):
            other = IntPoly.const(other, self.vars)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lt_e = max(other.terms)
        lt_c = other.terms[lt_e]
        rem = dict(self.terms)
        quo: dict[tuple[int, ...], int] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            de = tuple(a - b for a, b in zip(e, lt_e))
            if any(k < 0 for k in de):
                raise ValueError("not an exact polynomial division")
            q, r = divmod(c, lt_c)
            if r:
                raise ValueError("not an exact polynomial division")
            quo[de] = quo.get(de, 0) + q
            for oe, oc in other.terms.items():
                ne = tuple(a + b for a, b in zip(de, oe))
                nc = rem.get(ne, 0) - q * oc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return IntPoly(self.vars, quo)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, values: Mapping[str, int | Fraction]):
        """Evaluate at exact values; returns int when all inputs are int."""
        missing = self.used_vars() - set(values)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(self.vars, e):
                if k:
                    term *= values[v] ** k
            total += term
        return total

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Fraction-free linear algebra
# ---------------------------------------------------------------------------


def _is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def _exact_div(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise ValueError("not an exact integer division")
    return q


def bareiss_determinant(matrix: Sequence[Sequence]):
    """Exact determinant over Z or Z[vars] by Bareiss fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    zero = m[0][0] * 0
    sign = 1
    prev = None  # None stands for the ring's one (skip the division)
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else _exact_div(num, prev)
            m[i][k] = zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]) -> list[Fraction]:
    """Solve a nonsingular integer system exactly over Q by Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[k], m[pivot] = m[pivot], m[k]
        pk = m[k][k]
        for i in range(n):
            if i != k and m[i][k] != 0:
                factor = m[i][k] / pk
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return [m[i][n] / m[i][i] for i in range(n)]


def sylvester_matrix(f_coeffs: Sequence, g_coeffs: Sequence, deg_f: int, deg_g: int) -> list[list]:
    """Sylvester matrix of two polynomials given by ascending coefficients.

    Coefficient sequences are padded with zeros up to the stated degrees, so
    binary forms of equal degree d can be passed directly with deg_f = deg_g = d.
    """
    sample = f_coeffs[0]
    zero = sample * 0
    f = list(f_coeffs) + [zero] * (deg_f + 1 - len(f_coeffs))
    g = list(g_coeffs) + [zero] * (deg_g + 1 - len(g_coeffs))
    f_desc = f[::-1]
    g_desc = g[::-1]
    n = deg_f + deg_g
    rows = []
    for i in range(deg_g):
        rows.append([zero] * i + f_desc + [zero] * (n - deg_f - 1 - i))
    for i in range(deg_f):
        rows.append([zero] * i + g_desc + [zero] * (n - deg_g - 1 - i))
    return rows


def resultant_from_coeffs(f_coeffs: Sequence, g_coeffs: Sequence, degree: int):
    """Resultant of two degree-`degree` binary forms from ascending coefficients."""
    if degree < 1:
        raise ValueError("resultant needs degree >= 1")
    return bareiss_determinant(sylvester_matrix(f_coeffs, g_coeffs, degree, degree))


# ---------------------------------------------------------------------------
# Binary-form coefficient lists over an arbitrary commutative ring
# ---------------------------------------------------------------------------


def form_eval(coeffs: Sequence, a, b):
    """Value at (a, b) of the form with ascending coefficients: sum c_i a^i b^(d-i).

    Horner in a with the powers of b folded in on the way down; the powers
    start at b itself, so the ring needs no one.
    """
    val = coeffs[-1]
    if len(coeffs) == 1:
        return val
    bpow = b
    for i in range(len(coeffs) - 2, 0, -1):
        val = val * a + coeffs[i] * bpow
        bpow = bpow * b
    return val * a + coeffs[0] * bpow


def form_mul(a: Sequence, b: Sequence) -> list:
    """Coefficient convolution of two forms given by ascending coefficient lists."""
    zero = a[0] * 0
    out = [zero] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if _is_zero(ci):
            continue
        for j, cj in enumerate(b):
            out[i + j] = out[i + j] + ci * cj
    return out


def form_compose(outer_num: Sequence, outer_den: Sequence,
                 inner_f: Sequence, inner_g: Sequence) -> tuple[list, list]:
    """Raw composition of form pairs: substitute (inner_f, inner_g) into both outer forms.

    All sequences are ascending coefficient lists; the outer pair has degree
    d_out = len - 1 and the result has degree d_out * d_in. No content
    reduction or sign canonicalization is applied.
    """
    d_out = len(outer_num) - 1
    zero = inner_f[0] * 0
    f_pows: dict[int, list] = {1: list(inner_f)}
    g_pows: dict[int, list] = {1: list(inner_g)}
    for k in range(2, d_out + 1):
        f_pows[k] = form_mul(f_pows[k - 1], inner_f)
        g_pows[k] = form_mul(g_pows[k - 1], inner_g)
    deg = d_out * (len(inner_f) - 1)
    num = [zero] * (deg + 1)
    den = [zero] * (deg + 1)
    for i in range(d_out + 1):
        a_i = outer_num[i]
        b_i = outer_den[i]
        if _is_zero(a_i) and _is_zero(b_i):
            continue
        if i == 0:
            prod = g_pows[d_out]
        elif i == d_out:
            prod = f_pows[d_out]
        else:
            prod = form_mul(f_pows[i], g_pows[d_out - i])
        for k, c in enumerate(prod):
            num[k] = num[k] + a_i * c
            den[k] = den[k] + b_i * c
    return num, den
