"""Exact multivariate integer polynomials and fraction-free linear algebra.

These are the workhorses behind symbolic family coefficients, Sylvester
resultants (over Z and over Z[params]), and the cofactor solve.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

# The largest exponent the map grammar and parse_ffpoly accept.
MAX_EXPONENT = 64


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


def bareiss(matrix: Sequence[Sequence], columns: Sequence[Sequence] = ()) -> tuple[object, list[list]]:
    """Bareiss fraction-free elimination of M | b_1 ... b_k over Z or Z[vars].

    Returns det M and, for each column b, y = det M * M^-1 b. The forward pass
    keeps each entry a minor of M | b, so its divisions are exact. Back
    substitution solves U y = det M * u for the reduced triangle U and column
    u; its solution is integral by Cramer's rule, so those divisions are exact
    too. A singular M has determinant zero, and no solution: with columns it
    raises ValueError.
    """
    n = len(matrix)
    m = [list(row) + [col[i] for col in columns] for i, row in enumerate(matrix)]
    width = len(m[0])
    det = zero = m[0][0] * 0
    sign = 1
    prev = None  # None stands for the ring's one (skip the division)
    for k in range(n):
        pivot = next((i for i in range(k, n) if not _is_zero(m[i][k])), None)
        if pivot is None:
            break
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else _exact_div(num, prev)
        prev = m[k][k]
    else:
        det = prev if sign == 1 else -prev
    if not columns:
        return det, []
    if _is_zero(det):
        raise ValueError("singular system")
    solutions = []
    for c in range(n, width):
        y = [zero] * n
        for i in range(n - 1, -1, -1):
            s = det * m[i][c]
            for j in range(i + 1, n):
                s = s - m[i][j] * y[j]
            y[i] = _exact_div(s, m[i][i])
        solutions.append(y)
    return det, solutions


def sylvester_matrix(f_coeffs: Sequence, g_coeffs: Sequence, degree: int) -> list[list]:
    """Sylvester matrix of two degree-`degree` binary forms given by ascending
    coefficients: `degree` shifted rows of each form's descending coefficients."""
    zero = f_coeffs[0] * 0
    rows = []
    for coeffs in (f_coeffs, g_coeffs):
        desc = list(coeffs[::-1])
        for i in range(degree):
            rows.append([zero] * i + desc + [zero] * (degree - 1 - i))
    return rows


def resultant_from_coeffs(f_coeffs: Sequence, g_coeffs: Sequence, degree: int):
    """Resultant of two degree-`degree` binary forms from ascending coefficients."""
    if degree < 1:
        raise ValueError("resultant needs degree >= 1")
    return bareiss(sylvester_matrix(f_coeffs, g_coeffs, degree))[0]


def gcd_degree(f_coeffs: Sequence[int], g_coeffs: Sequence[int]) -> int:
    """The degree of gcd(f, g) in Q[t] for integer polynomials given by
    ascending coefficients; -1 when both are zero.

    Forms of degree e = max(deg f, deg g) built from f and g share no root
    at infinity, so their resultant is zero exactly when this degree is
    positive. The primitive pseudo-remainder sequence decides that in
    O(e^2) integer operations, its members being primitive parts of
    subresultants, where resultant_from_coeffs eliminates a 2e x 2e matrix.
    """
    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    f, g = trim(f_coeffs), trim(g_coeffs)
    while g:
        lead = g[-1]
        while len(f) >= len(g):
            top, shift = f[-1], len(f) - len(g)
            f = [x * lead for x in f]
            for i, y in enumerate(g):
                f[i + shift] -= top * y
            f = trim(f)
        content = math.gcd(*f)
        f, g = g, [x // content for x in f] if content > 1 else f
    return len(f) - 1


# ---------------------------------------------------------------------------
# Binary-form coefficient lists over an arbitrary commutative ring
# ---------------------------------------------------------------------------


def form_shape(*forms: Sequence) -> tuple[int, ...]:
    """The evaluation shape of forms of one degree d: (d, mask_1, mask_2, ...).

    Bit i of mask_k is set when form k has a nonzero coefficient of X^i Y^(d-i).
    Only this tuple of ints selects an evaluation kernel in FORM_KERNELS.
    """
    shape = [len(forms[0]) - 1]
    for form in forms:
        mask = 0
        for i, c in enumerate(form):
            if not _is_zero(c):
                mask |= 1 << i
        shape.append(mask)
    return tuple(shape)


def _power_lines(var: str, exponents) -> list[str]:
    """Statements binding var<e> = var1^e for each needed e, each power once:
    an even power squares the half power, an odd one multiplies by var1."""
    lines: list[str] = []
    done = {1}

    def need(e: int) -> None:
        if e in done:
            return
        if e % 2:
            need(e - 1)
            lines.append(f"{var}{e} = {var}{e - 1} * {var}1")
        else:
            need(e // 2)
            lines.append(f"{var}{e} = {var}{e // 2} * {var}{e // 2}")
        done.add(e)

    for e in sorted(exponents):
        need(e)
    return lines


def _kernel_source(shape: tuple[int, ...]) -> str:
    """Straight-line source evaluating every form of a shape at (a1, b1).

    Each form is a sparse Horner in a over its nonzero terms, from the top:
    v = v * a^gap + c_i * b^(d-i), one statement per term (so no expression
    nests deeper as d grows), then v * a^i at the lowest index i. The forms
    share the powers of a and b. A form with no nonzero term returns its
    (zero) constant coefficient. Only ring + and * are used, and the powers
    start at a and b themselves, so the ring needs no one.
    """
    d = shape[0]
    a_exps: set[int] = set()
    b_exps: set[int] = set()
    body: list[str] = []

    def term(k: int, i: int) -> str:
        if i == d:
            return f"c{k}[{i}]"
        b_exps.add(d - i)
        return f"c{k}[{i}] * b{d - i}"

    for k, mask in enumerate(shape[1:]):
        idx = [i for i in range(d, -1, -1) if mask >> i & 1]
        if not idx:
            body.append(f"v{k} = c{k}[0]")
            continue
        body.append(f"v{k} = {term(k, idx[0])}")
        for hi, lo in zip(idx, idx[1:]):
            a_exps.add(hi - lo)
            body.append(f"v{k} = v{k} * a{hi - lo} + {term(k, lo)}")
        if idx[-1]:
            a_exps.add(idx[-1])
            body.append(f"v{k} = v{k} * a{idx[-1]}")
    n = len(shape) - 1
    params = ", ".join([f"c{k}" for k in range(n)] + ["a1", "b1"])
    lines = _power_lines("a", a_exps) + _power_lines("b", b_exps) + body
    lines.append("return " + ", ".join(f"v{k}" for k in range(n)))
    return f"def kernel({params}):\n" + "".join(f"    {line}\n" for line in lines)


class _KernelCache(dict):
    """shape -> kernel, each kernel compiled on the first lookup of its shape."""

    def __missing__(self, shape: tuple[int, ...]):
        namespace: dict = {}
        exec(compile(_kernel_source(shape), f"<form kernel {shape}>", "exec"), namespace)
        kernel = self[shape] = namespace["kernel"]
        return kernel


# FORM_KERNELS[form_shape(f1, ..., fn)](f1, ..., fn, a, b) is the tuple of the
# values sum_i c_i a^i b^(d-i) of f1, ..., fn at (a, b); for one form, the
# value itself. Coefficients, a and b may lie in any commutative ring.
FORM_KERNELS = _KernelCache()


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
