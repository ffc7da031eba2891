"""Expression grammar for maps and families.

Rational expressions in x with integer literals, the parameter symbols
t, r, s, f, the operators + - * / ^ (integer exponents), and parentheses.
A parsed expression becomes a map (no parameters) or a family (t alone,
f alone, or r, s, t).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from .errors import NotRationalError, ParseError
from .families import FamilySpec
from .maps import RationalMapQ, make_map
from .polynomials import IntPoly

ALL_VARS = ("x", "t", "r", "s", "f")

# Input size limits, each checked before the work it bounds. Every expression
# in the tests, README and goldens is far inside them (exponents up to 24).
MAX_LITERAL_DIGITS = 1000
MAX_EXPONENT = 64
MAX_DEGREE = 64  # total degree of any polynomial the parser builds
MAX_COEFF_BITS = 100_000
MAX_TERM_PAIRS = 100_000  # term products in one polynomial multiplication
# Open parentheses and unary signs around any one token. Each level costs the
# recursive-descent parser up to four Python frames, so this keeps a parse far
# inside the default recursion limit of 1000.
MAX_NESTING = 100

# Integer literals are ASCII digits only: \d would also match other scripts' digits.
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([xtrsf])|(\*\*|[-+*/^()]))")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "sym" | "op"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            if len(m.group(1)) > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                                 m.start(1))
            out.append(_Token("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            out.append(_Token("sym", m.group(2), m.start(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            out.append(_Token("op", op, m.start(3)))
        pos = m.end()
    return out


def _mul(a: IntPoly, b: IntPoly, pos: int) -> IntPoly:
    """a * b, refused before it is computed if it would pass a size limit."""
    if a.total_degree() + b.total_degree() > MAX_DEGREE:
        raise ParseError(f"degree above {MAX_DEGREE}", pos)
    if len(a.terms) * len(b.terms) > MAX_TERM_PAIRS:
        raise ParseError(f"more than {MAX_TERM_PAIRS} term products in one multiplication", pos)
    bits = (max((abs(c).bit_length() for c in a.terms.values()), default=0)
            + max((abs(c).bit_length() for c in b.terms.values()), default=0)
            + min(len(a.terms), len(b.terms)).bit_length())
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficients above {MAX_COEFF_BITS} bits", pos)
    return a * b


def _pow(a: IntPoly, e: int, pos: int) -> IntPoly:
    """a^e for 0 <= e <= MAX_EXPONENT by squaring, every product through _mul."""
    if e > MAX_EXPONENT:
        raise ParseError(f"exponent above {MAX_EXPONENT}", pos)
    out = IntPoly.const(1, a.vars)
    while e:
        if e & 1:
            out = _mul(out, a, pos)
        e >>= 1
        if e:
            a = _mul(a, a, pos)
    return out


class _Rat:
    """Rational expression as a pair of IntPoly over the full variable tuple.

    Every product goes through _mul, so an operation that would pass a size
    limit is refused at the position of its operator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c: int) -> "_Rat":
        return cls(IntPoly.const(c, ALL_VARS), IntPoly.const(1, ALL_VARS))

    @classmethod
    def sym(cls, name: str) -> "_Rat":
        return cls(IntPoly.var(name, ALL_VARS), IntPoly.const(1, ALL_VARS))

    def add(self, other: "_Rat", pos: int) -> "_Rat":
        return _Rat(_mul(self.num, other.den, pos) + _mul(other.num, self.den, pos),
                    _mul(self.den, other.den, pos))

    def sub(self, other: "_Rat", pos: int) -> "_Rat":
        return _Rat(_mul(self.num, other.den, pos) - _mul(other.num, self.den, pos),
                    _mul(self.den, other.den, pos))

    def mul(self, other: "_Rat", pos: int) -> "_Rat":
        return _Rat(_mul(self.num, other.num, pos), _mul(self.den, other.den, pos))

    def div(self, other: "_Rat", pos: int) -> "_Rat":
        if other.num.is_zero():
            raise ParseError("division by zero", pos)
        return _Rat(_mul(self.num, other.den, pos), _mul(self.den, other.num, pos))

    def pow(self, e: int, pos: int) -> "_Rat":
        if e >= 0:
            return _Rat(_pow(self.num, e, pos), _pow(self.den, e, pos))
        if self.num.is_zero():
            raise ParseError("zero to a negative power", pos)
        return _Rat(_pow(self.den, -e, pos), _pow(self.num, -e, pos))

    def as_int(self) -> int | None:
        if self.num.is_const() and self.den.is_const():
            n = self.num.const_value()
            d = self.den.const_value()
            if d != 0 and n % d == 0:
                return n // d
        return None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def nest(self, tok: _Token) -> None:
        """Enter one more level of nesting at tok, refused past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.pos)

    def parse(self) -> _Rat:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> _Rat:
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.take()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = _Rat.const(0).sub(value, tok.pos)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            self.take()
            rhs = self.term()
            value = value.add(rhs, tok.pos) if tok.text == "+" else value.sub(rhs, tok.pos)

    def term(self) -> _Rat:
        value = self.power()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return value
            self.take()
            rhs = self.power()
            value = value.mul(rhs, tok.pos) if tok.text == "*" else value.div(rhs, tok.pos)

    def power(self) -> _Rat:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.take()
            exp_tok = self.peek()
            exponent = self.atom_exponent()
            value = base.pow(exponent, exp_tok.pos if exp_tok else len(self.text))
            return value
        return base

    def atom_exponent(self) -> int:
        """Exponents must reduce to integer constants; x or a parameter there
        makes the expression non-rational."""
        tok = self.peek()
        pos = tok.pos if tok else len(self.text)
        if tok is not None and tok.kind == "op" and tok.text in "+-":
            self.take()
            self.nest(tok)
            sign = -1 if tok.text == "-" else 1
            value = sign * self.atom_exponent()
            self.depth -= 1
            return value
        value = self.atom()
        as_int = value.as_int()
        if as_int is None:
            raise NotRationalError(
                f"exponent at position {pos} is not an integer constant; "
                "only rational functions are accepted"
            )
        return as_int

    def atom(self) -> _Rat:
        tok = self.take()
        if tok.kind == "int":
            return _Rat.const(int(tok.text))
        if tok.kind == "sym":
            return _Rat.sym(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            value = self.expr()
            closing = self.take()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.pos)
            self.depth -= 1
            return value
        if tok.kind == "op" and tok.text in "+-":
            self.nest(tok)
            inner = self.atom()
            self.depth -= 1
            return inner if tok.text == "+" else _Rat.const(0).sub(inner, tok.pos)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


@dataclass(frozen=True)
class MapExpression:
    """Parsed rational function in x, possibly with parameter symbols."""

    source: str
    num: IntPoly
    den: IntPoly
    x_degree: int
    params: tuple[str, ...]

    def is_constant_map(self) -> bool:
        return not self.params

    def _coefficient_polys(self) -> tuple[list[IntPoly], list[IntPoly]]:
        """Ascending x-coefficients of num and den as polynomials in the parameters."""
        param_vars = self.params if self.params else ("t",)
        d = self.x_degree

        def split(poly: IntPoly) -> list[IntPoly]:
            x_idx = ALL_VARS.index("x")
            out: list[dict[tuple[int, ...], int]] = [dict() for _ in range(d + 1)]
            for e, c in poly.terms.items():
                k = e[x_idx]
                rest = tuple(e[ALL_VARS.index(v)] for v in param_vars)
                out[k][rest] = c
            return [IntPoly(param_vars, terms) for terms in out]

        return split(self.num), split(self.den)

    def to_rational_map(self) -> RationalMapQ:
        if self.params:
            raise ValueError(f"expression has parameters {self.params}; use to_family()")
        num, den = self._coefficient_polys()
        return make_map([c.const_value() for c in num], [c.const_value() for c in den])

    def to_family(self) -> FamilySpec:
        if not self.params:
            raise ValueError("expression has no parameters; use to_rational_map()")
        num, den = self._coefficient_polys()
        return FamilySpec(
            param_names=self.params,
            degree=self.x_degree,
            num_coeffs=tuple(num),
            den_coeffs=tuple(den),
        )


def parse_map(text: str) -> MapExpression:
    """Parse, clear denominators to integers, and canonicalize content and sign.

    The parameters must form a supported family shape: t alone, f alone, or
    r, s, t together. Anything else is a ParseError.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    value = _Parser(text).parse()
    num, den = value.num, value.den
    if den.is_zero():
        raise ParseError("denominator is identically zero", 0)
    if num.is_zero():
        num = IntPoly.const(0, ALL_VARS)
        den = IntPoly.const(1, ALL_VARS)
    content = math.gcd(num.content(), den.content())
    if content > 1:
        num = num.exact_div(IntPoly.const(content, ALL_VARS))
        den = den.exact_div(IntPoly.const(content, ALL_VARS))
    lead_poly = num if not num.is_zero() else den
    if lead_poly.terms[max(lead_poly.terms)] < 0:
        num = -num
        den = -den
    x_deg = max(num.degree_in("x"), den.degree_in("x"), 0)
    used = num.used_vars() | den.used_vars()
    if "f" in used and len(used & {"t", "r", "s"}) > 0:
        raise ParseError("f cannot be mixed with t, r, s", 0)
    params = tuple(v for v in ("r", "s", "t", "f") if v in used)
    if params and params not in (("t",), ("f",), ("r", "s", "t")):
        raise ParseError(f"unsupported parameter combination {params}", 0)
    return MapExpression(
        source=text,
        num=num,
        den=den,
        x_degree=x_deg,
        params=params,
    )


_PRESET_RE = re.compile(r"^\s*pell\s*\(\s*([0-9]+)\s*\)\s*$")


def resolve_map_text(text: str) -> str:
    """Expand preset names into their expression text; anything else passes through."""
    from .families import PRESET_EXPRESSIONS

    stripped = text.strip()
    if stripped in PRESET_EXPRESSIONS:
        return PRESET_EXPRESSIONS[stripped]
    m = _PRESET_RE.match(stripped)
    if m:
        d = int(m.group(1))
        return f"x^4/(x^2 - {d})^2"
    return text

