import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dynctl.errors import DynctlError, NotRationalError, ParseError
from dynctl.families import BasepointSpec, phi_t_family, three_param_family
from dynctl.parsing import (MAX_DEGREE, MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING,
                            PRESET_EXPRESSIONS, parse_map, resolve_map_text)


def test_parse_phi_t_family():
    e = parse_map("(x-t)/(x^3+1)")
    assert e.x_degree == 3
    assert e.params == ("t",)
    fam = e.to_family()
    ref = phi_t_family()
    assert fam.num_coeffs == ref.num_coeffs
    assert fam.den_coeffs == ref.den_coeffs


def test_parse_constant_map():
    e = parse_map("x^4/(x^2-2)^2")
    assert e.x_degree == 4
    assert e.params == ()
    m = e.to_rational_map()
    assert m.numerator.coeffs == (0, 0, 0, 0, 1)
    assert m.denominator.coeffs == (4, 0, -4, 0, 1)


def test_parse_divides_out_the_content():
    assert (parse_map("(2*x^2+2)/(4*x)").to_rational_map()
            == parse_map("(x^2+1)/(2*x)").to_rational_map())


def test_basepoint_is_two_coefficient_tuples_in_t():
    assert parse_map("t^3+2").to_basepoint() == BasepointSpec((2, 0, 0, 1), (1, 0, 0, 0))
    assert parse_map("2/(t-1)").to_basepoint() == BasepointSpec((2, 0), (-1, 1))
    assert parse_map("3").to_basepoint() == BasepointSpec((3,), (1,))
    for text in ("x", "f", "x*t", "t/x"):
        with pytest.raises(DynctlError, match="beta must be a function of the parameter only"):
            parse_map(text).to_basepoint()


def test_parse_not_rational():
    with pytest.raises(NotRationalError):
        parse_map("x^(x)")
    with pytest.raises(NotRationalError):
        parse_map("2^t")


def test_integer_literals_are_ascii_digits():
    # \d would match the Arabic-Indic two, and int() would read it as 2.
    with pytest.raises(ParseError) as err:
        parse_map("x^\u0662")
    assert err.value.position == 2
    assert resolve_map_text("pell(\u0662)") == "pell(\u0662)"
    with pytest.raises(ParseError):
        parse_map(resolve_map_text("pell(\u0662)"))
    assert resolve_map_text("pell(2)") == "x^4/(x^2 - 2)^2"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_map("x^2 + @")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_map("(x+1")
    with pytest.raises(ParseError):
        parse_map("x/0")
    with pytest.raises(ParseError):
        parse_map("")


def test_negative_exponents_and_unary_minus():
    e = parse_map("x^-2")
    m = e.to_rational_map()
    assert m.numerator.coeffs == (1, 0, 0)
    assert m.denominator.coeffs == (0, 0, 1)
    e2 = parse_map("-x^2")
    e3 = parse_map("0 - x^2")
    assert e2.num == e3.num and e2.den == e3.den


def test_double_star_power():
    assert parse_map("x**2").num == parse_map("x^2").num


@pytest.mark.parametrize("src", [
    "(x-t)/(x^3+1)",
    "x^4/(x^2-2)^2",
    "(r*s*x^3+s*x+t)/(x^2+1)",
    "x^2-1",
    "1/x^2",
    "(2*x+1)/(3*x-5)",
    "t^3+2",
])
def test_print_parse_fixed_point(src):
    # IntPoly prints with explicit * and ^, so its text re-parses to the same pair
    e = parse_map(src)
    e2 = parse_map(f"({e.num})/({e.den})")
    assert e2.num == e.num and e2.den == e.den


def test_presets_round_trip_to_internal_forms():
    fam = parse_map(resolve_map_text("phi_t")).to_family()
    ref = phi_t_family()
    assert fam.num_coeffs == ref.num_coeffs and fam.den_coeffs == ref.den_coeffs

    fam3 = parse_map(resolve_map_text("three_param")).to_family()
    ref3 = three_param_family()
    assert fam3.num_coeffs == ref3.num_coeffs and fam3.den_coeffs == ref3.den_coeffs

    pell = parse_map(resolve_map_text("pell(2)")).to_rational_map()
    assert pell.denominator.coeffs == (4, 0, -4, 0, 1)


def test_preset_expressions_all_parse():
    for text in PRESET_EXPRESSIONS.values():
        parse_map(text)


def test_unsupported_parameter_combinations():
    with pytest.raises(ParseError):
        parse_map("(x-r)/(x^2+1)")
    with pytest.raises(ParseError):
        parse_map("(f*x+t)/(x^2+1)")


def test_wrong_conversion_direction_raises():
    with pytest.raises(ValueError):
        parse_map("(x-t)/(x^3+1)").to_rational_map()
    with pytest.raises(ValueError):
        parse_map("x^2").to_family()


def test_size_limits_accept_their_bounds():
    assert parse_map(f"x^{MAX_EXPONENT}").x_degree == MAX_EXPONENT
    assert parse_map(f"x^-{MAX_EXPONENT}").x_degree == MAX_EXPONENT
    assert parse_map(f"(x^2+1)^{MAX_DEGREE // 2}").x_degree == MAX_DEGREE
    literal = "9" * MAX_LITERAL_DIGITS
    assert parse_map(f"{literal}*x").num.coefficient((1, 0, 0, 0, 0)) == int(literal)


@pytest.mark.parametrize("text, message", [
    (f"x^{MAX_EXPONENT + 1}", "exponent above"),
    (f"x^-{MAX_EXPONENT + 1}", "exponent above"),
    ("x^99999999", "exponent above"),
    (f"(x^2+1)^{MAX_DEGREE // 2 + 1}", "degree above"),
    (f"x^{MAX_EXPONENT}*x", "degree above"),
    (f"1/x^{MAX_EXPONENT} + 1/(x+1)", "degree above"),
    ("9" * (MAX_LITERAL_DIGITS + 1), "integer literal longer"),
    ("((2^64)^64)^64", "coefficients above"),
    ("(x+t+r+s+1)^16", "term products"),
])
def test_size_limits_refuse_before_computing(text, message):
    with pytest.raises(ParseError, match=message):
        parse_map(text)


@pytest.mark.parametrize("wrap", [
    lambda n, inner: "(" * n + inner + ")" * n,
    lambda n, inner: "(-" * n + inner + ")" * n,
    lambda n, inner: "x+" + "-" * n + inner,
    lambda n, inner: "x^" + "-" * n + "2",
    lambda n, inner: "x^(" * n + "2" + ")" * n,
])
def test_nesting_limit_accepts_its_bound_and_refuses_past_it(wrap):
    try:
        parse_map(wrap(MAX_NESTING, "x"))
    except NotRationalError:
        pass  # x^(x^(...)): refused by the grammar, not by the nesting limit
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
        parse_map(wrap(MAX_NESTING + 1, "x"))


# The grammar oracle. A tree is a leaf (a small integer or a symbol), a unary
# sign (op, child), a binary node (op, left, right) for + - * /, or
# ("^", base, signs, k): base to the power signs-then-k, as in x^-2 or x^--3.
# _show prints a tree with parentheses only where Python's precedence needs
# them, so a sign may follow any operator; _value evaluates the tree exactly.
_SUM, _PRODUCT, _SIGNED, _POWER, _ATOM = range(5)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_POINTS = ({"x": Fraction(7, 3), "t": Fraction(-5, 11)},
           {"x": Fraction(-13, 4), "t": Fraction(9, 2)},
           {"x": Fraction(2, 17), "t": Fraction(3)})
GRAMMAR_ORACLE = settings(derandomize=True, deadline=None, max_examples=1000)

_trees = st.recursive(
    st.integers(0, 5) | st.sampled_from("xt"),
    lambda children: (st.tuples(st.sampled_from("+-"), children)
                      | st.tuples(st.sampled_from("+-*/"), children, children)
                      | st.tuples(st.just("^"), children, st.sampled_from(["", "-", "+", "--", "+-"]),
                                  st.integers(0, 3))),
    max_leaves=8)


def _show(tree, need: int) -> str:
    if not isinstance(tree, tuple):
        text, level = str(tree), _ATOM
    elif tree[0] == "^":
        _, base, signs, k = tree
        text, level = f"{_show(base, _ATOM)}^{signs}{k}", _POWER
    elif len(tree) == 2:
        text, level = tree[0] + _show(tree[1], _SIGNED), _SIGNED
    elif tree[0] in "+-":
        text, level = _show(tree[1], _SUM) + tree[0] + _show(tree[2], _PRODUCT), _SUM
    else:
        text, level = _show(tree[1], _PRODUCT) + tree[0] + _show(tree[2], _SIGNED), _PRODUCT
    return text if level >= need else f"({text})"


def _value(tree, point) -> Fraction:
    if isinstance(tree, int):
        return Fraction(tree)
    if isinstance(tree, str):
        return point[tree]
    if tree[0] == "^":
        _, base, signs, k = tree
        return _value(base, point) ** (-k if signs.count("-") % 2 else k)
    if len(tree) == 2:
        value = _value(tree[1], point)
        return -value if tree[0] == "-" else value
    return _BINARY[tree[0]](_value(tree[1], point), _value(tree[2], point))


@GRAMMAR_ORACLE
@example(("+", "x", ("-", ("^", "x", "", 2))))  # x+-x^2 is x - x^2
@example(("*", ("+", ("-", ("^", 3, "", 2))), "x"))  # +-3^2*x is -9x
@given(_trees)
def test_parse_agrees_with_the_tree_it_prints(tree):
    text = _show(tree, _SUM)
    values = []
    for point in _POINTS:
        try:
            values.append((point, _value(tree, point)))
        except ZeroDivisionError:
            pass  # a pole of the tree at this point
    try:
        e = parse_map(text)
    except ParseError as err:
        assume("above" not in str(err))  # a size limit, not the grammar
        # A divisor that is identically zero divides by zero at every point.
        assert not values, (text, str(err))
        return
    for point, value in values:
        assert Fraction(e.num.evaluate(point)) / e.den.evaluate(point) == value, text
