import random
from fractions import Fraction

import pytest

from padicdx import (
    DiffOp,
    MicroOp,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    PAdicScalar,
    ParseError,
    TatePoly,
    parse,
    print_expr,
    strip_parens,
    to_diff_op,
    to_micro_op,
)
from padicdx.opparse import Neg, Paren, Power, Product, Rational, Sum, Symbol


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def test_parse_fixture_operator():
    p = 2
    tree = parse("(x - p)*(x - p^2)*d^2 + x*d")
    P = to_diff_op(tree, p)
    x = TatePoly.variable(p)
    assert P == DiffOp({2: (x - w(p)) * (x - w(p, 2)), 1: x}, p)


def test_parse_annihilator_fixture():
    p = 2
    P = to_diff_op(parse("x*d - 1"), p)
    assert P == DiffOp({1: TatePoly.variable(p), 0: -1}, p)


def test_normalization_moves_coefficients_left():
    p = 2
    P = to_diff_op(parse("d*x"), p)
    assert P == DiffOp({1: TatePoly.variable(p), 0: 1}, p)
    assert str(P) == "x*d + 1"


def test_parse_structure_preserves_order():
    tree = parse("d*x")
    assert tree == Product((Symbol("d"), Symbol("x")))
    tree2 = parse("x*d")
    assert tree2 == Product((Symbol("x"), Symbol("d")))
    assert tree != tree2


def test_rationals_and_prime_powers():
    p = 3
    assert to_diff_op(parse("3/4"), p) == DiffOp(
        {0: PAdicScalar(Fraction(3, 4), p)}, p
    )
    assert to_diff_op(parse("p^2"), p) == DiffOp({0: 9}, p)
    assert to_diff_op(parse("p^-2"), p) == DiffOp(
        {0: PAdicScalar(Fraction(1, 9), p)}, p
    )
    assert to_diff_op(parse("d - p^-3"), p) == DiffOp(
        {1: 1, 0: PAdicScalar(Fraction(-1, 27), p)}, p
    )


def test_unary_minus():
    p = 2
    assert to_diff_op(parse("-x"), p) == DiffOp(
        {0: -TatePoly.variable(p)}, p
    )
    assert to_diff_op(parse("-x + x"), p).is_zero()


def test_micro_mode_negative_powers():
    p = 2
    S = to_micro_op(parse("d^-1", micro=True), p)
    assert S == MicroOp.d_power(-1, p)
    T = to_micro_op(parse("x*d^-2 + d", micro=True), p)
    assert T == MicroOp({-2: TatePoly.variable(p), 1: 1}, p)


def test_negative_power_rejected_outside_micro():
    with pytest.raises(NegativePowerOutsideMicroMode):
        parse("d^-1", micro=False)
    with pytest.raises(ParseError):
        parse("x^-2", micro=True)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("x + * d")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err2:
        parse("x + y")
    assert err2.value.position == 4
    with pytest.raises(ParseError) as err3:
        parse("(x + 1")
    assert err3.value.position == 6


def test_mixed_variables_rejected():
    with pytest.raises(MixedVariables):
        to_diff_op(parse("x*t"), 2)


def test_variable_t_accepted():
    p = 2
    P = to_diff_op(parse("t*d - 1"), p)
    assert P == DiffOp({1: TatePoly.variable(p, "t"), 0: -1}, p, "t")


def test_monomials_are_built_without_a_fraction_per_zero(monkeypatch):
    """x^n is built canonical: the sum of 7*x^i for i < 1000 makes at
    most one _fraction call per constant 7, never one per zero below each
    power, and a power of a variable still refuses a modulus that is not
    a prime."""
    from padicdx import tatepoly

    calls = []
    fraction = tatepoly._fraction
    monkeypatch.setattr(tatepoly, "_fraction", lambda *a: calls.append(a) or fraction(*a))
    text = " + ".join(f"7*x^{i}" for i in range(1000))
    S = to_micro_op(parse(text, micro=True), 2)
    assert len(calls) <= 1000
    assert S == MicroOp.from_poly(TatePoly([7] * 1000, 2))
    assert to_micro_op(parse("t^3", micro=True), 5) == MicroOp.from_poly(
        TatePoly.variable(5, "t") ** 3
    )
    with pytest.raises(ValueError, match="^4 is not a prime$"):
        to_micro_op(parse("x^3"), 4)


def _rand_tree(rng, depth, micro):
    choices = ["rational", "symbol", "power"]
    if depth > 0:
        choices += ["sum", "product", "neg", "paren"]
    kind = rng.choice(choices)
    if kind == "rational":
        if rng.random() < 0.4:
            return Rational(rng.randint(0, 30), rng.randint(1, 12))
        return Rational(rng.randint(0, 30))
    if kind == "symbol":
        return Symbol(rng.choice(["x", "d", "p", "x", "d"]))
    if kind == "power":
        base = rng.choice([Symbol("d"), Symbol("p"), Symbol("x")])
        if base == Symbol("d") and micro and rng.random() < 0.5:
            return Power(base, -rng.randint(1, 3))
        if base == Symbol("p") and rng.random() < 0.3:
            return Power(base, -rng.randint(1, 3))
        return Power(base, rng.randint(0, 4))
    if kind == "sum":
        n = rng.randint(2, 3)
        return Sum(tuple(_rand_tree(rng, depth - 1, micro) for _ in range(n)))
    if kind == "product":
        n = rng.randint(2, 3)
        return Product(tuple(_rand_tree(rng, depth - 1, micro) for _ in range(n)))
    if kind == "neg":
        return Neg(_rand_tree(rng, depth - 1, micro))
    return Paren(_rand_tree(rng, depth - 1, micro))


def test_round_trip_corpus():
    rng = random.Random(113)
    for i in range(500):
        micro = i % 2 == 0
        tree = _rand_tree(rng, 3, micro)
        text = print_expr(tree)
        back = parse(text, micro=micro)
        assert strip_parens(back) == strip_parens(tree), text
        # and the semantics agree
        assert to_micro_op(back, 2) == to_micro_op(tree, 2)


def test_round_trip_canonical_operator_text():
    p = 2
    for src in (
        "(x - p)*(x - p^2)*d^2 + x*d",
        "x*d - 1",
        "-x*d^2 + d + 3",
        "1/2*x + p^2",
    ):
        P = to_diff_op(parse(src), p)
        assert to_diff_op(parse(str(P)), p) == P


# every error site of parse: (source, Laurent mode, type, message, position)
PARSE_ERRORS = [
    ("1/ 2", False, ParseError, "expected digits after '/'", 1),
    ("x + 1/0", False, ParseError, "zero denominator", 6),
    ("é", False, ParseError, "unknown symbol 'é'", 0),
    ("x²", False, ParseError, "unexpected character '²'", 1),
    ("x^-2", True, ParseError, "negative exponent only on d or p", 2),
    ("x^", False, ParseError, "expected an integer exponent", 2),
    ("x +", False, ParseError, "expected a value", 3),
    ("(x))", False, ParseError, "trailing input", 3),
    ("   ", False, ParseError, "empty expression", 0),
    ("d^-1", False, NegativePowerOutsideMicroMode, "inverse powers of d need the Laurent ring", None),
]


@pytest.mark.parametrize("src, micro, kind, message, position", PARSE_ERRORS)
def test_parse_error_sites(src, micro, kind, message, position):
    with pytest.raises(kind) as err:
        parse(src, micro=micro)
    assert type(err.value) is kind
    if position is None:
        assert str(err.value) == message
    else:
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position
