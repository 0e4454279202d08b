"""Public paths that no other test runs: foreign operands, degenerate
inputs and the refusals of the value classes, the printer and the
evaluator of the expression language, and a few small conveniences."""

import operator
from fractions import Fraction

import pytest

from padicdx import (
    NEG_INF,
    BlowupModel,
    ClosedPoint,
    ConnectionMatrix,
    DiffOp,
    MicroOp,
    NegativePowerOutsideMicroMode,
    NormExp,
    PAdicScalar,
    ParseError,
    ResidueElem,
    ResiduePoly,
    TatePoly,
    ZeroInput,
    ZeroOperator,
    cc_add,
    char_cycle,
    connection_matrix_power,
    fiber_sum_check,
    micro_invert,
    parse,
    print_expr,
    render_cc,
    strip_parens,
    to_diff_op,
    to_micro_op,
)
from padicdx.opparse import Power, Symbol

P = 3

VALUES = [
    PAdicScalar(2, P),
    ResidueElem(2, P),
    NormExp(1),
    TatePoly.variable(P),
    ResiduePoly.variable(P),
    DiffOp({1: 1}, P),
    MicroOp.d_power(-1, P),
]
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.mod, operator.lt]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
def test_a_foreign_operand_raises_type_error(value, op):
    with pytest.raises(TypeError):
        op(value, object())
    with pytest.raises(TypeError):
        op(object(), value)


@pytest.mark.parametrize(
    "value", VALUES + [ConnectionMatrix([[1]], P)], ids=lambda v: type(v).__name__
)
def test_a_foreign_operand_is_unequal(value):
    assert value != object()
    assert not value == object()


def test_scalar_conveniences():
    assert 2 / PAdicScalar(4, P) == PAdicScalar(Fraction(1, 2), P)
    assert bool(PAdicScalar(3, P)) and not bool(PAdicScalar(0, P))
    assert PAdicScalar(5, P) == 5 and PAdicScalar(5, P) != 4
    assert PAdicScalar(Fraction(1, 3), P) == Fraction(1, 3)


def test_norm_exponent_conveniences():
    with pytest.raises(TypeError, match="norm exponent must be an int or None"):
        NormExp(1.5)
    assert [str(e) for e in (NEG_INF, NormExp(0), NormExp(-2))] == ["0", "1", "p^-2"]
    assert NormExp(2) == 2 and NormExp(2) != 3
    assert NormExp(1) < 2 and not NormExp(3) < 2 and NEG_INF < -5
    assert 2 > NormExp(1)


def test_residue_element_arithmetic():
    a = ResidueElem(3, 7)
    assert a.inverse() == ResidueElem(5, 7)
    assert a / 3 == ResidueElem(1, 7)
    assert a / ResidueElem(2, 7) == ResidueElem(5, 7)
    with pytest.raises(ZeroDivisionError, match="residue zero has no inverse"):
        ResidueElem(7, 7).inverse()
    with pytest.raises(ZeroDivisionError):
        a / 0
    assert ResidueElem(14, 7).is_zero() and not a.is_zero()
    assert str(ResidueElem(-1, 7)) == "6"
    with pytest.raises(ValueError, match="6 is not a prime"):
        ResidueElem(1, 6)


def test_residue_polynomial_refusals():
    with pytest.raises(ValueError, match="6 is not a prime"):
        ResiduePoly([1, 1], 6)
    zero = ResiduePoly.zero(7)
    with pytest.raises(ZeroInput):
        zero.leading()
    with pytest.raises(ZeroInput):
        zero.monic()
    with pytest.raises(ValueError, match="not a p-th power"):
        ResiduePoly.variable(2).pth_root()
    assert str(ClosedPoint(ResiduePoly([1, 1], 3), "x")) == "{x + 1 = 0}"


def test_equal_degree_split_in_characteristic_two():
    # two irreducible cubics over F_2: distinct-degree splitting leaves
    # their product, which the trace map splits; factors come by coefficients
    a, b = ResiduePoly([1, 0, 1, 1], 2), ResiduePoly([1, 1, 0, 1], 2)
    assert (b * a).factor() == [(a, 1), (b, 1)]


def test_tate_polynomial_degenerate_inputs():
    f = TatePoly([1, 2, 3], P)
    assert f.leading() == PAdicScalar(3, P)
    assert f.coefficient(5) == PAdicScalar.zero(P)
    assert TatePoly.constant(3, P) == 3
    zero = TatePoly.zero(P)
    with pytest.raises(ZeroInput):
        zero.leading()
    with pytest.raises(ZeroInput, match="no Newton polygon"):
        zero.newton_valuation_counts()
    S = MicroOp.d_power(0, P)
    with pytest.raises(ValueError, match="norm zero is unreachable"):
        micro_invert(S, 1, 1, NEG_INF)


def test_operator_refusals():
    with pytest.raises(ValueError, match="negative powers present"):
        MicroOp.d_power(-1, P).to_diffop()
    with pytest.raises(NegativePowerOutsideMicroMode):
        to_diff_op(parse("d + d^-1", micro=True), P)
    with pytest.raises(ValueError, match="congruence level must be nonnegative"):
        DiffOp({1: 1}, P).order(-1)
    assert DiffOp.one(P) == 1


def test_connection_matrix_refusals():
    with pytest.raises(ValueError, match="must be square"):
        ConnectionMatrix([[1, 0]], P)
    one, two = ConnectionMatrix([[1]], P), ConnectionMatrix([[1, 0], [0, 1]], P)
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="size mismatch"):
            op(one, two)
    with pytest.raises(ValueError, match="power must be at least one"):
        connection_matrix_power(one, 0)


@pytest.mark.parametrize(
    "text, printed",
    [("1/2^3", "(1/2)^3"), ("2^3", "2^3"), ("x^2", "x^2"), ("(x + 1)^2", "(x + 1)^2")],
)
def test_powers_print_and_round_trip(text, printed):
    tree = parse(text)
    assert print_expr(tree) == str(tree) == printed
    # without its parentheses a compound base is grouped by the printer
    assert print_expr(strip_parens(tree)) == printed
    assert strip_parens(parse(printed)) == strip_parens(tree)


def test_printer_and_evaluator_on_foreign_trees():
    # the printer writes any symbol; the evaluator knows x, t and u only
    assert print_expr(Power(Symbol("y"), 2)) == "y^2"
    for tree in (Symbol("y"), Power(Symbol("y"), 2)):
        with pytest.raises(ParseError, match="unknown symbol 'y'"):
            to_micro_op(tree, P)
    for call in (print_expr, lambda node: to_micro_op(node, P)):
        with pytest.raises(TypeError, match="not a syntax tree node: 42"):
            call(42)


def test_cycles_add_and_render_without_zero_section():
    x = to_diff_op(parse("x"), P)
    cc = char_cycle(x)
    assert cc.m0 == 0 and cc.length == 1
    svg = render_cc(cc, "svg")
    assert "m0 =" not in svg and "x = 0 (x1)" in svg
    other = char_cycle(to_diff_op(parse("(x - 1)*d"), P))
    assert cc + other == cc_add(cc, other)
    assert (cc + other).m0 == 1 and (cc + other).length == 3


def test_fiber_sum_check_refuses_the_zero_operator():
    B = BlowupModel(PAdicScalar(0, P), 1)
    with pytest.raises(ZeroOperator, match="zero operator"):
        fiber_sum_check(DiffOp.zero(P), B)
