"""The expression evaluator against the all-operator oracle it replaced,
its product count, and the limits on powers."""

import contextlib
import io
import json
import signal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import padicdx.opparse as opparse
import padicdx.weyl as weyl
from padicdx import parse, print_expr, to_diff_op, to_micro_op
from padicdx.cli import main
from padicdx.errors import (
    ConfigError,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    ParseError,
)
from padicdx.opparse import Paren, Power, Product, Symbol

from helpers import expression_trees, old_to_micro_op

D = Symbol("d")


def _old_to_diff_op(tree, p, var):
    with mock.patch.object(opparse, "to_micro_op", old_to_micro_op):
        return opparse.to_diff_op(tree, p, var)


def _outcome(evaluate, tree, p, var):
    try:
        return evaluate(tree, p, var)
    except Exception as e:  # the exception type is part of the contract
        return type(e)


def _assert_same(new, old):
    if isinstance(old, type):
        assert new is old
        return
    assert not isinstance(new, type), new
    assert type(new) is type(old)
    assert new._eq_key() == old._eq_key()
    assert str(new) == str(old)
    if any(not c.is_constant() for c in old.coeffs.values()):
        assert new.var == old.var


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]), st.sampled_from(["x", "t"]))
def test_laurent_evaluation_matches_the_operator_oracle(data, p, var):
    tree = data.draw(expression_trees(micro=True))
    _assert_same(
        _outcome(to_micro_op, tree, p, var), _outcome(old_to_micro_op, tree, p, var)
    )


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]), st.sampled_from(["x", "t"]))
def test_finite_evaluation_matches_the_operator_oracle(data, p, var):
    tree = data.draw(expression_trees(micro=False))
    _assert_same(
        _outcome(to_diff_op, tree, p, var), _outcome(_old_to_diff_op, tree, p, var)
    )


# (tree, or text parsed in Laurent mode; p; the outcome of to_micro_op and
# of to_diff_op): an exception type, or None for a value equal to the
# oracle's; the oracle checks no size limit, so it is asked for every
# outcome but ConfigError
ERROR_ORDER = [
    # a limit is checked before the variable of its base
    ("x*t^20000", 3, ConfigError, ConfigError),
    ("t^20000*x", 3, ConfigError, ConfigError),
    ("x*t", 3, MixedVariables, MixedVariables),
    # the negative exponent is refused before the variable is read
    (Product((Symbol("x"), Power(Symbol("t"), -1))), 3, NegativePowerOutsideMicroMode,
     NegativePowerOutsideMicroMode),
    # the exponent of p is bounded by bits at odd p and by a shift at p = 2
    ("p^-40000*t", 3, ConfigError, ConfigError),
    ("p^-14000*t", 3, ConfigError, ConfigError),
    ("p^-14000*t", 2, None, None),
    ("d^20000", 3, ConfigError, ConfigError),
    (Power(Symbol("q"), 2), 3, ParseError, ParseError),
    (Power(Symbol("q"), -1), 3, NegativePowerOutsideMicroMode, NegativePowerOutsideMicroMode),
    (Power(Paren(D), -1), 3, NegativePowerOutsideMicroMode, NegativePowerOutsideMicroMode),
    # every leaf checks the prime, zero included, after its own checks
    ("0", 4, ValueError, ValueError),
    ("d", 4, ValueError, ValueError),
    ("x^3", 4, ValueError, ValueError),
    ("d^20000", 4, ConfigError, ConfigError),
    ("p^-40000", 4, ConfigError, ConfigError),
    (Power(Symbol("q"), 2), 4, ParseError, ParseError),
    # the limits read the canonical base: degree 100 * 101 > MAX_DEGREE,
    # and a base over them only as written, 23 bits or degree 200, passes
    ("(x^100)^101", 3, ConfigError, ConfigError),
    ("(1024/2048*x)^5000", 3, None, None),
    ("(x^200 + 1 - x^200)^100", 3, None, None),
    # evaluation is Laurent; only the finite view refuses d^-1
    ("d*d^-1", 3, None, None),
    ("d^-1*x", 3, None, NegativePowerOutsideMicroMode),
    ("x*d^-1", 3, None, NegativePowerOutsideMicroMode),
    ("(d - d)*d^-1 + 1", 3, None, None),
]


@pytest.mark.parametrize(
    "tree, p, micro, finite", ERROR_ORDER,
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_refusals_come_from_the_same_node_in_the_same_order(tree, p, micro, finite):
    if isinstance(tree, str):
        tree = parse(tree, micro=True)
    pairs = ((to_micro_op, old_to_micro_op, micro), (to_diff_op, _old_to_diff_op, finite))
    for evaluate, oracle, expected in pairs:
        outcome = _outcome(evaluate, tree, p, "x")
        if expected is not ConfigError:
            _assert_same(outcome, _outcome(oracle, tree, p, "x"))
        if expected is not None:
            assert outcome is expected


def _document(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.sampled_from([2, 3, 5]),
    st.sampled_from(["norm", "order", "thm28", "charvar", "micro-check"]),
)
def test_cli_documents_match_the_operator_oracle(data, p, command):
    text = print_expr(data.draw(expression_trees(micro=command == "micro-check")))
    argv = [command, "-p", str(p), text]
    new = _document(argv)
    with mock.patch.object(opparse, "to_micro_op", old_to_micro_op):
        old = _document(argv)
    assert new == old


def _count_products(evaluate, text):
    calls = []
    product = weyl.leibniz_product
    with mock.patch.object(
        weyl, "leibniz_product", lambda *a, **kw: calls.append(1) or product(*a, **kw)
    ):
        evaluate(parse(text, micro=True), 7)
    return len(calls)


def test_functions_are_multiplied_as_polynomials():
    # one Leibniz product per d leaf at most, none without the derivation
    function = "(x+1)^5*(3/4*x - p^-2)"
    hard = (
        "(x^12 - 3*x^11 + 5/7*x^9 - 14*x^6 + 2*x^5 + 21*x^3 - 7*x + 49)*d^2"
        " + (x^3 + 2/3*x^2 - 7)*d + (3*x^2 - 1/5)"
    )
    assert _count_products(to_micro_op, function) == 0
    assert _count_products(to_micro_op, hard) <= 2
    # (x+1)^5 takes three products by square and multiply, then two more
    assert _count_products(old_to_micro_op, function) == 5
    assert _count_products(old_to_micro_op, hard) > 5


BIG_PRIME = "9223372036854775783"  # the largest prime below 2^63


def test_powers_over_the_limits_are_refused_before_any_work():
    # a SIGALRM turns a request that starts building into a failure
    def hang(signum, frame):
        raise TimeoutError("the request was not refused in time")

    requests = [
        ("2", "x^100000000"),
        ("3", "p^-40000*d"),
        ("2", "(x^5000)^5000"),
        ("3", "((p^100)^100)^3*d"),  # 47,550 bits; 20 s at ^30
        (BIG_PRIME, "p^-400*d"),  # 25,200 bits; p^-10000 took 17 s
    ]
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        docs = [_document(["norm", "-p", p, text]) for p, text in requests]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    for code, text in docs:
        assert code == 1
        assert json.loads(text)["error"]["type"] == "ConfigError"


def test_powers_at_the_limits_are_accepted():
    for text in ("x^10000", "d^10000", "p^-10000", "(x^100)^100", "(p^100)^100"):
        assert not to_diff_op(parse(text), 3).is_zero()
    assert not to_micro_op(parse("d^-10000", micro=True), 3).is_zero()
    # the size of p^n is bounded: n <= 20000 // bit_length(p) at odd p
    assert not to_diff_op(parse("p^-317"), int(BIG_PRIME)).is_zero()
    # at p = 2 a power of p is a shift, with its own limit
    assert to_micro_op(parse("p^-100000000"), 2).coeffs[0].den.bit_length() == 10**8 + 1
