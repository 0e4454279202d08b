"""The behaviour DiffOp and MicroOp share: result types of mixed
arithmetic, coercion of scalars and functions, prime checks, printing,
immutability, negative powers and the truncated tag."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import DiffOp, MicroOp, MixedPrimes, PAdicScalar, TatePoly, TruncatedOperand
from padicdx.weyl import leibniz_product
from helpers import join_operator_str

p = 2
P = DiffOp({0: TatePoly([1, 1], p), 1: 1}, p)
M = MicroOp({-1: 1, 0: TatePoly([0, 1], p)}, p)
T = DiffOp.truncated({0: 1, 1: 1}, p)


@pytest.mark.parametrize(
    "a, b, op, expected",
    [
        (P, M, "+", "MicroOp(d + (2*x + 1) + d^-1, p=2)"),
        (P, M, "-", "MicroOp(d + 1 - d^-1, p=2)"),
        (P, M, "*", "MicroOp(x*d + (x^2 + x + 2) + (x + 1)*d^-1, p=2)"),
        (M, P, "+", "MicroOp(d + (2*x + 1) + d^-1, p=2)"),
        (M, P, "-", "MicroOp(-d - 1 + d^-1, p=2)"),
        (M, P, "*", "MicroOp(x*d + (x^2 + x + 1) + (x + 1)*d^-1 - d^-2, p=2)"),
    ],
)
def test_mixed_arithmetic_is_laurent(a, b, op, expected):
    out = {"+": a + b, "-": a - b, "*": a * b}[op]
    assert type(out) is MicroOp
    assert repr(out) == expected


@pytest.mark.parametrize(
    "c, expected",
    [
        (3, ["DiffOp(d + (x + 4), p=2)", "DiffOp(3*d + (3*x + 3), p=2)",
             "DiffOp(3*d + (3*x + 3), p=2)", "DiffOp(d + (x - 2), p=2)",
             "DiffOp(-d - (x - 2), p=2)",
             "MicroOp((x + 3) + d^-1, p=2)", "MicroOp(3*x + 3*d^-1, p=2)",
             "MicroOp(3*x + 3*d^-1, p=2)", "MicroOp((x - 3) + d^-1, p=2)",
             "MicroOp(-(x - 3) - d^-1, p=2)"]),
        (PAdicScalar(Fraction(1, 2), p),
            ["DiffOp(d + (x + 3/2), p=2)", "DiffOp(1/2*d + (1/2*x + 1/2), p=2)",
             "DiffOp(1/2*d + (1/2*x + 1/2), p=2)", "DiffOp(d + (x + 1/2), p=2)",
             "DiffOp(-d - (x + 1/2), p=2)",
             "MicroOp((x + 1/2) + d^-1, p=2)", "MicroOp(1/2*x + 1/2*d^-1, p=2)",
             "MicroOp(1/2*x + 1/2*d^-1, p=2)", "MicroOp((x - 1/2) + d^-1, p=2)",
             "MicroOp(-(x - 1/2) - d^-1, p=2)"]),
        (TatePoly([1, 2], p),
            ["DiffOp(d + (3*x + 2), p=2)",
             "DiffOp((2*x + 1)*d + (2*x^2 + 3*x + 3), p=2)",
             "DiffOp((2*x + 1)*d + (2*x^2 + 3*x + 1), p=2)", "DiffOp(d - x, p=2)",
             "DiffOp(-d + x, p=2)",
             "MicroOp((3*x + 1) + d^-1, p=2)",
             "MicroOp((2*x^2 + x) + (2*x + 1)*d^-1 - 2*d^-2, p=2)",
             "MicroOp((2*x^2 + x) + (2*x + 1)*d^-1, p=2)",
             "MicroOp(-(x + 1) + d^-1, p=2)", "MicroOp((x + 1) - d^-1, p=2)"]),
    ],
)
def test_coercion_on_both_sides(c, expected):
    got = []
    for X in (P, M):
        assert repr(X + c) == repr(c + X)
        got += [repr(X + c), repr(X * c), repr(c * X), repr(X - c), repr(c - X)]
    assert got == expected
    assert P + c == c + P and M - c == -(c - M)


@pytest.mark.parametrize(
    "thunk",
    [
        lambda: DiffOp.one(2) + MicroOp.one(3),
        lambda: MicroOp.one(3) + DiffOp.one(2),
        lambda: DiffOp.one(2) * MicroOp.one(3),
        lambda: MicroOp.one(3) - DiffOp.one(2),
        lambda: DiffOp.one(2) + PAdicScalar(1, 3),
        lambda: PAdicScalar(1, 3) * MicroOp.one(2),
        lambda: DiffOp.one(2) * TatePoly([1], 3),
        lambda: TatePoly([1], 3) * MicroOp.one(2),
        lambda: DiffOp.one(2) * DiffOp.one(3),
        lambda: MicroOp.one(2) + MicroOp.one(3),
    ],
)
def test_mixed_primes_both_directions(thunk):
    with pytest.raises(MixedPrimes, match="mixed primes"):
        thunk()


def test_repr_strings():
    assert repr(DiffOp.zero(2)) == "DiffOp(0, p=2)"
    assert repr(MicroOp.zero(2)) == "MicroOp(0, p=2)"
    assert repr(T) == "DiffOp(d + 1, truncated, p=2)"
    assert repr(MicroOp.d_power(-2, 3, coeff=2)) == "MicroOp(2*d^-2, p=3)"
    assert str(P) == "d + (x + 1)" and str(M) == "x + d^-1"


def test_immutable_messages():
    with pytest.raises(AttributeError, match="^DiffOp is immutable$"):
        P.p = 3
    with pytest.raises(AttributeError, match="^MicroOp is immutable$"):
        M.coeffs = {}


def test_negative_powers_refused():
    with pytest.raises(ValueError, match="^negative powers need the Laurent ring$"):
        DiffOp({-1: 1}, p)
    with pytest.raises(ValueError, match="^negative powers need the Laurent ring$"):
        DiffOp.truncated({-1: 1}, p)
    with pytest.raises(ValueError, match="^negative power of a finite operator$"):
        P ** -1
    with pytest.raises(ValueError, match="^use the certified inverse for negative powers$"):
        M ** -1
    assert P ** 0 == DiffOp.one(p) and M ** 0 == MicroOp.one(p)
    assert P ** 3 == P * P * P and M ** 3 == M * M * M


def test_truncated_tag():
    assert repr(-T) == "DiffOp(-d - 1, truncated, p=2)"
    assert repr(T.scale(2)) == "DiffOp(2*d + 2, truncated, p=2)"
    assert not (-T).finite and not T.scale(2).finite
    for thunk in (lambda: T + 1, lambda: T * 1, lambda: 1 + T, lambda: 1 - T, lambda: T - T):
        with pytest.raises(TruncatedOperand, match="operation undefined on a truncated operator"):
            thunk()
    for thunk in (lambda: M + T, lambda: T * M, lambda: MicroOp.from_diffop(T)):
        with pytest.raises(TruncatedOperand, match="cannot embed a truncated operator"):
            thunk()


def test_equal_operators_hash_equal_across_classes():
    assert DiffOp.one(2) == MicroOp.one(2)
    assert len({DiffOp.one(2), MicroOp.one(2)}) == 1
    table = {P: "P"}
    assert table.get(MicroOp.from_diffop(P)) == "P"
    assert MicroOp.from_diffop(P).to_diffop() in {P}


def test_equality_is_total():
    truncated_one = DiffOp.truncated({0: 1}, 2)
    for a, b in ((MicroOp.one(2), truncated_one), (truncated_one, MicroOp.one(2))):
        assert (a == b) is False
        assert (a != b) is True
    assert T != P and T == DiffOp.truncated({0: 1, 1: 1}, p)
    assert (DiffOp.one(2) == MicroOp.one(3)) is False
    assert (MicroOp.one(3) == DiffOp.one(2)) is False


@pytest.mark.parametrize(
    "a, b",
    [
        (DiffOp.one(2), TatePoly.one(3)),
        (DiffOp.one(2), PAdicScalar(1, 3)),
        (MicroOp.one(2), TatePoly.one(3)),
        (MicroOp.one(2), PAdicScalar(1, 3)),
        (TatePoly.one(2), PAdicScalar(1, 3)),
        (TatePoly.one(2), TatePoly.one(3)),
    ],
    ids=lambda v: type(v).__name__,
)
def test_values_over_other_primes_are_unequal(a, b):
    # comparison answers, in both directions, where arithmetic would raise
    for left, right in ((a, b), (b, a)):
        assert (left == right) is False
        assert (left != right) is True


def _op_coefficient(p):
    """A polynomial of degree 0 to 3 with small signed coefficients, times
    p to a power in -2..2; zero, one and minus one come up often."""
    number = st.one_of(
        st.sampled_from([0, 1, -1]),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5])),
    )
    return st.builds(
        lambda cs, v: TatePoly(cs, p).scale(Fraction(p) ** v),
        st.lists(number, min_size=1, max_size=4),
        st.integers(-2, 2),
    )


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), micro=st.booleans(), data=st.data())
def test_operator_text_matches_old_printer(p, micro, data):
    lo = -3 if micro else 0
    powers = data.draw(st.lists(st.integers(lo, 3), max_size=4, unique=True), label="powers")
    coeffs = {n: data.draw(_op_coefficient(p), label=f"c[{n}]") for n in powers}
    op = (MicroOp if micro else DiffOp)(coeffs, p)
    assert str(op) == join_operator_str(op.coeffs)


def _operator(p, kind):
    """A DiffOp, a truncated DiffOp or a MicroOp of up to four powers."""
    lo = -3 if kind == "micro" else 0
    make = {"diff": DiffOp, "truncated": DiffOp.truncated, "micro": MicroOp}[kind]
    return st.dictionaries(st.integers(lo, 3), _op_coefficient(p), max_size=4).map(
        lambda coeffs: make(coeffs, p)
    )


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), data=st.data())
def test_kernel_results_match_the_checking_constructor(p, data):
    # every result the kernel builds without the checks is what the
    # checking constructor builds from its table
    A, B, T = (data.draw(_operator(p, kind)) for kind in ("diff", "diff", "truncated"))
    M, N = (data.draw(_operator(p, "micro")) for _ in range(2))
    s = data.draw(st.sampled_from([0, 1, -1, Fraction(1, p), Fraction(p, 3)]), label="scalar")
    r = data.draw(st.integers(1, 3), label="r")
    k = data.draw(st.integers(r, 3), label="k")
    cutoff = data.draw(st.integers(-4, 4), label="cutoff")
    short = leibniz_product(M.coeffs, N.coeffs, p, M.var, (k, r, cutoff))
    results = [
        (A + B, DiffOp, True), (A - B, DiffOp, True), (A * B, DiffOp, True),
        (-A, DiffOp, True), (A.scale(s), DiffOp, True),
        (-T, DiffOp, False), (T.scale(s), DiffOp, False),
        (M + N, MicroOp, True), (M - N, MicroOp, True), (M * N, MicroOp, True),
        (-M, MicroOp, True), (M.scale(s), MicroOp, True),
        (A + M, MicroOp, True), (M - A, MicroOp, True), (A * M, MicroOp, True),
        (M.truncate_below(k, r, cutoff), MicroOp, True),
        (MicroOp._of(short, p, M.var), MicroOp, True),
        (MicroOp.from_diffop(A), MicroOp, True),
        (MicroOp.from_diffop(A).to_diffop(), DiffOp, True),
    ]
    for X, cls, finite in results:
        assert type(X) is cls and X.p == p and X.finite is finite
        for n, c in X.coeffs.items():
            assert type(n) is int and c.num and c.num[-1] and c.p == p
            assert c.den > 0 and gcd(c.den, *c.num) == 1
        rebuilt = (cls if finite else DiffOp.truncated)(dict(X.coeffs), X.p, X.var)
        assert X == rebuilt and hash(X) == hash(rebuilt)
        assert X.coeffs == rebuilt.coeffs and repr(X) == repr(rebuilt)
