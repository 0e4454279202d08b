"""The shared Leibniz kernel against the per-term oracle in helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import DiffOp, MicroOp, NormExp, TatePoly
from padicdx.weyl import _gbinom, leibniz_product, weight
from helpers import (
    falling_binom,
    frac_derivative,
    frac_gauss_exp,
    frac_op,
    frac_op_mul,
    frac_round_short,
    loop_valuation,
)

PRIMES = [2, 3, 5, 7]
LEVELS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
OTHER = [1, 2, 3, 5, 7, 11, 13]


def _coefficient(p):
    """Zero, or a small numerator over a denominator of other primes, times
    p to a power in -4..4, so denominators mix p with other primes."""
    nonzero = st.builds(
        lambda n, d, v: Fraction(n, d) * Fraction(p) ** v,
        st.integers(-40, 40),
        st.sampled_from([q for q in OTHER if q != p]),
        st.integers(-4, 4),
    )
    return st.one_of(st.just(Fraction(0)), nonzero)


def _poly(data, p, label):
    # degree 0 to 15, uniformly; an all-zero draw is a zero coefficient
    n = data.draw(st.sampled_from(range(1, 17)), label=f"len({label})")
    return TatePoly(data.draw(st.lists(_coefficient(p), min_size=n, max_size=n), label=label), p)


def _coeffs(data, p, lo, hi, label):
    a = data.draw(st.integers(lo, hi), label=f"{label}.lo")
    b = data.draw(st.integers(a, hi), label=f"{label}.hi")
    return {n: _poly(data, p, f"{label}[{n}]") for n in range(a, b + 1)}


def test_gbinom_matches_falling_factorial():
    for m in range(-6, 7):
        for j in range(9):
            assert _gbinom(m, j) == falling_binom(m, j)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_micro_product_against_oracle(p, data):
    A = MicroOp(_coeffs(data, p, -4, 4, "A"), p)
    B = MicroOp(_coeffs(data, p, -4, 4, "B"), p)
    assert frac_op((A * B).coeffs) == frac_op_mul(frac_op(A.coeffs), frac_op(B.coeffs))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_diffop_product_against_oracle(p, data):
    P = DiffOp(_coeffs(data, p, 0, 4, "P"), p)
    Q = DiffOp(_coeffs(data, p, 0, 4, "Q"), p)
    PQ = P * Q
    assert frac_op(PQ.coeffs) == frac_op_mul(frac_op(P.coeffs), frac_op(Q.coeffs))
    assert MicroOp.from_diffop(P) * MicroOp.from_diffop(Q) == MicroOp.from_diffop(PQ)


def _assert_within_cutoff(got: dict, want: dict, k, r, cutoff):
    """At every power n, got has the monomials of want at the same
    valuations and differs from it by norm below p^(cutoff - weight)."""
    assert sorted(got) == sorted(want)
    for n, c in got.items():
        exact = want[n]
        assert (c - exact).gauss_norm() < NormExp(cutoff - weight(n, k, r))
        assert len(c.num) == len(exact.num)
        for i in range(len(c.num)):
            a, b = c.coefficient(i), exact.coefficient(i)
            assert a.is_zero() == b.is_zero() and a.valuation() == b.valuation()


def _canonical_over_a_power_of_p(c: TatePoly, p: int) -> bool:
    den = c.den
    while den % p == 0:
        den //= p
    return den == 1 and c == TatePoly([Fraction(a, c.den) for a in c.num], p)


def _operands_and_cutoff(p, k, r, data):
    """Two Laurent operators, their exact product by the oracle and a
    cutoff above the norm of the product, inside its range of monomial
    norms or below all of them."""
    A = MicroOp(_coeffs(data, p, -4, 4, "A"), p)
    B = MicroOp(_coeffs(data, p, -4, 4, "B"), p)
    full = MicroOp(frac_op_mul(frac_op(A.coeffs), frac_op(B.coeffs)), p)
    top = full.norm(k, r)
    top = 0 if top.is_neg_inf() else top.exp
    return A, B, full, data.draw(st.integers(top - 40, top + 4), label="cutoff")


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), levels=st.sampled_from(LEVELS), data=st.data())
def test_short_product_against_truncated_oracle(p, levels, data):
    # the floored kernel skips only terms below the cutoff: it keeps the
    # monomials of the truncated exact product at the same valuations,
    # within the cutoff, and each row it returns is canonical over a power
    # of p and is the balanced rounding of the exact row, computed on
    # Fractions alone
    k, r = levels
    A, B, full, cutoff = _operands_and_cutoff(p, k, r, data)
    assert MicroOp(leibniz_product(A.coeffs, B.coeffs, p, "x"), p) == full
    short = leibniz_product(A.coeffs, B.coeffs, p, "x", floor=(k, r, cutoff))
    want = full.truncate_below(k, r, cutoff).coeffs
    _assert_within_cutoff(MicroOp(short, p).coeffs, want, k, r, cutoff)
    assert all(_canonical_over_a_power_of_p(c, p) for c in short.values())
    rounded = frac_round_short(frac_op(full.coeffs), p, k, r, cutoff)
    assert {n: row for n, row in frac_op(short).items() if row} == rounded


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), levels=st.sampled_from(LEVELS), data=st.data())
def test_gauss_exponent_is_the_largest_coefficient_norm(p, levels, data):
    # TatePoly._gauss_exp takes v_p(den) alone when p divides den, which
    # holds in canonical form only: check it on checked rows, on exact
    # products and on the rounded rows of the floored kernel
    k, r = levels
    A, B, full, cutoff = _operands_and_cutoff(p, k, r, data)
    short = MicroOp._of(leibniz_product(A.coeffs, B.coeffs, p, "x", (k, r, cutoff)), p, "x")
    for op in (A, B, full, short):
        for c in op.coeffs.values():
            assert c._gauss_exp() == frac_gauss_exp([Fraction(a, c.den) for a in c.num], p)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    c=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=40).filter(any),
    scale=st.integers(-4, 4),
    j=st.integers(0, 45),
)
def test_derivatives_shrink_by_the_valuation_of_j_factorial(p, c, scale, j):
    # the bound the short product skips by: c^(j) = j! c^[j] with c^[j] of
    # integer-binomial coefficients, so |c^(j)| <= |c| - v_p(j!) (Legendre)
    c = [Fraction(a) * Fraction(p) ** scale for a in c]
    der = c
    for _ in range(j):
        der = frac_derivative(der)
    if der:
        vfact = loop_valuation(math.factorial(j), p)
        assert frac_gauss_exp(der, p) <= frac_gauss_exp(c, p) - vfact


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_cancelling_sums(p, data):
    # (d + c) * (f + h d^-1) has d^0 coefficient f' + c*f + h, and
    # (d + c) * (f + h d) has d^1 coefficient h' + c*h + f: each choice
    # below cancels that output power inside one product
    c, f = _poly(data, p, "c"), _poly(data, p, "f")
    left = {1: TatePoly.one(p), 0: c}
    right = {0: f, -1: -(f.derivative() + c * f)}
    got = (MicroOp(left, p) * MicroOp(right, p)).coeffs
    assert 0 not in got
    assert frac_op(got) == frac_op_mul(frac_op(left), frac_op(MicroOp(right, p).coeffs))
    right = {1: f, 0: -(f.derivative() + c * f)}
    got = (DiffOp(left, p) * DiffOp(right, p)).coeffs
    assert 1 not in got
    assert frac_op(got) == frac_op_mul(frac_op(left), frac_op(DiffOp(right, p).coeffs))


def test_kernel_on_empty_and_constant_maps():
    p = 3
    one = {0: TatePoly.one(p)}
    assert leibniz_product({}, one, p, "x") == {}
    assert leibniz_product(one, {}, p, "x") == {}
    assert leibniz_product({}, one, p, "x", floor=(2, 1, -5)) == {}
    d_inv = {-1: TatePoly.one(p)}
    x = {0: TatePoly.variable(p)}
    # d^-1 x = x d^-1 - d^-2
    assert leibniz_product(d_inv, x, p, "x") == {
        -1: TatePoly.variable(p), -2: -TatePoly.one(p)
    }
    # at levels (1, 1) the term -d^-2 has norm p^-2: a cutoff of -1 leaves
    # the chain of x after its first step, -2 keeps it whole
    assert leibniz_product(d_inv, x, p, "x", floor=(1, 1, -1)) == {-1: TatePoly.variable(p)}
    assert leibniz_product(d_inv, x, p, "x", floor=(1, 1, -2)) == {
        -1: TatePoly.variable(p), -2: -TatePoly.one(p)
    }


@pytest.mark.parametrize("cls", [DiffOp, MicroOp])
def test_product_keeps_the_variable(cls):
    p = 5
    t = TatePoly.variable(p, "t")
    P = cls({1: TatePoly.one(p, "t")}, p, "t")
    got = P * cls({0: t}, p, "t")
    assert got.var == "t" and str(got) == "t*d + 1"
