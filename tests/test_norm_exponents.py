"""Norm exponents, orders and verdicts against a Fraction oracle.

The kernel carries Gauss norm exponents as plain ints and builds a
``NormExp`` only for the value it returns.  Every value here is checked
against exponents computed from the generated Fraction coefficients with
the loop valuation of ``helpers``, which shares no code with the kernel's
arithmetic.  Denominators mix the prime with other primes, so both terms
of the exponent, the valuation of the denominator and that of the
numerators' gcd, are exercised.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    NEG_INF,
    BadLocus,
    BadLocusOnly,
    ConnectionMatrix,
    DiffOp,
    EverywhereInvertible,
    FailsDecay,
    InvertibleOnDisc,
    MicroOp,
    NormTooLarge,
    NotInvertible,
    TatePoly,
    ZeroInput,
    ZeroOperator,
    finite_order_verdict,
    micro_unit_verdict,
)
from helpers import frac_coeffs, frac_trim, frac_valuation

PRIMES = (2, 3, 5, 7)
OTHER_PRIMES = (2, 3, 5, 7, 11, 13)


# the oracle: exponents of Fraction lists, None for zero


def gauss_exp(cs, p):
    return max((-frac_valuation(c, p) for c in cs if c), default=None)


def level_exps(op, p, k, r):
    """{power: (k, r)-weighted exponent} of a {power: Fraction list} map."""
    return {
        n: gauss_exp(cs, p) + (k if n >= 0 else r) * n
        for n, cs in op.items()
        if any(cs)
    }


def unit_on_disc(cs, p):
    return bool(cs) and cs[0] != 0 and all(
        c == 0 or frac_valuation(c, p) > frac_valuation(cs[0], p) for c in cs[1:]
    )


def residues(cs, p):
    """The residues of coefficients of nonnegative valuation, trimmed."""
    out = [c.numerator * pow(c.denominator, -1, p) % p for c in cs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def reduction(cs, p):
    """The residues of the coefficients divided by p^(least valuation)."""
    unit = Fraction(p) ** -gauss_exp(cs, p)
    return residues([c / unit for c in cs], p)


# generators


@st.composite
def coefficient(draw, p):
    if draw(st.integers(0, 5)) == 0:
        return Fraction(0)
    others = [q for q in OTHER_PRIMES if q != p]
    # the numerator may carry p beyond the drawn power
    num = draw(st.integers(-40, 40).filter(bool)) * p ** draw(st.integers(0, 4))
    den = p ** draw(st.integers(0, 4)) * prod(draw(st.lists(st.sampled_from(others), max_size=3)))
    return Fraction(num, den)


@st.composite
def coefficient_list(draw, p, max_len=5):
    return draw(st.lists(coefficient(p), max_size=max_len))


@st.composite
def operator_map(draw, p, lo, hi):
    """A {power: Fraction list} map, one power pushed up by p^-boost so
    that a dominant coefficient, and units, are drawn often."""
    powers = draw(st.lists(st.integers(lo, hi), unique=True, min_size=1, max_size=4))
    op = {n: draw(coefficient_list(p)) for n in powers}
    n = draw(st.sampled_from(powers))
    boost = Fraction(p) ** -draw(st.sampled_from((0, 0, 0, 1, 3, 6)))
    op[n] = [c * boost for c in op[n]]
    return op


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_gauss_norm_normalize_reduce(p, data):
    cs = data.draw(coefficient_list(p, max_len=6))
    f = TatePoly(cs, p)
    want = gauss_exp(cs, p)
    if want is None:
        assert f.gauss_norm() == NEG_INF and f.gauss_norm().is_neg_inf()
        with pytest.raises(ZeroInput):
            f.normalize()
        assert f.reduce().is_zero()
        return
    assert f.gauss_norm().exp == want
    g, v = f.normalize()
    assert v == -want
    assert frac_coeffs(g) == frac_trim(c / Fraction(p) ** v for c in cs)
    assert gauss_exp(frac_coeffs(g), p) == 0
    if want > 0:
        with pytest.raises(NormTooLarge):
            f.reduce()
    else:
        assert f.reduce().coeffs == residues(cs, p)
    assert g.reduce().coeffs == reduction(cs, p)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_diffop_norm_and_order(p, data):
    op = data.draw(operator_map(p, 0, 5))
    P = DiffOp({n: TatePoly(cs, p) for n, cs in op.items()}, p)
    for k in range(4):
        exps = level_exps(op, p, k, k)
        if not exps:
            assert P.norm(k) == NEG_INF and P.norm(k).is_neg_inf()
            with pytest.raises(ZeroOperator):
                P.order(k)
            continue
        top = max(exps.values())
        assert P.norm(k).exp == top
        assert P.order(k) == max(n for n, e in exps.items() if e == top)
    with pytest.raises(ValueError):
        P.norm(-1)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), r=st.integers(1, 3), dk=st.integers(0, 2), data=st.data())
def test_microop_norm(p, r, dk, data):
    k = r + dk
    op = data.draw(operator_map(p, -4, 4))
    S = MicroOp({n: TatePoly(cs, p) for n, cs in op.items()}, p)
    exps = level_exps(op, p, k, r)
    if exps:
        assert S.norm(k, r).exp == max(exps.values())
    else:
        assert S.norm(k, r) == NEG_INF and S.norm(k, r).is_neg_inf()


def unit_verdict_oracle(op, p, k, r):
    exps = level_exps(op, p, k, k)  # weight k*n at every power
    top = max(exps.values())
    candidates = [n for n, e in exps.items() if e == top]
    if len(candidates) != 1:
        return NotInvertible("no unique coefficient of maximal norm")
    q = candidates[0]
    for idx in sorted(exps):
        n = idx - q
        if n and not exps[idx] < (top if n > 0 else top + n * (k - r)):
            return NotInvertible(
                f"tail coefficient at offset {n} does not contract at levels ({k}, {r})"
            )
    if unit_on_disc(frac_trim(op[q]), p):
        return InvertibleOnDisc(q)
    return ("BadLocusOnly", q, reduction(op[q], p))


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), r=st.integers(1, 3), dk=st.integers(0, 2), data=st.data())
def test_micro_unit_verdict(p, r, dk, data):
    k = r + dk
    op = data.draw(operator_map(p, -3, 3))
    S = MicroOp({n: TatePoly(cs, p) for n, cs in op.items()}, p)
    if S.is_zero():
        with pytest.raises(ZeroOperator):
            micro_unit_verdict(S, k, r)
        return
    got = micro_unit_verdict(S, k, r)
    want = unit_verdict_oracle(op, p, k, r)
    if isinstance(got, BadLocusOnly):
        assert (got.tag, got.q, got.bad.coeffs) == want
    else:
        assert got == want and got.tag == type(want).__name__


def finite_verdict_oracle(op, p, r):
    exps = level_exps(op, p, 0, 0)
    d = max(exps)
    rmin = max([1] + [(e - exps[d]) // (d - n) + 1 for n, e in exps.items() if n != d])
    if rmin > r:
        return FailsDecay(rmin)
    if unit_on_disc(frac_trim(op[d]), p):
        return EverywhereInvertible()
    return ("BadLocus", reduction(op[d], p))


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), r=st.integers(1, 4), data=st.data())
def test_finite_order_verdict(p, r, data):
    op = data.draw(operator_map(p, 0, 4))
    P = DiffOp({n: TatePoly(cs, p) for n, cs in op.items()}, p)
    if P.is_zero():
        with pytest.raises(ZeroOperator):
            finite_order_verdict(P, r)
        return
    got = finite_order_verdict(P, r)
    want = finite_verdict_oracle(op, p, r)
    if isinstance(got, BadLocus):
        assert (got.tag, got.bad.coeffs) == want
    else:
        assert got == want and got.tag == type(want).__name__


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from(PRIMES), size=st.integers(1, 3), data=st.data())
def test_connection_matrix_sup_norm(p, size, data):
    entries = [[data.draw(coefficient_list(p, max_len=3)) for _ in range(size)]
               for _ in range(size)]
    A = ConnectionMatrix([[TatePoly(cs, p) for cs in row] for row in entries], p)
    want = max(
        (e for row in entries for cs in row if (e := gauss_exp(cs, p)) is not None),
        default=None,
    )
    got = A.sup_norm()
    assert (None if got.is_neg_inf() else got.exp) == want


@pytest.mark.parametrize("p", PRIMES)
def test_zero_operator_and_polynomial_have_norm_zero(p):
    assert TatePoly.zero(p).gauss_norm() == NEG_INF
    for k in range(4):
        assert DiffOp.zero(p).norm(k) == NEG_INF
        assert DiffOp.zero(p).norm(k).is_neg_inf()
    for k, r in ((1, 1), (3, 2)):
        assert MicroOp.zero(p).norm(k, r) == NEG_INF
        assert MicroOp.zero(p).norm(k, r).is_neg_inf()
    assert ConnectionMatrix([[0, 0], [0, 0]], p).sup_norm().is_neg_inf()


@pytest.mark.parametrize("p", PRIMES)
def test_tied_dominant_coefficients(p):
    # 1 and p^k d have the same level-k exponent, 0
    for k, r in ((1, 1), (2, 1), (3, 3)):
        op = {0: [Fraction(1)], 1: [Fraction(p) ** k]}
        S = MicroOp({n: TatePoly(cs, p) for n, cs in op.items()}, p)
        got = micro_unit_verdict(S, k, r)
        assert got == unit_verdict_oracle(op, p, k, r)
        assert got == NotInvertible("no unique coefficient of maximal norm")
