"""Factoring with the linear factors divided out first, against a known
factorization, brute force and sympy.

Inputs are products of chosen monic irreducibles over p in {2, 3, 5, 7,
11} of degree above p, with repeated linear factors, multiplicities p,
p + 1 and 2p, and whole p-th powers, so the root scan, the square-free
parts and the p-th roots all run.  Rabin's test, on the same Frobenius
as distinct-degree splitting, is checked against trial division.  The
root scan runs only when p is at most the degree: above it no synthetic
division is made.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_factor, brute_is_irreducible, monic_polys
from padicdx import ResiduePoly
from padicdx import residue

PRIMES = (2, 3, 5, 7, 11)


@cache
def irreducibles(p: int, deg: int) -> tuple:
    return tuple(q for q in monic_polys(p, deg) if brute_is_irreducible(q))


def ordered(pairs) -> list:
    return sorted(pairs, key=lambda qm: (qm[0].degree(), qm[0].coeffs))


@st.composite
def known_products(draw):
    """(p, f, the factorization of f): distinct irreducibles of degree 1
    to 3 raised to multiplicities among 1, 2, 3, p, p + 1 and 2p, the
    whole raised to the p-th power or not, times a unit."""
    p = draw(st.sampled_from(PRIMES), label="p")
    mults = st.sampled_from(sorted({1, 2, 3, p, p + 1, 2 * p}))
    chosen = {}
    for deg, most in ((1, 5), (2, 2), (3, 1)):
        pool = irreducibles(p, deg)
        for q in draw(st.lists(st.sampled_from(pool), max_size=most, unique=True), label=f"deg {deg}"):
            chosen[q] = draw(mults, label="mult")
    if not chosen or sum(q.degree() * e for q, e in chosen.items()) <= p:
        # a repeated root makes the degree exceed p
        q = draw(st.sampled_from(irreducibles(p, 1)), label="padding root")
        chosen[q] = chosen.get(q, 0) + p + 1
    if draw(st.booleans(), label="p-th power"):
        chosen = {q: e * p for q, e in chosen.items()}
    f = ResiduePoly([draw(st.integers(1, p - 1), label="unit")], p)
    for q, e in chosen.items():
        f = f * q**e
    return p, f, ordered(chosen.items())


@settings(max_examples=200, deadline=None)
@given(known_products())
def test_factor_recovers_the_product_it_was_built_from(case):
    p, f, want = case
    assert f.degree() > p
    assert f.factor() == want
    if max(q.degree() for q, _ in want) * p <= 15:  # keep trial division short
        assert brute_factor(f) == want


@settings(max_examples=100, deadline=None)
@given(known_products())
def test_factor_against_sympy(case):
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.galoistools import gf_factor

    p, f, want = case
    _, factors = gf_factor([ZZ(c) for c in reversed(f.coeffs)], p, ZZ)
    got = ordered((ResiduePoly([int(c) for c in reversed(q)], p), m) for q, m in factors)
    assert got == want == f.factor()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_rabin_test_against_trial_division(p, data):
    deg = data.draw(st.integers(1, 6 if p <= 3 else 4), label="deg")
    tail = data.draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg), label="tail")
    f = ResiduePoly(tail + [data.draw(st.integers(1, p - 1), label="lead")], p)
    assert f.is_irreducible() == brute_is_irreducible(f)


@pytest.mark.parametrize("p", PRIMES + (503,))
def test_frobenius_is_the_p_th_power(p):
    """Spread up to p = 7; from p = 11 on, square and multiply for the
    h of degree 7 and spread for the short ones."""
    f = ResiduePoly(list(range(1, 9)) + [1], p)
    for h in (ResiduePoly([0, 1], p), ResiduePoly([1, 2, 3], p), ResiduePoly([-1] * 8, p)):
        assert residue._frobenius(h.coeffs, f.coeffs, p) == list((h**p % f).coeffs)


def _count_synthetic_divisions(monkeypatch) -> list:
    calls = []
    divide = residue._synthetic_div
    monkeypatch.setattr(residue, "_synthetic_div", lambda *a: calls.append(a[1:]) or divide(*a))
    return calls


@pytest.mark.parametrize(
    "p, roots",
    [
        (7, {0: 2, 3: 2, 6: 2}),  # degree 6 < p
        (11, {1: 3, 5: 3, 10: 3}),  # degree 9 < p
        (503, {0: 1, 1: 4, 250: 2, 498: 3}),
    ],
)
def test_no_root_scan_above_the_degree(p, roots, monkeypatch):
    """For p above deg f the roots are found by equal-degree splitting as
    before, and no synthetic division is made."""
    calls = _count_synthetic_divisions(monkeypatch)
    f = ResiduePoly((1,), p)
    for c, e in roots.items():
        f = f * ResiduePoly((-c, 1), p) ** e
    assert f.degree() < p
    assert f.factor() == ordered((ResiduePoly((-c, 1), p), e) for c, e in roots.items())
    assert calls == []


def test_root_scan_at_the_degree(monkeypatch):
    """At p = deg f every c in F_p is tried, and each root is divided out
    once per multiplicity and once more to find the nonzero remainder."""
    calls = _count_synthetic_divisions(monkeypatch)
    q = ResiduePoly((1, 1, 1), 5)  # no roots mod 5
    f = ResiduePoly((-2, 1), 5) ** 3 * q
    assert f.degree() == 5
    assert f.factor() == [(ResiduePoly((3, 1), 5), 3), (q, 1)]
    assert [c for c, _ in calls] == [0, 1, 2, 2, 2, 2, 3, 4]
