"""The residue-field kernel against sympy's arithmetic over GF(p).

sympy is an optional oracle, not a dependency: without it this module is
skipped.  Inputs cover p in {2, 3, 5, 7, 11, 13}, degrees up to 20,
repeated factors and polynomials in x^p.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import ResiduePoly

sympy = pytest.importorskip("sympy")
from sympy.polys.galoistools import gf_pow_mod  # noqa: E402

X = sympy.Symbol("x")
PRIMES = [2, 3, 5, 7, 11, 13]


def to_sympy(f: ResiduePoly):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], X, modulus=f.p)


def from_sympy(g, p: int, var: str = "x") -> ResiduePoly:
    return ResiduePoly([int(c) % p for c in reversed(g.all_coeffs())], p, var)


@st.composite
def residue_polys(draw, p, max_deg=20):
    """Nonzero polynomials of degree <= max_deg, built in sympy: plain, with
    a factor raised to a power 2..4, a polynomial in x^p, or an irreducible
    factor of a plain one."""

    def plain(lo, hi):
        n = draw(st.integers(lo, hi))
        tail = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        return sympy.Poly(list(reversed(tail + [draw(st.integers(1, p - 1))])), X, modulus=p)

    shape = draw(st.sampled_from(["plain", "repeated", "x^p", "irreducible"]))
    if shape == "plain":
        g = plain(0, max_deg)
    elif shape == "repeated":
        e = draw(st.integers(2, 4))
        h = plain(1, max(1, max_deg // (2 * e)))
        g = plain(0, max_deg - e * h.degree()) * h**e
    elif shape == "x^p":
        g = plain(0, max_deg // p).compose(sympy.Poly(X**p, X, modulus=p))
    else:
        _, factors = plain(1, max_deg).factor_list()
        g = max((q for q, _ in factors), key=lambda q: q.degree())
    return from_sympy(g, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_factor_and_irreducibility_against_sympy(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    f = data.draw(residue_polys(p), label="f")
    _, factors = to_sympy(f).factor_list()
    want = sorted(
        ((from_sympy(q, p), m) for q, m in factors),
        key=lambda qm: (qm[0].degree(), qm[0].coeffs),
    )
    got = f.factor()
    assert got == want
    assert all(q.is_irreducible() for q, _ in got)
    if f.degree() >= 1:
        assert f.is_irreducible() == to_sympy(f).is_irreducible


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_division_gcd_and_powers_against_sympy(data):
    p = data.draw(st.sampled_from(PRIMES), label="p")
    f = data.draw(residue_polys(p), label="f")
    g = data.draw(residue_polys(p), label="g")
    e = data.draw(st.integers(0, p**3), label="e")
    F, G = to_sympy(f), to_sympy(g)
    quo, rem = divmod(f, g)
    assert (quo, rem) == tuple(from_sympy(h, p) for h in F.div(G))
    assert f * g == from_sympy(F * G, p)
    assert f.gcd(g) == from_sympy(F.gcd(G), p)
    if g.degree() > 0 or e > 0:  # pow_mod(0, constant) is one, unreduced
        want = gf_pow_mod(F.all_coeffs(), e, G.all_coeffs(), p, sympy.ZZ)
        assert f.pow_mod(e, g) == ResiduePoly(list(reversed(want)), p)
