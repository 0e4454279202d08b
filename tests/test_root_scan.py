"""Equal-degree splitting of products of linear factors: roots found by
evaluation for p up to ``residue._SCAN_MAX`` and random splits above it,
both checked against the factorization the input was built from, sympy
and brute force; and the generator of the random splits, seeded only
when a split is drawn."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_factor
from padicdx import ResiduePoly, factor_reduction
from padicdx import residue

# below, at and above the switch: the largest prime at most _SCAN_MAX is
# 499 and the least prime above it 503
PRIMES = (2, 3, 7, 101, 499, 503, 1009)


def linear(c, p):
    return ResiduePoly((-c, 1), p)


def split(roots: dict, p: int, scale: int = 1) -> ResiduePoly:
    """scale times the product of (x - c)^e over the roots c: e."""
    f = ResiduePoly((scale,), p)
    for c, e in roots.items():
        f = f * linear(c, p) ** e
    return f


def expected(roots: dict, p: int) -> list:
    return sorted(((linear(c, p), e) for c, e in roots.items()), key=lambda qm: qm[0].coeffs)


@st.composite
def split_polys(draw, max_roots=12):
    p = draw(st.sampled_from(PRIMES), label="p")
    roots = draw(
        st.dictionaries(
            st.integers(0, p - 1), st.integers(1, 3), min_size=1, max_size=min(p, max_roots)
        ),
        label="roots",
    )
    return p, roots, draw(st.integers(1, p - 1), label="scale")


@settings(max_examples=150, deadline=None)
@given(split_polys())
def test_split_polynomials_factor_into_their_roots(case):
    p, roots, scale = case
    f = split(roots, p, scale)
    want = expected(roots, p)
    assert f.factor() == want
    assert [(pt.minimal_poly, m) for pt, m in factor_reduction(f)] == want
    if p <= 101:
        assert brute_factor(f) == want


@settings(max_examples=60, deadline=None)
@given(split_polys(max_roots=8), st.data())
def test_split_times_any_polynomial_against_sympy(case, data):
    sympy = pytest.importorskip("sympy")
    p, roots, scale = case
    n = data.draw(st.integers(0, 8), label="n")
    tail = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), label="tail")
    f = split(roots, p, scale) * ResiduePoly(tail + [1], p)
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
    want = sorted(
        (
            (ResiduePoly([int(c) % p for c in reversed(q.all_coeffs())], p), m)
            for q, m in factors
        ),
        key=lambda qm: (qm[0].degree(), qm[0].coeffs),
    )
    assert f.factor() == want


@pytest.mark.parametrize("p", [2, 3, 7, 101, 499, 503])
def test_every_element_is_a_root_of_x_to_the_p_minus_x(p):
    f = ResiduePoly([0, -1] + [0] * (p - 2) + [1], p)
    assert f.factor() == expected(dict.fromkeys(range(p), 1), p)


def test_repeated_roots_at_two():
    x, x1 = linear(0, 2), linear(1, 2)
    f = x**5 * x1**2 * ResiduePoly((1, 1, 1), 2)
    assert f.factor() == [(x, 5), (x1, 2), (ResiduePoly((1, 1, 1), 2), 1)]
    assert brute_factor(f) == f.factor()


def _count_scans_and_seeds(monkeypatch):
    """Record the arguments of every _value call and the seed of every
    generator the factorization makes."""
    values, seeds = [], []
    value, Random = residue._value, random.Random
    monkeypatch.setattr(residue, "_value", lambda *a: values.append(a) or value(*a))
    monkeypatch.setattr(
        residue, "random", SimpleNamespace(Random=lambda seed: seeds.append(seed) or Random(seed))
    )
    return values, seeds


@pytest.mark.parametrize("p", [499, 503])
def test_roots_are_scanned_up_to_the_switch(p, monkeypatch):
    """The switch is the measured 500; at 499 the roots are found by
    evaluation and no generator is made, at 503 by random splits from one
    generator, and both give the same factors."""
    assert residue._SCAN_MAX == 500
    values, seeds = _count_scans_and_seeds(monkeypatch)
    roots = dict.fromkeys([0, 1, 250, 498], 1)
    assert split(roots, p).factor() == expected(roots, p)
    if p <= residue._SCAN_MAX:
        # the scan stops at the last root, 498
        assert [c for _, c, _ in values] == list(range(499)) and seeds == []
    else:
        assert values == [] and seeds == [residue._EDF_SEED]


@pytest.mark.parametrize(
    "f, want",
    [
        (ResiduePoly((5,), 503), []),
        (ResiduePoly((7, 2), 503), [(ResiduePoly((255, 1), 503), 1)]),
        # irreducible: -2 is not a square mod 503
        (ResiduePoly((2, 0, 1), 503), [(ResiduePoly((2, 0, 1), 503), 1)]),
        (
            ResiduePoly((1, 1), 503) ** 3 * ResiduePoly((2, 0, 1), 503),
            [(ResiduePoly((1, 1), 503), 3), (ResiduePoly((2, 0, 1), 503), 1)],
        ),
    ],
)
def test_nothing_seeded_without_a_random_split(f, want, monkeypatch):
    values, seeds = _count_scans_and_seeds(monkeypatch)
    assert f.factor() == want
    assert seeds == [] and values == []


def test_one_generator_per_factorization(monkeypatch):
    """Two quadratics over F_3 take one random split of degree two, and
    factoring again makes a generator again, with the same seed."""
    values, seeds = _count_scans_and_seeds(monkeypatch)
    f = ResiduePoly((1, 0, 1), 3) * ResiduePoly((2, 1, 1), 3)
    assert f.factor() == f.factor() == brute_factor(f)
    assert seeds == [residue._EDF_SEED] * 2 and values == []
