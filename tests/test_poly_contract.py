"""The behaviour TatePoly and ResiduePoly share: immutability, negative
powers, subtraction from either side, variable merging, prime checks,
hashing of equal values and printing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import join_residue_str
from padicdx import MixedPrimes, MixedVariables, ResiduePoly, TatePoly

CLASSES = [TatePoly, ResiduePoly]


@pytest.mark.parametrize("cls", CLASSES)
def test_immutable_message(cls):
    f = cls.variable(3)
    for name in ("p", "var", "anything"):
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(f, name, 5)


@pytest.mark.parametrize("cls", CLASSES)
def test_negative_power_refused(cls):
    with pytest.raises(ValueError, match="^negative power of a polynomial$"):
        cls.variable(3) ** -1
    with pytest.raises(ValueError, match="^negative power of a polynomial$"):
        cls.zero(3) ** -2


@pytest.mark.parametrize("cls", CLASSES)
def test_subtraction_and_powers(cls):
    f = cls((1, 2, 1), 5)
    assert f - 1 == cls((0, 2, 1), 5)
    assert 1 - f == cls((0, -2, -1), 5)
    assert f - f == cls.zero(5)
    assert (1 - f) + (f - 1) == cls.zero(5)
    assert f ** 0 == cls.one(5)
    assert (f ** 0).var == "x"
    assert f ** 3 == f * f * f
    assert cls.variable(5, "t") ** 2 == cls((0, 0, 1), 5, "t")
    assert (cls.variable(5, "t") ** 2).var == "t"


@pytest.mark.parametrize("cls", CLASSES)
def test_power_products(cls, monkeypatch):
    # square and multiply from the lowest set bit: one product per set bit
    # above it, one squaring per bit below the top one, and none by one
    f = cls((1, 1), 7)
    powers = [cls.one(7)]
    for _ in range(20):
        powers.append(powers[-1] * f)
    products = []
    mul = cls.__mul__
    monkeypatch.setattr(cls, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for exp in range(21):
        products.clear()
        assert f ** exp == powers[exp]
        expected = bin(exp).count("1") + exp.bit_length() - 2 if exp else 0
        assert len(products) == expected, exp


@pytest.mark.parametrize("cls", CLASSES)
def test_mixed_variables(cls):
    x, t = cls.variable(3), cls.variable(3, "t")
    for thunk in (lambda: x + t, lambda: t + x, lambda: x * t, lambda: t * x,
                  lambda: x - t):
        with pytest.raises(MixedVariables, match="^mixed variables"):
            thunk()
    # constants are compatible with any variable, and take the other's
    for c in (cls.one(3), cls.one(3, "t"), cls((2,), 3, "y"), cls.zero(3, "y")):
        assert (x + c).var == "x" and (c + x).var == "x"
        assert (t * c).var == "t" and (c * t).var == "t"
        assert (c - t).var == "t"


@pytest.mark.parametrize("cls", CLASSES)
def test_mixed_primes(cls):
    a, b = cls.variable(2), cls.variable(3)
    for thunk in (lambda: a + b, lambda: b * a, lambda: a - b, lambda: b - a):
        with pytest.raises(MixedPrimes, match="^mixed primes$"):
            thunk()


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_values_hash_equal(cls):
    assert cls.one(3) == cls.one(3, "t")
    assert len({cls.one(3), cls.one(3, "t")}) == 1
    assert len({cls.zero(3), cls.zero(3, "y"), cls((), 3, "t")}) == 1
    assert len({cls.variable(3), cls.variable(3, "t")}) == 2
    assert len({cls((1, 1), 3) * cls((1, 1), 3), cls((1, 2, 1), 3)}) == 1
    assert cls.one(3) != cls.one(5)


def test_residue_poly_str_examples():
    assert str(ResiduePoly.zero(5)) == "0"
    assert str(ResiduePoly((3,), 5)) == "3"
    assert str(ResiduePoly((0, 1), 5, "t")) == "t"
    assert str(ResiduePoly((4, 0, 1, 2), 5)) == "2*x^3 + x^2 + 4"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 101]),
    st.lists(st.integers(-300, 300), max_size=9),
    st.sampled_from(["x", "t", "u1"]),
)
def test_residue_poly_str_matches_joined_terms(p, coeffs, var):
    g = ResiduePoly(coeffs, p, var)
    assert str(g) == join_residue_str(g.coeffs, g.var)
