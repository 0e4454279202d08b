import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    ClosedPoint,
    KernelError,
    MixedPrimes,
    ResidueElem,
    ResiduePoly,
    ZeroInput,
    factor_reduction,
)
from helpers import brute_factor, brute_is_irreducible, horner_translate


def P(coeffs, p=2, var="x"):
    return ResiduePoly(coeffs, p, var)


def test_basic_arithmetic():
    f = P([1, 1])  # x + 1 over F2
    assert f * f == P([1, 0, 1])  # x^2 + 1 = (x+1)^2
    assert (f + f).is_zero()
    q, r = divmod(P([1, 0, 1]), f)
    assert q == f and r.is_zero()


def test_derivative_and_pth_root():
    f = P([1, 0, 1])  # x^2 + 1 in char 2
    assert f.derivative().is_zero()
    assert f.pth_root() == P([1, 1])
    g = P([0, 0, 0, 1, 0, 0, 2], p=3)  # x^3 + 2x^6 = (x + 2x^2)^3
    assert g.pth_root() == P([0, 1, 2], p=3)


def test_factor_fixtures():
    # x^2 over F2: the double point at the origin
    assert P([0, 0, 1]).factor() == [(P([0, 1]), 2)]
    # t^2 - t = t(t - 1)
    t2t = P([0, 1], var="t") * (P([0, 1], var="t") - 1)
    assert t2t.factor() == [(P([0, 1], var="t"), 1), (P([1, 1], var="t"), 1)]
    # x^2 + x + 1 has no roots over F2 and degree two, hence irreducible
    assert P([1, 1, 1]).factor() == [(P([1, 1, 1]), 1)]
    assert P([1, 1, 1]).is_irreducible()


def test_factor_zero_raises():
    with pytest.raises(ZeroInput):
        P([]).factor()
    with pytest.raises(ZeroInput):
        factor_reduction(P([]))


def test_factor_constants_are_empty():
    assert P([1]).factor() == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_against_exhaustive_oracle(p):
    rng = random.Random(100 + p)
    for _ in range(25):
        deg = rng.randint(1, 5)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = ResiduePoly(coeffs, p)
        got = f.factor()
        assert got == brute_factor(f)
        # re-multiplying recovers the monic part
        prod = ResiduePoly.one(p)
        for q, m in got:
            prod = prod * q**m
        assert prod == f.monic()
        assert sum(q.degree() * m for q, m in got) == f.degree()
        for q, _ in got:
            assert brute_is_irreducible(q)
            assert q.is_irreducible()


@pytest.mark.parametrize("p", [2, 3])
def test_irreducibility_against_oracle(p):
    rng = random.Random(55 + p)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        f = ResiduePoly(coeffs, p)
        assert f.is_irreducible() == brute_is_irreducible(f)


def test_factor_with_pth_power_multiplicities():
    # (x + 1)^4 * x over F2 exercises the vanishing-derivative path
    f = P([1, 1]) ** 4 * P([0, 1])
    assert f.factor() == [(P([0, 1]), 1), (P([1, 1]), 4)]


# an irreducible quadratic over each prime field
QUADRATIC = {2: [1, 1, 1], 3: [1, 0, 1], 5: [2, 0, 1]}


@pytest.mark.parametrize("p", sorted(QUADRATIC))
def test_factor_mixes_multiplicities_p_divides_and_not(p):
    # (x + 1)^p (x + 2)^(p + 1) q^(2p): in gcd(f, f') the factors x + 1
    # and q sit wholly, x + 2 loses one power
    lin1, lin2, q = P([1, 1], p), P([2, 1], p), P(QUADRATIC[p], p)
    assert q.is_irreducible()
    f = lin1**p * lin2 ** (p + 1) * q ** (2 * p)
    want = [(lin1, p), (lin2, p + 1), (q, 2 * p)]
    want.sort(key=lambda qm: (qm[0].degree(), qm[0].coeffs))
    got = (f * (p - 1)).factor()  # a unit times f factors like f
    assert got == want
    prod = ResiduePoly.one(p)
    for factor, m in got:
        prod = prod * factor**m
    assert prod == f


def test_translate():
    f = P([0, 0, 1], p=3)  # x^2
    g = f.translate(1)  # (x + 1)^2
    assert g == P([1, 2, 1], p=3)
    assert g.translate(-1) == f
    with pytest.raises(MixedPrimes, match="^mixed primes$"):
        P([1, 2, 1], p=3).translate(ResidueElem(1, 5))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    coeffs=st.lists(st.integers(-50, 50), max_size=25),
    c=st.integers(-30, 30),
    var=st.sampled_from(["x", "t"]),
)
def test_translate_against_object_horner(p, coeffs, c, var):
    f = ResiduePoly(coeffs, p, var)
    g = f.translate(c)
    assert g == horner_translate(f, c)
    assert g.var == var and g.translate(-c) == f
    assert f.translate(ResidueElem(c, p)) == g


def test_mixed_primes_residue_elem():
    with pytest.raises(MixedPrimes, match="mixed primes") as info:
        ResidueElem(1, 2) + ResidueElem(1, 3)
    assert isinstance(info.value, KernelError) and isinstance(info.value, ValueError)


def test_residue_elem_subtraction_from_either_side():
    assert 1 - ResidueElem(2, 5) == ResidueElem(4, 5)
    assert ResidueElem(2, 5) - 1 == ResidueElem(1, 5)
    a, b = ResidueElem(1, 2), ResidueElem(1, 3)
    for thunk in (lambda: a - b, lambda: b - a):
        with pytest.raises(MixedPrimes, match="mixed primes"):
            thunk()


def test_mixed_primes_residue_poly():
    f = P([1, 1], p=2)
    for other in (P([1, 1], p=3), ResidueElem(1, 3)):
        with pytest.raises(MixedPrimes):
            f * other
    with pytest.raises(MixedPrimes):
        f.gcd(P([1, 1], p=5))
    with pytest.raises(ValueError):
        divmod(f, P([1], p=3))


def test_pow_mod_refuses_a_negative_exponent():
    # -1 >> 1 stays -1, so square and multiply would never end; an alarm
    # turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("pow_mod did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(ValueError, match="^negative power of a polynomial$"):
            P([1, 1], 3).pow_mod(-1, P([1, 0, 1], 3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert P([1, 1], 3).pow_mod(0, P([1, 0, 1], 3)) == P([1], 3)


def test_pow_mod_takes_its_modulus_as_an_operand():
    # an int or a residue is a constant modulus, as for %
    f = P([1, 1], 3)
    assert f.pow_mod(3, 5).is_zero() and f.pow_mod(3, ResidueElem(2, 3)).is_zero()
    with pytest.raises(ZeroDivisionError):
        f.pow_mod(3, 3)
    with pytest.raises(MixedPrimes):
        f.pow_mod(3, ResidueElem(1, 5))
    for other in ("x", None, 1.5):
        with pytest.raises(TypeError, match="^pow_mod modulo "):
            f.pow_mod(3, other)


def test_pow_mod_zero_exponent_is_reduced_by_a_unit_constant():
    # f^0 = 1, and 1 mod a unit constant is 0, as for %
    f = P([1, 1], 3)
    assert P([1], 3) % 5 == P([], 3)
    assert f.pow_mod(0, 5) == P([], 3)
    assert f.pow_mod(0, P([2], 3)) == P([], 3)
    assert f.pow_mod(0, ResidueElem(2, 3)) == P([], 3)


def test_gcd_with_a_non_polynomial_is_a_type_error():
    for other in ("x", None, 1.5):
        with pytest.raises(TypeError):
            P([1, 1]).gcd(other)


def test_closed_point_validation_and_identity():
    pt = ClosedPoint(P([1, 1, 1]), "x")
    assert pt.degree == 2
    assert pt.label() == "x^2 + x + 1"
    with pytest.raises(ValueError):
        ClosedPoint(P([0, 0, 1]), "x")  # x^2 is reducible
    with pytest.raises(ValueError):
        ClosedPoint(P([1]), "x")  # constants are not points
    with pytest.raises(ValueError, match="is not monic"):
        ClosedPoint(P([2, 2], 3), "x")  # 2x + 2 is the point x = -1 of x + 1


def test_factor_reduction_points():
    pts = factor_reduction(P([0, 0, 1]))
    assert [(pt.label(), m) for pt, m in pts] == [("x", 2)]
    assert all(pt.chart == "x" for pt, _ in pts)
