import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    NEG_INF,
    DiffOp,
    KernelError,
    MicroOp,
    MixedPrimes,
    NegativeValuation,
    NormExp,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    TruncatedOperand,
    is_prime,
)
from padicdx.scalars import _fraction_valuation
from helpers import loop_valuation


def test_valuation_examples():
    assert PAdicScalar(8, 2).valuation() == 3
    assert PAdicScalar(Fraction(3, 4), 2).valuation() == -2
    assert PAdicScalar(0, 2).valuation() == math.inf


def test_norm_examples():
    assert PAdicScalar.uniformizer_power(2).norm() == NormExp(-1)
    assert PAdicScalar(1, 3).norm() == NormExp(0)
    assert PAdicScalar(Fraction(1, 4), 2).norm() == NormExp(2)
    assert PAdicScalar(0, 5).norm() == NEG_INF


def test_reduce_mod_pi_examples():
    assert PAdicScalar(2, 2).reduce_mod_pi().value == 0
    assert PAdicScalar(Fraction(3, 5), 2).reduce_mod_pi().value == 1
    with pytest.raises(NegativeValuation):
        PAdicScalar(Fraction(1, 2), 2).reduce_mod_pi()


def test_reduce_is_multiplicative():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(50):
            a = PAdicScalar(
                Fraction(rng.randint(-40, 40), rng.choice([1, 3, 7, 11])), p
            )
            b = PAdicScalar(
                Fraction(rng.randint(-40, 40), rng.choice([1, 3, 7, 11])), p
            )
            if a.valuation() < 0 or b.valuation() < 0:
                continue
            lhs = (a * b).reduce_mod_pi()
            rhs = a.reduce_mod_pi() * b.reduce_mod_pi()
            assert lhs == rhs


def test_norm_exp_order_and_addition():
    assert NEG_INF < NormExp(-100)
    assert NormExp(-1) < NormExp(0) < NormExp(3)
    assert NormExp(2) + NormExp(-5) == NormExp(-3)
    assert NormExp(2) + 3 == NormExp(5)
    assert NEG_INF + NormExp(10) == NEG_INF
    assert max([NEG_INF, NormExp(1), NormExp(-4)]) == NormExp(1)


_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


@settings(max_examples=200, deadline=None)
@given(a=_rationals, b=_rationals, p=st.sampled_from([2, 3, 5]))
def test_norm_multiplicative_and_ultrametric(a, b, p):
    qa, qb = PAdicScalar(a, p), PAdicScalar(b, p)
    assert (qa * qb).norm() == qa.norm() + qb.norm()
    s = (qa + qb).norm()
    assert s <= max(qa.norm(), qb.norm())
    if qa.norm() != qb.norm():
        assert s == max(qa.norm(), qb.norm())


def test_prime_validation():
    assert is_prime(2) and is_prime(97)
    assert not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        PAdicScalar(1, 6)


def test_arithmetic_round_trip():
    q = PAdicScalar(Fraction(3, 4), 5)
    assert q + 1 - 1 == q
    assert (q * 2) / 2 == q
    assert -(-q) == q
    assert q**3 == PAdicScalar(Fraction(27, 64), 5)
    assert str(q) == "3/4"


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    miller_rabin = is_prime.__wrapped__  # uncached, to keep the cache small
    assert [n for n in range(-3, 10**5) if miller_rabin(n) != _trial_division(n)] == []


def test_is_prime_rejects_strong_pseudoprimes_and_is_fast():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    # 211 * 421 * 631, a Carmichael number prime to every base: its powers
    # reach 1 through a square root of 1 other than -1
    assert not is_prime(56052361)
    start = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and is_prime(2**127 - 1)
    assert not is_prime(2**64 + 1) and not is_prime((2**61 - 1) * (2**31 - 1))
    assert time.perf_counter() - start < 0.5


def test_mixed_primes_scalar():
    with pytest.raises(MixedPrimes, match="mixed primes") as info:
        PAdicScalar(1, 2) + PAdicScalar(1, 3)
    assert isinstance(info.value, KernelError) and isinstance(info.value, ValueError)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 2**61 - 1]),
    v=st.integers(0, 200),
    unit=st.integers(1, 10**40),
    negative=st.booleans(),
)
def test_fraction_valuation_matches_the_division_loop(p, v, unit, negative):
    n = (-1 if negative else 1) * p**v * unit
    assert _fraction_valuation(n, p) == loop_valuation(n, p) >= v


@pytest.mark.parametrize(
    "base",
    [
        TatePoly((Fraction(1, 3), 0, 5), 5, "t"),
        ResiduePoly((1, 2, 0, 3), 7, "t"),
        MicroOp({-1: TatePoly((1, 2), 3, "t"), 1: 3}, 3, "t"),
    ],
)
def test_ring_powers_are_repeated_products(base):
    """_Ring.__pow__ starts from the lowest set bit, with no product by
    one; the power 0 is still the one of the base's prime and variable."""
    one = base ** 0
    assert one == type(base).one(base.p) and (one.p, one.var) == (base.p, "t")
    product = base
    for exp in range(1, 10):
        assert base ** exp == product
        assert ((base ** exp).p, (base ** exp).var) == (base.p, "t")
        product = product * base


def test_first_power_of_a_truncated_operator_refused():
    T = DiffOp.truncated({0: 1, 1: 1}, 2)
    assert T ** 0 == DiffOp.one(2)
    for exp in (1, 2, 5):
        with pytest.raises(TruncatedOperand):
            T ** exp
