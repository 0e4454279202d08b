import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    NEG_INF,
    KernelError,
    MixedPrimes,
    NormExp,
    NormTooLarge,
    NotAUnit,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    ZeroInput,
)
from helpers import (
    frac_add,
    frac_coeffs,
    frac_compose_linear,
    frac_derivative,
    frac_drop_below,
    frac_gauss_exp,
    frac_mul,
    frac_scale,
    frac_trim,
    frac_valuation,
    loop_valuation,
    rand_poly,
)


def xvar(p):
    return TatePoly.variable(p)


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def fixture_poly(p):
    """(x - pi)(x - pi^2), the running support example."""
    return (xvar(p) - w(p)) * (xvar(p) - w(p, 2))


def test_gauss_norm_examples():
    p = 2
    assert fixture_poly(p).gauss_norm() == NormExp(0)
    f = xvar(p).scale(w(p)) + w(p, 2)
    assert f.gauss_norm() == NormExp(-1)
    assert TatePoly.zero(p).gauss_norm() == NEG_INF


def test_normalize_examples():
    p = 2
    t = TatePoly.variable(p, "t")
    f = ((t - 1) * (t - w(p))).scale(w(p, 2))
    g, v = f.normalize()
    assert v == 2 and g == (t - 1) * (t - w(p))
    assert xvar(p).normalize() == (xvar(p), 0)
    assert TatePoly.constant(w(p, 3), p).normalize() == (TatePoly.one(p), 3)
    with pytest.raises(ZeroInput):
        TatePoly.zero(p).normalize()


def test_reduce_examples():
    p = 2
    assert fixture_poly(p).reduce() == ResiduePoly([0, 0, 1], p)
    t = TatePoly.variable(p, "t")
    red = ((t - 1) * (t - w(p))).reduce()
    tt = ResiduePoly.variable(p, "t")
    assert red == tt * (tt - 1)
    assert TatePoly.one(p).reduce() == ResiduePoly([1], p)
    with pytest.raises(NormTooLarge):
        TatePoly.constant(Fraction(1, 2), 2).reduce()


def test_unit_on_disc_examples():
    p = 2
    assert (TatePoly.one(p) + xvar(p).scale(w(p))).is_unit_on_disc()
    assert not (xvar(p) - w(p)).is_unit_on_disc()
    assert not xvar(p).is_unit_on_disc()
    assert not TatePoly.zero(p).is_unit_on_disc()


def test_invert_on_disc_geometric_series():
    p = 2
    f = TatePoly.one(p) - xvar(p).scale(w(p))
    g, rho = f.invert_on_disc(NormExp(-3))
    expected = TatePoly(
        [1, w(p), w(p, 2), w(p, 3)], p
    )  # 1 + pi x + (pi x)^2 + (pi x)^3
    assert g == expected
    assert rho == NormExp(-4)
    assert (f * g - 1).gauss_norm() == rho


def test_invert_on_disc_trivial_and_error():
    p = 3
    g, rho = TatePoly.one(p).invert_on_disc(-5)
    assert g == TatePoly.one(p) and rho == NEG_INF
    with pytest.raises(NotAUnit):
        xvar(p).invert_on_disc(-2)


def test_invert_on_disc_certification_random():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            f = TatePoly.one(p) + rand_poly(rng, p, max_deg=3, val_range=(1, 3))
            if not f.is_unit_on_disc():
                continue
            eps = rng.randint(-9, -2)
            g, rho = f.invert_on_disc(eps)
            assert rho < NormExp(eps)
            assert (f * g - 1).gauss_norm() == rho


def test_derivative_examples():
    p = 2
    assert (xvar(p) ** 2).derivative() == xvar(p).scale(2)
    got = fixture_poly(p).derivative()
    assert got == xvar(p).scale(2) - TatePoly.constant(w(p) + w(p, 2), p)
    assert TatePoly.constant(7, p).derivative().is_zero()


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_gauss_norm_multiplicative(p, data):
    def poly(label):
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=-50, max_value=50, max_denominator=30),
                min_size=1,
                max_size=7,
            ),
            label=label,
        )
        return TatePoly(coeffs, p)

    f, g = poly("f"), poly("g")
    assert (f * g).gauss_norm() == f.gauss_norm() + g.gauss_norm()


def test_gauss_norm_multiplicative_corpus():
    rng = random.Random(42)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(80):
            f = rand_poly(rng, p, max_deg=6)
            g = rand_poly(rng, p, max_deg=6)
            assert (f * g).gauss_norm() == f.gauss_norm() + g.gauss_norm()
            checked += 1
    assert checked >= 200


def test_derivative_norm_bound():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(60):
            f = rand_poly(rng, p, max_deg=6)
            assert f.derivative().gauss_norm() <= f.gauss_norm()


def test_compose_linear():
    p = 2
    f = fixture_poly(p)
    pulled = f.compose_linear(PAdicScalar.zero(p), w(p), "t")
    t = TatePoly.variable(p, "t")
    assert pulled == ((t - 1) * (t - w(p))).scale(w(p, 2))


def test_newton_valuation_counts():
    p = 2
    # (x - pi)(x - pi^2): one root of valuation 1, one of valuation 2
    counts = dict(fixture_poly(p).newton_valuation_counts())
    assert counts == {Fraction(1): 1, Fraction(2): 1}
    # x^2 - pi: two roots of valuation 1/2
    g = xvar(p) ** 2 - w(p)
    assert dict(g.newton_valuation_counts()) == {Fraction(1, 2): 2}
    # pi x - 1: one root of valuation -1, outside the disc
    h = xvar(p).scale(w(p)) - 1
    assert dict(h.newton_valuation_counts()) == {Fraction(-1): 1}
    # x^2 * (x - pi): zero roots excluded from the polygon listing
    k = xvar(p) ** 2 * (xvar(p) - w(p))
    assert dict(k.newton_valuation_counts()) == {Fraction(1): 1}


def test_printing_round_trip_style():
    p = 2
    f = fixture_poly(p)
    assert str(f) == "x^2 - 6*x + 8"
    assert str(TatePoly.zero(p)) == "0"
    assert str(TatePoly([Fraction(1, 2), 1], p)) == "x + 1/2"


def _assert_canonical(f):
    assert f.den > 0 and gcd(f.den, *f.num) == 1
    assert f.num[-1] != 0 if f.num else f.den == 1


def _coefficient(p):
    """Zero, or a numerator of up to about 400 bits over a denominator of
    up to 64 bits, times p to a power in -40..40."""
    nonzero = st.builds(
        lambda n, d, v: Fraction(n, d) * Fraction(p) ** v,
        st.integers(-(2**400), 2**400),
        st.integers(1, 2**64),
        st.integers(-40, 40),
    )
    return st.one_of(st.just(Fraction(0)), nonzero)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_integer_core_against_fraction_oracle(p, data):
    def coeffs(label):
        # degree -1 (zero) to 60, uniformly: st.integers favours small sizes
        n = data.draw(st.sampled_from(range(62)), label=f"len({label})")
        return data.draw(st.lists(_coefficient(p), min_size=n, max_size=n), label=label)

    a, b = coeffs("a"), coeffs("b")
    s = data.draw(_coefficient(p), label="s")
    cutoff = data.draw(st.integers(-45, 45), label="cutoff")
    # shifts and stretches: small fractions, or denominators that mix
    # powers of p with other primes, so that lcm(denominators) is not trivial
    linear = st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
        st.builds(
            lambda n, d, v: Fraction(n, d) * Fraction(p) ** v,
            st.integers(-(2**24), 2**24),
            st.integers(1, 2**16),
            st.integers(-8, 8),
        ),
    )
    shift, stretch = data.draw(linear, label="shift"), data.draw(linear, label="stretch")
    f, g = TatePoly(a, p), TatePoly(b, p)
    fa, fb = frac_trim(a), frac_trim(b)
    # the low half of f: f + (low - f) cancels down to it
    low = TatePoly(a[: len(a) // 2], p)
    results = {
        "f": (f, fa),
        "f*g": (f * g, frac_mul(fa, fb)),
        "f+g": (f + g, frac_add(fa, fb)),
        "f-g": (f - g, frac_add(fa, frac_scale(fb, -1))),
        "f-f": (f - f, []),
        "f+(low-f)": (f + (low - f), frac_trim(a[: len(a) // 2])),
        "scale": (f.scale(s), frac_scale(fa, s)),
        "derivative": (f.derivative(), frac_derivative(fa)),
        "drop_below": (f.drop_below(cutoff), frac_drop_below(fa, p, cutoff)),
        "compose_linear": (
            f.compose_linear(shift, stretch, "t"),
            frac_compose_linear(fa, shift, stretch),
        ),
    }
    for label, (got, want) in results.items():
        _assert_canonical(got)
        assert frac_coeffs(got) == want, label
    e = f.gauss_norm()
    assert (None if e.is_neg_inf() else e.exp) == frac_gauss_exp(fa, p)
    unit = bool(fa) and fa[0] != 0 and all(
        c == 0 or frac_valuation(c, p) > frac_valuation(fa[0], p) for c in fa[1:]
    )
    assert f.is_unit_on_disc() == unit


def _integer_with_valuation(p, top):
    """A nonzero integer u * p^v with v in 0..top."""
    unit = st.integers(-(2**64), 2**64).filter(lambda u: u % p)
    return st.builds(lambda u, v: u * p**v, unit, st.integers(0, top))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_drop_below_against_valuations(p, data):
    # coefficients of valuation 0..60 over a denominator of valuation
    # 0..40, and cutoffs from well below every coefficient norm to above all
    num = data.draw(
        st.lists(st.just(0) | _integer_with_valuation(p, 60), max_size=12), label="num"
    )
    den = abs(data.draw(_integer_with_valuation(p, 40), label="den"))
    cutoff = data.draw(st.integers(-70, 50), label="cutoff")
    f = TatePoly([Fraction(a, den) for a in num], p)
    # the full valuation per coefficient, as drop_below computed it before
    keep = loop_valuation(f.den, p) - cutoff
    want = TatePoly(
        [Fraction(a, f.den) if a and loop_valuation(a, p) <= keep else 0 for a in f.num], p
    )
    got = f.drop_below(cutoff)
    assert got == want
    assert all(type(a) is int for a in got.num) and type(got.den) is int
    if keep < 0:
        assert got.is_zero()


def test_equal_polynomials_compare_and_hash_equal():
    for p in (2, 3, 5, 7):
        f, g = TatePoly([Fraction(2, 4)], p), TatePoly([Fraction(1, 2)], p)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        x = TatePoly.variable(p)
        h = (x + Fraction(1, 3)) + (x + Fraction(1, 6))
        k = TatePoly([PAdicScalar(Fraction(3, 6), p), Fraction(4, 2)], p)
        assert h == k and hash(h) == hash(k)
        z = TatePoly([0, Fraction(0, 5)], p)
        assert z == TatePoly.zero(p) == x - x and hash(z) == hash(x - x)


def test_constructor_and_arithmetic_checks():
    with pytest.raises(ValueError):
        TatePoly([1], 4)
    with pytest.raises(ValueError):
        TatePoly([PAdicScalar(1, 3)], 2)
    f = TatePoly([1, 2], 2)
    with pytest.raises(ValueError):
        f + TatePoly([1], 3)
    with pytest.raises(ValueError):
        f.scale(PAdicScalar(1, 3))
    with pytest.raises(ValueError):
        f + TatePoly.variable(2, "t")


def test_mixed_primes_tate_poly():
    f = TatePoly([1, 2], 2)
    for op in (
        lambda: f * TatePoly([1], 3),
        lambda: f + TatePoly([1, 1], 5),
        lambda: f.scale(PAdicScalar(1, 3)),
        lambda: f.compose_linear(PAdicScalar(1, 3), PAdicScalar(1, 2), "t"),
        lambda: TatePoly([PAdicScalar(1, 3)], 2),
    ):
        with pytest.raises(MixedPrimes, match="mixed primes") as info:
            op()
        assert isinstance(info.value, KernelError) and isinstance(info.value, ValueError)
    # a compose_linear result keeps the new variable, also for constants
    assert f.compose_linear(0, 0, "t") == TatePoly([1], 2)
    assert f.compose_linear(1, 0, "t").var == "t"
    assert TatePoly.zero(2).compose_linear(1, 1, "t").var == "t"
