import random
from fractions import Fraction

import pytest

from padicdx import (
    BadLevels,
    BadLocus,
    BadLocusOnly,
    DiffOp,
    EverywhereInvertible,
    FailsDecay,
    InvertibleOnDisc,
    MicroOp,
    NEG_INF,
    NormExp,
    NotInvertible,
    NotInvertibleHere,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    ZeroOperator,
    finite_order_verdict,
    micro_invert,
    micro_unit_verdict,
)
from helpers import rand_microop, rand_poly


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def dpow(n, p, coeff=1):
    return MicroOp.d_power(n, p, coeff=coeff)


def xf(p):
    return MicroOp.from_poly(TatePoly.variable(p))


def test_inverse_derivation_action():
    p = 2
    dinv = dpow(-1, p)
    assert dinv * xf(p) == MicroOp({-1: TatePoly.variable(p), -2: -1}, p)
    assert dinv * dpow(1, p) == MicroOp.one(p)
    assert dpow(1, p) * dinv == MicroOp.one(p)
    x2 = TatePoly.variable(p) ** 2
    assert dinv * MicroOp.from_poly(x2) == MicroOp(
        {-1: x2, -2: TatePoly.variable(p).scale(-2), -3: 2}, p
    )


def test_recombination():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(25):
            f = MicroOp.from_poly(rand_poly(rng, p, max_deg=4))
            assert dpow(1, p) * (dpow(-1, p) * f) == f
            assert dpow(-1, p) * (dpow(1, p) * f) == f


def test_power_addition():
    p = 3
    assert dpow(-2, p) * dpow(5, p) == dpow(3, p)
    assert dpow(-2, p) * dpow(2, p) == MicroOp.one(p)


def test_associativity_random():
    rng = random.Random(29)
    for p in (2, 3):
        for _ in range(25):
            A = rand_microop(rng, p, window=(-2, 2), max_dx=2)
            B = rand_microop(rng, p, window=(-2, 2), max_dx=2)
            C = rand_microop(rng, p, window=(-2, 2), max_dx=2)
            assert (A * B) * C == A * (B * C)


def test_canonical_form_examples():
    p = 2
    S = MicroOp({1: 1, -1: 1}, p)
    form = dict(S.canonical_form(2, 1))
    assert form[1] == TatePoly.constant(w(p, -2), p)
    assert form[-1] == TatePoly.constant(w(p, 1), p)
    assert S.norm(2, 1) == NormExp(2)

    assert MicroOp.one(p).canonical_form(3, 2) == [(0, TatePoly.one(p))]
    assert MicroOp.one(p).norm(3, 2) == NormExp(0)

    for k, r in ((2, 1), (3, 3), (4, 2)):
        form = dict(dpow(-1, p).canonical_form(k, r))
        assert form[-1] == TatePoly.constant(w(p, r), p)
        assert dpow(-1, p).norm(k, r) == NormExp(-r)


def test_canonical_form_round_trip():
    rng = random.Random(37)
    p = 3
    for _ in range(20):
        S = rand_microop(rng, p)
        for k, r in ((1, 1), (2, 1), (3, 2)):
            rebuilt = {}
            for n, a in S.canonical_form(k, r):
                weight = k * n if n >= 0 else r * n
                rebuilt[n] = a.scale(w(p, weight))
            assert MicroOp(rebuilt, p) == S
            assert S.norm(k, r) == max(
                a.gauss_norm() for _, a in S.canonical_form(k, r)
            )


def test_bad_levels():
    p = 2
    with pytest.raises(BadLevels):
        MicroOp.one(p).norm(1, 2)
    with pytest.raises(BadLevels):
        MicroOp.one(p).canonical_form(2, 0)
    with pytest.raises(BadLevels):
        micro_unit_verdict(MicroOp.one(p), 0, 0)


def test_norm_monotone_in_lower_level():
    rng = random.Random(41)
    p = 2
    for _ in range(30):
        S = rand_microop(rng, p)
        if S.is_zero():
            continue
        for k, r in ((3, 1), (4, 2)):
            assert S.norm(k, r + 1) <= S.norm(k, r)
        only_nonneg = MicroOp(
            {n: c for n, c in S.coeffs.items() if n >= 0}, p
        )
        if not only_nonneg.is_zero():
            assert only_nonneg.norm(3, 1) == only_nonneg.norm(3, 2)


def test_restricted_multiplicativity():
    rng = random.Random(43)
    p = 3
    for _ in range(40):
        S = rand_microop(rng, p, window=(0, 3))
        T = rand_microop(rng, p, window=(0, 3))
        if S.is_zero() or T.is_zero():
            continue
        assert (S * T).norm(2, 1) == S.norm(2, 1) + T.norm(2, 1)
        Sn = MicroOp({n - 4: c for n, c in S.coeffs.items()}, p)
        Tn = MicroOp({n - 4: c for n, c in T.coeffs.items()}, p)
        assert (Sn * Tn).norm(2, 1) == Sn.norm(2, 1) + Tn.norm(2, 1)


def test_unit_verdict_examples():
    p = 2
    assert micro_unit_verdict(dpow(1, p, coeff=w(p, 2)), 2, 1) == InvertibleOnDisc(1)
    assert micro_unit_verdict(dpow(1, p, coeff=w(p, 3)), 3, 2) == InvertibleOnDisc(1)

    xd = MicroOp({1: TatePoly.variable(p)}, p)
    v = micro_unit_verdict(xd, 1, 1)
    assert v == BadLocusOnly(1, ResiduePoly([0, 1], p))

    S = MicroOp({1: 1, -1: 1}, p)
    assert micro_unit_verdict(S, 2, 1) == InvertibleOnDisc(1)

    with pytest.raises(ZeroOperator):
        micro_unit_verdict(MicroOp.zero(p), 2, 1)


def test_unit_verdict_failure_modes():
    p = 2
    # two coefficients of equal maximal norm: 1 + pi*d at level 1
    S = MicroOp({0: 1, 1: w(p, 1)}, p)
    assert isinstance(micro_unit_verdict(S, 1, 1), NotInvertible)
    # tail contraction failure appears only for k > r: the rescaled
    # negative coefficient picks up the level gap
    T = MicroOp({0: 1, -1: w(p, -2)}, p)
    assert isinstance(micro_unit_verdict(T, 3, 1), NotInvertible)
    assert isinstance(micro_unit_verdict(T, 3, 3), InvertibleOnDisc)


def test_unit_verdict_independent_of_term_order():
    # (-45/7*x)*d + (-33/4) + (-12/7*x^2 - 7/5)*d^-1 at p=3, k=2, r=1:
    # offsets -1 and -2 both fail to contract; the lowest is named
    p = 3
    terms = [
        (1, TatePoly([0, Fraction(-45, 7)], p)),
        (0, TatePoly([Fraction(-33, 4)], p)),
        (-1, TatePoly([Fraction(-7, 5), 0, Fraction(-12, 7)], p)),
    ]
    forward = micro_unit_verdict(MicroOp(dict(terms), p), 2, 1)
    backward = micro_unit_verdict(MicroOp(dict(reversed(terms)), p), 2, 1)
    assert forward == backward
    assert isinstance(forward, NotInvertible) and "offset -2 " in forward.reason


def test_micro_invert_exact():
    p = 2
    for k, r in ((1, 1), (2, 1), (3, 2)):
        S = dpow(1, p, coeff=w(p, k))
        T, rho = micro_invert(S, k, r, -6)
        assert T == dpow(-1, p, coeff=w(p, -k))
        assert rho == NEG_INF


def test_micro_invert_geometric_series():
    p = 2
    k, r = 2, 1
    S = MicroOp({0: 1, 1: -w(p, k + 1)}, p)  # 1 - pi (pi^k d)
    T, rho = micro_invert(S, k, r, -4)
    assert rho < NormExp(-4)
    assert rho <= NormExp(-4)
    # leading terms agree with the geometric series in pi (pi^k d)
    for ell in range(4):
        assert T.coefficient(ell) == TatePoly.constant(
            w(p, ell) * w(p, k * ell), p
        )
    assert (S * T - 1).norm(k, r) == rho


def test_micro_invert_rejects_bad_locus():
    p = 2
    xd = MicroOp({1: TatePoly.variable(p)}, p)
    with pytest.raises(NotInvertibleHere):
        micro_invert(xd, 1, 1, -4)


def test_micro_invert_with_function_leading_coefficient():
    p = 2
    # dominant coefficient a unit function, inverse needs the disc series
    lead = TatePoly.one(p) + TatePoly.variable(p).scale(w(p))
    S = MicroOp({1: lead.scale(w(p, 2)), 0: w(p, 2)}, p)
    T, rho = micro_invert(S, 2, 1, -6)
    assert rho < NormExp(-6)
    assert (S * T - 1).norm(2, 1) == rho


def test_finite_order_verdict_examples():
    p = 2
    x = TatePoly.variable(p)
    P = DiffOp({1: x, 0: -1}, p)
    assert finite_order_verdict(P, 1) == BadLocus(ResiduePoly([0, 1], p))
    Q = DiffOp({1: 1, 0: -1}, p)
    assert finite_order_verdict(Q, 1) == EverywhereInvertible()
    R = DiffOp({1: 1, 0: -w(p, -3)}, p)
    assert finite_order_verdict(R, 1) == FailsDecay(4)
    assert finite_order_verdict(R, 4) == EverywhereInvertible()


def test_finite_order_verdict_rmin_consistency():
    rng = random.Random(59)
    for p in (2, 3):
        for _ in range(30):
            coeffs = {
                n: rand_poly(rng, p, max_deg=2, val_range=(-4, 4))
                for n in range(rng.randint(1, 3) + 1)
            }
            P = DiffOp(coeffs, p)
            if P.is_zero():
                continue
            v = finite_order_verdict(P, 1)
            rmin = v.rmin if isinstance(v, FailsDecay) else 1
            for r in range(rmin, rmin + 3):
                assert not isinstance(finite_order_verdict(P, r), FailsDecay)
            if rmin > 1:
                assert isinstance(finite_order_verdict(P, rmin - 1), FailsDecay)


def test_finite_order_verdict_guards():
    p = 2
    with pytest.raises(ZeroOperator):
        finite_order_verdict(DiffOp.zero(p), 1)
    with pytest.raises(BadLevels):
        finite_order_verdict(DiffOp.one(p), 0)


def test_inverse_certification_random_units():
    # unit-leading perturbations of scaled derivation powers
    rng = random.Random(67)
    done = 0
    for p in (2, 3):
        while done < 25 * (1 if p == 2 else 2):
            k = rng.randint(1, 3)
            r = rng.randint(1, k)
            q = rng.randint(0, 2)
            lead = TatePoly.one(p) + rand_poly(
                rng, p, max_deg=2, val_range=(1, 3)
            )
            if not lead.is_unit_on_disc():
                continue
            S = MicroOp(
                {q: lead.scale(w(p, k * q + 0))}, p
            ) + rand_microop(rng, p, window=(-2, 2), max_dx=2, val_range=(1, 4)).scale(
                w(p, k * q + 1)
            )
            if not isinstance(micro_unit_verdict(S, k, r), InvertibleOnDisc):
                continue
            T, rho = micro_invert(S, k, r, -6)
            assert rho < NormExp(-6)
            assert (S * T - 1).norm(k, r) == rho
            done += 1


def test_inversion_attempts_are_bounded(monkeypatch):
    import time

    from padicdx import KernelError, PrecisionNotReached

    p = 2
    S = MicroOp.from_poly(TatePoly([1, 2], p))
    T, rho = micro_invert(S, 2, 1, -4)
    assert rho < NormExp(-4)

    # an inverse of the constant term only: S*T - 1 keeps norm 2^-1
    def inexact(f, eps):
        return TatePoly.constant(1 / f.constant_term(), f.p, f.var), NEG_INF

    monkeypatch.setattr(TatePoly, "invert_on_disc", inexact)
    start = time.perf_counter()
    with pytest.raises(PrecisionNotReached):
        micro_invert(S, 2, 1, -4)
    assert time.perf_counter() - start < 1.0
    assert issubclass(PrecisionNotReached, KernelError)


def test_mixed_primes_micro_op():
    from padicdx import KernelError, MixedPrimes

    S = MicroOp({-1: TatePoly.one(2), 1: TatePoly.variable(2)}, 2)
    T = MicroOp({-1: TatePoly.one(3)}, 3)
    others = (T, DiffOp.derivation(3), TatePoly.variable(3))
    for op in [lambda o=o: S * o for o in others] + [lambda: S + T, lambda: S - 1 + T]:
        with pytest.raises(MixedPrimes, match="mixed primes") as info:
            op()
        assert isinstance(info.value, KernelError) and isinstance(info.value, ValueError)
