import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    BlowupModel,
    Chart,
    DiffOp,
    LevelTooSmall,
    NegativeValuation,
    NormExp,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    ZeroOperator,
    char_cycle,
    chart_commutator_constant,
    fiber_sum_check,
    infinite_support,
    pull_function_u1,
    pull_operator_u1,
    support_on_blowup,
)
from helpers import rand_diffop, rand_poly, rand_scalar


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def origin_blowup(p, m=1):
    return BlowupModel(PAdicScalar.zero(p), m)


def fixture_lead(p):
    x = TatePoly.variable(p)
    return (x - w(p)) * (x - w(p, 2))


def test_model_validation():
    p = 2
    assert origin_blowup(p).k_blowup == 1
    assert BlowupModel(w(p, 2), 3).k_blowup == 3
    with pytest.raises(ValueError):
        BlowupModel(PAdicScalar.zero(p), 0)
    with pytest.raises(NegativeValuation):
        BlowupModel(PAdicScalar(Fraction(1, 2), p), 1)


def test_pull_function_fixture():
    p = 2
    t = TatePoly.variable(p, "t")
    pulled = pull_function_u1(fixture_lead(p), origin_blowup(p))
    assert pulled == ((t - 1) * (t - w(p))).scale(w(p, 2))
    assert pull_function_u1(TatePoly.variable(p), origin_blowup(p)) == t.scale(w(p))
    c = TatePoly.constant(7, p)
    assert pull_function_u1(c, origin_blowup(p)) == c


def test_pull_operator_examples():
    p = 2
    B = origin_blowup(p)
    for k in (1, 2, 3):
        scaled = DiffOp({1: w(p, k)}, p)
        moved = pull_operator_u1(scaled, B, k)
        assert moved == DiffOp({1: w(p, k - 1)}, p, "t")
        applied = moved.apply(TatePoly.variable(p, "t"))
        assert applied == TatePoly.constant(w(p, k - 1), p, "t")
    x = TatePoly.variable(p)
    xd = DiffOp({1: x}, p)
    t = TatePoly.variable(p, "t")
    assert pull_operator_u1(xd, B, 1) == DiffOp({1: t}, p, "t")
    f = DiffOp.from_poly(fixture_lead(p))
    assert pull_operator_u1(f, B, 1) == DiffOp.from_poly(
        pull_function_u1(fixture_lead(p), B)
    )


def test_pull_operator_level_guard():
    p = 2
    B = BlowupModel(PAdicScalar.zero(p), 2)
    with pytest.raises(LevelTooSmall):
        pull_operator_u1(DiffOp.derivation(p), B, 1)


def test_pull_operator_is_multiplicative():
    rng = random.Random(89)
    for p in (2, 3):
        for m in (1, 2):
            B = BlowupModel(rand_scalar(rng, p, (0, 2)), m)
            for _ in range(15):
                P = rand_diffop(rng, p, max_dd=2, max_dx=2)
                Q = rand_diffop(rng, p, max_dd=2, max_dx=2)
                k = m + rng.randint(0, 2)
                lhs = pull_operator_u1(P * Q, B, k)
                rhs = pull_operator_u1(P, B, k) * pull_operator_u1(Q, B, k)
                assert lhs == rhs


def test_pull_operator_norm_shift():
    # the function part transforms by its own pullback; each derivation
    # power contributes exactly the blow-up level as an exponent shift
    rng = random.Random(97)
    p = 2
    for m in (1, 2):
        B = BlowupModel(PAdicScalar.zero(p), m)
        for _ in range(20):
            n = rng.randint(0, 3)
            b = rand_poly(rng, p, max_deg=3, nonzero=True)
            mono = DiffOp({n: b}, p)
            moved = pull_operator_u1(mono, B, m + 1)
            for k in (m, m + 1, m + 2):
                # measuring the transported operator m levels down matches
                # the base-level formula on the pulled function part
                expected = pull_function_u1(b, B).gauss_norm() + k * n
                assert moved.norm(k - m) == expected


def test_chart_commutator_constants():
    p = 2
    assert chart_commutator_constant(origin_blowup(p), 1) == NormExp(0)
    assert chart_commutator_constant(origin_blowup(p), 2) == NormExp(-1)
    B = BlowupModel(PAdicScalar.zero(p), 3)
    assert chart_commutator_constant(B, 5) == NormExp(-2)
    with pytest.raises(LevelTooSmall):
        chart_commutator_constant(B, 2)


def test_support_on_blowup_fixture():
    for p in (2, 3):
        P = DiffOp({2: fixture_lead(p), 1: TatePoly.variable(p)}, p)
        pts = support_on_blowup(P, origin_blowup(p))
        t = ResiduePoly.variable(p, "t")
        labels = [(cp.chart, cp.point.minimal_poly, m) for cp, m in pts]
        assert labels == [
            (Chart.U1, t, 1),
            (Chart.U1, t - 1, 1),
        ]


def test_support_on_blowup_off_center():
    p = 2
    x = TatePoly.variable(p)
    P = DiffOp({1: x - 3}, p)
    pts = support_on_blowup(P, origin_blowup(p))
    assert len(pts) == 1
    cp, m = pts[0]
    assert cp.chart == Chart.U2 and m == 1
    assert cp.point.minimal_poly == ResiduePoly([1, 1], p, "u")
    base = infinite_support(P).points
    assert base[0][0].minimal_poly == ResiduePoly([1, 1], p)


def test_support_on_blowup_unit_lead():
    p = 2
    P = DiffOp({3: 1}, p)
    assert support_on_blowup(P, origin_blowup(p)) == []
    with pytest.raises(ZeroOperator):
        support_on_blowup(DiffOp.zero(p), origin_blowup(p))


def test_support_on_blowup_crossing():
    p = 3
    x = TatePoly.variable(p)
    # roots of valuation 1 sit at the crossing point once the level is 2
    P = DiffOp({1: x - w(p)}, p)
    B = BlowupModel(PAdicScalar.zero(p), 2)
    pts = support_on_blowup(P, B)
    assert len(pts) == 1
    cp, m = pts[0]
    assert cp.chart == Chart.CROSSING and m == 1
    assert fiber_sum_check(P, B)
    # valuation 1/2 roots: crossing already at level 1
    Q = DiffOp({2: x * x - w(p)}, p)
    pts1 = support_on_blowup(Q, origin_blowup(p))
    assert [(cp.chart, m) for cp, m in pts1] == [(Chart.CROSSING, 2)]
    assert fiber_sum_check(Q, origin_blowup(p))


def test_fiber_sum_fixture_and_examples():
    for p in (2, 3):
        P = DiffOp({2: fixture_lead(p), 1: TatePoly.variable(p)}, p)
        assert fiber_sum_check(P, origin_blowup(p))
    p = 2
    assert fiber_sum_check(DiffOp.derivation(p), origin_blowup(p))
    x = TatePoly.variable(p)
    assert fiber_sum_check(DiffOp({1: x * x, 0: 1}, p), origin_blowup(p))


def test_fiber_sum_weights_residue_degree():
    # above the base point x (mult 4) lie t + 1 (mult 2) and the degree-2
    # point t^2 + t + 1 (mult 1): 2*1 + 1*2 covers all four roots
    p = 2
    lead = TatePoly(
        [
            Fraction(-96, 5),
            Fraction(-528, 5),
            Fraction(-608, 5),
            Fraction(156, 5),
            Fraction(154, 15),
            Fraction(-28, 15),
        ],
        p,
    )
    P = DiffOp({1: lead, 0: 1}, p)
    above = support_on_blowup(P, origin_blowup(p))
    assert {cp.point.label(): mm for cp, mm in above} == {"t + 1": 2, "t^2 + t + 1": 1}
    assert fiber_sum_check(P, origin_blowup(p))


def test_fiber_sum_random_corpus():
    # leading coefficients built from integral-valuation roots, with an
    # independent recomputation of both sides
    rng = random.Random(101)
    for p in (2, 3):
        for _ in range(25):
            m = rng.choice([1, 2])
            c = rng.choice(
                [PAdicScalar.zero(p), PAdicScalar.one(p), w(p)]
            )
            B = BlowupModel(c, m)
            lead = TatePoly.one(p)
            x = TatePoly.variable(p)
            for _ in range(rng.randint(1, 3)):
                e = rng.randint(0, 3)
                unit = rng.choice([1, 3, 5])
                while unit % p == 0:
                    unit += 2
                lead = lead * (x - w(p, e) * unit)
            P = DiffOp({rng.randint(1, 2): lead, 0: rand_poly(rng, p, 2)}, p)
            assert fiber_sum_check(P, B)
            base = infinite_support(P)
            above = support_on_blowup(P, B)
            assert sum(mm for _, mm in above) == base.total_multiplicity()


def test_off_center_bijection():
    rng = random.Random(103)
    p = 2
    B = BlowupModel(PAdicScalar.zero(p), 1)
    x = TatePoly.variable(p)
    # leading coefficient a unit at the reduced center
    lead = (x - 1) * (x - 3) * (x - 1 - w(p))
    P = DiffOp({2: lead}, p)
    base = infinite_support(P).points
    above = support_on_blowup(P, B)
    assert all(cp.chart == Chart.U2 for cp, _ in above)
    assert sorted(m for _, m in above) == sorted(m for _, m in base)
    base_polys = {pt.minimal_poly.coeffs for pt, _ in base}
    above_polys = {cp.point.minimal_poly.coeffs for cp, _ in above}
    assert base_polys == above_polys  # center is zero, no shift


def test_length_invariance():
    rng = random.Random(107)
    p = 2
    for _ in range(20):
        x = TatePoly.variable(p)
        lead = TatePoly.one(p)
        for _ in range(rng.randint(1, 2)):
            lead = lead * (x - w(p, rng.randint(0, 2)))
        P = DiffOp({rng.randint(1, 3): lead}, p)
        cc = char_cycle(P)
        above = support_on_blowup(P, origin_blowup(p))
        assert P.degree() + sum(m for _, m in above) == cc.length


def test_fiber_report_matches_the_public_functions(monkeypatch):
    from padicdx import blowup

    rng = random.Random(109)
    factor = ResiduePoly.factor
    calls, supports = [], []
    monkeypatch.setattr(ResiduePoly, "factor", lambda f: calls.append(f) or factor(f))
    support = blowup.infinite_support
    monkeypatch.setattr(blowup, "infinite_support", lambda P: supports.append(P) or support(P))
    for p in (2, 3, 5):
        x = TatePoly.variable(p)
        for _ in range(8):
            lead = TatePoly.one(p)
            for _ in range(rng.randint(1, 3)):
                lead = lead * (x * x - w(p, rng.randint(0, 2)) * rng.choice([1, 2, 4]))
            P = DiffOp({rng.randint(1, 2): lead, 0: rand_poly(rng, p, 2)}, p)
            B = BlowupModel(rng.choice([PAdicScalar.zero(p), w(p)]), rng.choice([1, 2]))
            calls.clear()
            ok, base, above, m0_preserved = blowup._fiber_report(P, B)
            assert len(calls) == 2
            calls.clear()
            supports.clear()
            assert ok is fiber_sum_check(P, B)
            assert calls == [] and supports == []
            assert base == infinite_support(P)
            calls.clear()
            assert above == support_on_blowup(P, B)
            assert len(calls) == 2
            assert m0_preserved is (pull_operator_u1(P, B, B.m).degree() == P.degree())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    p=st.sampled_from([2, 3, 5, 7]),
    m=st.integers(1, 3),
)
def test_m0_preserved_is_the_degree_kept_by_transport(seed, p, m):
    from padicdx import blowup

    rng = random.Random(seed)
    B = BlowupModel(rand_scalar(rng, p, (0, 3)), m)
    P = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
    m0_preserved = blowup._fiber_report(P, B)[3]
    assert m0_preserved is (pull_operator_u1(P, B, B.m).degree() == P.degree())


def test_m0_preserved_reads_the_pulled_leading_coefficient(monkeypatch):
    """Transport keeps every nonzero coefficient, so m0_preserved is true
    on every input; a pulled leading coefficient that reports itself zero,
    as a lossy transport would give, shows as a degree not kept, and
    fiber_sum_check is then False."""
    from padicdx import blowup
    from padicdx.tatepoly import _make

    class LostLead(TatePoly):
        def is_zero(self):
            return True

        def normalize(self):  # the inner chart points stay those of the true pullback
            return _make(self.num, self.den, self.p, self.var).normalize()

    pull = blowup.pull_function_u1

    def lossy(f, B):
        g = pull(f, B)
        lost = object.__new__(LostLead)
        for name in TatePoly.__slots__:
            getattr(TatePoly, name).__set__(lost, getattr(g, name))
        return lost

    p = 3
    P = DiffOp({2: fixture_lead(p), 0: TatePoly.one(p)}, p)
    B = origin_blowup(p)
    assert blowup._fiber_report(P, B)[3] is True
    monkeypatch.setattr(blowup, "pull_function_u1", lossy)
    ok, _, _, m0_preserved = blowup._fiber_report(P, B)
    assert m0_preserved is False and ok is False
