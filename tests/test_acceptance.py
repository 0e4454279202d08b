"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import pathlib
import random
import time

from padicdx import (
    BadLocus,
    BlowupModel,
    Chart,
    DiffOp,
    EverywhereInvertible,
    InvertibleOnDisc,
    MicroOp,
    NormExp,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    bernstein_check,
    cc_add,
    char_cycle,
    chart_commutator_constant,
    commutator,
    factor_reduction,
    fiber_sum_check,
    finite_order_verdict,
    infinite_support,
    micro_invert,
    micro_unit_verdict,
    pull_function_u1,
    pull_operator_u1,
    render_cc,
    support_on_blowup,
)
from padicdx.opparse import parse, to_micro_op
from helpers import HARD_INVERT, rand_diffop, rand_microop, rand_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def fixture_operator(p):
    x = TatePoly.variable(p)
    return DiffOp({2: (x - w(p)) * (x - w(p, 2)), 1: x}, p)


def test_acceptance_01_blowup_worked_example():
    start = time.monotonic()
    for p in (2, 3):
        P = fixture_operator(p)
        B = BlowupModel(PAdicScalar.zero(p), 1)

        report = infinite_support(P)
        assert [
            (pt.minimal_poly.coeffs, m) for pt, m in report.points
        ] == [((0, 1), 2)]

        points = support_on_blowup(P, B)
        t = ResiduePoly.variable(p, "t")
        assert [(cp.chart, cp.point.minimal_poly, m) for cp, m in points] == [
            (Chart.U1, t, 1),
            (Chart.U1, t - 1, 1),
        ]

        assert fiber_sum_check(P, B) is True

        pulled = pull_function_u1(P.leading_coefficient(), B)
        normalized, shift = pulled.normalize()
        assert shift == 2
        assert normalized.reduce() == t * (t - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "blow-up worked example, exact, p in {2,3}")


def test_acceptance_02_chart_commutator():
    p = 2
    B = BlowupModel(PAdicScalar.zero(p), 1)
    assert B.k_blowup == 1
    assert chart_commutator_constant(B, 1) == NormExp(0)
    for k in range(2, 7):
        assert chart_commutator_constant(B, k) == NormExp(-(k - 1))
    _report(2, "chart commutator constants at and above the blow-up level")


def test_acceptance_03_annihilator_cycle():
    p = 2
    P = DiffOp({1: TatePoly.variable(p), 0: -1}, p)
    cc = char_cycle(P)
    assert cc.m0 == 1
    assert [(pt.minimal_poly.coeffs, m) for pt, m in cc.vertical] == [((0, 1), 1)]
    assert cc.length == 2
    _report(3, "coordinate annihilator: unit multiplicities, length two")


def test_acceptance_04_norm_multiplicativity():
    start = time.monotonic()
    rng = random.Random(20250801)
    pairs = 0
    for p in (2, 3, 5):
        for _ in range(70):
            P = rand_diffop(rng, p, max_dd=4, max_dx=4, nonzero=True)
            Q = rand_diffop(rng, p, max_dd=4, max_dx=4, nonzero=True)
            for k in (0, 1, 2, 3):
                assert (P * Q).norm(k) == P.norm(k) + Q.norm(k)
            pairs += 1
    assert pairs >= 200
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _report(4, f"norm multiplicativity on {pairs} pairs, levels 0..3")


def test_acceptance_05_commutator_contraction():
    rng = random.Random(20250802)
    pairs = 0
    measured = {1: None, 2: None}
    for p in (2, 3, 5):
        for _ in range(70):
            P = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            Q = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            C = commutator(P, Q)
            for r in (1, 2):
                assert C.norm(r) <= P.norm(r) + Q.norm(r) + (-r)
                if not C.norm(r).is_neg_inf():
                    gap = C.norm(r).exp - P.norm(r).exp - Q.norm(r).exp
                    if measured[r] is None or gap > measured[r]:
                        measured[r] = gap
            pairs += 1
    assert pairs >= 200
    assert measured[1] <= -1 and measured[2] <= -2
    _report(
        5,
        "commutator contraction on "
        f"{pairs} pairs; measured optimal constants: "
        f"p^{measured[1]} at r=1, p^{measured[2]} at r=2",
    )


def test_acceptance_06_certified_inversion():
    start = time.monotonic()
    rng = random.Random(20250803)
    done = 0
    eps = -6
    for p in (2, 3):
        target = 25
        count = 0
        while count < target:
            k = rng.randint(1, 3)
            r = rng.randint(1, k)
            q = rng.randint(0, 2)
            lead = TatePoly.one(p) + rand_poly(rng, p, max_deg=2, val_range=(1, 3))
            if not lead.is_unit_on_disc():
                continue
            S = MicroOp({q: lead.scale(w(p, k * q))}, p) + rand_microop(
                rng, p, window=(-2, 2), max_dx=2, val_range=(1, 4)
            ).scale(w(p, k * q + 1))
            if not isinstance(micro_unit_verdict(S, k, r), InvertibleOnDisc):
                continue
            T, rho = micro_invert(S, k, r, eps)
            assert rho < NormExp(eps)
            assert (S * T - 1).norm(k, r) == rho
            count += 1
        done += count
    assert done >= 50
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _report(6, f"certified inversion of {done} units at eps = p^-6")


def test_acceptance_06b_hard_inversion_ladder():
    S = to_micro_op(parse(HARD_INVERT, micro=True), 2)
    eps = -24
    start = time.monotonic()
    T, rho = micro_invert(S, 2, 1, eps)
    elapsed = time.monotonic() - start
    assert rho < NormExp(eps)
    assert (S * T - 1).norm(2, 1) == rho
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report("6b", f"hard case inverted at eps = p^{eps} in {elapsed:.3f}s, residual {rho}")


def test_acceptance_07_cycle_additivity():
    rng = random.Random(20250804)
    pairs = 0
    for p in (2, 3):
        for _ in range(60):
            P = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            Q = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            assert char_cycle(P * Q) == cc_add(char_cycle(P), char_cycle(Q))
            pairs += 1
    assert pairs >= 100
    _report(7, f"characteristic cycle additivity on {pairs} products")


def test_acceptance_08_bernstein_zero_equivalence():
    rng = random.Random(20250805)
    p = 2
    x = TatePoly.variable(p)
    corpus = [
        DiffOp.one(p),
        DiffOp.from_poly(TatePoly.constant(w(p, 5), p)),
        DiffOp.from_poly(TatePoly.constant(PAdicScalar(-3, p), p)),
        DiffOp.from_poly(TatePoly.one(p) + x.scale(w(p))),
        DiffOp.from_poly(x),
        DiffOp.from_poly(x - w(p)),
        DiffOp.derivation(p),
        DiffOp({1: x, 0: -1}, p),
        fixture_operator(p),
    ]
    for q in (2, 3, 5):
        for _ in range(40):
            corpus.append(rand_diffop(rng, q, nonzero=True))
    units = non_units = 0
    for P in corpus:
        assert bernstein_check(P)
        if P.is_disc_unit():
            units += 1
        else:
            non_units += 1
    assert units >= 3 and non_units >= 6
    _report(
        8,
        f"cycle vanishing equals invertibility on {len(corpus)} operators "
        f"({units} units, {non_units} non-units)",
    )


def test_acceptance_09_microlocal_cross_check():
    rng = random.Random(20250806)
    p = 2
    eps = -6
    invertible_checked = bad_locus_checked = 0
    attempts = 0
    while invertible_checked < 30 or bad_locus_checked < 8:
        attempts += 1
        assert attempts < 3000
        m = rng.choice([1, 2])
        center = rng.choice([PAdicScalar.zero(p), w(p)])
        B = BlowupModel(center, m)
        r = rng.randint(1, 2)
        k = m + rng.randint(0, 1)
        d = rng.randint(1, 2)
        x = TatePoly.variable(p)
        if rng.random() < 0.5:
            lead = TatePoly.one(p) + rand_poly(rng, p, max_deg=2, val_range=(1, 3))
        else:
            lead = (x - w(p, rng.randint(0, 1))) * rng.choice([1, 3])
        coeffs = {d: lead}
        for n in range(d):
            coeffs[n] = rand_poly(rng, p, max_deg=2, val_range=(4, 7))
        P = DiffOp(coeffs, p)
        if P.leading_coefficient().is_zero():
            continue
        moved = pull_operator_u1(P, B, k)
        verdict = finite_order_verdict(moved, r)
        if isinstance(verdict, EverywhereInvertible):
            S = MicroOp.from_diffop(moved)
            for kk in (r, r + 1):
                assert isinstance(
                    micro_unit_verdict(S, kk, r), InvertibleOnDisc
                )
            T, rho = micro_invert(S, r, r, eps)
            assert rho < NormExp(eps)
            invertible_checked += 1
        elif isinstance(verdict, BadLocus):
            support = infinite_support(moved).points
            from_verdict = factor_reduction(verdict.bad)
            assert [
                (pt.minimal_poly.coeffs, mm) for pt, mm in support
            ] == [(pt.minimal_poly.coeffs, mm) for pt, mm in from_verdict]
            bad_locus_checked += 1
    _report(
        9,
        "microlocal verdicts cross-checked constructively on "
        f"{invertible_checked} invertible and {bad_locus_checked} "
        "bad-locus transported operators",
    )


def test_acceptance_10_figure_rendering():
    p = 2
    cc = char_cycle(fixture_operator(p))
    got = render_cc(cc, "ascii")
    expected = (GOLDEN / "charcycle_fixture.txt").read_text()
    assert got == expected
    lines = got.splitlines()
    axis = [ln for ln in lines if ln.startswith("===")]
    assert len(axis) == 1  # the zero section lies along the axis
    assert sum(ln.count("|") for ln in lines) >= 6  # one vertical line
    _report(10, "figure rendering matches the golden layout")
