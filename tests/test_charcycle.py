import json
import pathlib
import random

import pytest

from padicdx import (
    CharCycle,
    ClosedPoint,
    DiffOp,
    MixedPrimes,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    TruncatedOperand,
    ZeroOperator,
    bernstein_check,
    cc_add,
    char_cycle,
    infinite_support,
    render_cc,
)
from padicdx.cli import main
from helpers import rand_diffop

GOLDEN = pathlib.Path(__file__).parent / "golden"


def w(p, e=1):
    return PAdicScalar.uniformizer_power(p, e)


def fixture_operator(p):
    """Leading coefficient (x - pi)(x - pi^2) on the second derivation
    power, plus x times the derivation."""
    x = TatePoly.variable(p)
    return DiffOp({2: (x - w(p)) * (x - w(p, 2)), 1: x}, p)


def point(coeffs, p, var="x"):
    return ClosedPoint(ResiduePoly(coeffs, p, var), var)


def test_infinite_support_fixture():
    for p in (2, 3):
        report = infinite_support(fixture_operator(p))
        assert report.points == ((point([0, 1], p), 2),)
        assert report.rmin == 1


def test_infinite_support_examples():
    p = 2
    x = TatePoly.variable(p)
    P = DiffOp({1: x, 0: -1}, p)
    assert infinite_support(P).points == ((point([0, 1], p), 1),)
    for d in (1, 2, 3):
        assert infinite_support(DiffOp.derivation(p, n=d)).points == ()


def test_infinite_support_guards():
    p = 2
    with pytest.raises(ZeroOperator):
        infinite_support(DiffOp.zero(p))
    with pytest.raises(TruncatedOperand):
        infinite_support(DiffOp.truncated({0: 1}, p))


def test_char_cycle_fixture():
    p = 2
    x = TatePoly.variable(p)
    cc = char_cycle(DiffOp({1: x, 0: -1}, p))
    assert cc.m0 == 1
    assert cc.vertical == ((point([0, 1], p), 1),)
    assert cc.length == 2


def test_char_cycle_units_and_products():
    p = 2
    assert char_cycle(DiffOp.one(p)).is_zero()
    assert char_cycle(
        DiffOp.from_poly(TatePoly.constant(w(p, 3), p))
    ).is_zero()
    x = TatePoly.variable(p)
    P = DiffOp({1: x, 0: -1}, p) * DiffOp.derivation(p)
    cc = char_cycle(P)
    assert cc.m0 == 2
    assert cc.vertical == ((point([0, 1], p), 1),)


def test_char_cycle_order_zero_non_unit():
    p = 2
    cc = char_cycle(DiffOp.from_poly(TatePoly.variable(p)))
    assert cc.m0 == 0
    assert cc.vertical == ((point([0, 1], p), 1),)
    assert not cc.is_zero()


def test_cycle_and_support_agree_with_each_entry_point(capsys):
    # disc units take char_cycle's general path to the zero cycle, the
    # charvar document's rmin is the support's, and char_cycle's errors
    # are unchanged
    rng = random.Random(29)
    p = 3
    units = [DiffOp.one(p), DiffOp.from_poly(TatePoly([2, 3, 9], p).scale(w(p, -2)))]
    for P in units:
        assert char_cycle(P) == CharCycle(0, ())
    for P in units + [rand_diffop(rng, p, nonzero=True) for _ in range(20)]:
        assert main(["charvar", "-p", str(p), str(P)]) == 0
        assert json.loads(capsys.readouterr().out)["rmin"] == infinite_support(P).rmin
    with pytest.raises(ZeroOperator, match="^the module presented by zero"):
        char_cycle(DiffOp.zero(p))
    with pytest.raises(TruncatedOperand, match="^cycle undecidable"):
        char_cycle(DiffOp.truncated({0: 1}, p))


def test_cc_add():
    p = 2
    one_line = CharCycle(1, ((point([0, 1], p), 1),))
    assert cc_add(one_line, CharCycle(0, ())) == one_line
    doubled = cc_add(one_line, one_line)
    assert doubled == CharCycle(2, ((point([0, 1], p), 2),))
    other = CharCycle(0, ((point([1, 1], p), 1),))
    merged = cc_add(one_line, other)
    assert merged.length == 3
    assert len(merged.vertical) == 2

    x = TatePoly.variable(p)
    xd_minus_1 = DiffOp({1: x, 0: -1}, p)
    got = cc_add(char_cycle(DiffOp.derivation(p)), char_cycle(xd_minus_1))
    assert got == CharCycle(2, ((point([0, 1], p), 1),))
    xd = DiffOp({1: x}, p)
    assert cc_add(char_cycle(xd), char_cycle(xd)) == CharCycle(
        2, ((point([0, 1], p), 2),)
    )


def test_cycles_over_different_primes_do_not_add():
    x2, x3 = TatePoly.variable(2), TatePoly.variable(3)
    c2 = char_cycle(DiffOp({1: x2, 0: 1}, 2))
    c3 = char_cycle(DiffOp({1: x3 + 1, 0: 1}, 3))
    for add in (cc_add, CharCycle.__add__):
        with pytest.raises(MixedPrimes):
            add(c2, c3)
    # a cycle with no vertical line lies over no prime
    assert cc_add(c2, CharCycle(1, ())) == CharCycle(2, c2.vertical)
    assert cc_add(CharCycle(1, ()), c3) == CharCycle(2, c3.vertical)


def test_product_additivity_random():
    rng = random.Random(71)
    checked = 0
    for p in (2, 3):
        while checked < (60 if p == 2 else 120):
            P = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            Q = rand_diffop(rng, p, max_dd=3, max_dx=3, nonzero=True)
            assert char_cycle(P * Q) == cc_add(char_cycle(P), char_cycle(Q))
            checked += 1
    assert checked >= 120


def test_scalar_invariance():
    rng = random.Random(73)
    for p in (2, 3):
        for _ in range(25):
            P = rand_diffop(rng, p, nonzero=True)
            c = PAdicScalar.uniformizer_power(p, rng.randint(-3, 3)) * rng.choice(
                [1, -1, 3]
            )
            assert char_cycle(P.scale(c)) == char_cycle(P)


def test_vertical_sum_is_reduced_leading_degree():
    rng = random.Random(79)
    for p in (2, 3):
        for _ in range(30):
            P = rand_diffop(rng, p, nonzero=True)
            lead, _ = P.leading_coefficient().normalize()
            expected = lead.reduce().degree()
            got = sum(m for _, m in infinite_support(P).points)
            assert got == expected


def test_bernstein_examples_and_corpus():
    p = 2
    x = TatePoly.variable(p)
    assert bernstein_check(DiffOp.one(p))
    assert bernstein_check(DiffOp({1: x, 0: -1}, p))
    assert bernstein_check(DiffOp.from_poly(TatePoly.constant(w(p, 3), p)))
    rng = random.Random(83)
    for q in (2, 3, 5):
        for _ in range(40):
            P = rand_diffop(rng, q, nonzero=True)
            assert bernstein_check(P)


def test_render_ascii_golden():
    p = 2
    cc = char_cycle(fixture_operator(p))
    got = render_cc(cc, "ascii")
    expected = (GOLDEN / "charcycle_fixture.txt").read_text()
    assert got == expected


def test_render_ascii_zero_cycle():
    text = render_cc(CharCycle(0, ()), "ascii")
    assert "===" not in text  # no zero-section bar
    assert "---" in text
    assert "m0 = 0" in text


def test_render_svg():
    p = 2
    cc = char_cycle(fixture_operator(p))
    svg = render_cc(cc, "svg")
    assert svg.startswith("<svg")
    assert 'width="640"' in svg and 'height="360"' in svg
    assert svg.count('stroke="#c00"') == 2  # zero section and one vertical line
    assert "(x2)" in svg
    with pytest.raises(ValueError):
        render_cc(cc, "png")


def test_cycle_json():
    p = 2
    cc = char_cycle(fixture_operator(p))
    doc = cc.to_json()
    assert doc["m0"] == 2
    assert doc["length"] == 4
    assert doc["vertical"] == [
        {"point": [0, 1], "label": "x", "degree": 1, "mult": 2}
    ]
