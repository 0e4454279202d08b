"""Independent certificates for the points behind cycles and blow-ups.

The multiplicity of a rational point x - c in the support equals the
number of roots of the normalized dominant coefficient g in the open disc
|x - c| < 1.  That count is the order of g(x + c) at zero plus its roots
of positive valuation on the Newton polygon: it goes through
``compose_linear`` and ``newton_valuation_counts``, never through
``ResiduePoly.factor``.  The same count on the inner-chart pullback
certifies the degree-1 points of ``support_on_blowup``, and the Newton
polygon of the recentred coefficient on valuations in (0, m) certifies
its crossing multiplicity.

Points that come from the factorizer skip Rabin's test; each must equal
the point the public, checked constructor builds from the same data.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdx import (
    BlowupModel,
    Chart,
    ClosedPoint,
    DiffOp,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    char_cycle,
    factor_reduction,
    pull_function_u1,
    support_on_blowup,
)
from padicdx.blowup import _fiber_report

PRIMES = [2, 3, 5, 7]


@st.composite
def rationals(draw, p):
    num = draw(st.integers(-30, 30))
    return Fraction(num, draw(st.integers(1, 30))) * Fraction(p) ** draw(st.integers(-2, 2))


@st.composite
def operators(draw):
    """(P, B): a finite operator whose dominant coefficient has clustered
    roots (linear factors at c + p^e * u, each repeated up to p + 1 times,
    times a random polynomial) and a blow-up over the same prime."""
    p = draw(st.sampled_from(PRIMES))
    x = TatePoly.variable(p)
    lead = TatePoly.constant(draw(rationals(p).filter(bool)), p)
    for _ in range(draw(st.integers(0, 3))):
        offset = Fraction(p) ** draw(st.integers(0, 3)) * draw(st.integers(1, 2 * p))
        root = draw(st.integers(0, p - 1)) + offset
        lead = lead * (x - root) ** draw(st.integers(1, p + 1))
    extra = TatePoly(draw(st.lists(rationals(p), max_size=3)), p)
    if not extra.is_zero():
        lead = lead * extra
    order = draw(st.integers(0, 2))
    coeffs = {n: TatePoly(draw(st.lists(rationals(p), max_size=3)), p) for n in range(order)}
    coeffs[order] = lead
    center = PAdicScalar(draw(st.integers(0, p * p - 1)), p)
    return DiffOp(coeffs, p), BlowupModel(center, draw(st.integers(1, 3)))


def order_at_zero(h: TatePoly) -> int:
    return next(i for i in range(h.degree() + 1) if not h.coefficient(i).is_zero())


def disc_count(g: TatePoly, c: int, var: str) -> int:
    """Roots of g with |y - c| < 1, from the Newton polygon of g(y + c)."""
    h = g.compose_linear(PAdicScalar(c, g.p), PAdicScalar.one(g.p), var)
    return order_at_zero(h) + sum(n for v, n in h.newton_valuation_counts() if v > 0)


@settings(max_examples=80, deadline=None)
@given(operators())
def test_cycle_multiplicities_are_newton_polygon_counts(PB):
    P, _ = PB
    p = P.p
    g, _ = P.leading_coefficient().normalize()
    vertical = char_cycle(P).vertical
    mults = {pt.minimal_poly: m for pt, m in vertical}
    for c in range(p):
        assert mults.get(ResiduePoly((-c, 1), p), 0) == disc_count(g, c, "x")
    assert sum(pt.degree * m for pt, m in vertical) == g.reduce().degree()


@settings(max_examples=60, deadline=None)
@given(operators())
def test_blowup_multiplicities_are_newton_polygon_counts(PB):
    P, B = PB
    p = P.p
    lead = P.leading_coefficient()
    above = support_on_blowup(P, B)
    inner = {cp.point.minimal_poly: m for cp, m in above if cp.chart == Chart.U1}
    pulled, _ = pull_function_u1(lead, B).normalize()
    for c in range(p):
        assert inner.get(ResiduePoly((-c, 1), p, "t"), 0) == disc_count(pulled, c, "t")
    # a root with v(x - center) >= m lies on the inner chart, one with
    # 0 < v(x - center) < m at the crossing point
    recentred = lead.compose_linear(B.center, PAdicScalar.one(p), lead.var)
    valuations = recentred.newton_valuation_counts()
    crossing = sum(m for cp, m in above if cp.chart == Chart.CROSSING)
    assert crossing == sum(n for v, n in valuations if 0 < v < B.m)
    deep = order_at_zero(recentred) + sum(n for v, n in valuations if v >= B.m)
    assert sum(cp.point.degree * m for cp, m in above if cp.chart == Chart.U1) == deep


def assert_checked(pt: ClosedPoint):
    q = pt.minimal_poly
    assert q.leading() == 1
    assert ClosedPoint(q, pt.chart) == pt
    with pytest.raises(ValueError):
        ClosedPoint(q * q, pt.chart)


@settings(max_examples=60, deadline=None)
@given(operators())
def test_factor_points_equal_checked_points(PB):
    P, B = PB
    g, _ = P.leading_coefficient().normalize()
    points = [pt for pt, _ in factor_reduction(g.reduce())]
    points += [pt for pt, _ in char_cycle(P).vertical]
    points += [cp.point for cp, _ in support_on_blowup(P, B)]
    _, base, above, _ = _fiber_report(P, B)
    points += [pt for pt, _ in base.points] + [cp.point for cp, _ in above]
    for pt in points:
        assert_checked(pt)
    with pytest.raises(ValueError):
        ClosedPoint(ResiduePoly.one(P.p), "x")
