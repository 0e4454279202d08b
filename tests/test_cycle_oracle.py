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

``fiber_sum_check`` computes nothing: its verdict is an identity of the
Newton polygon of the recentred coefficient, tested here on the public
functions.  The reference verdict reads the factor lists instead, as the
kernel once did: the multiplicity of the base point at the reduced center
against the multiplicities times residue degrees of the blow-up points
off the strict transform.

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
    fiber_sum_check,
    infinite_support,
    pull_function_u1,
    pull_operator_u1,
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
    base, above = _fiber_report(P, B)
    points += [pt for pt, _ in base.points] + [cp.point for cp, _ in above]
    for pt in points:
        assert_checked(pt)
    with pytest.raises(ValueError):
        ClosedPoint(ResiduePoly.one(P.p), "x")


def factor_verdict(P: DiffOp, B: BlowupModel) -> bool:
    """fiber_sum_check from the factor lists of both supports."""
    lead = P.leading_coefficient()
    center = ResiduePoly((-B.center.reduce_mod_pi().value, 1), P.p, lead.var)
    base = {pt.minimal_poly: m for pt, m in infinite_support(P).points}
    above = support_on_blowup(P, B)
    over_center = sum(m * cp.point.degree for cp, m in above if cp.chart != Chart.U2)
    kept = pull_operator_u1(P, B, B.m).degree() == P.degree()
    return base.get(center, 0) == over_center and kept


def assert_verdicts_agree(P: DiffOp, B: BlowupModel):
    expected = factor_verdict(P, B)
    assert fiber_sum_check(P, B) is expected
    assert _fiber_report(P, B) == (infinite_support(P), support_on_blowup(P, B))


def assert_u2_points_are_translates(P: DiffOp, B: BlowupModel):
    """The strict-transform points, moved back by the reduced center, are
    the base points off the center, with their multiplicities."""
    c = B.center.reduce_mod_pi().value
    var = P.leading_coefficient().var
    off_center = {
        pt.minimal_poly: m
        for pt, m in infinite_support(P).points
        if pt.minimal_poly != ResiduePoly((-c, 1), P.p, var)
    }
    u2 = {
        cp.point.minimal_poly.translate(-c).with_var(var): m
        for cp, m in support_on_blowup(P, B)
        if cp.chart == Chart.U2
    }
    assert u2 == off_center


@settings(max_examples=60, deadline=None)
@given(operators())
def test_fiber_verdict_equals_the_factor_lists(PB):
    assert_verdicts_agree(*PB)


def irreducible_quadratic(p: int) -> tuple[int, int]:
    """(b, a) with t^2 + b*t + a irreducible mod p."""
    return next(
        (b, a)
        for b in range(p)
        for a in range(1, p)
        if all((t * t + b * t + a) % p for t in range(p))
    )


@st.composite
def centred_operators(draw):
    """(P, B): a blow-up at a center of nonzero reduction, and a dominant
    coefficient whose roots sit at v(x - c) = e for e in 0..4, some as
    pairs of residue degree 2 over F_p: (x - c)^2 + b*p^e*(x - c) +
    a*p^(2e) reduces to t^2 + b*t + a on the inner chart when e = m."""
    p = draw(st.sampled_from(PRIMES))
    c = draw(st.integers(1, min(2, p - 1))) + p * draw(st.integers(0, p))
    y = TatePoly.variable(p) - c
    b, a = irreducible_quadratic(p)
    lead = TatePoly.constant(draw(rationals(p).filter(bool)), p)
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(0, 4))
        if draw(st.booleans()):
            factor = y - Fraction(p) ** e * draw(st.integers(1, p - 1))
        else:
            factor = y * y + y * (b * Fraction(p) ** e) + a * Fraction(p) ** (2 * e)
        lead = lead * factor ** draw(st.integers(1, 2))
    coeffs = {0: TatePoly(draw(st.lists(rationals(p), max_size=3)), p)}
    coeffs[draw(st.integers(1, 2))] = lead
    return DiffOp(coeffs, p), BlowupModel(PAdicScalar(c, p), draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(centred_operators())
def test_fiber_verdict_at_a_nonzero_center(PB):
    P, B = PB
    assert B.center.reduce_mod_pi().value != 0
    assert_verdicts_agree(P, B)
    assert_u2_points_are_translates(P, B)


@settings(max_examples=80, deadline=None)
@given(st.one_of(operators(), centred_operators()))
def test_fiber_sum_is_a_newton_polygon_identity(PB):
    """What fiber_sum_check states without computing it: the order at zero
    of the reduced normalized g(c + u) is the degree of the reduced
    normalized inner-chart pullback plus the crossing multiplicity, and
    transport keeps the degree in the derivation."""
    P, B = PB
    g = P.leading_coefficient()
    h = g.compose_linear(B.center, PAdicScalar.one(P.p), g.var)
    at_center = next(i for i, a in enumerate(h.normalize()[0].reduce().coeffs) if a)
    inner = pull_function_u1(g, B).normalize()[0].reduce()
    crossing = h.root_count_in_valuation_range(Fraction(0), Fraction(B.m))
    assert at_center == inner.degree() + crossing
    assert pull_operator_u1(P, B, B.m).degree() == P.degree()


def test_fiber_sum_check_does_no_polynomial_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("fiber_sum_check computed a polynomial")

    p = 3
    y = TatePoly.variable(p) - (1 + p)
    P = DiffOp({2: y * (y - p) * (y * y - p**3), 0: TatePoly.one(p)}, p)
    B = BlowupModel(PAdicScalar(1 + p, p), 2)
    monkeypatch.setattr(TatePoly, "normalize", refuse)
    monkeypatch.setattr(TatePoly, "compose_linear", refuse)
    assert fiber_sum_check(P, B) is True


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fiber_verdict_over_points_of_residue_degree_two(p, m):
    """Pairs of roots of residue degree 2 at v(x - c) = e for e in 0..4."""
    b, a = irreducible_quadratic(p)
    y = TatePoly.variable(p) - (1 + p)
    lead = TatePoly.one(p)
    for e in range(5):
        lead = lead * (y * y + y * (b * Fraction(p) ** e) + a * Fraction(p) ** (2 * e))
    P = DiffOp({2: lead, 0: TatePoly.one(p)}, p)
    B = BlowupModel(PAdicScalar(1 + p, p), m)
    # e = m gives t^2 + b*t + a, each e > m gives t^2, each 0 < e < m
    # two roots at the crossing point, and e = 0 the strict-transform point
    expected = {(Chart.U1, (0, 1)): 2 * (4 - m), (Chart.U1, (a, b, 1)): 1, (Chart.U2, (a, b, 1)): 1}
    if m > 1:
        expected[(Chart.CROSSING, (0, 1))] = 2 * (m - 1)
    above = support_on_blowup(P, B)
    assert {(cp.chart, cp.point.minimal_poly.coeffs): k for cp, k in above} == expected
    assert fiber_sum_check(P, B) is True
    assert_verdicts_agree(P, B)
    assert_u2_points_are_translates(P, B)
