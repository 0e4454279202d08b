"""Transport of functions, operators and supports to a formal blow-up.

The model blows up the closed disc along the ideal generated by a
recentered coordinate and a power of the uniformizer.  Two charts cover
it: the inner chart, whose coordinate t satisfies x = c + pi^m * t, and
the strict-transform chart with coordinate u = x - c.  Functions pull
back by exact substitution; the derivation transports with an exact
uniformizer shift per power, defined only from the blow-up level upward.

Support points on the blow-up are computed per chart:

* inner chart: zeros of the reduced normalized pullback of the dominant
  coefficient (these account for all roots whose recentered valuation is
  at least the blow-up level);
* strict-transform chart away from the center: base support points not
  at the reduced center, shifted into the chart coordinate (the blow-up
  is an isomorphism off the center);
* the crossing point of the exceptional locus with the strict transform:
  its multiplicity is the number of roots of the recentered dominant
  coefficient with valuation strictly between zero and the blow-up
  level, read off the Newton polygon.

The two charts overlap along the punctured exceptional line; an inner
point with nonzero coordinate and a strict-transform point related by
inversion there denote the same point and are stored once, under the
inner chart.  The recipe above never produces such a duplicate, because
strict-transform points are only emitted away from the center or at the
crossing point, so the dedup rule holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charcycle import infinite_support
from .errors import LevelTooSmall, NegativeValuation, TruncatedOperand, ZeroOperator
from .residue import ClosedPoint, ResiduePoly
from .scalars import NormExp, PAdicScalar
from .tatepoly import TatePoly
from .weyl import DiffOp, commutator

U1_VAR = "t"
U2_VAR = "u"


class Chart(str, Enum):
    U1 = "U1"
    U2 = "U2"
    CROSSING = "Crossing"


@dataclass(frozen=True)
class BlowupModel:
    """Blow-up of the disc along (x - center, pi^m); the blow-up level of
    the resulting model equals m."""

    center: PAdicScalar
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("blow-up level must be at least 1")
        if self.center.valuation() < 0:
            raise NegativeValuation("blow-up center must be integral")

    @property
    def k_blowup(self) -> int:
        return self.m

    @property
    def p(self) -> int:
        return self.center.p


@dataclass(frozen=True)
class ChartPoint:
    """A closed point of the blow-up special fiber, located on a chart
    and written in that chart's coordinate."""

    chart: Chart
    point: ClosedPoint

    def sort_key(self):
        order = {Chart.U1: 0, Chart.U2: 1, Chart.CROSSING: 2}
        return (order[self.chart], *self.point.sort_key())

    def to_json(self, mult: int) -> dict:
        return {
            "chart": self.chart.value,
            "point": list(self.point.minimal_poly.coeffs),
            "label": self.point.label(),
            "degree": self.point.degree,
            "mult": mult,
        }


def pull_function_u1(f: TatePoly, B: BlowupModel) -> TatePoly:
    """Pull a function to the inner chart: substitute x = c + pi^m * t."""
    stretch = PAdicScalar.uniformizer_power(f.p, B.m)
    return f.compose_linear(B.center, stretch, U1_VAR)


def pull_operator_u1(P: DiffOp, B: BlowupModel, k: int) -> DiffOp:
    """Transport an operator to the inner chart at a congruence level.

    The substitution sends the derivation to its chart counterpart scaled
    by the inverse m-th uniformizer power, so integrality of the scaled
    basis requires the level to be at least the blow-up level.
    """
    if k < B.m:
        raise LevelTooSmall(
            f"level {k} below the blow-up level {B.m}: the scaled derivation "
            "does not preserve integral chart functions"
        )
    if not P.finite:
        raise TruncatedOperand("cannot transport a truncated operator")
    out = {}
    for n, c in P.coeffs.items():
        shift = PAdicScalar.uniformizer_power(P.p, -B.m * n)
        out[n] = pull_function_u1(c, B).scale(shift)
    return DiffOp(out, P.p, U1_VAR)


def chart_commutator_constant(B: BlowupModel, k: int) -> NormExp:
    """Norm exponent of the bracket of the level-k scaled derivation with
    the inner chart coordinate, computed on the chart.

    Exponent zero at the blow-up level itself witnesses the failure of
    the commutator contraction there; above it the exponent is the level
    gap with a minus sign.
    """
    p = B.p
    scaled_derivation = DiffOp(
        {1: PAdicScalar.uniformizer_power(p, k)}, p, "x"
    )
    transported = pull_operator_u1(scaled_derivation, B, k)
    coordinate = DiffOp.from_poly(TatePoly.variable(p, U1_VAR))
    bracket = commutator(transported, coordinate)
    return bracket.norm(k)


def support_on_blowup(
    P: DiffOp, B: BlowupModel
) -> list[tuple[ChartPoint, int]]:
    """Support points of the cyclic module on the blow-up, per chart."""
    if not P.finite:
        raise TruncatedOperand("support undecidable for a truncated operator")
    if P.is_zero():
        raise ZeroOperator("zero operator")
    base_norm, _ = P.leading_coefficient().normalize()
    return _chart_points(P, B, base_norm.reduce().factor())


def _chart_points(P: DiffOp, B: BlowupModel, base_factors) -> list[tuple[ChartPoint, int]]:
    """support_on_blowup, given the factors of the base reduction."""
    p = P.p
    lead = P.leading_coefficient()
    out: list[tuple[ChartPoint, int]] = []

    # inner chart
    pulled = pull_function_u1(lead, B)
    normalized, _ = pulled.normalize()
    for q, mult in normalized.reduce().factor():
        out.append((ChartPoint(Chart.U1, ClosedPoint(q, Chart.U1.value)), mult))

    # strict transform away from the center
    center_red = B.center.reduce_mod_pi().value
    center_poly = ResiduePoly((-center_red, 1), p, lead.var)
    for q, mult in base_factors:
        if q == center_poly:
            continue
        shifted = q.translate(center_red).with_var(U2_VAR)
        out.append((ChartPoint(Chart.U2, ClosedPoint(shifted, Chart.U2.value)), mult))

    # crossing point: roots strictly between the chart radii
    recentered = lead.compose_linear(B.center, PAdicScalar.one(p), lead.var)
    crossing_mult = recentered.root_count_in_valuation_range(
        Fraction(0), Fraction(B.m)
    )
    if crossing_mult > 0:
        origin = ClosedPoint(
            ResiduePoly.variable(p, U2_VAR), Chart.CROSSING.value
        )
        out.append((ChartPoint(Chart.CROSSING, origin), crossing_mult))

    return sorted(out, key=lambda pm: pm[0].sort_key())


def fiber_sum_check(P: DiffOp, B: BlowupModel) -> bool:
    """Multiplicity bookkeeping across the blow-up.

    True when, over every base support point, the multiplicities of the
    blow-up support points above it, each weighted by its residue degree,
    sum to the base multiplicity, and the degree in the derivation is
    preserved by transport.
    """
    return _fiber_report(P, B)[0]


def _fiber_report(P: DiffOp, B: BlowupModel) -> tuple:
    """fiber_sum_check's verdict, the base and blow-up supports and whether
    transport keeps the degree in the derivation, factoring once per chart."""
    if P.is_zero():
        raise ZeroOperator("zero operator")
    base = infinite_support(P)
    above = _chart_points(P, B, [(pt.minimal_poly, mult) for pt, mult in base.points])
    m0_preserved = pull_operator_u1(P, B, B.m).degree() == P.degree()
    center_red = B.center.reduce_mod_pi().value
    center_poly = ResiduePoly((-center_red, 1), P.p, P.leading_coefficient().var)
    base_at_center = 0
    off_center: dict[ResiduePoly, int] = {}
    for pt, mult in base.points:
        if pt.minimal_poly == center_poly:
            base_at_center = mult
        else:
            off_center[pt.minimal_poly] = mult

    over_center = sum(
        mult * cp.point.degree for cp, mult in above if cp.chart != Chart.U2
    )
    u2_points = {
        cp.point.minimal_poly: mult for cp, mult in above if cp.chart == Chart.U2
    }
    expected_u2 = {
        q.translate(center_red).with_var(U2_VAR): mult
        for q, mult in off_center.items()
    }
    ok = over_center == base_at_center and u2_points == expected_u2 and m0_preserved
    return ok, base, above, m0_preserved
