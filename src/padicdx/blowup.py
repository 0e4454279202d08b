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

Over the center the multiplicities above sum to the one below for every
operator, an identity of one Newton polygon stated and proved at
:func:`fiber_sum_check`, so nothing is computed to check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charcycle import _point_json, char_cycle, infinite_support
from .errors import LevelTooSmall, NegativeValuation, ZeroOperator
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
        return {"chart": self.chart.value, **_point_json(self.point, mult)}


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
    P._require_finite("cannot transport a truncated operator")
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
    P._require_finite("support undecidable for a truncated operator", "zero operator")
    return _chart_points(P, B, char_cycle(P).vertical)


def _chart_points(P: DiffOp, B: BlowupModel, base_points) -> list:
    """support_on_blowup, given the base support points with their
    multiplicities; the leading coefficient is pulled and recentered once."""
    lead = P.leading_coefficient()
    inner = pull_function_u1(lead, B).normalize()[0].reduce()
    out = [
        (ChartPoint(Chart.U1, ClosedPoint._factor_of(q, Chart.U1.value)), mult)
        for q, mult in inner.factor()
    ]
    # strict transform: the base points but the one at the center, shifted
    center_red = B.center.reduce_mod_pi().value
    for pt, mult in base_points:
        shifted = pt.minimal_poly.translate(center_red).with_var(U2_VAR)
        if shifted.coeffs != (0, 1):
            point = ClosedPoint._factor_of(shifted, Chart.U2.value)
            out.append((ChartPoint(Chart.U2, point), mult))
    recentered = lead.compose_linear(B.center, PAdicScalar.one(P.p), lead.var)
    crossing = recentered.root_count_in_valuation_range(Fraction(0), Fraction(B.m))
    if crossing > 0:
        origin = ClosedPoint._factor_of(ResiduePoly.variable(B.p, U2_VAR), Chart.CROSSING.value)
        out.append((ChartPoint(Chart.CROSSING, origin), crossing))
    return sorted(out, key=lambda pm: pm[0].sort_key())


def fiber_sum_check(P: DiffOp, B: BlowupModel) -> bool:
    """Multiplicity bookkeeping across the blow-up: whether the blow-up
    support points above each base point, weighted by residue degree, sum
    to its multiplicity, and transport keeps the degree in the derivation.

    Both hold for every finite nonzero operator, so this refuses the zero
    and the truncated operator and then returns True, computing nothing.
    Off the center the strict-transform points are the base points,
    shifted.  Over it, count the roots of h(u) = g(c + u), g the leading
    coefficient, by valuation lambda, a zero root at infinity.  A
    translate by an integral c keeps the Gauss norm, so the order at the
    reduced center of the reduced normalized g, the least i minimizing
    v(h_i), is #{lambda > 0}.  The inner pullback h(pi^m t) has
    coefficients h_i pi^(mi), so the degree of its reduced normalized
    form, the largest i minimizing v(h_i) + m i, is #{lambda >= m}, and
    the crossing multiplicity is the difference, #{0 < lambda < m}.
    Transport substitutes x = c + pi^m t, which keeps a nonzero
    coefficient nonzero, and scales by powers of pi: it keeps the degree.
    """
    if P.is_zero():
        raise ZeroOperator("zero operator")
    P._require_finite("support undecidable for a truncated operator")
    return True


def _fiber_report(P: DiffOp, B: BlowupModel) -> tuple:
    """The base and blow-up supports, factoring once per chart."""
    base = infinite_support(P)
    return base, _chart_points(P, B, base.points)
