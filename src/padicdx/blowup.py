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

The strict-transform points are the base points off the center by
construction, so the multiplicity check weighs the center alone, by
degrees: the order at the reduced center of the reduced dominant
coefficient must equal the degree of the reduced inner pullback (roots
with v(x - c) >= m) plus the crossing multiplicity (0 < v < m).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charcycle import _point_json, infinite_support
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
    base, inner, crossing, _, _ = _transport(P, B)
    return _chart_points(B, base.factor(), inner, crossing)


def _transport(P: DiffOp, B: BlowupModel) -> tuple:
    """The reduced normalized leading coefficient of P, its pullback to
    the inner chart reduced and normalized alike, the crossing
    multiplicity, whether transport keeps the degree in the derivation,
    and fiber_sum_check's verdict; the zero operator is refused first.

    ``pull_operator_u1(P, B, B.m)`` scales each pulled coefficient by a
    power of pi, which keeps nonzero polynomials nonzero, so it keeps the
    degree of P exactly when the pulled leading coefficient is nonzero."""
    if P.is_zero():
        raise ZeroOperator("zero operator")
    P._require_finite("support undecidable for a truncated operator")
    lead = P.leading_coefficient()
    base = lead.normalize()[0].reduce()
    pulled = pull_function_u1(lead, B)
    inner = pulled.normalize()[0].reduce()
    recentered = lead.compose_linear(B.center, PAdicScalar.one(P.p), lead.var)
    crossing = recentered.root_count_in_valuation_range(Fraction(0), Fraction(B.m))
    at_center = base.translate(B.center.reduce_mod_pi().value).coeffs
    base_mult = next(i for i, a in enumerate(at_center) if a)
    m0_preserved = not pulled.is_zero()
    ok = m0_preserved and base_mult == inner.degree() + crossing
    return base, inner, crossing, m0_preserved, ok


def _chart_points(B: BlowupModel, base_factors, inner: ResiduePoly, crossing: int) -> list:
    """support_on_blowup, given the factors of the base reduction, the
    reduced normalized inner-chart pullback and the crossing multiplicity."""
    out = [
        (ChartPoint(Chart.U1, ClosedPoint._factor_of(q, Chart.U1.value)), mult)
        for q, mult in inner.factor()
    ]
    # strict transform: the base points but the one at the center, shifted
    center_red = B.center.reduce_mod_pi().value
    for q, mult in base_factors:
        shifted = q.translate(center_red).with_var(U2_VAR)
        if shifted.coeffs != (0, 1):
            point = ClosedPoint._factor_of(shifted, Chart.U2.value)
            out.append((ChartPoint(Chart.U2, point), mult))
    if crossing > 0:
        origin = ClosedPoint(ResiduePoly.variable(B.p, U2_VAR), Chart.CROSSING.value)
        out.append((ChartPoint(Chart.CROSSING, origin), crossing))
    return sorted(out, key=lambda pm: pm[0].sort_key())


def fiber_sum_check(P: DiffOp, B: BlowupModel) -> bool:
    """Multiplicity bookkeeping across the blow-up.

    True when, over every base support point, the multiplicities of the
    blow-up support points above it, each weighted by its residue degree,
    sum to the base multiplicity, and the degree in the derivation is
    preserved by transport.  Off the center the strict-transform points
    are the base points, shifted, so only the center is weighed, by
    degrees and with nothing factored: the order of the reduced leading
    coefficient at the reduced center against the degree of its reduced
    inner-chart pullback plus the crossing multiplicity.
    """
    return _transport(P, B)[4]


def _fiber_report(P: DiffOp, B: BlowupModel) -> tuple:
    """fiber_sum_check's verdict, the base and blow-up supports and whether
    transport keeps the degree in the derivation, factoring once per chart."""
    _, inner, crossing, m0_preserved, ok = _transport(P, B)
    base = infinite_support(P)
    above = _chart_points(B, [(pt.minimal_poly, m) for pt, m in base.points], inner, crossing)
    return ok, base, above, m0_preserved
