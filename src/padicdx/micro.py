"""Laurent operators in the derivation and their microlocal norms.

A :class:`MicroOp` stores a finite window of coefficients indexed by
integer powers of the derivation, negative powers included: the operator
core of :mod:`padicdx.weyl` with every power allowed, of which
:class:`padicdx.weyl.DiffOp` is the nonnegative-power view.  Mixed
arithmetic embeds the finite operand.  ``MicroOp(...)`` checks its input;
kernel results are built by ``_Operator._of`` without it.  Products are exact:
moving a power of the derivation across a polynomial coefficient uses the
generalized Leibniz expansion, whose generalized binomial coefficients are
integers for every integer exponent and whose series terminates at the
degree of the polynomial; it is the integer kernel
:func:`padicdx.weyl.leibniz_product`, shared with finite operators.

The level pair (k, r) with k >= r >= 1 is a view, not part of the stored
data: the (k, r) norm weights the n-th coefficient exponent by k*n for
n >= 0 and by r*n for n < 0 (:func:`padicdx.weyl.weight`).  The weight is
subadditive and derivatives do not raise the Gauss norm, so the norm is
submultiplicative; the truncations of inversion rest on that.

The only truncated computation in the module is inversion
(:func:`micro_invert`): Newton's iteration T' = T + T(1 - S T) on the
whole operator, from a one-monomial start u p^v d^-q, which squares the
residual at every step.  Each product of a step is a short product:
``leibniz_product`` with a floor stops each derivative chain at its first
term below the cutoff, skips the trailing entries whose products all fall
below it, and rounds each row once to its cutoff.  The result keeps the
monomials :meth:`MicroOp.truncate_below` would keep of the full product,
at the same norms, over a denominator that is a power of p, and differs
from it by less than the cutoff.  This is the capped-precision model of Caruso,
Roe and Vaccon, "Tracking p-adic precision" (2014); exact coefficients
would grow to hundreds of bits.  The cutoffs of all steps are fixed in
advance from the exact residual of the start, so that one pass reaches
the target; the final residual |S*T - 1| is recomputed from the exact,
unrounded product S*T, and a miss raises ``PrecisionNotReached``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadLevels,
    NotInvertibleHere,
    PrecisionNotReached,
    ZeroOperator,
)
from .residue import ResiduePoly
from .scalars import NormExp, PAdicScalar, _decimal
from .scalars import _fraction_valuation as _val
from .tatepoly import TatePoly, _as_exp, _canon
from .weyl import DiffOp, _Operator, leibniz_product, weight


def _check_levels(k: int, r: int):
    if not (k >= r >= 1):
        raise BadLevels(f"levels must satisfy k >= r >= 1, got ({k}, {r})")


class MicroOp(_Operator):
    """A Laurent operator in the derivation with polynomial coefficients,
    coefficients on the left.  Immutable."""

    __slots__ = ()
    _NEGATIVE_POWER = "use the certified inverse for negative powers"

    # constructors

    @classmethod
    def d_power(cls, n: int, p: int, var: str = "x", coeff=1) -> "MicroOp":
        return cls({n: coeff}, p, var)

    @classmethod
    def from_diffop(cls, P: DiffOp) -> "MicroOp":
        P._require_finite("cannot embed a truncated operator")
        return cls._of(P.coeffs, P.p, P.var)

    def to_diffop(self) -> DiffOp:
        if any(n < 0 for n in self.coeffs):
            raise ValueError("negative powers present")
        return DiffOp._of(self.coeffs, self.p, self.var)

    # norms and canonical form

    def norm(self, k: int, r: int) -> NormExp:
        """The (k, r) norm on the exponent scale."""
        _check_levels(k, r)
        return NormExp(self._norm_exp(k, r))

    def canonical_form(self, k: int, r: int) -> list[tuple[int, TatePoly]]:
        """Coefficients in the basis scaled by level k above and level r
        below zero; the (k, r) norm is the maximum of their Gauss norms
        and the rescaling is exactly invertible."""
        _check_levels(k, r)
        out = []
        for n in sorted(self.coeffs):
            shift = PAdicScalar.uniformizer_power(self.p, -weight(n, k, r))
            out.append((n, self.coeffs[n].scale(shift)))
        return out

    def canonical_form_json(self, k: int, r: int) -> list:
        """Canonical form as (power, plain coefficient vector, valuation
        shift) triples; the scaled coefficient is the vector times the
        uniformizer to the shift."""
        _check_levels(k, r)
        out = []
        for n in sorted(self.coeffs):
            vector = [_decimal(Fraction(a, self.coeffs[n].den)) for a in self.coeffs[n].num]
            out.append([n, vector, -weight(n, k, r)])
        return out

    def truncate_below(self, k: int, r: int, cutoff_exp: int) -> "MicroOp":
        """Discard every monomial contributing below the cutoff to the
        (k, r) norm; the result differs from the original by an element
        of norm below the cutoff."""
        _check_levels(k, r)
        table = {n: c.drop_below(cutoff_exp - weight(n, k, r)) for n, c in self.coeffs.items()}
        return MicroOp._of(table, self.p, self.var)


# invertibility verdicts


class _Verdict:
    """A verdict dataclass; its ``tag`` is its class name."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.tag = cls.__name__


@dataclass(frozen=True)
class InvertibleOnDisc(_Verdict):
    """Unit in the (k, r) Laurent ring over the whole disc."""

    q: int


@dataclass(frozen=True)
class BadLocusOnly(_Verdict):
    """Unit away from the zeros of the dominant coefficient reduction."""

    q: int
    bad: ResiduePoly


@dataclass(frozen=True)
class NotInvertible(_Verdict):
    """No dominant coefficient, or the tail fails to contract."""

    reason: str


@dataclass(frozen=True)
class EverywhereInvertible(_Verdict):
    """Finite operator invertible microlocally over the whole disc."""


@dataclass(frozen=True)
class BadLocus(_Verdict):
    """Invertible away from the zeros of the reduced dominant coefficient."""

    bad: ResiduePoly


@dataclass(frozen=True)
class FailsDecay(_Verdict):
    """Lower coefficients too large at this level; rmin is the least
    level at which the decay condition holds."""

    rmin: int


def micro_unit_verdict(S: MicroOp, k: int, r: int):
    """Invertibility test in the (k, r) Laurent ring over the disc.

    Checks, on the coefficient norms weighted by k*n at every index n
    (for n < 0 the (k, r) weight shifted by n*(k - r), which removes the
    dependence on r): a unique coefficient of maximal norm, contraction of
    the shifted tail (exactly the condition that the geometric series for
    the inverse converges in the (k, r) norm; the lowest failing offset is
    reported), and invertibility of the dominant coefficient on the disc.
    When only the last condition fails, the verdict carries the reduction
    of the normalized dominant coefficient, whose zeros are the
    obstruction.
    """
    _check_levels(k, r)
    if S.is_zero():
        raise ZeroOperator("zero element of the Laurent ring")
    exps = {n: c._gauss_exp() + k * n for n, c in S.coeffs.items()}
    top = max(exps.values())
    candidates = [n for n, e in exps.items() if e == top]
    if len(candidates) != 1:
        return NotInvertible("no unique coefficient of maximal norm")
    q = candidates[0]
    # q is the unique index of maximal exponent, so only n < 0 can fail
    for idx, e in sorted(exps.items()):
        n = idx - q
        if n < 0 and not e < top + n * (k - r):
            return NotInvertible(
                f"tail coefficient at offset {n} does not contract at levels ({k}, {r})"
            )
    # a power of p changes neither the unit test nor the normalized form
    aq = S.coeffs[q]
    if aq.is_unit_on_disc():
        return InvertibleOnDisc(q)
    normalized, _ = aq.normalize()
    return BadLocusOnly(q, normalized.reduce())


def _one_plus(table: dict, p: int, var: str) -> MicroOp:
    """1 plus the operator of a {power: TatePoly} table, added in place to
    its power-0 row."""
    c = table.get(0)
    num, den = (list(c.num), c.den) if c else ([0], 1)
    num[0] += den
    table[0] = _canon(num, den, p, var)
    return MicroOp._of(table, p, var)


def micro_invert(S: MicroOp, k: int, r: int, eps) -> tuple[MicroOp, NormExp]:
    """Certified inverse in the (k, r) Laurent ring.

    Returns (T, rho) with the (k, r) norm of S*T - 1 equal to rho and
    rho < eps.

    Start: with s_q d^q the dominant term, T0 = u p^v d^-q, where p^v u
    rounds 1/s_q(0) to one p-adic digit (u the balanced residue mod p of
    its unit part).  The unit verdict makes s_q(0) dominate s_q and every
    tail term contract against s_q d^q, so E0 = 1 - S T0 has norm below 0;
    T0 is one monomial, so E0 is computed exactly.

    Newton steps: T' = T + T E gives 1 - S T' = (1 - S T)^2 in this
    noncommutative ring, so each step doubles the precision (von zur
    Gathen and Gerhard, Modern Computer Algebra, 9.1).  Both products of a
    step are short products, cut and rounded in one pass
    (``leibniz_product`` with a floor) so that each moves its result by
    less than its cutoff.  The computed residual E is 1 plus
    the short product of -S, negated once, and T, so E = (1 - S T) + d1
    with d1 the error of that product; and T' = T + T E - d2 with d2 the
    error of the short T E.  Then

        1 - S T' = E^2 - d1 (1 + E) + S d2.

    The cutoffs are fixed in advance from |E0|: c_1 = max(eps, 2|E0| + 1)
    and c_(i+1) = max(eps, 2(c_i - 1) + 1), until c_i = eps; there are none
    when |E0| < eps already.  Step i cuts T E at c_i - max(0, |S|) and,
    unless it is the last, computes the next residual at c_(i+1).  By
    induction |1 - S T| < c_i after step i, so the next E, which differs
    from it by d1 with |d1| < c_(i+1) <= c_i, has |E| <= c_i - 1; then
    |E^2| < c_(i+1), |d1 (1 + E)| = |d1| < c_(i+1) and |S d2| <= |S| + |d2|
    < c_(i+1), since the norm is submultiplicative.  The first E is exact,
    d1 = 0, and |E0^2| < c_1.  T keeps denominators that are powers of
    p; it is one certified inverse among many, fixed by the balanced
    residues of the start and the rounding.

    Certificate: rho is recomputed from the full exact product of -S and T.
    The bound above puts it below eps, so there is one pass; a miss raises
    ``PrecisionNotReached`` at once.
    """
    eps_exp = _as_exp(eps)
    verdict = micro_unit_verdict(S, k, r)
    if not isinstance(verdict, InvertibleOnDisc):
        raise NotInvertibleHere(f"unit test failed: {verdict}")
    q = verdict.q
    p, var = S.p, S.var
    # T0 = u p^v d^-q with p^v u the one-digit rounding of 1/s_q(0)
    a0, den = S.coeffs[q].num[0], S.coeffs[q].den
    vd, va = _val(den, p), _val(a0, p)
    lo = (p - 1) // 2
    u = (den // p**vd * pow(a0 // p**va, -1, p) + lo) % p - lo
    T = MicroOp.d_power(-q, p, var, Fraction(u * p**vd, p**va))
    minus_s = -S

    def product(left, right, floor=None):
        return leibniz_product(left.coeffs, right.coeffs, p, var, floor)

    E = _one_plus(product(minus_s, T), p, var)
    e = E._norm_exp(k, r)
    if e is not None and e >= eps_exp:
        cutoffs = [max(eps_exp, 2 * e + 1)]
        while cutoffs[-1] > eps_exp:
            cutoffs.append(max(eps_exp, 2 * cutoffs[-1] - 1))
        norm_s = max(0, S._norm_exp(k, r))
        # each residual is cut at the next step's cutoff; the last is exact
        floors = [(k, r, c) for c in cutoffs[1:]] + [None]
        for c, floor in zip(cutoffs, floors):
            T = T + MicroOp._of(product(T, E, (k, r, c - norm_s)), p, var)
            E = _one_plus(product(minus_s, T, floor), p, var)
    rho = E.norm(k, r)
    if not rho < NormExp(eps_exp):
        raise PrecisionNotReached(f"no inverse within p^{eps_exp}: residual {rho}")
    return T, rho


def _decay_level(P: DiffOp) -> int:
    """The least level r >= 1 at which the nonzero finite operator P of
    degree d meets the decay condition e(n) < e(d) + r*(d - n) for every
    lower index n, e(n) the Gauss exponent of its coefficient at d^n."""
    d = P.degree()
    e_top = P.coefficient(d)._gauss_exp()
    rmin = 1
    for n, c in P.coeffs.items():
        if n < d:
            # least integer level rr with gap < rr * (d - n)
            rmin = max(rmin, (c._gauss_exp() - e_top) // (d - n) + 1)
    return rmin


def finite_order_verdict(P: DiffOp, r: int):
    """Microlocal invertibility of a finite operator at a given level.

    With degree d and dominant coefficient of Gauss exponent e(d), the
    decay condition asks e(n) < e(d) + r*(d - n) for every lower index n.
    When it holds the operator is a unit away from the zeros of the
    reduced normalized dominant coefficient (everywhere, if that
    coefficient is a unit on the disc).  When it fails the verdict
    reports the least level at which it would hold.
    """
    if r < 1:
        raise BadLevels(f"microlocal level must be at least 1, got {r}")
    P._require_finite("analysis undefined for a truncated operator", "zero operator")
    rmin = _decay_level(P)
    if rmin > r:
        return FailsDecay(rmin)
    lead = P.leading_coefficient()
    if lead.is_unit_on_disc():
        return EverywhereInvertible()
    normalized, _ = lead.normalize()
    return BadLocus(normalized.reduce())
