"""Laurent operators in the derivation and their microlocal norms.

A :class:`MicroOp` stores a finite window of coefficients indexed by
integer powers of the derivation, negative powers included.  Products are
exact: moving a power of the derivation across a polynomial coefficient
uses the generalized Leibniz expansion, whose generalized binomial
coefficients are integers for every integer exponent and whose series
terminates at the degree of the polynomial; it is the integer kernel
:func:`padicdx.weyl.leibniz_product`, shared with finite operators.  The
only truncated computation in the module is inversion, which returns an
exactly recomputed residual norm or raises ``PrecisionNotReached``.

The level pair (k, r) with k >= r >= 1 is a view, not part of the stored
data: the (k, r) norm weights the n-th coefficient exponent by k*n for
n >= 0 and by r*n for n < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadLevels,
    MixedPrimes,
    NotInvertibleHere,
    PrecisionNotReached,
    TruncatedOperand,
    ZeroOperator,
)
from .residue import ResiduePoly
from .scalars import NEG_INF, NormExp, PAdicScalar
from .tatepoly import TatePoly, _as_exp
from .weyl import DiffOp, _coerce_poly, _format_operator, leibniz_product

# each retry doubles the series length and the working precisions
INVERT_ATTEMPTS = 4


def _check_levels(k: int, r: int):
    if not (k >= r >= 1):
        raise BadLevels(f"levels must satisfy k >= r >= 1, got ({k}, {r})")


class MicroOp:
    """A Laurent operator in the derivation with polynomial coefficients,
    coefficients on the left.  Immutable."""

    __slots__ = ("coeffs", "p", "var")

    def __init__(self, coeffs, p: int, var: str = "x"):
        table: dict[int, TatePoly] = {}
        for n, c in dict(coeffs).items():
            poly = _coerce_poly(c, p, var)
            if not poly.is_zero():
                table[int(n)] = poly
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("MicroOp is immutable")

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x") -> "MicroOp":
        return cls({}, p, var)

    @classmethod
    def one(cls, p: int, var: str = "x") -> "MicroOp":
        return cls({0: 1}, p, var)

    @classmethod
    def d_power(cls, n: int, p: int, var: str = "x", coeff=1) -> "MicroOp":
        return cls({n: coeff}, p, var)

    @classmethod
    def from_poly(cls, f: TatePoly) -> "MicroOp":
        return cls({0: f}, f.p, f.var)

    @classmethod
    def from_diffop(cls, P: DiffOp) -> "MicroOp":
        if not P.finite:
            raise TruncatedOperand("cannot embed a truncated operator")
        return cls(dict(P.coeffs), P.p, P.var)

    def to_diffop(self) -> DiffOp:
        if any(n < 0 for n in self.coeffs):
            raise ValueError("negative powers present")
        return DiffOp(dict(self.coeffs), self.p, self.var)

    # structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def coefficient(self, n: int) -> TatePoly:
        return self.coeffs.get(n, TatePoly.zero(self.p, self.var))

    _merge_var = DiffOp._merge_var

    # norms and canonical form

    def norm(self, k: int, r: int) -> NormExp:
        """The (k, r) norm on the exponent scale."""
        _check_levels(k, r)
        out = NEG_INF
        for n, c in self.coeffs.items():
            weight = k * n if n >= 0 else r * n
            out = max(out, c.gauss_norm() + weight)
        return out

    def canonical_form(self, k: int, r: int) -> list[tuple[int, TatePoly]]:
        """Coefficients in the basis scaled by level k above and level r
        below zero; the (k, r) norm is the maximum of their Gauss norms
        and the rescaling is exactly invertible."""
        _check_levels(k, r)
        out = []
        for n in sorted(self.coeffs):
            weight = k * n if n >= 0 else r * n
            shift = PAdicScalar.uniformizer_power(self.p, -weight)
            out.append((n, self.coeffs[n].scale(shift)))
        return out

    def canonical_form_json(self, k: int, r: int) -> list:
        """Canonical form as (power, plain coefficient vector, valuation
        shift) triples; the scaled coefficient is the vector times the
        uniformizer to the shift."""
        _check_levels(k, r)
        out = []
        for n in sorted(self.coeffs):
            weight = k * n if n >= 0 else r * n
            vector = [str(Fraction(a, self.coeffs[n].den)) for a in self.coeffs[n].num]
            out.append([n, vector, -weight])
        return out

    # arithmetic

    def _check(self, other):
        if isinstance(other, MicroOp):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other
        if isinstance(other, DiffOp):
            return self._check(MicroOp.from_diffop(other))
        if isinstance(other, TatePoly):
            return self._check(MicroOp.from_poly(other))
        if isinstance(other, (int, PAdicScalar)):
            return MicroOp({0: _coerce_poly(other, self.p, self.var)}, self.p, self.var)
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        var = self._merge_var(o)
        out = dict(self.coeffs)
        for n, c in o.coeffs.items():
            out[n] = out.get(n, TatePoly.zero(self.p, var)) + c
        return MicroOp(out, self.p, var)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return MicroOp({n: -c for n, c in self.coeffs.items()}, self.p, self.var)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        var = self._merge_var(o)
        return MicroOp(leibniz_product(self.coeffs, o.coeffs, self.p, var), self.p, var)

    def __rmul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o * self

    def scale(self, scalar) -> "MicroOp":
        return MicroOp(
            {n: c.scale(scalar) for n, c in self.coeffs.items()}, self.p, self.var
        )

    def truncate_below(self, k: int, r: int, cutoff_exp: int) -> "MicroOp":
        """Discard every monomial contributing below the cutoff to the
        (k, r) norm; the result differs from the original by an element
        of norm below the cutoff."""
        _check_levels(k, r)
        out = {}
        for n, c in self.coeffs.items():
            weight = k * n if n >= 0 else r * n
            out[n] = c.drop_below(cutoff_exp - weight)
        return MicroOp(out, self.p, self.var)

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("use the certified inverse for negative powers")
        out = MicroOp.one(self.p, self.var)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    # misc

    def _eq_key(self):
        has_var = any(not c.is_constant() for c in self.coeffs.values())
        return (self.p, frozenset(self.coeffs.items()), self.var if has_var else "")

    def __eq__(self, other):
        if isinstance(other, (int, TatePoly, PAdicScalar, DiffOp)):
            other = self._check(other)
        if not isinstance(other, MicroOp):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __str__(self):
        return _format_operator(self.coeffs, "0")

    def __repr__(self):
        return f"MicroOp({self}, p={self.p})"


# invertibility verdicts


@dataclass(frozen=True)
class InvertibleOnDisc:
    """Unit in the (k, r) Laurent ring over the whole disc."""

    q: int

    tag = "InvertibleOnDisc"


@dataclass(frozen=True)
class BadLocusOnly:
    """Unit away from the zeros of the dominant coefficient reduction."""

    q: int
    bad: ResiduePoly

    tag = "BadLocusOnly"


@dataclass(frozen=True)
class NotInvertible:
    """No dominant coefficient, or the tail fails to contract."""

    reason: str

    tag = "NotInvertible"


@dataclass(frozen=True)
class EverywhereInvertible:
    """Finite operator invertible microlocally over the whole disc."""

    tag = "EverywhereInvertible"


@dataclass(frozen=True)
class BadLocus:
    """Invertible away from the zeros of the reduced dominant coefficient."""

    bad: ResiduePoly

    tag = "BadLocus"


@dataclass(frozen=True)
class FailsDecay:
    """Lower coefficients too large at this level; rmin is the least
    level at which the decay condition holds."""

    rmin: int

    tag = "FailsDecay"


def _level_k_coefficients(S: MicroOp, k: int) -> dict[int, TatePoly]:
    """Coefficients of S in the basis scaled by level k at every index.

    For n >= 0 this matches the canonical (k, r) form; for n < 0 it is
    the canonical coefficient rescaled by the uniformizer power n*(r-k),
    which removes the dependence on r.
    """
    shift = {
        n: c.scale(PAdicScalar.uniformizer_power(S.p, -k * n))
        for n, c in S.coeffs.items()
    }
    return shift


def micro_unit_verdict(S: MicroOp, k: int, r: int):
    """Invertibility test in the (k, r) Laurent ring over the disc.

    Checks, on the level-k rescaled coefficients: a unique coefficient of
    maximal norm, contraction of the shifted tail (exactly the condition
    that the geometric series for the inverse converges in the (k, r)
    norm; the lowest failing offset is reported), and invertibility of
    the dominant coefficient on the disc.
    When only the last condition fails, the verdict carries the reduction
    of the normalized dominant coefficient, whose zeros are the
    obstruction.
    """
    _check_levels(k, r)
    if S.is_zero():
        raise ZeroOperator("zero element of the Laurent ring")
    alpha = _level_k_coefficients(S, k)
    exps = {n: c.gauss_norm() for n, c in alpha.items()}
    top = max(exps.values())
    candidates = [n for n, e in exps.items() if e == top]
    if len(candidates) != 1:
        return NotInvertible("no unique coefficient of maximal norm")
    q = candidates[0]
    for idx, e in sorted(exps.items()):
        n = idx - q
        if n == 0:
            continue
        bound = top if n > 0 else top + n * (k - r)
        if not e < bound:
            return NotInvertible(
                f"tail coefficient at offset {n} does not contract at levels ({k}, {r})"
            )
    aq = alpha[q]
    if aq.is_unit_on_disc():
        return InvertibleOnDisc(q)
    normalized, _ = aq.normalize()
    return BadLocusOnly(q, normalized.reduce())


def micro_invert(S: MicroOp, k: int, r: int, eps) -> tuple[MicroOp, NormExp]:
    """Certified inverse in the (k, r) Laurent ring.

    Returns (T, rho) with the (k, r) norm of S*T - 1 equal to rho and
    rho < eps.  The inverse is the geometric series on the contracting
    tail, left multiplied by the inverse power of the scaled derivation
    and right multiplied by an inverse of the dominant coefficient; the
    residual is recomputed exactly from the truncation before returning.
    """
    eps_exp = _as_exp(eps)
    verdict = micro_unit_verdict(S, k, r)
    if not isinstance(verdict, InvertibleOnDisc):
        raise NotInvertibleHere(f"unit test failed: {verdict}")
    q = verdict.q
    p, var = S.p, S.var
    alpha = _level_k_coefficients(S, k)
    aq = alpha[q]

    # tail of the dominant factorization, before dividing by the dominant
    # coefficient: sum over nonzero offsets of alpha[m+q] (pi^k d)^m,
    # held in the plain basis
    tail_plain = MicroOp(
        {
            m: alpha[m + q].scale(PAdicScalar.uniformizer_power(p, k * m))
            for m in (idx - q for idx in alpha)
            if m != 0
        },
        p,
        var,
    )
    lead_inverse_exact = aq.is_constant()

    # the dominant-coefficient inverse error enters the residual undamped
    # but unamplified (the tail norm sits strictly below the dominant
    # coefficient), so the target precision itself suffices; the retry
    # loop below is a backstop, not part of the bound
    delta = eps_exp
    terms = None

    # monomials this far below the target cannot affect the residual even
    # after the remaining multiplications, so the partial sums can be
    # truncated; the residual is still computed from the exact product
    norm_s = S.norm(k, r)
    e_aq = aq.gauss_norm().exp
    cutoff = (
        eps_exp
        - 1
        - max(0, norm_s.exp if not norm_s.is_neg_inf() else 0)
        - max(0, q * (k - r))
        - max(0, -e_aq)
    )

    dpow = MicroOp.d_power(-q, p, var, PAdicScalar.uniformizer_power(p, -k * q))
    for _ in range(INVERT_ATTEMPTS):
        if lead_inverse_exact:
            inv_lead = TatePoly.constant(1 / aq.constant_term(), p, var)
        else:
            inv_lead, _ = aq.invert_on_disc(delta)
        ratio = (MicroOp.from_poly(inv_lead) * tail_plain).truncate_below(
            k, r, cutoff
        )
        if terms is None:
            # the unit verdict guarantees a contracting ratio, so the
            # exponent is at most -1; smallest L with (L+1)*exp < eps
            rnorm = ratio.norm(k, r)
            terms = 0 if rnorm.is_neg_inf() else max(0, eps_exp // rnorm.exp)
        acc = MicroOp.one(p, var)
        power = MicroOp.one(p, var)
        for _ in range(terms):
            power = (power * (-ratio)).truncate_below(k, r, cutoff)
            if power.is_zero():
                break
            acc = acc + power
        T = dpow * acc * MicroOp.from_poly(inv_lead)
        rho = (S * T - 1).norm(k, r)
        if rho < NormExp(eps_exp):
            return T, rho
        terms = 2 * terms + 1
        delta = 2 * delta - 1
        cutoff = 2 * cutoff - 1
    raise PrecisionNotReached(
        f"no inverse within p^{eps_exp} after {INVERT_ATTEMPTS} attempts"
    )


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
    if not P.finite:
        raise TruncatedOperand("analysis undefined for a truncated operator")
    if P.is_zero():
        raise ZeroOperator("zero operator")
    d = P.degree()
    lead = P.coefficient(d)
    e_top = lead.gauss_norm().exp
    rmin = 1
    for n, c in P.coeffs.items():
        if n == d:
            continue
        gap = c.gauss_norm().exp - e_top
        # least integer level rr with gap < rr * (d - n)
        rr = gap // (d - n) + 1
        rmin = max(rmin, rr)
    if rmin > r:
        return FailsDecay(rmin)
    if lead.is_unit_on_disc():
        return EverywhereInvertible()
    normalized, _ = lead.normalize()
    return BadLocus(normalized.reduce())
