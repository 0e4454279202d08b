"""Polynomial representatives of functions on the closed unit disc.

A :class:`TatePoly` is a finite coefficient sequence over the exact p-adic
scalars, held as integer numerators over one common denominator; the Gauss
norm (the maximum of the coefficient norms) is the spectral norm of the
function it represents and is multiplicative.  The module provides
normalization to Gauss norm one, reduction to the residue field, the
dominant-constant-term unit test on the disc, a geometric series inverse
with an exactly certified residual, and Newton polygon data used for
locating roots by valuation.  The code shared with
:class:`padicdx.residue.ResiduePoly` lives in ``padicdx.residue``
(``_DensePoly``, ``_format_poly``) and ``padicdx.scalars._Ring``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import MixedPrimes, NormTooLarge, NotAUnit, ZeroInput
from .residue import ResiduePoly, _DensePoly, _format_poly, _mul_into
from .scalars import NEG_INF, NormExp, PAdicScalar, is_prime
from .scalars import _fraction_valuation as _val


def _as_exp(eps) -> int:
    if isinstance(eps, NormExp):
        if eps.is_neg_inf():
            raise ValueError("a target precision of norm zero is unreachable")
        return eps.exp
    return int(eps)


def _fraction(value, p: int) -> Fraction:
    """A coefficient or scalar as a Fraction, checked as PAdicScalar checks."""
    if isinstance(value, PAdicScalar):
        if value.p != p:
            raise MixedPrimes("mixed primes")
        return value.value
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    return Fraction(value)


def _make(num: tuple, den: int, p: int, var: str) -> "TatePoly":
    f = object.__new__(TatePoly)
    _SET_NUM(f, num)
    _SET_DEN(f, den)
    _SET_P(f, p)
    _SET_VAR(f, var)
    return f


def _add_lists(a, da: int, b, db: int) -> tuple[list, int]:
    """a/da + b/db as integer numerators over the lcm of the denominators."""
    if da != db:
        g = gcd(da, db)
        a, b = [x * (db // g) for x in a], [y * (da // g) for y in b]
        da = da // g * db
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)], da


def _canon(num: list, den: int, p: int, var: str) -> "TatePoly":
    """The polynomial num/den in canonical form; requires den > 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _make((), 1, p, var)
    g = gcd(den, *num)
    if g != 1:
        num = [a // g for a in num]
        den //= g
    return _make(tuple(num), den, p, var)


class TatePoly(_DensePoly):
    """A polynomial over the exact p-adic scalars with a variable symbol.

    The coefficient of degree i is ``num[i] / den``.  The form is
    canonical: ``den > 0``, ``gcd(den, *num) == 1`` and trailing zeros
    are trimmed, so the zero polynomial is ``num == ()``, ``den == 1``.
    """

    __slots__ = ("num", "den", "p", "var")

    def __new__(cls, coeffs, p: int, var: str = "x"):
        fs = [_fraction(c, p) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        return _canon([f.numerator * (den // f.denominator) for f in fs], den, p, var)

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x") -> "TatePoly":
        return _make((), 1, p, var)

    @classmethod
    def constant(cls, value, p: int, var: str = "x") -> "TatePoly":
        return cls((value,), p, var)

    # structure

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def coefficient(self, i: int) -> PAdicScalar:
        if 0 <= i < len(self.num):
            return PAdicScalar(Fraction(self.num[i], self.den), self.p)
        return PAdicScalar.zero(self.p)

    def leading(self) -> PAdicScalar:
        if not self.num:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coefficient(len(self.num) - 1)

    def _check(self, other):
        if isinstance(other, (int, Fraction, PAdicScalar)):
            return TatePoly((other,), self.p, self.var)
        if isinstance(other, TatePoly):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other
        return None

    # arithmetic

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        var = self._merge_var(o)
        return _canon(*_add_lists(self.num, self.den, o.num, o.den), self.p, var)

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple(-a for a in self.num), self.den, self.p, self.var)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        var = self._merge_var(o)
        return _canon(_mul_into([], self.num, o.num), self.den * o.den, self.p, var)

    __rmul__ = __mul__

    def scale(self, scalar) -> "TatePoly":
        s = _fraction(scalar, self.p)
        n = s.numerator
        return _canon([a * n for a in self.num], self.den * s.denominator, self.p, self.var)

    def derivative(self) -> "TatePoly":
        return _canon(
            [i * a for i, a in enumerate(self.num[1:], 1)], self.den, self.p, self.var
        )

    def compose_linear(
        self, shift: PAdicScalar, stretch: PAdicScalar, new_var: str
    ) -> "TatePoly":
        """Substitute shift + stretch * (new variable) for the variable."""
        # shift = a/q, stretch = s/q; Horner builds sum num_i (a + s y)^i q^(n-i)
        a, s = _fraction(shift, self.p), _fraction(stretch, self.p)
        q = lcm(a.denominator, s.denominator)
        a, s = int(a * q), int(s * q)
        acc, qi = [], 1
        for c in reversed(self.num):
            acc = [a * u + s * v for u, v in zip(acc + [0], [0] + acc)]
            acc[0] += c * qi
            qi *= q
        return _canon(acc, self.den * qi // q, self.p, new_var)

    def drop_below(self, cutoff_exp: int) -> "TatePoly":
        """Discard coefficients of norm below the cutoff exponent."""
        # |a/den| >= p^cutoff exactly when v(a) <= keep, that is p^(keep+1) does not divide a
        keep = _val(self.den, self.p) - cutoff_exp
        if keep < 0:
            return TatePoly.zero(self.p, self.var)
        q = self.p ** (keep + 1)
        return _canon([a if a % q else 0 for a in self.num], self.den, self.p, self.var)

    # norms and reduction

    def gauss_norm(self) -> NormExp:
        """Spectral norm: the maximum of the coefficient norms."""
        if not self.num:
            return NEG_INF
        return NormExp(self._gauss_exp())

    def _gauss_exp(self) -> int:
        """The Gauss norm exponent as a plain int.  Only for a nonzero
        polynomial: the gcd of no numerators is 0, which has no valuation.
        In canonical form gcd(den, *num) is 1, so when p divides den it
        divides no gcd of the numerators and v_p(den) is the exponent."""
        return _val(self.den, self.p) or -_val(gcd(*self.num), self.p)

    def normalize(self) -> tuple["TatePoly", int]:
        """Split off the power of the uniformizer reaching Gauss norm one.

        Returns (g, v) with ``self == p**v * g`` and ``g`` of Gauss norm
        one exactly.
        """
        if self.is_zero():
            raise ZeroInput("cannot normalize the zero polynomial")
        v = -self._gauss_exp()
        return self.scale(Fraction(self.p) ** -v), v

    def reduce(self) -> ResiduePoly:
        """Coefficientwise reduction; requires Gauss norm at most one."""
        if self.num and self._gauss_exp() > 0:
            raise NormTooLarge(f"Gauss norm of {self} exceeds one")
        # in canonical form an integral polynomial has den prime to p
        inv = pow(self.den, -1, self.p)
        return ResiduePoly([a * inv for a in self.num], self.p, self.var)

    # units on the disc

    def is_unit_on_disc(self) -> bool:
        """Dominant constant term test for invertibility on the disc."""
        if not self.num or not self.num[0]:
            return False
        q = self.p ** (_val(self.num[0], self.p) + 1)
        return all(a % q == 0 for a in self.num[1:])

    def invert_on_disc(self, eps) -> tuple["TatePoly", NormExp]:
        """Geometric-series inverse with an exactly certified residual.

        Returns (g, rho) with ``gauss_norm(self * g - 1) == rho < eps``.
        The tail ratio has Gauss norm strictly below one, so truncation
        terminates; the residual is recomputed exactly before returning.
        """
        eps_exp = _as_exp(eps)
        if not self.is_unit_on_disc():
            raise NotAUnit(f"{self} is not a unit on the closed disc")
        c0_inv = Fraction(self.den, self.num[0])
        scaled = self.scale(c0_inv)
        tail = scaled - TatePoly.one(self.p, self.var)
        if tail.is_zero():
            return TatePoly.constant(c0_inv, self.p, self.var), NEG_INF
        tail_exp = tail._gauss_exp()
        acc = TatePoly.one(self.p, self.var)
        power = TatePoly.one(self.p, self.var)
        bound = tail_exp
        while bound >= eps_exp:
            power = power * (-tail)
            acc = acc + power
            bound += tail_exp
        inverse = acc.scale(c0_inv)
        residual = (self * inverse - 1).gauss_norm()
        return inverse, residual

    # Newton polygon

    def newton_valuation_counts(self) -> list[tuple[Fraction, int]]:
        """Root valuations from the lower Newton polygon.

        Returns (valuation, count) pairs accounting for every nonzero
        root in an algebraic closure, with multiplicity.  Roots equal to
        zero are not listed; their number is the order of vanishing at
        the origin.
        """
        vden = _val(self.den, self.p)
        pts = [(i, _val(a, self.p) - vden) for i, a in enumerate(self.num) if a]
        if not pts:
            raise ZeroInput("zero polynomial has no Newton polygon")
        hull = [pts[0]]
        for pt in pts[1:]:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                # drop hull points above the segment to pt
                if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        out = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            slope = Fraction(y2 - y1, x2 - x1)
            out.append((-slope, x2 - x1))
        return out

    # misc

    def _eq_key(self):
        return (self.p, self.num, self.den, self.var if len(self.num) > 1 else "")

    def __eq__(self, other):
        if isinstance(other, PAdicScalar) and other.p != self.p:
            return False
        if isinstance(other, (int, Fraction, PAdicScalar)):
            other = self._check(other)
        if not isinstance(other, TatePoly):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __str__(self):
        return _format_poly(self.num, self.den, self.var)

    def __repr__(self):
        coeffs = [str(Fraction(a, self.den)) for a in self.num]
        return f"TatePoly({coeffs}, p={self.p}, var={self.var!r})"


# the slot setters of ``_make``: TatePoly.__setattr__ refuses every write
_SET_NUM, _SET_DEN, _SET_P, _SET_VAR = (
    getattr(TatePoly, name).__set__ for name in TatePoly.__slots__
)
