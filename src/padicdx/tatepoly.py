"""Polynomial representatives of functions on the closed unit disc.

A :class:`TatePoly` is a finite coefficient sequence over the exact p-adic
scalars, held as integer numerators over one common denominator; the Gauss
norm (the maximum of the coefficient norms) is the spectral norm of the
function it represents and is multiplicative.  The module provides
normalization to Gauss norm one, reduction to the residue field, the
dominant-constant-term unit test on the disc, a geometric series inverse
with an exactly certified residual, and Newton polygon data used for
locating roots by valuation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import MixedPrimes, MixedVariables, NormTooLarge, NotAUnit, ZeroInput
from .residue import ResiduePoly
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
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "p", p)
    object.__setattr__(f, "var", var)
    return f


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


class TatePoly:
    """A polynomial over the exact p-adic scalars with a variable symbol.

    The coefficient of degree i is ``num[i] / den``.  The form is
    canonical: ``den > 0``, ``gcd(den, *num) == 1`` and trailing zeros
    are trimmed, so the zero polynomial is ``num == ()``, ``den == 1``.
    Constants are compatible with any variable symbol.
    """

    __slots__ = ("num", "den", "p", "var")

    def __new__(cls, coeffs, p: int, var: str = "x"):
        fs = [_fraction(c, p) for c in coeffs]
        den = lcm(*(f.denominator for f in fs))
        return _canon([f.numerator * (den // f.denominator) for f in fs], den, p, var)

    def __setattr__(self, name, value):
        raise AttributeError("TatePoly is immutable")

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x") -> "TatePoly":
        return _make((), 1, p, var)

    @classmethod
    def one(cls, p: int, var: str = "x") -> "TatePoly":
        return cls((1,), p, var)

    @classmethod
    def constant(cls, value, p: int, var: str = "x") -> "TatePoly":
        return cls((value,), p, var)

    @classmethod
    def variable(cls, p: int, var: str = "x") -> "TatePoly":
        return cls((0, 1), p, var)

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

    def constant_term(self) -> PAdicScalar:
        return self.coefficient(0)

    def _merge_var(self, other: "TatePoly") -> str:
        if self.is_constant():
            return other.var
        if other.is_constant():
            return self.var
        if self.var != other.var:
            raise MixedVariables(f"mixed variables {self.var!r} and {other.var!r}")
        return self.var

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
        a, b, da, db = self.num, o.num, self.den, o.den
        if da != db:
            g = gcd(da, db)
            a, b = [x * (db // g) for x in a], [y * (da // g) for y in b]
            da = da // g * db
        out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        return _canon(out, da, self.p, var)

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
        return _make(tuple(-a for a in self.num), self.den, self.p, self.var)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        var = self._merge_var(o)
        if not self.num or not o.num:
            return TatePoly.zero(self.p, var)
        out = [0] * (len(self.num) + len(o.num) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(o.num):
                    out[i + j] += x * y
        return _canon(out, self.den * o.den, self.p, var)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        out = TatePoly.one(self.p, self.var)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

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
        # num[i]/den has norm at least p^cutoff exactly when v(num[i]) <= keep
        keep = _val(self.den, self.p) - cutoff_exp
        out = [a if a and _val(a, self.p) <= keep else 0 for a in self.num]
        return _canon(out, self.den, self.p, self.var)

    # norms and reduction

    def gauss_norm(self) -> NormExp:
        """Spectral norm: the maximum of the coefficient norms."""
        if not self.num:
            return NEG_INF
        return NormExp(_val(self.den, self.p) - _val(gcd(*self.num), self.p))

    def normalize(self) -> tuple["TatePoly", int]:
        """Split off the power of the uniformizer reaching Gauss norm one.

        Returns (g, v) with ``self == p**v * g`` and ``g`` of Gauss norm
        one exactly.
        """
        if self.is_zero():
            raise ZeroInput("cannot normalize the zero polynomial")
        v = -self.gauss_norm().exp
        return self.scale(Fraction(self.p) ** -v), v

    def reduce(self) -> ResiduePoly:
        """Coefficientwise reduction; requires Gauss norm at most one."""
        if self.gauss_norm() > NormExp(0):
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
        tail_exp = tail.gauss_norm().exp
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

    def root_count_in_valuation_range(self, low, high) -> int:
        """Number of roots with valuation strictly between low and high.

        Zero roots (valuation infinity) are included when ``high`` is
        ``None`` (unbounded above).
        """
        count = 0
        ord0 = 0
        while ord0 < len(self.num) and not self.num[ord0]:
            ord0 += 1
        if high is None and ord0 > 0:
            count += ord0
        for val, mult in self.newton_valuation_counts():
            if val > low and (high is None or val < high):
                count += mult
        return count

    # misc

    def _eq_key(self):
        return (self.p, self.num, self.den, self.var if len(self.num) > 1 else "")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, PAdicScalar)):
            other = self._check(other)
        if not isinstance(other, TatePoly):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __str__(self):
        if not self.num:
            return "0"
        parts: list[str] = []
        for i in range(len(self.num) - 1, -1, -1):
            a = self.num[i]
            if not a:
                continue
            sign = "-" if a < 0 else "+"
            mag = Fraction(abs(a), self.den)
            if i == 0:
                body = str(mag)
            else:
                v = self.var if i == 1 else f"{self.var}^{i}"
                body = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        coeffs = [str(Fraction(a, self.den)) for a in self.num]
        return f"TatePoly({coeffs}, p={self.p}, var={self.var!r})"
