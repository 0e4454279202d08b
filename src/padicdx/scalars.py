"""Exact arithmetic in the p-adic ground field.

Scalars are exact rational numbers carrying a prime context; the
uniformizer is the prime itself.  All norms in this package live on a
logarithmic scale: a nonzero scalar of valuation v has normalized absolute
value p**(-v), stored as the integer exponent -v inside :class:`NormExp`.
Norm zero is the bottom element ``NormExp.NEG_INF``.  Keeping exponents
integral turns every ultrametric inequality into an exact integer
comparison; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import MixedPrimes, NegativeValuation

INFINITY = math.inf  # valuation of zero


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases: exact below
    3.3 * 10**24, a strong probable prime test above that."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@total_ordering
class NormExp:
    """A norm value p**exp on the exponent scale.

    ``exp`` is an integer, or ``None`` for the bottom element (norm zero,
    exponent minus infinity).  Addition of exponents models multiplication
    of norms; the bottom element is absorbing.  The total order has the
    bottom element below every integer exponent.
    """

    __slots__ = ("exp",)

    def __init__(self, exp: int | None):
        if exp is not None and not isinstance(exp, int):
            raise TypeError("norm exponent must be an int or None")
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("NormExp is immutable")

    def is_neg_inf(self) -> bool:
        return self.exp is None

    def __add__(self, other):
        if isinstance(other, int):
            other = NormExp(other)
        if not isinstance(other, NormExp):
            return NotImplemented
        if self.exp is None or other.exp is None:
            return NEG_INF
        return NormExp(self.exp + other.exp)

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, int):
            other = NormExp(other)
        if not isinstance(other, NormExp):
            return NotImplemented
        return self.exp == other.exp

    def __lt__(self, other):
        if isinstance(other, int):
            other = NormExp(other)
        if not isinstance(other, NormExp):
            return NotImplemented
        if self.exp is None:
            return other.exp is not None
        if other.exp is None:
            return False
        return self.exp < other.exp

    def __hash__(self):
        return hash(("NormExp", self.exp))

    def __repr__(self):
        return "NormExp.NEG_INF" if self.exp is None else f"NormExp({self.exp})"

    def __str__(self):
        if self.exp is None:
            return "0"
        if self.exp == 0:
            return "1"
        return f"p^{self.exp}"


NEG_INF = NormExp(None)
NormExp.NEG_INF = NEG_INF


def _fraction_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicScalar:
    """An exact element of the p-adic ground field.

    Stored as a reduced :class:`fractions.Fraction` together with the
    prime.  Values are immutable; the fraction invariant (positive
    denominator, lowest terms) is maintained by ``Fraction`` itself.
    """

    __slots__ = ("value", "p")

    def __init__(self, value, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        object.__setattr__(self, "value", Fraction(value))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PAdicScalar is immutable")

    # constructors

    @classmethod
    def zero(cls, p: int) -> "PAdicScalar":
        return cls(0, p)

    @classmethod
    def one(cls, p: int) -> "PAdicScalar":
        return cls(1, p)

    @classmethod
    def uniformizer_power(cls, p: int, exp: int = 1) -> "PAdicScalar":
        """The scalar p**exp, exact for any integer exponent."""
        return cls(Fraction(p) ** exp, p)

    # predicates

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return self.value != 0

    # valuation and norm

    def valuation(self):
        """p-adic valuation; ``math.inf`` for zero."""
        if self.value == 0:
            return INFINITY
        num = _fraction_valuation(self.value.numerator, self.p)
        den = _fraction_valuation(self.value.denominator, self.p)
        return num - den

    def norm(self) -> NormExp:
        """Normalized absolute value as an exact power of p."""
        if self.value == 0:
            return NEG_INF
        return NormExp(-self.valuation())

    def reduce_mod_pi(self) -> "ResidueElem":
        """Image in the residue field; requires nonnegative valuation."""
        from .residue import ResidueElem

        if self.valuation() < 0:
            raise NegativeValuation(f"{self} has negative valuation")
        num = self.value.numerator % self.p
        den_inv = pow(self.value.denominator % self.p, -1, self.p)
        return ResidueElem(num * den_inv % self.p, self.p)

    # arithmetic

    def _coerce(self, other):
        if isinstance(other, PAdicScalar):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other.value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(self.value / v, self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return PAdicScalar(v / self.value, self.p)

    def __neg__(self):
        return PAdicScalar(-self.value, self.p)

    def __pow__(self, exp: int):
        return PAdicScalar(self.value**exp, self.p)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        if not isinstance(other, PAdicScalar):
            return NotImplemented
        return self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"PAdicScalar({self.value!r}, p={self.p})"

    def __str__(self):
        return str(self.value)
