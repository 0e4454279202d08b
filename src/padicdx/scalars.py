"""Exact arithmetic in the p-adic ground field.

Scalars are exact rational numbers carrying a prime context; the
uniformizer is the prime itself.  All norms in this package live on a
logarithmic scale: a nonzero scalar of valuation v has normalized absolute
value p**(-v), stored as the integer exponent -v inside :class:`NormExp`.
Norm zero is the bottom element ``NormExp.NEG_INF``.  Keeping exponents
integral turns every ultrametric inequality into an exact integer
comparison; no floating point is used anywhere.  Kernel code carries the
exponents as plain ints (``TatePoly._gauss_exp``) and builds a
:class:`NormExp` only for a value it returns at the public boundary.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache, total_ordering, wraps

from .errors import ConfigError, KernelError, MixedPrimes, NegativeValuation

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


class _Immutable:
    """A value whose slots are set once, in its constructor.  Copies and
    pickles are rebuilt slot by slot through the slot descriptors, as the
    kernel's trusted constructors build values, so no slot (the truncation
    tag of an operator included) is lost or checked again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        cls = type(self)
        names = [name for k in cls.__mro__ for name in k.__dict__.get("__slots__", ())]
        return _rebuild, (cls, {name: getattr(self, name) for name in names})


def _rebuild(cls, slots: dict):
    """The value of an ``_Immutable`` class cls with the given slot values."""
    obj = object.__new__(cls)
    for name, value in slots.items():
        getattr(cls, name).__set__(obj, value)
    return obj


def _operand(method):
    """The binary operator ``method(self, operand)`` on the operand
    ``self._check(other)``; NotImplemented, so at last ``TypeError``, when
    the check gives None.  The check raises ``MixedPrimes`` across primes."""

    @wraps(method)
    def binary(self, other):
        operand = self._check(other)
        if operand is None:
            return NotImplemented
        return method(self, operand)

    return binary


@total_ordering
class NormExp(_Immutable):
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

    def is_neg_inf(self) -> bool:
        return self.exp is None

    def _check(self, other):
        if isinstance(other, int):
            return NormExp(other)
        return other if isinstance(other, NormExp) else None

    @_operand
    def __add__(self, other):
        if self.exp is None or other.exp is None:
            return NEG_INF
        return NormExp(self.exp + other.exp)

    __radd__ = __add__

    @_operand
    def __eq__(self, other):
        return self.exp == other.exp

    @_operand
    def __lt__(self, other):
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


class _Ring(_Immutable):
    """The ring code the polynomial and operator classes share: equality
    and hash by ``_eq_key``, subtraction through negation and powers by
    squaring.  A subclass provides ``_check`` (an operand of the ring, or
    None, for ``_operand`` and ``==``), ``_eq_key``, ``+``, unary ``-``,
    ``*``, ``one(p, var)`` and ``_NEGATIVE_POWER``."""

    __slots__ = ()

    def __eq__(self, other):
        try:
            other = self._check(other)
        except KernelError:  # another prime, or a truncated operator to embed
            return False
        if other is None:
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    @_operand
    def __sub__(self, other):
        return self + (-other)

    @_operand
    def __rsub__(self, other):
        return other - self

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError(self._NEGATIVE_POWER)
        if not exp:
            return self.one(self.p, self.var)
        return _square_multiply(self, exp, operator.mul)


def _square_multiply(base, exp: int, mul):
    """base^exp for exp >= 1 under the product mul: square and multiply
    from the lowest set bit, with no product by one."""
    while not exp & 1:
        base, exp = mul(base, base), exp >> 1
    out = base
    while exp := exp >> 1:
        base = mul(base, base)
        if exp & 1:
            out = mul(out, base)
    return out


def _decimal(value) -> str:
    """The decimal text of an int or a Fraction; ``ConfigError`` when it
    holds an integer past Python's limit on int-to-string conversion."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ConfigError(f"the result has an integer of more than {limit} digits") from None


def _fraction_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n: the count of trailing zero
    bits for p = 2, one division per factor otherwise."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class _Field:
    """The ring operators the two field-element classes share, on a value
    and a prime ``p``.  A subclass provides ``_check`` (the value of an
    operand, or None, for ``_operand``) and the constructor ``cls(value, p)``."""

    __slots__ = ()

    @_operand
    def __add__(self, other):
        return type(self)(self.value + other, self.p)

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        return type(self)(self.value - other, self.p)

    @_operand
    def __rsub__(self, other):
        return type(self)(other - self.value, self.p)

    @_operand
    def __mul__(self, other):
        return type(self)(self.value * other, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.value, self.p)


class PAdicScalar(_Field, _Immutable):
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

    def _check(self, other):
        if isinstance(other, PAdicScalar):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other.value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    @_operand
    def __truediv__(self, other):
        return PAdicScalar(self.value / other, self.p)

    @_operand
    def __rtruediv__(self, other):
        return PAdicScalar(other / self.value, self.p)

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
        return _decimal(self.value)
