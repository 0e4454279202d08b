"""Arithmetic and factorization over the residue field and its polynomials.

Residue polynomials are coefficient sequences of integers in ``[0, p)``,
ascending by degree, with the trailing coefficient nonzero; the empty
sequence is the zero polynomial.  Each algorithm exists once, as a module
function on plain lists; :class:`ResiduePoly` checks operands and wraps
results.  Factoring follows von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14: square-free, distinct-degree and equal-degree
(Cantor-Zassenhaus) splitting.  Products and remainders are schoolbook,
the fastest choice in pure Python at degrees of a few dozen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest

from .errors import MixedPrimes, MixedVariables, ZeroInput
from .scalars import is_prime

_EDF_SEED = 0x5EED


@dataclass(frozen=True)
class ResidueElem:
    """An element of the prime residue field, stored as an int in [0, p)."""

    value: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime")
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other):
        if isinstance(other, ResidueElem):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return ResidueElem(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return ResidueElem(self.value - v, self.p)

    def __mul__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return ResidueElem(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return ResidueElem(-self.value, self.p)

    def inverse(self) -> "ResidueElem":
        if self.value == 0:
            raise ZeroDivisionError("residue zero has no inverse")
        return ResidueElem(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return self * ResidueElem(v, self.p).inverse()

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self):
        return str(self.value)


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a, b, p: int) -> list:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b, p: int) -> list:
    # over a field the leading coefficient of a product is nonzero
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return [c % p for c in out]


def _divmod(a, b, p: int) -> tuple[list, list]:
    """Quotient and remainder by a nonzero b."""
    n = len(b) - 1
    if len(a) <= n:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * (len(a) - n)
    for i in range(len(a) - 1 - n, -1, -1):
        c = rem[i + n] * inv % p
        if c:
            quo[i] = c
            for k, y in enumerate(b, i):  # rem[i + n] is not read again
                rem[k] -= c * y
    return quo, _trim([r % p for r in rem[:n]])


def _monic(a, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a, b, p: int) -> list:
    """Monic gcd; zero when both are zero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else []


def _pow_mod(a, exp: int, f, p: int) -> list:
    """a^exp mod f by square and multiply."""
    out, base = [1], _divmod(a, f, p)[1]
    while exp:
        if exp & 1:
            out = _divmod(_mul(out, base, p), f, p)[1]
        exp >>= 1
        if exp:
            base = _divmod(_mul(base, base, p), f, p)[1]
    return out


def _derivative(a, p: int) -> list:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _pth_root(a, p: int) -> list:
    # a is a polynomial in x**p, and c**p = c for c in the prime field
    return list(a[::p])


def _translate(a, c: int, p: int) -> list:
    """a(x + c), by Horner's rule."""
    acc: list = []
    for coeff in reversed(a):
        acc = [(u + c * v) % p for u, v in zip([0] + acc, acc + [0])]
        acc[0] = (acc[0] + coeff) % p
    return acc


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f, and gcd(f, x^(p^(n/l)) - x) = 1
    for every prime l dividing the degree n."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    f, h = _monic(f, p), [0, 1]
    coprime_at = {n // ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)}
    for k in range(1, n + 1):
        h = _pow_mod(h, p, f, p)
        if k in coprime_at and len(_gcd(f, _sub(h, [0, 1], p), p)) != 1:
            return False
    return h == [0, 1]


def _factor(f, p: int) -> list[tuple[tuple, int]]:
    """Monic irreducible factors of a monic f with multiplicities, sorted
    by (degree, coefficients).  The factors of f / gcd(f, f') are divided
    out of f; what is left is a p-th power, and its root counts p times."""
    rng = random.Random(_EDF_SEED)
    out, scale = [], 1
    while len(f) > 1:
        d = _derivative(f, p)
        if not d:
            f, scale = _pth_root(f, p), scale * p
            continue
        squarefree = _divmod(f, _gcd(f, d, p), p)[0]
        for q in _factor_squarefree(squarefree, p, rng):
            mult, (quo, rem) = 0, _divmod(f, q, p)
            while not rem:
                f, mult = quo, mult + 1
                quo, rem = _divmod(f, q, p)
            out.append((q, mult * scale))
    return sorted(out, key=lambda qm: (len(qm[0]), qm[0]))


def _factor_squarefree(f, p: int, rng) -> list[tuple]:
    """Factor a monic squarefree polynomial: distinct then equal degree."""
    h, out, d = [0, 1], [], 0  # x mod f once the loop runs: deg f >= 2
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p, rng))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(tuple(f))
    return out


def _equal_degree_split(g, d: int, p: int, rng) -> list[tuple]:
    """Split a product of distinct irreducibles, all of degree d."""
    n = len(g) - 1
    if n == d:
        return [tuple(g)]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            # trace map splits in characteristic two, where t + power = t - power
            t, power = [], a
            for _ in range(d):
                t = _sub(t, power, p)
                power = _divmod(_mul(power, power, p), g, p)[1]
        else:
            t = _sub(_pow_mod(a, (p**d - 1) // 2, g, p), [1], p)
        s = _gcd(g, t, p)
        if 1 < len(s) < len(g):
            rest = _divmod(g, s, p)[0]
            return _equal_degree_split(s, d, p, rng) + _equal_degree_split(rest, d, p, rng)


class ResiduePoly:
    """A polynomial over the prime residue field.

    Immutable by convention.  Constants are compatible with any variable
    symbol; binary operations otherwise require matching variables.
    """

    __slots__ = ("coeffs", "p", "var")

    def __init__(self, coeffs, p: int, var: str = "x"):
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        object.__setattr__(self, "coeffs", tuple(_trim([int(c) % p for c in coeffs])))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("ResiduePoly is immutable")

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x") -> "ResiduePoly":
        return cls((), p, var)

    @classmethod
    def one(cls, p: int, var: str = "x") -> "ResiduePoly":
        return cls((1,), p, var)

    @classmethod
    def variable(cls, p: int, var: str = "x") -> "ResiduePoly":
        return cls((0, 1), p, var)

    # structure

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _merge_var(self, other: "ResiduePoly") -> str:
        if self.is_constant():
            return other.var
        if other.is_constant():
            return self.var
        if self.var != other.var:
            raise MixedVariables(f"mixed variables {self.var!r} and {other.var!r}")
        return self.var

    def _check(self, other):
        if isinstance(other, int):
            return ResiduePoly((other,), self.p, self.var)
        if isinstance(other, ResidueElem):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return ResiduePoly((other.value,), self.p, self.var)
        if isinstance(other, ResiduePoly):
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
        n = max(len(self.coeffs), len(o.coeffs))
        return ResiduePoly(
            [self.coefficient(i) + o.coefficient(i) for i in range(n)], self.p, var
        )

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
        return ResiduePoly([-c for c in self.coeffs], self.p, self.var)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return ResiduePoly(_mul(self.coeffs, o.coeffs, self.p), self.p, self._merge_var(o))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        out = ResiduePoly.one(self.p, self.var)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __divmod__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        var = self._merge_var(o)
        quo, rem = _divmod(self.coeffs, o.coeffs, self.p)
        return ResiduePoly(quo, self.p, var), ResiduePoly(rem, self.p, var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "ResiduePoly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "ResiduePoly":
        if self.is_zero():
            raise ZeroInput("zero polynomial cannot be made monic")
        return ResiduePoly(_monic(self.coeffs, self.p), self.p, self.var)

    def derivative(self) -> "ResiduePoly":
        return ResiduePoly(_derivative(self.coeffs, self.p), self.p, self.var)

    def translate(self, c) -> "ResiduePoly":
        """Substitute the variable plus the constant c for the variable."""
        c = c.value if isinstance(c, ResidueElem) else int(c)
        return ResiduePoly(_translate(self.coeffs, c % self.p, self.p), self.p, self.var)

    def with_var(self, var: str) -> "ResiduePoly":
        return ResiduePoly(self.coeffs, self.p, var)

    def gcd(self, other: "ResiduePoly") -> "ResiduePoly":
        o = self._check(other)
        return ResiduePoly(_gcd(self.coeffs, o.coeffs, self.p), self.p, self._merge_var(o))

    def pow_mod(self, exp: int, modulus: "ResiduePoly") -> "ResiduePoly":
        r = self % modulus  # checks the prime, the variables and a zero modulus
        return ResiduePoly(_pow_mod(r.coeffs, exp, modulus.coeffs, self.p), self.p, r.var)

    def pth_root(self) -> "ResiduePoly":
        # only valid when the derivative vanishes
        if any(c and i % self.p for i, c in enumerate(self.coeffs)):
            raise ValueError("not a p-th power")
        return ResiduePoly(_pth_root(self.coeffs, self.p), self.p, self.var)

    # factorization

    def is_irreducible(self) -> bool:
        """Rabin irreducibility test."""
        return _is_irreducible(self.coeffs, self.p)

    def factor(self) -> list[tuple["ResiduePoly", int]]:
        """Complete factorization into monic irreducibles with multiplicity.

        The product of the factors with their multiplicities recovers the
        monic part; constants factor into the empty list.  Output is
        sorted by (degree, coefficient tuple) and deterministic.
        """
        if self.is_zero():
            raise ZeroInput("cannot factor the zero polynomial")
        f = _monic(self.coeffs, self.p)
        return [(ResiduePoly(q, self.p, self.var), m) for q, m in _factor(f, self.p)]

    # misc

    def _eq_key(self):
        return (self.p, self.coeffs, self.var if len(self.coeffs) > 1 else "")

    def __eq__(self, other):
        if not isinstance(other, ResiduePoly):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                v = self.var if i == 1 else f"{self.var}^{i}"
                term = v if c == 1 else f"{c}*{v}"
            parts.append(term)
        return " + ".join(parts)

    def __repr__(self):
        return f"ResiduePoly({list(self.coeffs)}, p={self.p}, var={self.var!r})"


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of a special-fiber chart.

    Identified by its monic irreducible minimal polynomial over the
    residue field, together with the tag of the chart whose coordinate the
    polynomial is written in.
    """

    minimal_poly: ResiduePoly
    chart: str

    def __post_init__(self):
        if self.minimal_poly.degree() < 1:
            raise ValueError("closed point needs a polynomial of degree >= 1")
        if not self.minimal_poly.is_irreducible():
            raise ValueError(f"{self.minimal_poly} is not irreducible")

    @property
    def degree(self) -> int:
        return self.minimal_poly.degree()

    def label(self) -> str:
        return str(self.minimal_poly)

    def sort_key(self):
        return (self.chart, self.minimal_poly.degree(), self.minimal_poly.coeffs)

    def __str__(self):
        return f"{{{self.minimal_poly} = 0}}"


def factor_reduction(g: ResiduePoly) -> list[tuple[ClosedPoint, int]]:
    """Zeros of a residue polynomial as closed points with multiplicity.

    The chart tag of each point is the variable symbol of ``g``.
    """
    if g.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    return [(ClosedPoint(q, g.var), mult) for q, mult in g.factor()]
