"""Arithmetic and factorization over the residue field and its polynomials.

Residue polynomials are coefficient tuples of integers in ``[0, p)``,
ascending by degree, with the trailing coefficient nonzero; the empty
tuple is the zero polynomial.  Factorization into monic irreducibles uses
distinct-degree splitting followed by equal-degree (Cantor-Zassenhaus)
splitting, with the characteristic-p root extraction needed when the
derivative vanishes.  Degrees here are desk scale, so clarity wins over
asymptotics throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MixedVariables, ZeroInput
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
                raise ValueError("mixed primes")
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


class ResiduePoly:
    """A polynomial over the prime residue field.

    Immutable by convention.  Constants are compatible with any variable
    symbol; binary operations otherwise require matching variables.
    """

    __slots__ = ("coeffs", "p", "var")

    def __init__(self, coeffs, p: int, var: str = "x"):
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
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
                raise ValueError("mixed primes")
            return ResiduePoly((other.value,), self.p, self.var)
        if isinstance(other, ResiduePoly):
            if other.p != self.p:
                raise ValueError("mixed primes")
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
        var = self._merge_var(o)
        if self.is_zero() or o.is_zero():
            return ResiduePoly.zero(self.p, var)
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return ResiduePoly(out, self.p, var)

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
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - len(o.coeffs) + 1)
        inv_lead = pow(o.leading(), -1, self.p)
        for i in range(len(rem) - len(o.coeffs), -1, -1):
            c = rem[i + len(o.coeffs) - 1] * inv_lead % self.p
            if c:
                quo[i] = c
                for j, b in enumerate(o.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % self.p
        return (ResiduePoly(quo, self.p, var), ResiduePoly(rem, self.p, var))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "ResiduePoly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "ResiduePoly":
        if self.is_zero():
            raise ZeroInput("zero polynomial cannot be made monic")
        inv = pow(self.leading(), -1, self.p)
        return ResiduePoly([c * inv for c in self.coeffs], self.p, self.var)

    def derivative(self) -> "ResiduePoly":
        return ResiduePoly(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.p, self.var
        )

    def translate(self, c) -> "ResiduePoly":
        """Substitute the variable plus the constant c for the variable."""
        c = c.value if isinstance(c, ResidueElem) else int(c)
        lin = ResiduePoly((c, 1), self.p, self.var)
        acc = ResiduePoly.zero(self.p, self.var)
        for coeff in reversed(self.coeffs):
            acc = acc * lin + coeff
        return acc

    def with_var(self, var: str) -> "ResiduePoly":
        return ResiduePoly(self.coeffs, self.p, var)

    def gcd(self, other: "ResiduePoly") -> "ResiduePoly":
        a, b = self, self._check(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, exp: int, modulus: "ResiduePoly") -> "ResiduePoly":
        out = ResiduePoly.one(self.p, self.var)
        base = self % modulus
        while exp:
            if exp & 1:
                out = (out * base) % modulus
            base = (base * base) % modulus
            exp >>= 1
        return out

    def pth_root(self) -> "ResiduePoly":
        # only valid when the derivative vanishes, i.e. the polynomial is
        # a polynomial in x**p; over the prime field the coefficient roots
        # are the coefficients themselves
        if any(c and i % self.p for i, c in enumerate(self.coeffs)):
            raise ValueError("not a p-th power")
        return ResiduePoly(self.coeffs[:: self.p], self.p, self.var)

    # factorization

    def is_irreducible(self) -> bool:
        """Rabin irreducibility test."""
        n = self.degree()
        if n <= 0:
            return False
        if n == 1:
            return True
        f = self.monic()
        x = ResiduePoly.variable(self.p, self.var)

        def x_frobenius(m: int) -> ResiduePoly:
            h = x % f
            for _ in range(m):
                h = h.pow_mod(self.p, f)
            return h

        if not ((x_frobenius(n) - x) % f).is_zero():
            return False
        for ell in _prime_divisors(n):
            g = f.gcd(x_frobenius(n // ell) - x)
            if g.degree() != 0:
                return False
        return True

    def factor(self) -> list[tuple["ResiduePoly", int]]:
        """Complete factorization into monic irreducibles with multiplicity.

        The product of the factors with their multiplicities recovers the
        monic part; constants factor into the empty list.  Output is
        sorted by (degree, coefficient tuple) and deterministic.
        """
        if self.is_zero():
            raise ZeroInput("cannot factor the zero polynomial")
        f = self.monic()
        if f.degree() == 0:
            return []
        rng = random.Random(_EDF_SEED)
        distinct = _distinct_irreducible_factors(f, rng)
        out = []
        for q in sorted(distinct, key=lambda g: (g.degree(), g.coeffs)):
            mult = 0
            g = f
            while True:
                quo, rem = divmod(g, q)
                if not rem.is_zero():
                    break
                mult += 1
                g = quo
            out.append((q, mult))
        return out

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


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _distinct_irreducible_factors(f: ResiduePoly, rng) -> list[ResiduePoly]:
    """Distinct monic irreducible divisors of a monic polynomial."""
    found: list[ResiduePoly] = []
    while f.degree() >= 1:
        d = f.derivative()
        if d.is_zero():
            f = f.pth_root()
            continue
        squarefree = f // f.gcd(d)
        for q in _factor_squarefree(squarefree, rng):
            if q not in found:
                found.append(q)
        for q in found:
            while q.divides(f):
                f = f // q
    return found


def _factor_squarefree(f: ResiduePoly, rng) -> list[ResiduePoly]:
    """Factor a monic squarefree polynomial: distinct then equal degree."""
    p, var = f.p, f.var
    x = ResiduePoly.variable(p, var)
    out = []
    h = x % f
    d = 0
    while f.degree() >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(p, f)
        g = f.gcd(h - x)
        if g.degree() > 0:
            out.extend(_equal_degree_split(g, d, rng))
            f = f // g
            h = h % f
    if f.degree() > 0:
        out.append(f)
    return out


def _equal_degree_split(g: ResiduePoly, d: int, rng) -> list[ResiduePoly]:
    """Split a product of distinct irreducibles, all of degree d."""
    if g.degree() == d:
        return [g]
    p, var = g.p, g.var
    while True:
        a = ResiduePoly([rng.randrange(p) for _ in range(g.degree())], p, var)
        if a.degree() < 1:
            continue
        if p == 2:
            # trace map splits in characteristic two
            t = ResiduePoly.zero(p, var)
            power = a % g
            for _ in range(d):
                t = (t + power) % g
                power = (power * power) % g
        else:
            t = a.pow_mod((p**d - 1) // 2, g) - 1
        s = g.gcd(t)
        if 0 < s.degree() < g.degree():
            return _equal_degree_split(s, d, rng) + _equal_degree_split(g // s, d, rng)


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
