"""Arithmetic and factorization over the residue field and its polynomials.

Residue polynomials are coefficient sequences of integers in ``[0, p)``,
ascending by degree, with the trailing coefficient nonzero; the empty
sequence is the zero polynomial.  Each algorithm exists once, as a module
function on plain lists; :class:`ResiduePoly` checks operands and wraps
results.  Factoring follows von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14; each step changes how the unique factorization is
found, never the sorted list.  When p is at most the degree, linear
factors come first, by synthetic division while the remainder is 0: a
division that leaves 0 takes exactly one factor.  One square-free
decomposition then gives the product of the factors of each
multiplicity, and each product is split once by distinct and equal
degree.  The p-th power mod f is h(x^p) mod f, one remainder, where that
is shorter than square and multiply: over F_p the two are equal.
Equal-degree splitting finds linear factors over a field of at most
``_SCAN_MAX`` elements as roots, by evaluating at every element;
otherwise it draws Cantor-Zassenhaus splits from a generator seeded with
``_EDF_SEED`` on the first draw of each factorization, so the output is
deterministic and a factorization that draws nothing seeds nothing.
Every dense integer product of the
package is the one routine ``_mul_into``: schoolbook on short lists and
Kronecker substitution, one product of two large ints, from
``_PACK_MIN`` entries on both sides.  Remainders are schoolbook.

The code :class:`ResiduePoly` shares with
:class:`padicdx.tatepoly.TatePoly` is ``_DensePoly``, over coefficients
``num[i] / den`` (``den`` is 1 for a residue polynomial): constructors,
structure, equality key, printer and variable rule.  Equality,
subtraction, powers and immutability come from ``padicdx.scalars._Ring``,
and the operators of :class:`ResidueElem` from ``padicdx.scalars._Field``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, zip_longest
from operator import add

from .errors import MixedPrimes, MixedVariables, ZeroInput
from .scalars import _Field, _Ring, _decimal, _operand, _square_multiply, is_prime

_EDF_SEED = 0x5EED
# the largest p at which equal-degree splitting finds linear factors by
# evaluation: the measured crossover with random splits (CHANGES.md)
_SCAN_MAX = 500


@dataclass(frozen=True)
class ResidueElem(_Field):
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

    def inverse(self) -> "ResidueElem":
        if self.value == 0:
            raise ZeroDivisionError("residue zero has no inverse")
        return ResidueElem(pow(self.value, -1, self.p), self.p)

    @_operand
    def __truediv__(self, other):
        return self * ResidueElem(other, self.p).inverse()

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


# the least length of both operands at which _mul_into packs: the
# measured crossover of the two paths on equal lengths (CHANGES.md)
_PACK_MIN = 13
# the struct formats of the slot widths _pack and _unpack convert in one call
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _pack(a, width: int) -> int:
    """The int with the entries of a in its width-byte slots, lowest first:
    each slot holds its entry plus half its range, a bias then taken off
    the whole int.  Slots of 1, 2, 4 or 8 bytes are written in two's
    complement by one ``struct.pack`` and biased by an XOR with ``top``,
    the top bit of every slot; wider ones are written biased, one by one."""
    half = 1 << (8 * width - 1)
    top = int.from_bytes(half.to_bytes(width, "little") * len(a), "little")
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        return (int.from_bytes(struct.pack(f"<{len(a)}{fmt}", *a), "little") ^ top) - top
    biased = b"".join([(x + half).to_bytes(width, "little") for x in a])
    return int.from_bytes(biased, "little") - top


def _unpack(c: int, n: int, width: int) -> list | tuple:
    """The entries of the n width-byte slots of c, the inverse of _pack
    when each entry is less than half a slot's range in size; slots of 1,
    2, 4 or 8 bytes are read by one ``struct.unpack``."""
    half = 1 << (8 * width - 1)
    top = int.from_bytes(half.to_bytes(width, "little") * n, "little")
    c += top
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        return struct.unpack(f"<{n}{fmt}", (c ^ top).to_bytes(n * width, "little"))
    buf = c.to_bytes(n * width, "little")
    from_bytes = int.from_bytes
    return [from_bytes(buf[i : i + width], "little") - half for i in range(0, n * width, width)]


def _mul_into(out: list, a, b) -> list:
    """Add the product of the integer lists a and b into out, lengthened
    as needed; return out.  The package's one dense product.

    Lists shorter than ``_PACK_MIN`` on either side take the schoolbook
    loop.  Otherwise the product is a Kronecker substitution (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, 8.4): each list is
    packed into one int with an entry per slot of w bits, the two ints
    are multiplied once, and the slots of that product are the
    coefficients.  A coefficient is at most min(len)·max|a|·max|b| in
    size, so w, the whole bytes above bits(max|a|) + bits(max|b|) +
    bits(min(len)) + 2, holds it and its sign.  Up to 8 bytes, w is
    rounded up to a power of two, so that one ``struct`` call converts
    all the slots of a list; rounding only to the next one keeps the
    product of long narrow lists from growing."""
    # the packed path is in helpers: a comprehension here would make its
    # names cells, created on every call, short ones included
    if len(a) >= _PACK_MIN and len(b) >= _PACK_MIN:
        bits = max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
        width = (bits + min(len(a), len(b)).bit_length() + 2 + 7) // 8
        if width <= 8:
            width = 1 << (width - 1).bit_length()
        n = len(a) + len(b) - 1
        coeffs = _unpack(_pack(a, width) * _pack(b, width), n, width)
        out[:n] = [*map(add, out, coeffs), *coeffs[len(out) :]]
        return out
    if a and b:
        out.extend([0] * (len(a) + len(b) - 1 - len(out)))
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
    return out


def _mul(a, b, p: int) -> list:
    # over a field the leading coefficient of a product is nonzero
    return [c % p for c in _mul_into([], a, b)]


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
    if not exp:
        return _divmod([1], f, p)[1]
    return _square_multiply(_divmod(a, f, p)[1], exp, lambda u, v: _divmod(_mul(u, v, p), f, p)[1])


def _value(a, c: int, p: int) -> int:
    """a(c) mod p, by Horner's rule."""
    v = 0
    for coeff in reversed(a):
        v = (v * c + coeff) % p
    return v


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


def _frobenius(h, f, p: int) -> list:
    """h^p mod f.  Over F_p the p-th power is a ring map fixing every
    coefficient, so h^p = h(x^p): h spread p apart, then one remainder.
    Square and multiply makes k = bit_length(p) + bit_count(p) - 2
    products and as many remainders, about 2k·(deg f - 1) rows in all;
    it is taken when the spread remainder has no fewer rows, which for
    h reduced mod f is from p = 11 on."""
    n = len(f) - 1
    size = (len(h) - 1) * p + 1
    if size - n >= 2 * (p.bit_length() + p.bit_count() - 2) * (n - 1):
        return _pow_mod(h, p, f, p)
    spread = [0] * size
    spread[::p] = h
    return _divmod(spread, f, p)[1]


def _is_irreducible(f, p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f, and gcd(f, x^(p^(n/l)) - x) = 1
    for every prime l dividing the degree n."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    f, h = _monic(f, p), [0, 1]
    coprime_at = {n // ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)}
    for k in range(1, n + 1):
        h = _frobenius(h, f, p)
        if k in coprime_at and len(_gcd(f, _sub(h, [0, 1], p), p)) != 1:
            return False
    return h == [0, 1]


def _synthetic_div(a, c: int, p: int) -> tuple[list, int]:
    """Quotient and remainder of a nonzero a by x - c, by Horner's rule."""
    acc, quo = 0, []
    for coeff in reversed(a):
        acc = (acc * c + coeff) % p
        quo.append(acc)
    rem = quo.pop()
    quo.reverse()
    return quo, rem


def _factor(f, p: int) -> list[tuple[tuple, int]]:
    """Monic irreducible factors of a monic f with multiplicities, sorted
    by (degree, coefficients).  Factorization is unique and the list is
    sorted, so no step below changes it; they change only how it is found.

    1. Roots first, when p <= deg f: for each c in F_p, x - c is divided
       out by synthetic division while the remainder is 0.  Each such
       division takes one factor x - c, so their number is its
       multiplicity, and what is left has no linear factor.
    2. One square-free decomposition in characteristic p (Yun, after
       Musser; von zur Gathen and Gerhard, ch. 14).  Write f = prod q^e,
       g = gcd(f, f') and h = f / g, the q with p not dividing e, each
       once.  In round i, h is the product of those q with e >= i, and
       g holds each of them e - i times and the q with p | e wholly; so
       a_i = h / gcd(g, h) is the product of the q with e = i (1 when h
       divides g), and gcd(g, h) is divided out of g and becomes the next
       h.  Once h is 1, what is left of g is a p-th power, whose root
       counts p times.  The a_i partition those q by multiplicity, so
       each is found once.
    3. Each a_i is split once by distinct and equal degree, which return
       irreducibles by construction.

    The sympy and brute-force tests check that output; so
    :meth:`ClosedPoint._factor_of` wraps a factor without Rabin's test."""
    rng: list = []  # the generator of the random splits, made on the first draw
    out, low = [], 0
    if p <= len(f) - 1:
        for c in range(p):
            if len(f) == 1:
                break
            mult, (quo, rem) = 0, _synthetic_div(f, c, p)
            while not rem:
                f, mult = quo, mult + 1
                quo, rem = _synthetic_div(f, c, p)
            if mult:
                out.append(((-c % p, 1), mult))
        low = 1
    scale = 1
    while len(f) > 1:
        d = _derivative(f, p)
        if d:
            g = _gcd(f, d, p)
            h, i = _divmod(f, g, p)[0], scale
            while len(h) > 1:
                if len(g) == 1:  # every q left in h has e = i
                    out.extend((q, i) for q in _factor_squarefree(h, p, rng, low))
                    break
                quo, rem = _divmod(g, h, p)
                if rem:  # the q with e = i make up h / gcd(g, h)
                    common = _gcd(h, rem, p)
                    part = _divmod(h, common, p)[0]
                    out.extend((q, i) for q in _factor_squarefree(part, p, rng, low))
                    g, h = _divmod(g, common, p)[0], common
                else:  # h divides g: no q has e = i
                    g = quo
                i += scale
            f = g
        if len(f) > 1:
            f, scale = _pth_root(f, p), scale * p
    return sorted(out, key=lambda qm: (len(qm[0]), qm[0]))


def _factor_squarefree(f, p: int, rng: list, low: int) -> list[tuple]:
    """Factor a monic squarefree polynomial with no factor of degree low
    or less: distinct then equal degree."""
    out, d, h = [], 0, [0, 1]  # h is x^(p^d) mod f once the loop runs
    while len(f) - 1 >= 2 * (max(d, low) + 1):
        d += 1
        h = _frobenius(h, f, p)
        if d <= low:
            continue
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.extend(_equal_degree_split(g, d, p, rng))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(tuple(f))
    return out


def _equal_degree_split(g, d: int, p: int, rng: list) -> list[tuple]:
    """Split a monic product of distinct irreducibles, all of degree d.

    For d = 1 and p at most ``_SCAN_MAX`` the factors are x - c for the
    roots c of g, found by evaluating g at 0, 1, ... until there are
    deg g of them.  Otherwise Cantor-Zassenhaus splits g with random
    polynomials drawn from the generator in the one-slot list ``rng``,
    seeded with ``_EDF_SEED`` on the first draw."""
    n = len(g) - 1
    if n == d:
        return [tuple(g)]
    if d == 1 and p <= _SCAN_MAX:
        roots = (c for c in range(p) if not _value(g, c, p))
        return [(-c % p, 1) for c in islice(roots, n)]
    if not rng:
        rng.append(random.Random(_EDF_SEED))
    randrange = rng[0].randrange
    while True:
        a = _trim([randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            # trace map splits in characteristic two, where t + power = t - power
            t, power = [], a
            for _ in range(d):
                t = _sub(t, power, p)
                power = _frobenius(power, g, p)
        else:
            t = _sub(_pow_mod(a, (p**d - 1) // 2, g, p), [1], p)
        s = _gcd(g, t, p)
        if 1 < len(s) < len(g):
            rest = _divmod(g, s, p)[0]
            return _equal_degree_split(s, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def _format_terms(pairs) -> str:
    """(negative, body) pairs, top term first, as a signed sum such as
    ``a + b - c``; "0" for no pairs.  Operators print through it too."""
    text = "".join(f" - {body}" if negative else f" + {body}" for negative, body in pairs)
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


class _DensePoly(_Ring):
    """The code :class:`ResiduePoly` and :class:`padicdx.tatepoly.TatePoly`
    share, over the coefficients ``num[i] / den`` with trailing zeros
    trimmed: the constructors, the structure, the equality key, the
    printer and the variable rule.  Constants are compatible with any
    variable symbol; binary operations otherwise require matching
    variables."""

    __slots__ = ()
    _NEGATIVE_POWER = "negative power of a polynomial"

    @classmethod
    def zero(cls, p: int, var: str = "x"):
        return cls((), p, var)

    @classmethod
    def one(cls, p: int, var: str = "x"):
        return cls((1,), p, var)

    @classmethod
    def variable(cls, p: int, var: str = "x"):
        return cls((0, 1), p, var)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def leading(self):
        if not self.num:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coefficient(len(self.num) - 1)

    def _merge_var(self, other) -> str:
        if self.is_constant():
            return other.var
        if other.is_constant():
            return self.var
        if self.var != other.var:
            raise MixedVariables(f"mixed variables {self.var!r} and {other.var!r}")
        return self.var

    def _eq_key(self):
        return (self.p, self.num, self.den, self.var if len(self.num) > 1 else "")

    def __str__(self):
        """The coefficients from the top degree down, nonzero terms only."""
        num, den, var = self.num, self.den, self.var
        pairs = []
        for i in range(len(num) - 1, -1, -1):
            a = num[i]
            if not a:
                continue
            mag = _decimal(Fraction(abs(a), den))
            if i == 0:
                body = mag
            else:
                v = var if i == 1 else f"{var}^{i}"
                body = v if mag == "1" else f"{mag}*{v}"
            pairs.append((a < 0, body))
        return _format_terms(pairs)


class ResiduePoly(_DensePoly):
    """A polynomial over the prime residue field, coefficients ``num`` in
    ``[0, p)`` over the denominator ``den = 1``.  Immutable."""

    __slots__ = ("num", "p", "var")
    den = 1

    def __new__(cls, coeffs, p: int, var: str = "x"):
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
        return cls._of(tuple(_trim([int(c) % p for c in coeffs])), p, var)

    @classmethod
    def _of(cls, coeffs: tuple, p: int, var: str) -> "ResiduePoly":
        """The polynomial of a coefficient tuple the kernel computed for
        the prime p, entries in [0, p) and trimmed; nothing is checked."""
        f = object.__new__(cls)
        _SET_NUM(f, coeffs)
        _SET_P(f, p)
        _SET_VAR(f, var)
        return f

    # structure

    @property
    def coeffs(self) -> tuple:
        return self.num

    def coefficient(self, i: int) -> int:
        return self.num[i] if 0 <= i < len(self.num) else 0

    def _check(self, other):
        if isinstance(other, int):
            return ResiduePoly((other,), self.p, self.var)
        if isinstance(other, ResidueElem):
            other = ResiduePoly((other.value,), other.p, self.var)
        if not isinstance(other, ResiduePoly):
            return None
        if other.p != self.p:
            raise MixedPrimes("mixed primes")
        return other

    # arithmetic

    @_operand
    def __add__(self, other):
        total = [a + b for a, b in zip_longest(self.num, other.num, fillvalue=0)]
        return ResiduePoly(total, self.p, self._merge_var(other))

    __radd__ = __add__

    def __neg__(self):
        return ResiduePoly([-c for c in self.num], self.p, self.var)

    @_operand
    def __mul__(self, other):
        return ResiduePoly(_mul(self.num, other.num, self.p), self.p, self._merge_var(other))

    __rmul__ = __mul__

    @_operand
    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        var = self._merge_var(other)
        quo, rem = _divmod(self.num, other.num, self.p)
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
        return ResiduePoly(_monic(self.num, self.p), self.p, self.var)

    def derivative(self) -> "ResiduePoly":
        return ResiduePoly(_derivative(self.num, self.p), self.p, self.var)

    def translate(self, c) -> "ResiduePoly":
        """Substitute the variable plus the constant c for the variable."""
        if isinstance(c, ResidueElem):
            c = self._check(c).coefficient(0)  # checks the prime
        return self._of(tuple(_translate(self.num, int(c) % self.p, self.p)), self.p, self.var)

    def with_var(self, var: str) -> "ResiduePoly":
        return self._of(self.num, self.p, var)

    def gcd(self, other: "ResiduePoly") -> "ResiduePoly":
        o = self._check(other)
        if o is None:
            raise TypeError(f"gcd of a residue polynomial and {type(other).__name__}")
        return ResiduePoly(_gcd(self.num, o.num, self.p), self.p, self._merge_var(o))

    def pow_mod(self, exp: int, modulus: "ResiduePoly") -> "ResiduePoly":
        if exp < 0:
            raise ValueError(self._NEGATIVE_POWER)
        m = self._check(modulus)
        if m is None:
            raise TypeError(f"pow_mod modulo {type(modulus).__name__}")
        r = self % m  # checks the variables and a zero modulus
        return ResiduePoly(_pow_mod(r.num, exp, m.num, self.p), self.p, r.var)

    def pth_root(self) -> "ResiduePoly":
        # only valid when the derivative vanishes
        if any(c and i % self.p for i, c in enumerate(self.num)):
            raise ValueError("not a p-th power")
        return ResiduePoly(_pth_root(self.num, self.p), self.p, self.var)

    # factorization

    def is_irreducible(self) -> bool:
        """Rabin irreducibility test."""
        return _is_irreducible(self.num, self.p)

    def factor(self) -> list[tuple["ResiduePoly", int]]:
        """Complete factorization into monic irreducibles with multiplicity.

        The product of the factors with their multiplicities recovers the
        monic part; constants factor into the empty list.  Output is
        sorted by (degree, coefficient tuple) and deterministic.
        """
        if self.is_zero():
            raise ZeroInput("cannot factor the zero polynomial")
        f = _monic(self.num, self.p)
        return [(self._of(q, self.p, self.var), m) for q, m in _factor(f, self.p)]

    # misc

    def __repr__(self):
        return f"ResiduePoly({list(self.num)}, p={self.p}, var={self.var!r})"


# the slot setters of ``_of``: ResiduePoly.__setattr__ refuses every write
_SET_NUM, _SET_P, _SET_VAR = (
    getattr(ResiduePoly, name).__set__ for name in ResiduePoly.__slots__
)


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of a special-fiber chart.

    Identified by its monic irreducible minimal polynomial over the
    residue field, together with the tag of the chart whose coordinate the
    polynomial is written in.

    The public constructor checks its polynomial: it raises ``ValueError``
    for a constant, a non-monic one and, by Rabin's test, a reducible one.
    The private :meth:`_factor_of` checks nothing; it wraps a factor that
    ``ResiduePoly.factor`` returned, a translate of one, or a variable,
    each monic and irreducible by construction (see ``_factor``).
    """

    minimal_poly: ResiduePoly
    chart: str

    def __post_init__(self):
        if self.minimal_poly.degree() < 1:
            raise ValueError("closed point needs a polynomial of degree >= 1")
        if self.minimal_poly.leading() != 1:
            raise ValueError(f"{self.minimal_poly} is not monic")
        if not self.minimal_poly.is_irreducible():
            raise ValueError(f"{self.minimal_poly} is not irreducible")

    @classmethod
    def _factor_of(cls, q: ResiduePoly, chart: str) -> "ClosedPoint":
        """The point of a factor from ``ResiduePoly.factor``, of its
        translate or of a variable, built without the checks."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "minimal_poly", q)
        object.__setattr__(pt, "chart", chart)
        return pt

    @property
    def degree(self) -> int:
        return self.minimal_poly.degree()

    def label(self) -> str:
        return str(self.minimal_poly)

    def sort_key(self):
        return (self.chart, self.minimal_poly.degree(), self.minimal_poly.num)

    def __str__(self):
        return f"{{{self.minimal_poly} = 0}}"


def factor_reduction(g: ResiduePoly) -> list[tuple[ClosedPoint, int]]:
    """Zeros of a residue polynomial as closed points with multiplicity.

    The chart tag of each point is the variable symbol of ``g``.
    """
    if g.is_zero():
        raise ZeroInput("cannot factor the zero polynomial")
    return [(ClosedPoint._factor_of(q, g.var), mult) for q, mult in g.factor()]
