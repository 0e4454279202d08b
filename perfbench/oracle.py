"""Independent reference computations for the benchmark's output checks.

Nothing here calls padicdx arithmetic.  An operator is a dict from the
power of the derivation to a coefficient list of Fractions (ascending
degree, no trailing zeros); a residue polynomial is a list of ints in
[0, p), ascending, no trailing zeros.  The checks call these only outside
the timed regions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# operators with Fraction coefficients


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _gbinom(m: int, j: int) -> int:
    """Binomial coefficient C(m, j) for any integer m."""
    if m >= 0:
        return comb(m, j) if j <= m else 0
    return (-1) ** j * comb(j - m - 1, j)


def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def op_mul(A: dict, B: dict) -> dict:
    """Product of Laurent operators: d^m c = sum_j C(m, j) c^(j) d^(m-j).

    The sum is finite because every coefficient is a polynomial; for
    m >= 0 it stops at j = m.
    """
    out: dict[int, list] = {}
    for m, b in A.items():
        for n, c in B.items():
            der, j = c, 0
            while der:
                g = _gbinom(m, j)
                if g:
                    acc = out.setdefault(m + n - j, [])
                    term = poly_mul(b, der)
                    if len(acc) < len(term):
                        acc.extend([Fraction(0)] * (len(term) - len(acc)))
                    for i, t in enumerate(term):
                        acc[i] += g * t
                if m >= 0 and j == m:
                    break
                der = [der[i] * i for i in range(1, len(der))]
                j += 1
    return {n: c for n, c in out.items() if _trim(c)}


def op_sub_one(A: dict) -> dict:
    """A - 1."""
    out = {n: list(c) for n, c in A.items()}
    c0 = out.get(0, [])
    out[0] = [c0[0] - 1 if c0 else Fraction(-1)] + c0[1:]
    return {n: c for n, c in out.items() if _trim(c)}


def valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def norm_exp(A: dict, p: int, k: int, r: int) -> int | None:
    """(k, r) norm exponent: max over coefficients of -v + k*n (n >= 0)
    or -v + r*n (n < 0); None for the zero operator."""
    best = None
    for n, c in A.items():
        weight = k * n if n >= 0 else r * n
        for x in c:
            if x:
                e = weight - valuation(x, p)
                if best is None or e > best:
                    best = e
    return best


def add_exp(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


# polynomials over the prime field


def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim([c % p for c in out])


def pdivmod(a: list, b: list, p: int) -> tuple[list, list]:
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        f = a[-1] * inv % p
        q[shift] = f
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - f * y) % p
        _ptrim(a)
    return _ptrim(q), a


def pmonic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def pgcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p) if a else a


def ppowmod(base: list, e: int, f: list, p: int) -> list:
    out, base = [1], pdivmod(base, f, p)[1]
    while e:
        if e & 1:
            out = pdivmod(pmul(out, base, p), f, p)[1]
        base = pdivmod(pmul(base, base, p), f, p)[1]
        e >>= 1
    return out


def _psub(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


def is_irreducible(f: list, p: int) -> bool:
    """Rabin's test: x^(p^n) = x mod f, and gcd(x^(p^(n/l)) - x, f) = 1
    for every prime l dividing n."""
    n = len(f) - 1
    if n < 1:
        return False
    f = pmonic(f, p)
    x = [0, 1]

    def frobenius(times: int) -> list:
        h = pdivmod(x, f, p)[1]
        for _ in range(times):
            h = ppowmod(h, p, f, p)
        return h

    if pdivmod(_psub(frobenius(n), x, p), f, p)[1]:
        return False
    m, ell = n, 2
    while m > 1:
        if m % ell == 0:
            while m % ell == 0:
                m //= ell
            if len(pgcd(f, _psub(frobenius(n // ell), x, p), p)) != 1:
                return False
        ell += 1
    return True


def reduce_normalized(c: list, p: int) -> list:
    """Reduction mod p of a Fraction polynomial scaled to Gauss norm one."""
    v = min(valuation(x, p) for x in c if x)
    scale = Fraction(p) ** (-v)
    out = []
    for x in c:
        y = x * scale
        out.append(y.numerator * pow(y.denominator, -1, p) % p if y else 0)
    return _ptrim(out)


def compose_linear(c: list, shift: Fraction, stretch: Fraction) -> list:
    """c(shift + stretch * t) by Horner's rule."""
    acc: list = []
    for x in reversed(c):
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, y in enumerate(acc):
            nxt[i] += y * shift
            nxt[i + 1] += y * stretch
        nxt[0] += x
        acc = nxt
    return _trim(acc)
