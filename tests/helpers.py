"""Shared corpus builders and brute-force oracles for the test suite.

Oracles here deliberately avoid the code paths they check: operator
products are validated through the action on functions and against the
per-term Leibniz product below, factorizations through exhaustive trial
division over the residue field, translation through the object Horner
rule below, and the integer-vector polynomial core through the plain
Fraction arithmetic below.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct, zip_longest

from padicdx import DiffOp, MicroOp, PAdicScalar, ResiduePoly, TatePoly


def rand_scalar(rng, p, val_range=(-3, 3), zero_ok=True):
    if zero_ok and rng.random() < 0.12:
        return PAdicScalar.zero(p)
    unit_num = rng.choice([1, 2, 3, 5, 7, 11])
    while unit_num % p == 0:
        unit_num += 1
    unit_den = rng.choice([1, 2, 3, 5, 7])
    while unit_den % p == 0:
        unit_den += 1
    sign = rng.choice([1, -1])
    e = rng.randint(*val_range)
    return PAdicScalar(sign * Fraction(unit_num, unit_den) * Fraction(p) ** e, p)


def rand_poly(rng, p, var="x", max_deg=4, val_range=(-3, 3), nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [rand_scalar(rng, p, val_range) for _ in range(deg + 1)]
    f = TatePoly(coeffs, p, var)
    if nonzero and f.is_zero():
        return TatePoly.one(p, var) + f
    return f


def rand_diffop(rng, p, var="x", max_dd=4, max_dx=4, val_range=(-3, 3), nonzero=False):
    order = rng.randint(0, max_dd)
    coeffs = {
        n: rand_poly(rng, p, var, max_dx, val_range) for n in range(order + 1)
    }
    P = DiffOp(coeffs, p, var)
    if nonzero and P.is_zero():
        return DiffOp.one(p, var)
    return P


def rand_microop(rng, p, var="x", window=(-3, 3), max_dx=3, val_range=(-2, 2)):
    lo = rng.randint(window[0], 0)
    hi = rng.randint(0, window[1])
    coeffs = {
        n: rand_poly(rng, p, var, max_dx, val_range) for n in range(lo, hi + 1)
    }
    return MicroOp(coeffs, p, var)


def naive_apply(P: DiffOp, f: TatePoly) -> TatePoly:
    """Independent action of an operator on a function."""
    out = TatePoly.zero(P.p, f.var)
    for n, c in P.coeffs.items():
        g = f
        for _ in range(n):
            g = g.derivative()
        out = out + c * g
    return out


def monic_polys(p, deg, var="x"):
    """All monic polynomials of exact degree deg over the residue field."""
    for tail in iproduct(range(p), repeat=deg):
        yield ResiduePoly(list(tail) + [1], p, var)


def brute_is_irreducible(g: ResiduePoly) -> bool:
    """Trial division by every monic polynomial of degree up to half."""
    d = g.degree()
    if d <= 0:
        return False
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for q in monic_polys(g.p, deg, g.var):
            if q.divides(g):
                return False
    return True


def brute_factor(g: ResiduePoly):
    """Exhaustive factorization into monic irreducibles, smallest first."""
    f = g.monic()
    out = {}
    deg = 1
    while f.degree() >= 1:
        found = False
        for q in monic_polys(f.p, deg, f.var):
            if brute_is_irreducible(q) and q.divides(f):
                mult = 0
                while q.divides(f):
                    f = f // q
                    mult += 1
                out[q] = mult
                found = True
                break
        if not found:
            deg += 1
    return sorted(out.items(), key=lambda qm: (qm[0].degree(), qm[0].coeffs))


def horner_translate(f: ResiduePoly, c: int) -> ResiduePoly:
    """f(x + c) by Horner's rule on ResiduePoly objects, as translate did
    before it moved onto the integer-list kernel."""
    lin = ResiduePoly((c, 1), f.p, f.var)
    acc = ResiduePoly.zero(f.p, f.var)
    for coeff in reversed(f.coeffs):
        acc = acc * lin + coeff
    return acc


# Fraction oracle for TatePoly: coefficient lists ascending by degree,
# trailing zeros trimmed, one Fraction per coefficient


def frac_coeffs(f: TatePoly) -> list:
    """The coefficients of f as Fractions, through public accessors."""
    return [f.coefficient(i).value for i in range(f.degree() + 1)]


def frac_trim(cs) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def frac_add(a, b) -> list:
    return frac_trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def frac_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_trim(out)


def frac_scale(a, s) -> list:
    return frac_trim(c * s for c in a)


def frac_derivative(a) -> list:
    return frac_trim([i * c for i, c in enumerate(a)][1:])


def frac_valuation(c: Fraction, p: int) -> int:
    v, num, den = 0, c.numerator, c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_gauss_exp(a, p):
    """Gauss norm exponent (None for zero): the largest -v(c)."""
    return max((-frac_valuation(c, p) for c in a if c), default=None)


def frac_drop_below(a, p, cutoff: int) -> list:
    return frac_trim(
        c if c and -frac_valuation(c, p) >= cutoff else 0 for c in a
    )


def frac_compose_linear(a, shift, stretch) -> list:
    acc: list = []
    for c in reversed(a):
        acc = frac_add(frac_mul(acc, [shift, stretch]), [c])
    return acc


# per-term Leibniz oracle for operator products: one TatePoly per term


def falling_binom(m: int, j: int) -> int:
    """m (m-1) ... (m-j+1) / j!, the binomial for any integer m."""
    num = 1
    for i in range(j):
        num *= m - i
    return num // math.factorial(j)


def leibniz_oracle(left: dict, right: dict, p: int, var: str) -> dict:
    """The coefficient map of (sum b_m d^m) * (sum c_n d^n), term by term:
    d^m c = sum_j C(m, j) c^(j) d^(m-j), stopping at j = m for m >= 0 and
    when the derivative vanishes otherwise."""
    out: dict = {}
    for m, bm in left.items():
        for n, cn in right.items():
            der, j = cn, 0
            while not der.is_zero():
                coef = falling_binom(m, j)
                if coef:
                    key = m + n - j
                    term = (bm * der).scale(coef)
                    out[key] = out.get(key, TatePoly.zero(p, var)) + term
                if m >= 0 and j == m:
                    break
                der = der.derivative()
                j += 1
    return {n: c for n, c in out.items() if not c.is_zero()}
