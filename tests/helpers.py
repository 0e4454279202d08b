"""Shared corpus builders and brute-force oracles for the test suite.

Oracles here deliberately avoid the code paths they check: operator
products are validated through the action on functions and against the
term-by-term Leibniz product on Fraction lists below (``frac_op_mul``),
which shares no code with the integer kernel, and short products against
its balanced rounding (``frac_round_short``); factorizations through
exhaustive trial division over the residue field, translation through the
object Horner rule below, the integer-vector polynomial core through the
plain Fraction arithmetic below, and the expression evaluator through the
all-operator evaluator below, which it replaced.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct, zip_longest

from hypothesis import strategies as st

from padicdx import (
    DiffOp,
    MicroOp,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    PAdicScalar,
    ParseError,
    ResiduePoly,
    TatePoly,
)
from padicdx.opparse import VARIABLES, Neg, Paren, Power, Product, Rational, Sum, Symbol

# the hard certified inversion of the acceptance suite, the benchmark and
# the golden corpus, at p = 2 and levels (2, 1)
HARD_INVERT = "(72*x^2 + 80/3*x + 1588/5)*d + (32*x - 160/3) + 896/3*d^-1 - 16*d^-2"


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


def join_residue_str(coeffs, var: str) -> str:
    """A residue polynomial's text as its own printer wrote it before it
    shared TatePoly's: nonzero terms from the top degree down, joined by
    " + "."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            v = var if i == 1 else f"{var}^{i}"
            term = v if c == 1 else f"{c}*{v}"
        parts.append(term)
    return " + ".join(parts)


def join_operator_str(coeffs: dict) -> str:
    """An operator's text as its own printer wrote it before it shared the
    polynomial printer's sign logic: terms from the top power of the
    derivation down, a negative coefficient negated and its sign moved
    to the joint, a coefficient with a joint or a sign of its own in
    parentheses."""

    def needs_parens(text):
        return " + " in text or " - " in text or text.startswith("-")

    if not coeffs:
        return "0"
    out = ""
    for n in sorted(coeffs, reverse=True):
        c = coeffs[n]
        negated = str(c).startswith("-")
        if negated:
            c = -c
        text = str(c)
        if n == 0:
            body = f"({text})" if needs_parens(text) else text
        else:
            dpow = "d" if n == 1 else f"d^{n}"
            if c == TatePoly.one(c.p, c.var):
                body = dpow
            else:
                coef = f"({text})" if needs_parens(text) else text
                body = f"{coef}*{dpow}"
        if not out:
            out = f"-{body}" if negated else body
        else:
            out += f" - {body}" if negated else f" + {body}"
    return out


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


def loop_valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, one division per factor."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_valuation(c: Fraction, p: int) -> int:
    return loop_valuation(c.numerator, p) - loop_valuation(c.denominator, p)


def frac_gauss_exp(a, p):
    """Gauss norm exponent (None for zero): the largest -v(c)."""
    return max((-frac_valuation(c, p) for c in a if c), default=None)


def frac_drop_below(a, p, cutoff: int) -> list:
    return frac_trim(
        c if c and -frac_valuation(c, p) >= cutoff else 0 for c in a
    )


def frac_op(coeffs: dict) -> dict:
    """An operator's {power: TatePoly} map as {power: Fraction list}."""
    return {n: frac_coeffs(c) for n, c in coeffs.items()}


def frac_op_mul(A: dict, B: dict) -> dict:
    """The product of two {power: Fraction list} maps, term by term by
    d^m c = sum_j C(m, j) c^(j) d^(m-j), on Fraction lists only."""
    out: dict = {}
    for m, b in A.items():
        for n, c in B.items():
            der, j = c, 0
            while der and (m < 0 or j <= m):
                term = frac_scale(frac_mul(b, der), falling_binom(m, j))
                out[m + n - j] = frac_add(out.get(m + n - j, []), term)
                der, j = frac_derivative(der), j + 1
    return {n: c for n, c in out.items() if c}


def frac_op_norm(A: dict, p: int, k: int, r: int):
    """The (k, r) norm exponent of a {power: Fraction list} map, None for 0."""
    return max(
        (frac_gauss_exp(c, p) + (k if n >= 0 else r) * n for n, c in A.items() if c),
        default=None,
    )


def frac_round_short(A: dict, p: int, k: int, r: int, cutoff: int) -> dict:
    """The {power: Fraction list} map A cut below the (k, r) cutoff, each
    kept row rounded as the floored ``leibniz_product`` documents it: with
    v the larger of 0 and the row's Gauss exponent and
    c = cutoff - weight(n, k, r), a coefficient x becomes A / p^v for the balanced residue
    -p^(v-c+1)/2 < A <= p^(v-c+1)/2 of x p^v modulo p^(v-c+1)."""
    out = {}
    for n, row in A.items():
        c = cutoff - (k if n >= 0 else r) * n
        kept = frac_drop_below(row, p, c)
        if not kept:
            continue
        v = max(0, frac_gauss_exp(kept, p))
        mod = p ** (v - c + 1)
        rounded = []
        for x in kept:
            y = x * p**v
            a = y.numerator * pow(y.denominator, -1, mod) % mod
            rounded.append(Fraction(a - mod if a > mod // 2 else a, p**v))
        out[n] = rounded
    return out


def frac_compose_linear(a, shift, stretch) -> list:
    acc: list = []
    for c in reversed(a):
        acc = frac_add(frac_mul(acc, [shift, stretch]), [c])
    return acc


def falling_binom(m: int, j: int) -> int:
    """m (m-1) ... (m-j+1) / j!, the binomial for any integer m."""
    num = 1
    for i in range(j):
        num *= m - i
    return num // math.factorial(j)


class _OldNormalizer:
    """The expression evaluator as it was before it kept d-free subtrees
    as functions: every leaf is a MicroOp and every product a Leibniz
    product."""

    def __init__(self, p: int, default_var: str):
        self.p = p
        self.var: str | None = None
        self.default_var = default_var

    def _constant(self, value) -> MicroOp:
        var = self.var or self.default_var
        return MicroOp({0: PAdicScalar(value, self.p)}, self.p, var)

    def eval(self, node) -> MicroOp:
        p = self.p
        if isinstance(node, Rational):
            return self._constant(Fraction(node.numerator, node.denominator))
        if isinstance(node, Symbol):
            if node.name == "d":
                return MicroOp.d_power(1, p, self.var or self.default_var)
            if node.name == "p":
                return self._constant(p)
            if node.name in VARIABLES:
                if self.var is None:
                    self.var = node.name
                elif self.var != node.name:
                    raise MixedVariables(
                        f"expression mixes {self.var!r} and {node.name!r}"
                    )
                return MicroOp.from_poly(TatePoly.variable(p, node.name))
            raise ParseError(f"unknown symbol {node.name!r}", 0)
        if isinstance(node, Paren):
            return self.eval(node.inner)
        if isinstance(node, Neg):
            return -self.eval(node.operand)
        if isinstance(node, Sum):
            out = self.eval(node.terms[0])
            for term in node.terms[1:]:
                out = out + self.eval(term)
            return out
        if isinstance(node, Product):
            out = self.eval(node.factors[0])
            for factor in node.factors[1:]:
                out = out * self.eval(factor)
            return out
        if isinstance(node, Power):
            if node.exponent < 0:
                if node.base == Symbol("d"):
                    return MicroOp.d_power(
                        node.exponent, p, self.var or self.default_var
                    )
                if node.base == Symbol("p"):
                    return self._constant(Fraction(p) ** node.exponent)
                raise NegativePowerOutsideMicroMode(
                    "negative exponent only on d or p"
                )
            return self.eval(node.base) ** node.exponent
        raise TypeError(f"not a syntax tree node: {node!r}")


def old_to_micro_op(node, p: int, default_var: str = "x") -> MicroOp:
    """Oracle for ``opparse.to_micro_op``: the same tree evaluated with
    operator arithmetic only."""
    return _OldNormalizer(p, default_var).eval(node)


def expression_trees(micro: bool):
    """Hypothesis strategy: syntax trees of at most six leaves over d, x,
    t, p, small rationals and small powers; negative powers of d only in
    Laurent mode."""
    d, p, x = Symbol("d"), Symbol("p"), Symbol("x")
    exponents = st.integers(1, 4)
    leaves = [
        st.just(d),
        st.sampled_from([x, x, x, Symbol("t")]),
        st.just(p),
        st.builds(Rational, st.integers(0, 12), st.integers(1, 6)),
        st.just(Rational(0)),
        exponents.map(lambda n: Power(p, -n)),
        st.sampled_from([Power(x, 0), Power(Symbol("t"), 0)]),
        st.builds(Power, st.sampled_from([d, p, x]), st.integers(0, 3)),
    ]
    if micro:
        leaves.append(exponents.map(lambda n: Power(d, -n)))

    def extend(children):
        many = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            many.map(Sum),
            many.map(Product),
            st.builds(lambda c, n: Power(Paren(c), n), children, st.integers(-1, 3)),
            children.map(Neg),
            children.map(Paren),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)
