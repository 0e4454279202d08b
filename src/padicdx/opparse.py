"""Expression language for operators and functions.

Grammar, with left associative sums and products and products kept in
written order::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)?
    atom   := 'd' | variable | 'p' | rational | '(' expr ')'

Exponents are nonnegative integers, except on the prime symbol (any
integer, giving exact scalar powers) and on the derivation symbol in
Laurent mode, where negative powers denote the inverse derivation.
Rationals are integer literals or slash fractions written without
spaces.  The syntax tree preserves the source shape, parentheses
included.

Evaluation runs on bare integers: a subexpression's value maps each
power of the derivation to integer numerators over one denominator, so a
subexpression without the derivation is a function with polynomial
arithmetic.  A left factor without the derivation multiplies each
coefficient of the right one; only a left factor holding ``d`` takes the
Leibniz product, which moves coefficients left of the derivation powers.
Each coefficient is made canonical once, when the operator is built, and
a power's base before the power: a power over the limits below raises
``ConfigError`` on the canonical sizes, before it is built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import (
    ConfigError,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    ParseError,
)
from .micro import MicroOp
from .residue import _format_terms, _mul_into
from .scalars import _square_multiply, is_prime
from .tatepoly import _add_lists, _canon
from . import weyl
from .weyl import DiffOp

VARIABLES = ("x", "t", "u")

# Limits of a power b^n, checked before it is built: |n| <= MAX_EXPONENT,
# deg(b) * n <= MAX_DEGREE and k * n <= MAX_BITS, where k is the bit size
# of b's largest numerator plus that of its common denominator.  The odd-p
# valuation of p^n divides once per factor of p, so its cost grows with n
# times the size of p^n, which MAX_BITS bounds; at p = 2 it is a
# trailing-zero count and p^n a shift, and there |n| <= MAX_SHIFT only
# bounds the integer (12.5 MB).
MAX_EXPONENT = 10_000
MAX_DEGREE = 10_000
MAX_BITS = 20_000
MAX_SHIFT = 10**8


def _check_p_exponent(n: int, p: int):
    """Raise ``ConfigError`` unless |n| is at most MAX_SHIFT at p = 2 and
    MAX_BITS over the bit size of p otherwise."""
    limit = MAX_SHIFT if p == 2 else MAX_BITS // p.bit_length()
    if abs(n) > limit:
        raise ConfigError(f"exponent {n} of p is over the limit {limit}")


def _check_power(coeffs, n: int, base: str = "a base"):
    """Raise ``ConfigError`` unless the power n of a base with these
    TatePoly coefficients is within MAX_DEGREE and MAX_BITS."""
    degree = max((c.degree() for c in coeffs), default=0)
    bits = max(
        (max(map(abs, c.num)).bit_length() + c.den.bit_length() for c in coeffs if c.num),
        default=0,
    )
    if degree * n > MAX_DEGREE or bits * n > MAX_BITS:
        raise ConfigError(
            f"power {n} of {base} of degree {degree} and {bits} bits is over the limits"
        )


# syntax tree


class _Node:
    def __str__(self):
        return print_expr(self)


@dataclass(frozen=True)
class Sum(_Node):
    terms: tuple


@dataclass(frozen=True)
class Product(_Node):
    factors: tuple


@dataclass(frozen=True)
class Power(_Node):
    base: object
    exponent: int


@dataclass(frozen=True)
class Symbol(_Node):
    name: str


@dataclass(frozen=True)
class Rational(_Node):
    numerator: int
    denominator: int = 1


@dataclass(frozen=True)
class Neg(_Node):
    operand: object


@dataclass(frozen=True)
class Paren(_Node):
    inner: object


_D, _P = Symbol("d"), Symbol("p")


# lexer

# str.isdigit would also accept superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")
_SYMBOLS = frozenset(VARIABLES + ("d", "p"))


def _digits_end(src: str, i: int) -> int:
    """The end of the run of ASCII digits that starts at i; a run longer
    than Python's integer-string limit raises ``ParseError`` at i."""
    start, n = i, len(src)
    while i < n and src[i] in _DIGITS:
        i += 1
    limit = sys.get_int_max_str_digits()
    if limit and i - start > limit:
        raise ParseError(f"integer literal of more than {limit} digits", start)
    return i


def _tokenize(src: str) -> list[tuple[object, int]]:
    """(value, position) tokens.  The value is a (numerator, denominator)
    pair, an operator or symbol character, or None at the end."""
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = _digits_end(src, i)
            num, den = int(src[i:j]), 1
            if j < n and src[j] == "/":
                k = _digits_end(src, j + 1)
                if k == j + 1:
                    raise ParseError("expected digits after '/'", j)
                den = int(src[j + 1 : k])
                if den == 0:
                    raise ParseError("zero denominator", j + 1)
                j = k
            out.append(((num, den), i))
            i = j
        elif ch in _SYMBOLS or ch in "+-*^()":
            out.append((ch, i))
            i += 1
        elif ch.isalpha():
            raise ParseError(f"unknown symbol {ch!r}", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append((None, n))
    return out


class _Parser:
    def __init__(self, tokens, micro: bool):
        self.tokens = tokens
        self.pos = 0
        self.micro = micro

    def take(self, ops: str) -> str | None:
        """The next token, consumed, if it is one of the operators ops."""
        value = self.tokens[self.pos][0]
        if isinstance(value, str) and value in ops:
            self.pos += 1
            return value
        return None

    def parse_expr(self):
        terms = []
        op = self.take("-")
        while True:
            term = self.parse_term()
            terms.append(Neg(term) if op == "-" else term)
            op = self.take("+-")
            if op is None:
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while self.take("*"):
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self):
        atom = self.parse_atom()
        if self.take("^"):
            return Power(atom, self.parse_exponent(atom))
        return atom

    def parse_exponent(self, base) -> int:
        negative = self.take("-")
        if negative and base != _P:
            if base != _D:
                at = self.tokens[self.pos - 1][1]
                raise ParseError("negative exponent only on d or p", at)
            if not self.micro:
                raise NegativePowerOutsideMicroMode(
                    "inverse powers of d need the Laurent ring"
                )
        value, at = self.tokens[self.pos]
        if not isinstance(value, tuple) or value[1] != 1:
            raise ParseError("expected an integer exponent", at)
        self.pos += 1
        return -value[0] if negative else value[0]

    def parse_atom(self):
        value, at = self.tokens[self.pos]
        self.pos += 1
        if value in _SYMBOLS:
            return Symbol(value)
        if isinstance(value, tuple):
            return Rational(*value)
        if value != "(":
            raise ParseError("expected a value", at)
        inner = self.parse_expr()
        if not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.pos][1])
        return Paren(inner)


def parse(src: str, micro: bool = False):
    """Parse an expression into a syntax tree.

    Laurent mode admits negative exponents on the derivation symbol.
    """
    if not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(src), micro)
    tree = parser.parse_expr()
    value, at = parser.tokens[parser.pos]
    if value is not None:
        raise ParseError("trailing input", at)
    return tree


# printing


def _atomic(node) -> bool:
    if isinstance(node, (Symbol, Paren)):
        return True
    if isinstance(node, Rational):
        return node.denominator == 1 and node.numerator >= 0
    return False


def _group(node, kinds) -> str:
    """The text of node, parenthesized when it is one of the given kinds."""
    text = print_expr(node)
    return f"({text})" if isinstance(node, kinds) else text


def print_expr(node) -> str:
    """Render a syntax tree; parse of the result recovers the tree up to
    the parentheses the rendering itself introduces."""
    if isinstance(node, Rational):
        if node.denominator == 1:
            return str(node.numerator)
        return f"{node.numerator}/{node.denominator}"
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Paren):
        return f"({print_expr(node.inner)})"
    if isinstance(node, Neg):
        return "-" + _group(node.operand, (Sum, Neg))
    if isinstance(node, Power):
        base = print_expr(node.base)
        if not _atomic(node.base):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Product):
        return "*".join(_group(f, (Sum, Neg)) for f in node.factors)
    if isinstance(node, Sum):
        return _format_terms(
            (True, _group(t.operand, (Sum, Neg))) if isinstance(t, Neg)
            else (False, _group(t, Sum))
            for t in node.terms
        )
    raise TypeError(f"not a syntax tree node: {node!r}")


def _splice(node, field: str):
    """node with its children, given by field, stripped, and the children
    of its own kind replaced by theirs."""
    out = []
    for child in map(strip_parens, getattr(node, field)):
        out.extend(getattr(child, field) if isinstance(child, type(node)) else (child,))
    return type(node)(tuple(out))


def strip_parens(node):
    """Canonical structural form: grouping nodes removed and associative
    nesting flattened, for comparison after round trips."""
    if isinstance(node, Paren):
        return strip_parens(node.inner)
    if isinstance(node, Sum):
        return _splice(node, "terms")
    if isinstance(node, Product):
        return _splice(node, "factors")
    if isinstance(node, Power):
        return Power(strip_parens(node.base), node.exponent)
    if isinstance(node, Neg):
        return Neg(strip_parens(node.operand))
    return node


# normalization into operators


class _Normalizer:
    """Bottom-up evaluation on bare integers.  A value is a {power of d:
    (numerators, denominator)} map with no zero coefficient and no
    trailing zero numerator; a value without d is {} or {0: f}.  Sums add
    per power over the lcm of the denominators.  A left factor without d
    multiplies each coefficient of the right one by ``_mul_into``, and only
    a left factor holding d takes a Leibniz product.  Coefficients are
    made canonical by ``_canon`` at the end, and before a power, whose
    limits read canonical sizes, and a Leibniz product, which takes
    polynomials.  Every leaf refuses a modulus that is not a prime, after
    its own checks."""

    def __init__(self, p: int, default_var: str):
        self.p = p
        self.var: str | None = None
        self.default_var = default_var
        self.prime = is_prime(p)

    def _leaf(self, n: int, num: list, den: int = 1) -> dict:
        if not self.prime:
            raise ValueError(f"{self.p} is not a prime")
        return {n: (num, den)} if num[-1] else {}

    def _polys(self, value: dict) -> dict:
        var = self.var or self.default_var
        return {n: _canon(num, den, self.p, var) for n, (num, den) in value.items()}

    def eval(self, node) -> dict:
        if isinstance(node, Rational):
            return self._leaf(0, [node.numerator], node.denominator)
        if isinstance(node, Symbol):
            return self._power(node, 1)
        if isinstance(node, Paren):
            return self.eval(node.inner)
        if isinstance(node, Neg):
            value = self.eval(node.operand)
            return {n: ([-a for a in num], den) for n, (num, den) in value.items()}
        if isinstance(node, Sum):
            out = self.eval(node.terms[0])
            for term in node.terms[1:]:
                _add_into(out, self.eval(term))
            return out
        if isinstance(node, Product):
            out = self.eval(node.factors[0])
            for factor in node.factors[1:]:
                out = self._mul(out, self.eval(factor))
            return out
        if isinstance(node, Power):
            return self._power(node.base, node.exponent)
        raise TypeError(f"not a syntax tree node: {node!r}")

    def _mul(self, left: dict, right: dict) -> dict:
        if left.keys() <= {0}:
            # a function f, or zero: f times each coefficient
            return {
                n: (_mul_into([], a, b), da * db)
                for a, da in left.values()
                for n, (b, db) in right.items()
            }
        # through the module, so that a wrapper set on it counts the call
        var = self.var or self.default_var
        table = weyl.leibniz_product(self._polys(left), self._polys(right), self.p, var)
        return {n: (c.num, c.den) for n, c in table.items() if c.num}

    def _power(self, base, n: int) -> dict:
        p = self.p
        if base == _P:
            _check_p_exponent(n, p)
            return self._leaf(0, [p ** max(n, 0)], p ** max(-n, 0))
        if abs(n) > MAX_EXPONENT:
            raise ConfigError(f"exponent {n} is over the limit {MAX_EXPONENT}")
        if base == _D:
            return self._leaf(n, [1])
        if n < 0:
            raise NegativePowerOutsideMicroMode("negative exponent only on d or p")
        if isinstance(base, Symbol):
            if base.name not in VARIABLES:
                raise ParseError(f"unknown symbol {base.name!r}", 0)
            if self.var is None:
                self.var = base.name
            elif self.var != base.name:
                raise MixedVariables(f"expression mixes {self.var!r} and {base.name!r}")
            # the monomial: degree n <= MAX_DEGREE and size 2n <= MAX_BITS
            return self._leaf(0, [0] * n + [1])
        table = self._polys(self.eval(base))
        _check_power(table.values(), n)
        value = {m: (c.num, c.den) for m, c in table.items()}
        return _square_multiply(value, n, self._mul) if n else {0: ([1], 1)}


def _add_into(out: dict, value: dict):
    """Add a value of ``_Normalizer`` into out, per power, dropping the
    coefficients that cancel."""
    for n, (b, db) in value.items():
        if n not in out:
            out[n] = (b, db)
            continue
        a, da = _add_lists(*out[n], b, db)
        while a and not a[-1]:
            a.pop()
        if a:
            out[n] = (a, da)
        else:
            del out[n]


def to_micro_op(node, p: int, default_var: str = "x") -> MicroOp:
    """Evaluate a syntax tree in the Laurent operator ring; an expression
    without the derivation gives an operator of order zero."""
    normalizer = _Normalizer(p, default_var)
    value = normalizer.eval(node)
    return MicroOp._of(normalizer._polys(value), p, normalizer.var or default_var)


def to_diff_op(node, p: int, default_var: str = "x") -> DiffOp:
    """Evaluate a syntax tree as a finite differential operator."""
    micro = to_micro_op(node, p, default_var)
    if any(n < 0 for n in micro.coeffs):
        raise NegativePowerOutsideMicroMode(
            "expression involves inverse powers of d"
        )
    return micro.to_diffop()
