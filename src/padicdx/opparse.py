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

A subexpression without the derivation evaluates to a function, with
polynomial arithmetic: the product rule of operators of order zero is
the polynomial product.  Above a ``d`` leaf the product rule moves
coefficients left of the derivation powers.  A power over the limits
below raises ``ConfigError`` before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConfigError,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    ParseError,
)
from .micro import MicroOp
from .scalars import is_prime
from .tatepoly import TatePoly, _make
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

_TOK_INT = "int"
_TOK_SYM = "sym"
_TOK_OP = "op"
_TOK_EOF = "eof"
# str.isdigit would also accept superscripts and other scripts' digits
_DIGITS = frozenset("0123456789")


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    out = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            num = int(src[i:j])
            if j < n and src[j] == "/":
                k = j + 1
                if k >= n or src[k] not in _DIGITS:
                    raise ParseError("expected digits after '/'", j)
                m = k
                while m < n and src[m] in _DIGITS:
                    m += 1
                den = int(src[k:m])
                if den == 0:
                    raise ParseError("zero denominator", k)
                out.append((_TOK_INT, (num, den), i))
                i = m
            else:
                out.append((_TOK_INT, (num, 1), i))
                i = j
            continue
        if ch.isalpha():
            if ch in VARIABLES or ch in ("d", "p"):
                out.append((_TOK_SYM, ch, i))
                i += 1
                continue
            raise ParseError(f"unknown symbol {ch!r}", i)
        if ch in "+-*^()":
            out.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append((_TOK_EOF, None, n))
    return out


class _Parser:
    def __init__(self, tokens, micro: bool):
        self.tokens = tokens
        self.pos = 0
        self.micro = micro

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != _TOK_OP or value != op:
            raise ParseError(f"expected {op!r}", at)
        return self.advance()

    def parse_expr(self):
        kind, value, _ = self.peek()
        negate_first = kind == _TOK_OP and value == "-"
        if negate_first:
            self.advance()
        first = self.parse_term()
        terms = [Neg(first) if negate_first else first]
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                term = self.parse_term()
                terms.append(Neg(term) if value == "-" else term)
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value == "*":
                self.advance()
                factors.append(self.parse_factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self):
        atom = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "^":
            self.advance()
            exponent = self.parse_exponent(atom)
            return Power(atom, exponent)
        return atom

    def parse_exponent(self, base) -> int:
        negative = False
        kind, value, at = self.peek()
        if kind == _TOK_OP and value == "-":
            if base == _D:
                if not self.micro:
                    raise NegativePowerOutsideMicroMode(
                        "inverse powers of d need the Laurent ring"
                    )
            elif base != _P:
                raise ParseError("negative exponent only on d or p", at)
            negative = True
            self.advance()
        kind, value, at = self.peek()
        if kind != _TOK_INT or value[1] != 1:
            raise ParseError("expected an integer exponent", at)
        self.advance()
        exp = value[0]
        return -exp if negative else exp

    def parse_atom(self):
        kind, value, at = self.advance()
        if kind == _TOK_INT:
            return Rational(*value)
        if kind == _TOK_SYM:
            return Symbol(value)
        if kind == _TOK_OP and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return Paren(inner)
        raise ParseError("expected a value", at)


def parse(src: str, micro: bool = False):
    """Parse an expression into a syntax tree.

    Laurent mode admits negative exponents on the derivation symbol.
    """
    if not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(src), micro)
    tree = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != _TOK_EOF:
        raise ParseError("trailing input", at)
    return tree


# printing


def _atomic(node) -> bool:
    if isinstance(node, (Symbol, Paren)):
        return True
    if isinstance(node, Rational):
        return node.denominator == 1 and node.numerator >= 0
    return False


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
        inner = print_expr(node.operand)
        if isinstance(node.operand, (Sum, Neg)):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Power):
        base = print_expr(node.base)
        if not _atomic(node.base):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Product):
        parts = []
        for f in node.factors:
            text = print_expr(f)
            if isinstance(f, (Sum, Neg)):
                text = f"({text})"
            parts.append(text)
        return "*".join(parts)
    if isinstance(node, Sum):
        out = print_expr(node.terms[0])
        if isinstance(node.terms[0], Sum):
            out = f"({out})"
        for term in node.terms[1:]:
            if isinstance(term, Neg):
                text = print_expr(term.operand)
                if isinstance(term.operand, (Sum, Neg)):
                    text = f"({text})"
                out += f" - {text}"
            else:
                text = print_expr(term)
                if isinstance(term, Sum):
                    text = f"({text})"
                out += f" + {text}"
        return out
    raise TypeError(f"not a syntax tree node: {node!r}")


def strip_parens(node):
    """Canonical structural form: grouping nodes removed and associative
    nesting flattened, for comparison after round trips."""
    if isinstance(node, Paren):
        return strip_parens(node.inner)
    if isinstance(node, Sum):
        terms = []
        for t in node.terms:
            t = strip_parens(t)
            if isinstance(t, Sum):
                terms.extend(t.terms)
            else:
                terms.append(t)
        return Sum(tuple(terms))
    if isinstance(node, Product):
        factors = []
        for f in node.factors:
            f = strip_parens(f)
            if isinstance(f, Product):
                factors.extend(f.factors)
            else:
                factors.append(f)
        return Product(tuple(factors))
    if isinstance(node, Power):
        return Power(strip_parens(node.base), node.exponent)
    if isinstance(node, Neg):
        return Neg(strip_parens(node.operand))
    return node


# normalization into operators


class _Normalizer:
    """Bottom-up evaluation: a subtree without the derivation stays a
    TatePoly, and a MicroOp appears only at a ``d`` leaf."""

    def __init__(self, p: int, default_var: str):
        self.p = p
        self.var: str | None = None
        self.default_var = default_var

    def _constant(self, value) -> TatePoly:
        return TatePoly((value,), self.p, self.var or self.default_var)

    def eval(self, node):
        if isinstance(node, Rational):
            return self._constant(Fraction(node.numerator, node.denominator))
        if isinstance(node, Symbol):
            return self._power(node, 1)
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
            return self._power(node.base, node.exponent)
        raise TypeError(f"not a syntax tree node: {node!r}")

    def _power(self, base, n: int):
        p = self.p
        if base == _P:
            limit = MAX_SHIFT if p == 2 else MAX_BITS // p.bit_length()
            if abs(n) > limit:
                raise ConfigError(f"exponent {n} of p is over the limit {limit}")
            return self._constant(Fraction(p) ** n)
        if abs(n) > MAX_EXPONENT:
            raise ConfigError(f"exponent {n} is over the limit {MAX_EXPONENT}")
        if base == _D:
            return MicroOp.d_power(n, p, self.var or self.default_var)
        if n < 0:
            raise NegativePowerOutsideMicroMode("negative exponent only on d or p")
        if isinstance(base, Symbol):
            if base.name not in VARIABLES:
                raise ParseError(f"unknown symbol {base.name!r}", 0)
            if self.var is None:
                self.var = base.name
            elif self.var != base.name:
                raise MixedVariables(f"expression mixes {self.var!r} and {base.name!r}")
            # the monomial: degree n <= MAX_DEGREE and size 2n <= MAX_BITS,
            # built canonical with the one prime check TatePoly would make
            if not is_prime(p):
                raise ValueError(f"{p} is not a prime")
            return _make((0,) * n + (1,), 1, p, base.name)
        value = self.eval(base)
        coeffs = [value] if isinstance(value, TatePoly) else value.coeffs.values()
        degree = max((c.degree() for c in coeffs), default=0)
        bits = max(
            (max(map(abs, c.num)).bit_length() + c.den.bit_length() for c in coeffs if c.num),
            default=0,
        )
        if degree * n > MAX_DEGREE or bits * n > MAX_BITS:
            raise ConfigError(
                f"power {n} of a base of degree {degree} and {bits} bits is over the limits"
            )
        return value**n


def to_micro_op(node, p: int, default_var: str = "x") -> MicroOp:
    """Evaluate a syntax tree in the Laurent operator ring; an expression
    without the derivation gives an operator of order zero."""
    value = _Normalizer(p, default_var).eval(node)
    if isinstance(value, TatePoly):
        return MicroOp.from_poly(value)
    return value


def to_diff_op(node, p: int, default_var: str = "x") -> DiffOp:
    """Evaluate a syntax tree as a finite differential operator."""
    micro = to_micro_op(node, p, default_var)
    if any(n < 0 for n in micro.coeffs):
        raise NegativePowerOutsideMicroMode(
            "expression involves inverse powers of d"
        )
    return micro.to_diffop()
