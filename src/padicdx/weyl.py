"""Finite differential operators with congruence-level norms.

Operators are stored in the plain basis, as a finite map from the power of
the derivation to a polynomial coefficient.  The level-k norm weights the
n-th coefficient by k*n on the exponent scale, which is the same as
measuring coefficients in the basis scaled by the k-th uniformizer power;
one store serves every level.  Multiplication moves coefficients across
powers of the derivation with the Leibniz rule and is exactly norm
multiplicative at every level.  One integer kernel, :func:`leibniz_product`,
runs the rule for these operators and for the Laurent ones of ``micro``.

A truncation tag distinguishes operators whose stored window is the whole
operator from truncations of an infinite one; no arithmetic is defined on
truncated operators, and downstream analyses refuse them.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .errors import MixedPrimes, MixedVariables, TruncatedOperand, ZeroOperator
from .scalars import NEG_INF, NormExp, PAdicScalar
from .tatepoly import TatePoly, _canon


def _coerce_poly(value, p: int, var: str) -> TatePoly:
    if isinstance(value, TatePoly):
        if value.p != p:
            raise MixedPrimes("mixed primes")
        return value
    if isinstance(value, (list, tuple)):
        return TatePoly(value, p, var)
    return TatePoly.constant(value, p, var)


def _gbinom(m: int, j: int) -> int:
    """Generalized binomial coefficient for integer upper argument."""
    if j == 0:
        return 1
    if m >= 0:
        return math.comb(m, j) if j <= m else 0
    return (-1) ** j * math.comb(-m + j - 1, j)


def leibniz_product(left: dict, right: dict, p: int, var: str) -> dict:
    """The {power: TatePoly} map of (sum b_m d^m) * (sum c_n d^n), by
    d^m c = sum_j C(m, j) c^(j) d^(m-j): up to j = m for m >= 0, else up to
    the degree of c.  Each side goes over the lcm of its denominators; per
    b_m the scaled derivatives are summed for each output power on integer
    lists, then multiplied by b_m once."""
    lden = math.lcm(*(b.den for b in left.values()))
    rden = math.lcm(*(c.den for c in right.values()))
    out: dict[int, list] = {}
    for m, b in left.items():
        bm = [a * (lden // b.den) for a in b.num]
        sums: dict[int, list] = {}
        for n, c in right.items():
            der = [a * (rden // c.den) for a in c.num]
            j = 0
            while der:
                coef = _gbinom(m, j)
                if coef:
                    key = m + n - j
                    acc = sums.get(key, ())
                    sums[key] = [x + coef * y for x, y in zip_longest(acc, der, fillvalue=0)]
                if j == m:  # only for m >= 0, as j >= 0
                    break
                der = [i * a for i, a in enumerate(der[1:], 1)]
                j += 1
        for key, s in sums.items():
            row = out.setdefault(key, [])
            row.extend([0] * (len(bm) + len(s) - 1 - len(row)))
            for i, x in enumerate(bm):
                if x:
                    for k, y in enumerate(s, i):
                        row[k] += x * y
    den = lden * rden
    return {key: _canon(out.pop(key), den, p, var) for key in list(out)}


class DiffOp:
    """A finite operator written as a sum of coefficients times powers of
    the derivation, coefficients on the left.
    """

    __slots__ = ("coeffs", "p", "var", "finite")

    def __init__(self, coeffs, p: int, var: str = "x", finite: bool = True):
        table: dict[int, TatePoly] = {}
        for n, c in dict(coeffs).items():
            if n < 0:
                raise ValueError("negative powers need the Laurent ring")
            poly = _coerce_poly(c, p, var)
            if not poly.is_zero():
                table[int(n)] = poly
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "finite", bool(finite))

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x") -> "DiffOp":
        return cls({}, p, var)

    @classmethod
    def one(cls, p: int, var: str = "x") -> "DiffOp":
        return cls({0: 1}, p, var)

    @classmethod
    def derivation(cls, p: int, var: str = "x", n: int = 1) -> "DiffOp":
        return cls({n: 1}, p, var)

    @classmethod
    def from_poly(cls, f: TatePoly) -> "DiffOp":
        return cls({0: f}, f.p, f.var)

    @classmethod
    def truncated(cls, coeffs, p: int, var: str = "x") -> "DiffOp":
        """A truncation of an infinite operator; carries no arithmetic."""
        return cls(coeffs, p, var, finite=False)

    # structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in the derivation; requires a finite nonzero operator."""
        self._require_finite()
        if not self.coeffs:
            raise ZeroOperator("zero operator has no degree")
        return max(self.coeffs)

    def coefficient(self, n: int) -> TatePoly:
        return self.coeffs.get(n, TatePoly.zero(self.p, self.var))

    def leading_coefficient(self) -> TatePoly:
        return self.coefficient(self.degree())

    def _require_finite(self):
        if not self.finite:
            raise TruncatedOperand("operation undefined on a truncated operator")

    def is_disc_unit(self) -> bool:
        """Whether the operator is invertible: order zero with a
        coefficient invertible on the disc."""
        self._require_finite()
        if set(self.coeffs) != {0}:
            return False
        return self.coeffs[0].is_unit_on_disc()

    # norms

    def norm(self, k: int) -> NormExp:
        """Level-k norm on the exponent scale."""
        if k < 0:
            raise ValueError("congruence level must be nonnegative")
        return max(
            (c.gauss_norm() + k * n for n, c in self.coeffs.items()), default=NEG_INF
        )

    def order(self, k: int) -> int:
        """Largest power of the derivation attaining the level-k norm."""
        if not self.coeffs:
            raise ZeroOperator("zero operator has no order")
        target = self.norm(k)
        return max(n for n, c in self.coeffs.items() if c.gauss_norm() + k * n == target)

    # arithmetic

    def _check(self, other):
        if isinstance(other, DiffOp):
            if other.p != self.p:
                raise MixedPrimes("mixed primes")
            return other
        if isinstance(other, TatePoly):
            return self._check(DiffOp.from_poly(other))
        if isinstance(other, (int, PAdicScalar)):
            return DiffOp({0: _coerce_poly(other, self.p, self.var)}, self.p, self.var)
        return None

    def _merge_var(self, other: "DiffOp") -> str:
        mine = self.var if any(not c.is_constant() for c in self.coeffs.values()) else None
        theirs = (
            other.var if any(not c.is_constant() for c in other.coeffs.values()) else None
        )
        if mine and theirs and mine != theirs:
            raise MixedVariables(f"mixed variables {mine!r} and {theirs!r}")
        return mine or theirs or self.var

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        self._require_finite()
        o._require_finite()
        var = self._merge_var(o)
        out = dict(self.coeffs)
        for n, c in o.coeffs.items():
            out[n] = out.get(n, TatePoly.zero(self.p, var)) + c
        return DiffOp(out, self.p, var)

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
        return DiffOp(
            {n: -c for n, c in self.coeffs.items()}, self.p, self.var, self.finite
        )

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        self._require_finite()
        o._require_finite()
        var = self._merge_var(o)
        return DiffOp(leibniz_product(self.coeffs, o.coeffs, self.p, var), self.p, var)

    def __rmul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o * self

    def scale(self, scalar) -> "DiffOp":
        return DiffOp(
            {n: c.scale(scalar) for n, c in self.coeffs.items()},
            self.p,
            self.var,
            self.finite,
        )

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a finite operator")
        out = DiffOp.one(self.p, self.var)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def apply(self, f: TatePoly) -> TatePoly:
        """Natural action on a function."""
        self._require_finite()
        out = TatePoly.zero(self.p, f.var)
        for n, c in self.coeffs.items():
            g = f
            for _ in range(n):
                g = g.derivative()
            out = out + c * g
        return out

    # misc

    def _eq_key(self):
        has_var = any(not c.is_constant() for c in self.coeffs.values())
        return (
            self.p,
            self.finite,
            frozenset(self.coeffs.items()),
            self.var if has_var else "",
        )

    def __eq__(self, other):
        if isinstance(other, (int, TatePoly, PAdicScalar)):
            other = self._check(other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __str__(self):
        return _format_operator(self.coeffs, "0")

    def __repr__(self):
        tag = "" if self.finite else ", truncated"
        return f"DiffOp({self}{tag}, p={self.p})"


def _format_operator(coeffs: dict[int, TatePoly], if_zero: str) -> str:
    if not coeffs:
        return if_zero
    out = ""
    for n in sorted(coeffs, reverse=True):
        c = coeffs[n]
        negated = str(c).startswith("-")
        if negated:
            c = -c
        text = str(c)
        if n == 0:
            body = f"({text})" if _needs_parens(text) else text
        else:
            dpow = "d" if n == 1 else f"d^{n}"
            if c == TatePoly.one(c.p, c.var):
                body = dpow
            else:
                coef = f"({text})" if _needs_parens(text) else text
                body = f"{coef}*{dpow}"
        if not out:
            out = f"-{body}" if negated else body
        else:
            out += f" - {body}" if negated else f" + {body}"
    return out


def _needs_parens(text: str) -> bool:
    return " + " in text or " - " in text or text.startswith("-")


def commutator(P: DiffOp, Q: DiffOp) -> DiffOp:
    """The bracket P*Q - Q*P."""
    return P * Q - Q * P


class ConnectionMatrix:
    """A square matrix of polynomial functions acting as a derivation
    datum on a free module, together with the sup norm of its entries."""

    __slots__ = ("entries", "size", "p", "var")

    def __init__(self, entries, p: int, var: str = "x"):
        rows = [
            tuple(_coerce_poly(e, p, var) for e in row) for row in entries
        ]
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("connection matrix must be square")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionMatrix is immutable")

    def sup_norm(self) -> NormExp:
        return max(
            (e.gauss_norm() for row in self.entries for e in row), default=NEG_INF
        )

    def derivative(self) -> "ConnectionMatrix":
        return ConnectionMatrix(
            [[e.derivative() for e in row] for row in self.entries], self.p, self.var
        )

    def __add__(self, other: "ConnectionMatrix") -> "ConnectionMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return ConnectionMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            self.p,
            self.var,
        )

    def __mul__(self, other: "ConnectionMatrix") -> "ConnectionMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        out = [
            [
                sum(
                    (self.entries[i][k] * other.entries[k][j] for k in range(n)),
                    TatePoly.zero(self.p, self.var),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        return ConnectionMatrix(out, self.p, self.var)

    def __eq__(self, other):
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        return self.p == other.p and self.entries == other.entries

    def __hash__(self):
        return hash((self.p, self.entries))

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"ConnectionMatrix([{rows}], p={self.p})"


def connection_matrix_power(A: ConnectionMatrix, n: int) -> ConnectionMatrix:
    """Matrix of the n-th derivation power acting on a frame with
    derivative matrix A: the recursion S(1) = A, S(n+1) = S(n)' + S(n)*A.
    """
    if n < 1:
        raise ValueError("power must be at least one")
    S = A
    for _ in range(n - 1):
        S = S.derivative() + S * A
    return S


def connection_level(A: ConnectionMatrix) -> int:
    """Least nonnegative level from which the scaled derivation powers of
    the connection contract to zero: the sup norm exponent clamped at 0."""
    e = A.sup_norm()
    if e.is_neg_inf():
        return 0
    return max(0, e.exp)
