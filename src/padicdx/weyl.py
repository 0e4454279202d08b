"""Finite differential operators with congruence-level norms.

Operators are stored in the plain basis, as a finite map from the power of
the derivation to a polynomial coefficient.  The level-k norm weights the
n-th coefficient by k*n on the exponent scale, which is the same as
measuring coefficients in the basis scaled by the k-th uniformizer power;
one store serves every level.  Multiplication moves coefficients across
powers of the derivation with the Leibniz rule and is exactly norm
multiplicative at every level.  One integer kernel, :func:`leibniz_product`,
runs the rule for these operators and for the Laurent ones of ``micro``.
Both are one core, :class:`_Operator`, and :class:`DiffOp` is its view
with nonnegative powers of the derivation.  The public constructors are
the one place operator input is checked and coerced; results of the
kernel are built from canonical polynomials by the trusted
``_Operator._of`` without coercing them again.  Subtraction, powers and
immutability are those of the polynomials, ``padicdx.scalars._Ring``.

A truncation tag distinguishes operators whose stored window is the whole
operator from truncations of an infinite one; no arithmetic is defined on
truncated operators, and downstream analyses refuse them.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .errors import MixedPrimes, MixedVariables, TruncatedOperand, ZeroOperator
from .residue import _format_terms, _mul_into
from .scalars import NormExp, PAdicScalar, _Immutable, _Ring, _operand, is_prime
from .scalars import _fraction_valuation as _val
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


def weight(n: int, k: int, r: int) -> int:
    """Exponent weight of the n-th power of the derivation at levels (k, r):
    k*n above zero and r*n below."""
    return (k if n >= 0 else r) * n


def leibniz_product(left: dict, right: dict, p: int, var: str, floor=None) -> dict:
    """The {power: TatePoly} map of (sum b_m d^m) * (sum c_n d^n), by
    d^m c = sum_j C(m, j) c^(j) d^(m-j): up to j = m for m >= 0, else up to
    the degree of c.  Each side goes over the lcm of its denominators.  The
    derivative chain of each c_n is built once, as far as some b_m needs
    it; per b_m its scaled terms are summed for each output power on
    integer lists, then multiplied by b_m once into its row by
    ``_mul_into``.

    With ``floor=(k, r, cutoff)`` this is the short product, rounded: at
    each power n it keeps the monomials of ``truncate_below(k, r, cutoff)``
    of the full product, at the same valuations, over a power of p, and
    differs from it by norm below p^c, c = cutoff - weight(n, k, r).  Write
    c^(j) = j! c^[j]; the divided derivative c^[j] has integer-binomial
    coefficients, so with Legendre's formula for v_p(j!) the term
    C(m, j) b_m c_n^(j) has Gauss norm exponent at most
    |b_m| + |c_n| - v_p(j!).  That plus the weight of its power m + n - j
    falls as j grows, so the chain of each pair stops at its first term
    below the cutoff.  Before each product, trailing entries of the sum are
    dropped while their norm exponent plus |b_m| and the weight is below
    the cutoff.  Everything skipped is below the cutoff, so by the
    ultrametric inequality no kept monomial changes its norm.

    Each row a/den is then rounded once (the capped precision of Caruso,
    Roe and Vaccon, "Tracking p-adic precision", 2014): with v = v_p(den)
    and keep = v - c, a becomes A/p^v for the balanced residue A of
    a*(den/p^v)^-1 modulo p^(keep+1).  So each coefficient moves by norm
    at most p^(c-1), v_p(A) = v_p(a) up to keep and A = 0 beyond: the same
    monomials at the same norms.  The rounding depends only on the
    coefficient modulo p^(1-c), which nothing skipped changes, so each row
    is the rounding of the exact row whatever den is; ``_canon`` makes its
    form unique."""
    lden = math.lcm(*(b.den for b in left.values()))
    rden = math.lcm(*(c.den for c in right.values()))
    short = floor is not None
    if short:
        if not left or not right:
            return {}
        k, r, cutoff = floor
        # the norm exponent of an entry a of a sum is vr - v_p(a)
        vr = _val(rden, p)
        vfact = [0]
        for j in range(1, max(len(c.num) for c in right.values())):
            vfact.append(vfact[-1] + _val(j, p))
    # per b_m: its power, its norm exponent and its sums by output power
    rows = [(m, b._gauss_exp() if short else 0, {}) for m, b in left.items()]
    for n, c in right.items():
        chain = [c.num if c.den == rden else [a * (rden // c.den) for a in c.num]]
        cexp = c._gauss_exp() if short else 0
        for m, bexp, sums in rows:
            for j in range(m + 1 if 0 <= m < len(chain[0]) else len(chain[0])):
                key = m + n - j
                if short and bexp + cexp - vfact[j] + weight(key, k, r) < cutoff:
                    break
                if j == len(chain):
                    chain.append([i * a for i, a in enumerate(chain[-1][1:], 1)])
                coef = _gbinom(m, j)
                acc = sums.get(key)
                if acc is None:
                    sums[key] = [coef * y for y in chain[j]]
                else:
                    sums[key] = [x + coef * y for x, y in zip_longest(acc, chain[j], fillvalue=0)]
    out: dict[int, list] = {}
    for (m, bexp, sums), b in zip(rows, left.values()):
        bm = b.num if b.den == lden else [a * (lden // b.den) for a in b.num]
        for key, s in sums.items():
            if short:
                # every product of an entry of valuation above lim is below the cutoff
                lim = vr + bexp + weight(key, k, r) - cutoff
                while s and (not s[-1] or _val(s[-1], p) > lim):
                    s.pop()
                if not s:
                    continue
            _mul_into(out.setdefault(key, []), bm, s)
    den = lden * rden
    if not short:
        return {key: _canon(out.pop(key), den, p, var) for key in list(out)}
    v = _val(den, p)
    pv = p**v
    table = {}
    for key, row in out.items():
        # keep = v - c >= 0: some term of the row met the stop rule, and
        # bexp + cexp <= v, as a Gauss exponent is at most v_p of its den
        mod = p ** (v - cutoff + weight(key, k, r) + 1)
        inv, lo = pow(den // pv, -1, mod), (mod - 1) // 2
        table[key] = _canon([(a * inv + lo) % mod - lo for a in row], pv, p, var)
    return table


class _Operator(_Ring):
    """A sparse map from powers of the derivation to polynomial
    coefficients, coefficients on the left, with the ring operations and
    the truncation tag ``finite``.  Immutable.  Results of the arithmetic
    are built by the trusted :meth:`_of`."""

    __slots__ = ("coeffs", "p", "var", "finite")
    _UNDEFINED = "operation undefined on a truncated operator"

    def __new__(cls, coeffs, p: int, var: str = "x"):
        table: dict[int, TatePoly] = {}
        for n, c in dict(coeffs).items():
            table[int(n)] = _coerce_poly(c, p, var)
        return cls._of(table, p, var)

    @classmethod
    def _of(cls, table: dict, p: int, var: str, finite: bool = True):
        """An operator of this class from a {power: TatePoly} table the
        kernel built from canonical polynomials of prime p; zero
        coefficients are dropped and nothing else is checked."""
        op = object.__new__(cls)
        _SET_COEFFS(op, {n: c for n, c in table.items() if c.num})
        _SET_P(op, p)
        _SET_VAR(op, var)
        _SET_FINITE(op, finite)
        return op

    # constructors

    @classmethod
    def zero(cls, p: int, var: str = "x"):
        return cls({}, p, var)

    @classmethod
    def one(cls, p: int, var: str = "x"):
        return cls({0: 1}, p, var)

    @classmethod
    def from_poly(cls, f: TatePoly):
        return cls({0: f}, f.p, f.var)

    # structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> TatePoly:
        return self.coeffs.get(n, TatePoly.zero(self.p, self.var))

    def _require_finite(self, truncated=_UNDEFINED, zero=None):
        """Refuse a truncated operator, then the zero one if zero is given."""
        if not self.finite:
            raise TruncatedOperand(truncated)
        if zero is not None and not self.coeffs:
            raise ZeroOperator(zero)

    def _norm_exp(self, k: int, r: int):
        """The (k, r) norm exponent as a plain int; None, the exponent of
        the bottom element, for the zero operator.  No coefficient stored
        is zero."""
        return max(
            (c._gauss_exp() + weight(n, k, r) for n, c in self.coeffs.items()),
            default=None,
        )

    # arithmetic

    def _check(self, other):
        if isinstance(other, (int, PAdicScalar)):
            return type(self)({0: other}, self.p, self.var)
        if isinstance(other, TatePoly):
            other = self.from_poly(other)
        elif isinstance(other, DiffOp) and not isinstance(self, DiffOp):
            # a finite operand of a Laurent one is embedded: mixed results are Laurent
            other = self.from_diffop(other)
        if not isinstance(other, type(self)):
            return None
        if other.p != self.p:
            raise MixedPrimes("mixed primes")
        return other

    def _free_var(self):
        """The variable, or None when every coefficient is constant."""
        return self.var if any(not c.is_constant() for c in self.coeffs.values()) else None

    def _merge_var(self, other: "_Operator") -> str:
        mine, theirs = self._free_var(), other._free_var()
        if mine and theirs and mine != theirs:
            raise MixedVariables(f"mixed variables {mine!r} and {theirs!r}")
        return mine or theirs or self.var

    @_operand
    def __add__(self, other):
        self._require_finite()
        other._require_finite()
        var = self._merge_var(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, TatePoly.zero(self.p, var)) + c
        return self._of(out, self.p, var)

    __radd__ = __add__

    def __neg__(self):
        return self._of({n: -c for n, c in self.coeffs.items()}, self.p, self.var, self.finite)

    @_operand
    def __mul__(self, other):
        self._require_finite()
        other._require_finite()
        var = self._merge_var(other)
        return self._of(leibniz_product(self.coeffs, other.coeffs, self.p, var), self.p, var)

    @_operand
    def __rmul__(self, other):
        return other * self

    def __pow__(self, exp: int):
        if exp > 0:  # the first power is a product too: refuse a truncated operator
            self._require_finite()
        return super().__pow__(exp)

    def scale(self, scalar):
        table = {n: c.scale(scalar) for n, c in self.coeffs.items()}
        return self._of(table, self.p, self.var, self.finite)

    # misc

    def _eq_key(self):
        return self.p, self.finite, frozenset(self.coeffs.items()), self._free_var() or ""

    def __str__(self):
        return _format_operator(self.coeffs)

    def __repr__(self):
        tag = "" if self.finite else ", truncated"
        return f"{type(self).__name__}({self}{tag}, p={self.p})"


class DiffOp(_Operator):
    """A finite operator written as a sum of coefficients times powers of
    the derivation, coefficients on the left: the nonnegative-power view.
    """

    __slots__ = ()
    _NEGATIVE_POWER = "negative power of a finite operator"

    def __new__(cls, coeffs, p: int, var: str = "x"):
        coeffs = dict(coeffs)
        if any(n < 0 for n in coeffs):
            raise ValueError("negative powers need the Laurent ring")
        return super().__new__(cls, coeffs, p, var)

    # constructors

    @classmethod
    def derivation(cls, p: int, var: str = "x", n: int = 1) -> "DiffOp":
        return cls({n: 1}, p, var)

    @classmethod
    def truncated(cls, coeffs, p: int, var: str = "x") -> "DiffOp":
        """A truncation of an infinite operator; carries no arithmetic."""
        return cls._of(cls(coeffs, p, var).coeffs, p, var, False)

    # structure

    def degree(self) -> int:
        """Degree in the derivation; requires a finite nonzero operator."""
        self._require_finite(zero="zero operator has no degree")
        return max(self.coeffs)

    def leading_coefficient(self) -> TatePoly:
        return self.coefficient(self.degree())

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
        return NormExp(self._norm_exp(k, k))

    def order(self, k: int) -> int:
        """Largest power of the derivation attaining the level-k norm."""
        if not self.coeffs:
            raise ZeroOperator("zero operator has no order")
        if k < 0:
            raise ValueError("congruence level must be nonnegative")
        # the greatest (exponent, power) pair: the norm, then the largest power
        return max((c._gauss_exp() + k * n, n) for n, c in self.coeffs.items())[1]

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


# the slot setters of ``_of``: _Operator.__setattr__ refuses every write
_SET_COEFFS, _SET_P, _SET_VAR, _SET_FINITE = (
    getattr(_Operator, name).__set__ for name in _Operator.__slots__
)


def _format_operator(coeffs: dict[int, TatePoly]) -> str:
    pairs = []
    for n in sorted(coeffs, reverse=True):
        # a negative coefficient gives its sign to the joint
        text = str(coeffs[n])
        negative = text.startswith("-")
        if negative:
            text = str(-coeffs[n])
        coef = f"({text})" if " + " in text or " - " in text else text
        dpow = "d" if n == 1 else f"d^{n}"
        body = coef if n == 0 else dpow if text == "1" else f"{coef}*{dpow}"
        pairs.append((negative, body))
    return _format_terms(pairs)


def commutator(P: DiffOp, Q: DiffOp) -> DiffOp:
    """The bracket P*Q - Q*P."""
    return P * Q - Q * P


class ConnectionMatrix(_Immutable):
    """A square matrix of polynomial functions acting as a derivation
    datum on a free module, together with the sup norm of its entries."""

    __slots__ = ("entries", "size", "p", "var")

    def __init__(self, entries, p: int, var: str = "x"):
        if not is_prime(p):
            raise ValueError(f"{p} is not a prime")
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

    def sup_norm(self) -> NormExp:
        return NormExp(
            max((f._gauss_exp() for row in self.entries for f in row if f.num), default=None)
        )

    def derivative(self) -> "ConnectionMatrix":
        return ConnectionMatrix(
            [[e.derivative() for e in row] for row in self.entries], self.p, self.var
        )

    def _check(self, other):
        if not isinstance(other, ConnectionMatrix):
            return None
        if other.p != self.p:
            raise MixedPrimes("mixed primes")
        return other

    @_operand
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

    @_operand
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
