import random

import pytest

from padicdx import (
    ConnectionMatrix,
    DiffOp,
    NormExp,
    PAdicScalar,
    TatePoly,
    TruncatedOperand,
    ZeroOperator,
    commutator,
    connection_level,
    connection_matrix_power,
)
from helpers import naive_apply, rand_diffop, rand_poly


def d(p, n=1):
    return DiffOp.derivation(p, n=n)


def x(p):
    return DiffOp.from_poly(TatePoly.variable(p))


def test_leibniz_products():
    p = 2
    assert d(p) * x(p) == x(p) * d(p) + 1
    assert d(p, 2) * x(p) == x(p) * d(p, 2) + d(p).scale(2)
    xd = x(p) * d(p)
    assert xd * xd == x(p) ** 2 * d(p, 2) + xd


def test_product_against_action_oracle():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(40):
            P = rand_diffop(rng, p, max_dd=3, max_dx=3)
            Q = rand_diffop(rng, p, max_dd=3, max_dx=3)
            f = rand_poly(rng, p, max_deg=5)
            assert naive_apply(P * Q, f) == naive_apply(P, naive_apply(Q, f))


def test_product_structure():
    rng = random.Random(23)
    p = 3
    for _ in range(30):
        P = rand_diffop(rng, p, nonzero=True)
        Q = rand_diffop(rng, p, nonzero=True)
        R = P * Q
        assert R.degree() == P.degree() + Q.degree()
        assert (
            R.leading_coefficient()
            == P.leading_coefficient() * Q.leading_coefficient()
        )
        S = rand_diffop(rng, p, max_dd=2, max_dx=2)
        assert (P * Q) * S == P * (Q * S)


def test_norm_level_examples():
    p = 2
    assert d(p).norm(2) == NormExp(2)
    assert x(p).norm(0) == NormExp(0)
    assert x(p).norm(3) == NormExp(0)
    assert d(p).scale(p).norm(1) == NormExp(0)


def test_order_level_examples():
    p = 2
    P = d(p, 2).scale(p) + d(p)
    assert P.order(1) == 2
    assert P.order(0) == 1
    f = DiffOp.from_poly(rand_poly(random.Random(1), p, nonzero=True))
    assert f.order(3) == 0
    with pytest.raises(ZeroOperator):
        DiffOp.zero(p).order(1)


def test_order_scalar_invariance_and_large_level():
    rng = random.Random(31)
    for p in (2, 3):
        for _ in range(40):
            P = rand_diffop(rng, p, nonzero=True)
            c = PAdicScalar.uniformizer_power(p, rng.randint(-3, 3)) * rng.choice(
                [1, 3, -1]
            )
            for k in (0, 1, 2):
                assert P.scale(c).order(k) == P.order(k)
            # at a level beyond every cross-coefficient norm gap the order
            # is the degree in the derivation
            exps = [
                c.gauss_norm().exp for c in P.coeffs.values() if not c.is_zero()
            ]
            big = max(exps) - min(exps) + 1
            assert P.order(big) == P.degree()


def test_commutator_examples():
    p = 2
    assert commutator(d(p), x(p)) == DiffOp.one(p)
    assert commutator(d(p), x(p) ** 2) == DiffOp.from_poly(
        TatePoly.variable(p).scale(2)
    )
    assert commutator(x(p) * d(p), d(p)) == -d(p)


def test_norm_multiplicative_every_level():
    rng = random.Random(47)
    for p in (2, 3, 5):
        for _ in range(40):
            P = rand_diffop(rng, p, nonzero=True)
            Q = rand_diffop(rng, p, nonzero=True)
            for k in (0, 1, 2, 3):
                assert (P * Q).norm(k) == P.norm(k) + Q.norm(k)


def test_quasi_abelian_bound():
    rng = random.Random(53)
    best = {1: None, 2: None}
    for p in (2, 3, 5):
        for _ in range(40):
            P = rand_diffop(rng, p, nonzero=True)
            Q = rand_diffop(rng, p, nonzero=True)
            C = commutator(P, Q)
            for r in (1, 2):
                bound = P.norm(r) + Q.norm(r) + (-r)
                got = C.norm(r)
                assert got <= bound
                if not got.is_neg_inf():
                    gap = got.exp - (P.norm(r).exp + Q.norm(r).exp)
                    if best[r] is None or gap > best[r]:
                        best[r] = gap
    # the bound is attained: the bracket of the derivation with the
    # coordinate has norm exactly p^-r relative to the factors
    assert best[1] == -1
    assert best[2] == -2


def test_truncated_operators_refuse_arithmetic():
    p = 2
    T = DiffOp.truncated({0: 1, 1: 1}, p)
    with pytest.raises(TruncatedOperand):
        T * T
    with pytest.raises(TruncatedOperand):
        T + T
    with pytest.raises(TruncatedOperand):
        T.degree()
    with pytest.raises(TruncatedOperand):
        T.apply(TatePoly.variable(p))


def test_apply():
    p = 2
    P = x(p) * d(p) - 1
    f = TatePoly.variable(p)
    assert P.apply(f).is_zero()


def test_is_disc_unit():
    p = 2
    assert DiffOp.one(p).is_disc_unit()
    assert DiffOp.from_poly(
        TatePoly.constant(PAdicScalar.uniformizer_power(p, 3), p)
    ).is_disc_unit()
    assert not x(p).is_disc_unit()
    assert not d(p).is_disc_unit()
    assert not DiffOp.zero(p).is_disc_unit()


def test_connection_matrix_power_examples():
    p = 2
    zero = ConnectionMatrix([[0]], p)
    assert connection_matrix_power(zero, 5) == zero
    A = ConnectionMatrix([[TatePoly.variable(p)]], p)
    S2 = connection_matrix_power(A, 2)
    assert S2 == ConnectionMatrix([[TatePoly([1, 0, 1], p)]], p)
    lam = PAdicScalar(7, p)
    const = ConnectionMatrix([[lam]], p)
    assert connection_matrix_power(const, 3) == ConnectionMatrix([[lam**3]], p)


def test_connection_level_examples():
    p = 2
    assert connection_level(ConnectionMatrix([[PAdicScalar(2, p)]], p)) == 0
    assert connection_level(ConnectionMatrix([[PAdicScalar(0.5, p)]], p)) == 1
    assert connection_level(ConnectionMatrix([[0]], p)) == 0


def test_connection_power_norm_bound():
    rng = random.Random(61)
    for p in (2, 3):
        for _ in range(15):
            size = rng.choice([1, 2])
            A = ConnectionMatrix(
                [
                    [rand_poly(rng, p, max_deg=2, val_range=(-2, 2)) for _ in range(size)]
                    for _ in range(size)
                ],
                p,
            )
            level = connection_level(A)
            for n in (1, 2, 3, 4):
                Sn = connection_matrix_power(A, n)
                assert Sn.sup_norm() <= NormExp(n * level)


def _binomial_rows(B, A, n, p):
    """Sum of C(n, j) * B^(j) * S_(n-j)(A), the derivative expansion of the
    n-th power acting on a transformed frame."""
    import math

    out = None
    for j in range(n + 1):
        Bj = B
        for _ in range(j):
            Bj = Bj.derivative()
        Sj = (
            connection_matrix_power(A, n - j)
            if n - j >= 1
            else ConnectionMatrix(
                [
                    [1 if i == l else 0 for l in range(A.size)]
                    for i in range(A.size)
                ],
                p,
            )
        )
        scaled = ConnectionMatrix(
            [[e.scale(math.comb(n, j)) for e in row] for row in (Bj * Sj).entries], p
        )
        out = scaled if out is None else out + scaled
    return out


def test_connection_basis_change_invariance():
    # for an exactly invertible frame change B, the recursion applied to
    # the transformed matrix satisfies S_n(A') B = sum C(n,j) B^(j) S_(n-j)(A)
    p = 2
    f = TatePoly.variable(p) ** 2 + 1

    # 1x1 with a constant frame change
    A1 = ConnectionMatrix([[TatePoly.variable(p)]], p)
    B1 = ConnectionMatrix([[PAdicScalar(3, p)]], p)
    A1p = A1  # derivative of a constant vanishes and scalars commute
    for n in (1, 2, 3):
        lhs = connection_matrix_power(A1p, n) * B1
        rhs = _binomial_rows(B1, A1, n, p)
        assert lhs == rhs

    # 2x2 elementary frame change, exact polynomial inverse
    A = ConnectionMatrix(
        [[TatePoly.variable(p), 1], [0, TatePoly.variable(p).scale(2)]], p
    )
    B = ConnectionMatrix([[1, f], [0, 1]], p)
    Binv = ConnectionMatrix([[1, -f], [0, 1]], p)
    Ap = (B.derivative() + B * A) * Binv
    for n in (1, 2, 3):
        lhs = connection_matrix_power(Ap, n) * B
        rhs = _binomial_rows(B, A, n, p)
        assert lhs == rhs


def test_printing():
    p = 2
    P = x(p) * d(p, 2).scale(-1) + d(p) + 3
    assert str(P) == "-x*d^2 + d + 3"


def test_mixed_variables_is_a_kernel_error_and_a_value_error():
    from padicdx import KernelError, MicroOp, MixedVariables

    p = 2
    P = x(p)
    Q = DiffOp.from_poly(TatePoly.variable(p, "t")) * d(p)
    for a, b in ((P, Q), (MicroOp.from_diffop(P), MicroOp.from_diffop(Q))):
        with pytest.raises(MixedVariables):
            a * b
        with pytest.raises(ValueError):
            a + b
    with pytest.raises(KernelError):
        TatePoly.variable(p) * TatePoly.variable(p, "t")


def test_mixed_primes_diff_op():
    from padicdx import KernelError, MixedPrimes

    for other in (d(3), TatePoly.variable(3)):
        with pytest.raises(MixedPrimes, match="mixed primes") as info:
            x(2) * other
        assert isinstance(info.value, KernelError) and isinstance(info.value, ValueError)
    with pytest.raises(MixedPrimes):
        DiffOp({1: TatePoly.variable(3)}, 2)
