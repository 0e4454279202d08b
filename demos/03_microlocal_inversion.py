"""The Laurent rings where the derivation becomes invertible.

Negative powers of the derivation act on functions through a finite
alternating expansion, so products stay exact; the only truncated
computation is the inverse.  Newton's iteration finds it, each step
doubling the precision; the short products of a step are rounded to
the precision the target needs, and the inverse comes with its residual
norm recomputed exactly.
Run with: python demos/03_microlocal_inversion.py
"""

from padicdx import (
    DiffOp,
    MicroOp,
    PAdicScalar,
    TatePoly,
    finite_order_verdict,
    micro_invert,
    micro_unit_verdict,
)

p = 2
w = PAdicScalar.uniformizer_power
x = TatePoly.variable(p)

print("== the inverse derivation acting on functions ==")
dinv = MicroOp.d_power(-1, p)
print(f"d^-1 * x   = {dinv * MicroOp.from_poly(x)}")
print(f"d^-1 * x^2 = {dinv * MicroOp.from_poly(x * x)}")
print(f"d * d^-1   = {MicroOp.d_power(1, p) * dinv}")

print()
print("== canonical form at a level pair ==")
S = MicroOp({1: 1, -1: 1}, p)  # d + d^-1
for n, a in S.canonical_form(2, 1):
    print(f"  power {n}: scaled coefficient {a}")
print(f"norm at (k, r) = (2, 1): {S.norm(2, 1)}")

print()
print("== unit verdicts ==")
print(f"pi^2 d at (2,1):   {micro_unit_verdict(MicroOp({1: w(p, 2)}, p), 2, 1)}")
print(f"x d at (1,1):      {micro_unit_verdict(MicroOp({1: x}, p), 1, 1)}")
print(f"d + d^-1 at (2,1): {micro_unit_verdict(S, 2, 1)}")

print()
print("== certified inversion ==")
T, rho = micro_invert(S, 2, 1, -6)
print(f"(d + d^-1)^-1 up to p^-6: {T}")
print(f"residual norm, recomputed exactly: {rho}")
check = (S * T - 1).norm(2, 1)
print(f"independent check |S T - 1| = {check}")

print()
print("== finite operators seen microlocally ==")
for src, P in (
    ("x d - 1", DiffOp({1: x, 0: -1}, p)),
    ("d - 1", DiffOp({1: 1, 0: -1}, p)),
    ("d - p^-3", DiffOp({1: 1, 0: w(p, -3)}, p)),
):
    print(f"  {src}: {finite_order_verdict(P, 1)}")
