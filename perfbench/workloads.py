"""Seeded corpora and output checks for the four benchmark workloads.

A builder returns a :class:`Workload`, the list of operations one pass
runs in order.  Shapes (primes, orders, degrees, levels, windows) follow a
fixed schedule and the seed picks the values, so the work in a pass moves
little from seed to seed.  Every op also carries a check: the first output
of each op is checked against an independent computation (``oracle``) or
a property the method must have, and later passes must reproduce it
exactly.

Builders import padicdx when they are called, because the harness times
imports and corpus generation together as set-up.  Ops look kernel
functions up through their modules at call time, so the traced run sees
its wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction

import oracle

HARD_SEED = 0x0DD5EED  # inputs of the fixed hard cases do not depend on --seed
HARD_INVERT = (
    "(72*x^2 + 80/3*x + 1588/5)*d + (32*x - 160/3) + 896/3*d^-1 - 16*d^-2"
)

# fixed requests that let a ValueError escape cli.main()
KNOWN_FAULTS = (
    ["commutator", "-p", "2", "x", "t*d"],
    ["connection-level", "-p", "2", "x, 1; 0"],
    ["blowup-support", "-p", "2", "--blowup", "c=0,m=0", "x*d"],
    ["norm", "-p", "2", "x^²"],
)


# fiber_sum_check(P, B) is False here though the inner-chart points
# t + 1 (mult 2) and t^2 + t + 1 (mult 1) cover the 4 roots over the base
# point x: it adds plain multiplicities, not multiplicity x residue degree
FIBER_SUM_FAULT = (
    "(-28/15*x^5 + 154/15*x^4 + 156/5*x^3 - 608/5*x^2 - 528/5*x - 96/5)*d + 1"
)

# micro_unit_verdict names the first tail coefficient that does not
# contract in the order the operator's terms were given, so the same
# operator written in two orders gets two reasons
TERM_ORDER_FAULT = (
    "(-45/7*x)*d + (-33/4) + (-12/7*x^2 - 7/5)*d^-1",
    "(-12/7*x^2 - 7/5)*d^-1 + (-33/4) + (-45/7*x)*d",
)


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


class WrongAnswer(Exception):
    """A known program fault gave a wrong answer instead of raising."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


class Op:
    """One operation.  ``run`` is timed; ``canon`` turns its result into
    plain data compared across passes; ``verify`` checks that data.

    ``kind`` is "seeded" (input from --seed), "fixed" (a fixed input) or
    "hard" (the workload's fixed hard case, reported as hard_case_s).
    ``fault`` is the exception type a known program fault raises.
    ``warm`` is false for ops too slow for the untimed warm-up pass.
    """

    __slots__ = ("label", "run", "canon", "verify", "kind", "fault", "warm")

    def __init__(self, label, run, canon, verify, kind="seeded", fault=None, warm=True):
        self.label = label
        self.run = run
        self.canon = canon
        self.verify = verify
        self.kind = kind
        self.fault = fault
        self.warm = warm


class Workload:
    """The ops of one pass, the argv of the fresh-process request timed as
    spawn_ms, and checks that span several ops (``extra_check(outputs)``,
    outputs mapping op index to its canonical output)."""

    def __init__(self, name, ops, spawn_argv, extra_check=None):
        self.name = name
        self.ops = ops
        self.spawn_argv = spawn_argv
        self.extra_check = extra_check


# random inputs, as Fractions


def _scalar(rng, p, lo, hi, zero=0.12) -> Fraction:
    if zero and rng.random() < zero:
        return Fraction(0)
    num = rng.choice((1, 2, 3, 5, 7, 11))
    while num % p == 0:
        num += 1
    den = rng.choice((1, 2, 3, 5, 7))
    while den % p == 0:
        den += 1
    return rng.choice((1, -1)) * Fraction(num, den) * Fraction(p) ** rng.randint(lo, hi)


def _poly(rng, p, deg, lo, hi) -> list:
    """Exact degree ``deg``: the top coefficient is nonzero."""
    return [_scalar(rng, p, lo, hi) for _ in range(deg)] + [_scalar(rng, p, lo, hi, 0)]


def _fixed_val(rng, p, v) -> Fraction:
    """A nonzero scalar of valuation exactly v whose unit part is a small
    integer: the sizes of the numbers set much of the cost of a series."""
    u = rng.choice([n for n in range(1, 2 * p + 2) if n % p])
    return rng.choice((1, -1)) * u * Fraction(p) ** v


def _integral_factor(rng, p, deg) -> list:
    """Gauss norm one with a unit top coefficient, so its reduction mod p
    has degree ``deg``."""
    return [_scalar(rng, p, 0, 2) for _ in range(deg)] + [_scalar(rng, p, 0, 0, 0)]


# plain-data views of kernel objects, through public accessors only


def canon_poly(f) -> list:
    return [f.coefficient(i).value for i in range(f.degree() + 1)]


def canon_op(A) -> dict:
    return {n: canon_poly(A.coefficient(n)) for n in sorted(A.coeffs)}


# products


def _product_op(label, A, B, levels, kind="seeded"):
    p = A.p

    def run():
        R = A * B
        return R, [R.norm(*lv) for lv in levels]

    def canon(res):
        R, norms = res
        return canon_op(R), [e.exp for e in norms]

    def verify(c):
        prod, norms = c
        fa, fb = canon_op(A), canon_op(B)
        want = oracle.op_mul(fa, fb)
        require(prod == want, f"{label}: product differs from the oracle's")
        for lv, got in zip(levels, norms):
            k, r = lv[0], lv[-1]
            expect = oracle.add_exp(oracle.norm_exp(fa, p, k, r), oracle.norm_exp(fb, p, k, r))
            require(got == expect, f"{label}: norm at {lv} is {got}, not {expect}")
            require(oracle.norm_exp(want, p, k, r) == expect,
                    f"{label}: oracle not multiplicative")

    return Op(label, run, canon, verify, kind)


DIFF_LEVELS = ((0,), (1,), (2,), (3,))
MICRO_LEVELS = ((1, 1), (2, 2), (3, 3))


def build_products(seed: int) -> Workload:
    from padicdx import DiffOp, MicroOp, TatePoly

    rng = random.Random(seed)

    def diffop(p, degs):
        return DiffOp({n: TatePoly(_poly(rng, p, d, -3, 3), p) for n, d in enumerate(degs)}, p)

    def microop(p, lo, degs):
        return MicroOp(
            {lo + i: TatePoly(_poly(rng, p, d, -2, 2), p) for i, d in enumerate(degs)}, p
        )

    ops = []
    for p in (2, 3, 5):
        for i in range(25):
            oa, ob = divmod(i, 5)
            A = diffop(p, [(i + n) % 5 for n in range(oa + 1)])
            B = diffop(p, [(i + 2 * n + 1) % 5 for n in range(ob + 1)])
            ops.append(_product_op(f"diff p={p} orders {oa},{ob}", A, B, DIFF_LEVELS))
        for i in range(9):
            lo_a, hi_a = -(i % 3), (i // 3) % 3
            lo_b, hi_b = -((i + 1) % 3), (i // 3 + 1) % 3
            A = microop(p, lo_a, [(i + n) % 4 for n in range(hi_a - lo_a + 1)])
            B = microop(p, lo_b, [(i + 2 * n) % 4 for n in range(hi_b - lo_b + 1)])
            ops.append(_product_op(f"micro p={p} #{i}", A, B, MICRO_LEVELS))
    # the high-degree minority: 3 of 105 seeded ops, so that the 90th
    # percentile lies inside the low-degree majority, not at its edge
    ops.append(_product_op("diff p=2 degree 24", diffop(2, [24, 24]), diffop(2, [24, 24]),
                           DIFF_LEVELS))
    ops.append(_product_op("micro p=3 degree 20", microop(3, -1, [20, 20]),
                           microop(3, -1, [20, 2]), MICRO_LEVELS))
    ops.append(_product_op("diff p=5 degree 40", diffop(5, [40, 40]), diffop(5, [40, 40]),
                           DIFF_LEVELS))

    rng = random.Random(HARD_SEED)
    A, B = diffop(3, [40, 40, 40]), diffop(3, [40, 40, 40])
    ops.append(_product_op("hard: order 2, degree 40, p=3", A, B, DIFF_LEVELS, "hard"))
    spawn = ["commutator", "-p", "3", "(x^3 + 2/3*x)*d^2 + 9*x", "(1/3*x^2 - 1)*d + 5"]
    return Workload("products", ops, spawn)


# inversion


def _invert_op(label, S, k, r, eps, kind="seeded", warm=True):
    import padicdx.micro as micro

    p = S.p

    def run():
        return micro.micro_invert(S, k, r, eps)

    def canon(res):
        T, rho = res
        return canon_op(T), rho.exp

    def verify(c):
        T, rho = c
        require(rho is not None and rho < eps, f"{label}: residual {rho} not below {eps}")
        residual = oracle.op_sub_one(oracle.op_mul(canon_op(S), T))
        got = oracle.norm_exp(residual, p, k, r)
        require(got == rho, f"{label}: oracle residual exponent {got}, reported {rho}")

    return Op(label, run, canon, verify, kind, warm=warm)


def hard_invert_operator():
    from padicdx import opparse

    return opparse.to_micro_op(opparse.parse(HARD_INVERT, micro=True), 2)


N_UNITS = 96


def build_inversion(seed: int) -> Workload:
    from padicdx import InvertibleOnDisc, MicroOp, TatePoly, micro_unit_verdict

    rng = random.Random(seed)
    ops = []
    for i in range(N_UNITS):
        p = (2, 3)[i % 2]
        k = 1 + (i // 2) % 3
        r = 1 + (i // 6) % k
        q = (i // 2) % 3
        while True:
            # units of the shape in acceptance criterion 6: a dominant
            # coefficient 1 + O(p) at index q and a tail one power of p
            # below it on the window -1..1; valuations are fixed per slot,
            # since they set the length of the series
            lead = [1 + _fixed_val(rng, p, 1 + i % 3), _fixed_val(rng, p, 1 + (i // 3) % 3)]
            top = Fraction(p) ** (k * q)
            tail = Fraction(p) ** (k * q + 1)
            coeffs = {
                n: TatePoly([tail * _fixed_val(rng, p, 2 + (i + n + j) % 3) for j in range(2)], p)
                for n in range(-1, 2)
            }
            coeffs[q] = coeffs.get(q, TatePoly.zero(p)) + TatePoly([c * top for c in lead], p)
            S = MicroOp(coeffs, p)
            if isinstance(micro_unit_verdict(S, k, r), InvertibleOnDisc):
                break
        ops.append(_invert_op(f"unit p={p} k={k} r={r} q={q} #{i}", S, k, r, -6))
    S = hard_invert_operator()
    for eps in (-6, -9, -12):
        ops.append(
            _invert_op(
                f"hard case at eps {eps}", S, 2, 1, eps,
                "hard" if eps == -12 else "fixed", warm=eps == -6,
            )
        )
    spawn = ["micro-invert", "-p", "2", "-k", "2", "-r", "1", "--eps", "-6",
             "1 + 2*x + 16*d + 2*d^-1"]
    return Workload("inversion", ops, spawn)


# cycles


def _cycle_op(label, P, B, kind="seeded", fault=False):
    """``fault``: fiber_sum_check is known to answer False on this input;
    the op then fails with WrongAnswer until the fault is mended."""
    import padicdx.blowup as blowup
    import padicdx.charcycle as charcycle

    p = P.p
    order = P.degree()
    center = B.center.value
    m = B.m

    def run():
        res = (
            charcycle.char_cycle(P),
            blowup.support_on_blowup(P, B),
            blowup.fiber_sum_check(P, B),
        )
        if fault and res[2] is False:
            raise WrongAnswer(f"{label}: fiber_sum_check is False")
        return res

    def canon(res):
        cc, support, ok = res
        return cc.to_json(), [cp.to_json(mult) for cp, mult in support], ok

    def verify(c):
        cc, support, ok = c
        lead = canon_op(P)[order]
        reduction = oracle.reduce_normalized(lead, p)
        require(cc["m0"] == order, f"{label}: m0 {cc['m0']} is not the order {order}")
        product, total = [1], 0
        for v in cc["vertical"]:
            q = v["point"]
            require(oracle.is_irreducible(q, p), f"{label}: factor {q} is reducible")
            for _ in range(v["mult"]):
                product = oracle.pmul(product, q, p)
            total += v["mult"] * (len(q) - 1)
        require(total == len(reduction) - 1, f"{label}: multiplicities sum to {total}")
        require(product == oracle.pmonic(reduction, p), f"{label}: factors do not multiply back")
        require(ok is True, f"{label}: fiber_sum_check failed")
        pulled = oracle.reduce_normalized(
            oracle.compose_linear(lead, center, Fraction(p) ** m), p
        )
        product = [1]
        for pt in support:
            require(oracle.is_irreducible(pt["point"], p), f"{label}: blow-up point reducible")
            if pt["chart"] == "U1":
                for _ in range(pt["mult"]):
                    product = oracle.pmul(product, pt["point"], p)
        require(product == oracle.pmonic(pulled, p),
                f"{label}: inner chart points do not multiply back")

    return Op(label, run, canon, verify, kind, WrongAnswer if fault else None)


FACTOR_DEGREES = (1, 3, 1, 2, 4, 1, 2, 1, 3, 2, 1, 4)
REPEATED = (2, 6, 9)  # positions in FACTOR_DEGREES that repeat the factor before


def _cycle_operator(rng, p, order, rdeg, center):
    """Order ``order``; the dominant coefficient is a product of random
    factors whose reductions have total degree ``rdeg``, some repeated,
    times a unit of the disc and a scalar.

    Every root near the blow-up centre is rational: the linear factors
    put roots at centre + unit * p^v for v in 0..3, and the factors of
    higher degree have a unit constant term (centres here reduce to 0),
    so all their roots lie off the centre.  A point of residue degree
    above one over the centre makes fiber_sum_check fail, and a seeded
    failure would not be the same share of every run; the fixed op built
    from FIBER_SUM_FAULT shows that fault instead.
    """
    from padicdx import DiffOp, PAdicScalar, TatePoly

    factors = []
    left, pos = rdeg, 0
    while left:
        e = min(left, FACTOR_DEGREES[pos % len(FACTOR_DEGREES)])
        if pos in REPEATED and len(factors[-1]) - 1 <= left:
            f = factors[-1]
        elif e == 1:
            f = [-(center + _fixed_val(rng, p, pos % 4)), Fraction(1)]
        else:
            f = [_fixed_val(rng, p, 0)] + _integral_factor(rng, p, e)[1:]
        factors.append(f)
        left -= len(f) - 1
        pos += 1
    lead = TatePoly([1, p * rng.randint(1, p)], p).scale(
        PAdicScalar(_scalar(rng, p, -2, 2, 0), p)
    )
    for f in factors:
        lead = lead * TatePoly(f, p)
    coeffs = {n: TatePoly(_poly(rng, p, (n + rdeg) % 4, -1, 3), p) for n in range(order)}
    coeffs[order] = lead
    return DiffOp(coeffs, p)


def build_cycles(seed: int) -> Workload:
    from padicdx import BlowupModel, PAdicScalar, opparse

    rng = random.Random(seed)
    ops, operators, pairs = [], [], []
    for p in (2, 3, 5, 7):
        first = len(ops)
        for j, rdeg in enumerate(2 * list(range(3, 17))):
            center = 0 if j % 2 == 0 else p
            P = _cycle_operator(rng, p, 1 + j % 3, rdeg, center)
            B = BlowupModel(PAdicScalar(center, p), 1 + (j // 2) % 2)
            ops.append(_cycle_op(f"cycle p={p} reduction degree {rdeg}", P, B))
            operators.append(P)
        pairs.append((first, first + 1))
    rng = random.Random(HARD_SEED)
    P = _cycle_operator(rng, 7, 2, 16, 7)
    B = BlowupModel(PAdicScalar(7, 7), 2)
    ops.append(_cycle_op("hard: degree-16 reduction, p=7", P, B, "hard"))
    P = opparse.to_diff_op(opparse.parse(FIBER_SUM_FAULT, micro=False), 2)
    B = BlowupModel(PAdicScalar(0, 2), 1)
    ops.append(_cycle_op("fiber_sum_check fault, p=2", P, B, "fixed", fault=True))

    def extra_check(outputs):
        # additivity of the cycle on products: cc(P*Q) = cc(P) + cc(Q)
        from padicdx import cc_add, char_cycle

        for a, b in pairs:
            P, Q = operators[a], operators[b]
            left = char_cycle(P * Q).to_json()
            right = cc_add(char_cycle(P), char_cycle(Q)).to_json()
            require(left == right, f"cycle of the product of ops {a}, {b} is not additive")
            require(right["m0"] == outputs[a][0]["m0"] + outputs[b][0]["m0"], "m0 not additive")

    spawn = ["fiber-check", "-p", "3", "--blowup", "c=0,m=1", "(x^3 - 9*x)*d^2 + 3*x*d + 1"]
    return Workload("cycles", ops, spawn, extra_check)


# cli


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_text(c: list, var: str = "x") -> str:
    """Expression text of a nonzero Fraction polynomial."""
    terms = []
    for i in range(len(c) - 1, -1, -1):
        x = c[i]
        if not x:
            continue
        mag = abs(x)
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        body = _frac_text(mag) if not mono else mono if mag == 1 else f"{_frac_text(mag)}*{mono}"
        terms.append(("-" if x < 0 else "+", body))
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return head + "".join(f" {sign} {body}" for sign, body in terms[1:])


def op_text(data: dict) -> str:
    parts = []
    for n in sorted(data, reverse=True):
        dpow = "" if n == 0 else "d" if n == 1 else f"d^{n}"
        parts.append(f"({poly_text(data[n])})" + (f"*{dpow}" if dpow else ""))
    return " + ".join(parts)


class _CliCase:
    """One request: argv, the exit code it must give, and ``want``, which
    builds the whole document it must print from direct kernel calls."""

    def __init__(self, argv, code, want=None, error=None, kind="seeded"):
        self.argv = argv
        self.code = code
        self.want = want
        self.error = error
        self.kind = kind


def run_main(argv) -> tuple[int, str]:
    import padicdx.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def load_validator(root):
    import jsonschema

    schema = json.loads((root / "src" / "padicdx" / "cli_schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def check_document(validator, label, text) -> dict:
    try:
        doc = json.loads(text)
    except ValueError:
        raise CheckFailed(f"{label}: stdout is not exactly one JSON document") from None
    errors = list(validator.iter_errors(doc))
    require(not errors, f"{label}: document fails the schema: {errors[:1]}")
    return doc


def _cli_op(case: _CliCase, validator):
    label = " ".join(case.argv)

    def verify(c):
        code, text = c
        doc = check_document(validator, label, text)
        if case.code is None:
            # a known fault that has been mended must give an error document
            require(code in (1, 2) and "error" in doc, f"{label}: mended fault gives {code}")
            return
        require(code == case.code, f"{label}: exit code {code}, expected {case.code}")
        if case.error:
            require(doc["error"]["type"] == case.error, f"{label}: error {doc['error']['type']}")
        if case.want:
            _document(doc, case.want(), label)

    fault = ValueError if case.code is None else None
    return Op(label, lambda: run_main(case.argv), lambda res: res, verify, case.kind, fault)


def _document(doc, want: dict, label: str):
    """The document must hold exactly the fields of ``want``, with equal
    values."""
    require(sorted(doc) == sorted(want), f"{label}: fields {sorted(doc)}, not {sorted(want)}")
    for key, value in want.items():
        require(doc[key] == value, f"{label}: {key} is {doc[key]!r}, kernel says {value!r}")


def _exp(e):
    return None if e.is_neg_inf() else e.exp


def _verdict(v) -> dict:
    """A verdict's tag and fields, a residue polynomial as coefficients
    and label."""
    out = {"verdict": v.tag}
    for field in dataclasses.fields(v):
        value = getattr(v, field.name)
        if hasattr(value, "coeffs"):
            value = {"coeffs": list(value.coeffs), "label": str(value)}
        out[field.name] = value
    return out


def _cli_cases(seed: int) -> list:
    import padicdx as px

    rng = random.Random(seed)

    def diff_data(p, order, deg, lo=-2, hi=3):
        return {n: _poly(rng, p, (deg + n) % (deg + 1), lo, hi) for n in range(order + 1)}

    def diffop(p, data):
        return px.DiffOp({n: px.TatePoly(c, p) for n, c in data.items()}, p)

    def microop(p, data):
        return px.MicroOp({n: px.TatePoly(c, p) for n, c in data.items()}, p)

    def cycle_data(p, order):
        lead = [Fraction(1)]
        for _ in range(3):
            lead = oracle.poly_mul(lead, _integral_factor(rng, p, rng.randint(1, 2)))
        data = diff_data(p, order - 1, 2, 0, 3)
        data[order] = lead
        return data

    cases = []
    for i in range(6):
        p = (2, 3, 5)[i % 3]
        k = 1 + i % 3
        data = diff_data(p, 1 + i, 3)
        P = diffop(p, data)
        for cmd in ("norm", "order"):
            cases.append(_CliCase(
                [cmd, "-p", str(p), "-k", str(k), op_text(data)], 0,
                lambda P=P, p=p, k=k, c=cmd: {
                    "command": c, "prime": p, "level": k,
                    "norm_exp": _exp(P.norm(k)), "order": P.order(k)}))

        qdata = diff_data(p, 2 - i % 2, 2)

        def commutator(P=P, Q=diffop(p, qdata), p=p):
            C = px.commutator(P, Q)
            return {"command": "commutator", "prime": p, "level": 2, "result": str(C),
                    "norm_exp": _exp(C.norm(2))}

        cases.append(_CliCase(["commutator", "-p", str(p), op_text(data), op_text(qdata)], 0,
                              commutator))

        # the kernel's operator takes its terms in the order op_text writes
        # them, highest power first; on another order the reason can differ
        # (TERM_ORDER_FAULT)
        mdata = {n: _poly(rng, p, (n + 3) % 3, -1, 2) for n in range(1, -2 - i % 2, -1)}
        cases.append(_CliCase(
            ["micro-check", "-p", str(p), "-k", "2", "-r", "1", op_text(mdata)], 0,
            lambda S=microop(p, mdata), p=p: _micro_check_document(S, p)))

        while True:
            udata = {
                0: [1 + _fixed_val(rng, p, 2), _fixed_val(rng, p, 1)],
                1: [_fixed_val(rng, p, 4)],
                -1: [_fixed_val(rng, p, 2)],
            }
            U = microop(p, udata)
            if isinstance(px.micro_unit_verdict(U, 2, 1), px.InvertibleOnDisc):
                break

        def micro_invert(U=U, p=p):
            T, rho = px.micro_invert(U, 2, 1, -4)
            return {"command": "micro-invert", "prime": p, "k": 2, "r": 1, "eps_exp": -4,
                    "inverse": str(T), "residual_exp": _exp(rho)}

        cases.append(_CliCase(["micro-invert", "-p", str(p), "-k", "2", "-r", "1", "--eps", "-4",
                               op_text(udata)], 0, micro_invert))

        r = 1 + i % 2
        cases.append(_CliCase(
            ["thm28", "-p", str(p), "-r", str(r), op_text(data)], 0,
            lambda P=P, p=p, r=r: {"command": "thm28", "prime": p, "r": r,
                                   **_verdict(px.finite_order_verdict(P, r))}))

        cdata = cycle_data(p, 1 + i % 2)
        Pc = diffop(p, cdata)
        cases.append(_CliCase(
            ["charvar", "-p", str(p), op_text(cdata)], 0,
            lambda P=Pc, p=p: {"command": "charvar", "prime": p, **px.char_cycle(P).to_json(),
                               "rmin": px.infinite_support(P).rmin}))

        B = px.BlowupModel(px.PAdicScalar(0 if i % 2 else p, p), 1 + i % 2)
        spec = f"c={'0' if i % 2 else 'p'},m={B.m}"
        blowup_json = {"c": str(B.center), "m": B.m}
        cases.append(_CliCase(
            ["blowup-support", "-p", str(p), "--blowup", spec, op_text(cdata)], 0,
            lambda P=Pc, B=B, p=p, bj=blowup_json: {
                "command": "blowup-support", "prime": p, "blowup": bj,
                "points": [cp.to_json(m) for cp, m in px.support_on_blowup(P, B)]}))
        cases.append(_CliCase(
            ["fiber-check", "-p", str(p), "--blowup", spec, op_text(cdata)], 0,
            lambda P=Pc, B=B, p=p: _fiber_document(P, B, p)))

        entries = [[_poly(rng, p, (a + b + i) % 3, -1, 2) for b in range(2)] for a in range(2)]
        A = px.ConnectionMatrix([[px.TatePoly(e, p) for e in row] for row in entries], p)
        text = "; ".join(", ".join(f"({poly_text(e)})" for e in row) for row in entries)
        cases.append(_CliCase(
            ["connection-level", "-p", str(p), text], 0,
            lambda A=A, p=p: {"command": "connection-level", "prime": p,
                              "level": px.connection_level(A),
                              "sup_norm_exp": _exp(A.sup_norm())}))

        fmt = ("ascii", "svg")[i % 2]
        cases.append(_CliCase(
            ["render", "-p", str(p), "--format", fmt, op_text(cdata)], 0,
            lambda P=Pc, p=p, f=fmt: {"command": "render", "prime": p, "format": f,
                                      "rendering": px.render_cc(px.char_cycle(P), f),
                                      "plot_path": None}))

    # malformed requests: each must give an error document
    text = op_text(diff_data(3, 2, 2))
    cut = rng.randint(1, len(text) - 1)
    cases += [
        _CliCase(["norm", "-p", "3", "(" + text[:cut]], 1, error="ParseError"),
        _CliCase(["norm", "-p", "3", "-k", "0", text], 1, error="ConfigError"),
        _CliCase(["norm", "-p", str(rng.choice((4, 6, 9))), text], 1, error="ConfigError"),
        _CliCase(["order", "-p", "3", "--bogus", text], 1, error="ConfigError"),
        _CliCase(["blowup-support", "-p", "3", text], 1, error="ConfigError"),
        _CliCase(["norm", "-p", "3", f"({text})*d^-{rng.randint(1, 3)}"], 1,
                 error="NegativePowerOutsideMicroMode"),
        _CliCase(["norm", "-p", "3", f"x*t*d^{rng.randint(1, 3)}"], 1, error="MixedVariables"),
        _CliCase(["micro-invert", "-p", "2", f"x^{rng.randint(1, 3)}*d"], 2,
                 error="NotInvertibleHere"),
    ]
    cases += [_CliCase(list(argv), None, kind="fixed") for argv in KNOWN_FAULTS]
    return cases


def _micro_check_document(S, p) -> dict:
    import padicdx as px

    return {"command": "micro-check", "prime": p, "k": 2, "r": 1,
            "canonical": S.canonical_form_json(2, 1),
            **_verdict(px.micro_unit_verdict(S, 2, 1))}


def _term_order_op(validator):
    """micro-check on one operator written in two term orders: the two
    documents must be equal, and it fails with WrongAnswer while they are
    not."""
    import padicdx as px

    argvs = [["micro-check", "-p", "3", "-k", "2", "-r", "1", text] for text in TERM_ORDER_FAULT]
    S = px.MicroOp({1: px.TatePoly([0, Fraction(-45, 7)], 3), 0: px.TatePoly([Fraction(-33, 4)], 3),
                    -1: px.TatePoly([Fraction(-7, 5), 0, Fraction(-12, 7)], 3)}, 3)
    op = _cli_op(_CliCase(argvs[0], 0, lambda: _micro_check_document(S, 3), kind="fixed"),
                 validator)

    def run():
        res = run_main(argvs[0])
        if run_main(argvs[1]) != res:
            raise WrongAnswer(f"{op.label}: the other term order gives another document")
        return res

    op.run, op.fault = run, WrongAnswer
    return op


def _fiber_document(P, B, p) -> dict:
    import padicdx as px

    return {
        "command": "fiber-check", "prime": p, "blowup": {"c": str(B.center), "m": B.m},
        "ok": px.fiber_sum_check(P, B),
        "base": [[pt.label(), mult] for pt, mult in px.infinite_support(P).points],
        "blowup_points": [[cp.point.label(), mult] for cp, mult in px.support_on_blowup(P, B)],
        "m0_preserved": px.pull_operator_u1(P, B, max(2, B.m)).degree() == P.degree(),
    }


def _cli_hard_case():
    import padicdx as px

    rng = random.Random(HARD_SEED)
    lead = [Fraction(1)]
    for _ in range(4):
        lead = oracle.poly_mul(lead, _integral_factor(rng, 7, 3))
    data = {0: _poly(rng, 7, 2, 0, 2), 1: _poly(rng, 7, 3, 0, 2), 2: lead}
    P = px.DiffOp({n: px.TatePoly(c, 7) for n, c in data.items()}, 7)
    B = px.BlowupModel(px.PAdicScalar(7, 7), 2)
    return _CliCase(["fiber-check", "-p", "7", "--blowup", "c=p,m=2", op_text(data)], 0,
                    lambda: _fiber_document(P, B, 7), kind="hard")


def build_cli(seed: int, validator) -> Workload:
    import padicdx.cli  # noqa: F401  (set-up includes the CLI import)

    cases = _cli_cases(seed) + [_cli_hard_case()]
    ops = [_cli_op(case, validator) for case in cases] + [_term_order_op(validator)]
    return Workload("cli", ops, ["norm", "-p", "2", "d"])
