"""Write the CLI golden corpus, ``tests/golden/cli_corpus.jsonl``.

Each line is one request and what the command line printed for it:
``{"argv": [...], "code": <exit code>, "stdout": "<the JSON document>"}``.
The requests come from a fixed seed and cover all eleven subcommands,
commutators of order three and more, the hard certified inversion at
eps -6, -9 and -12, and malformed requests of every error kind.  Each is
run in-process through ``padicdx.cli.main``; ``tests/test_cli_golden.py``
replays the file and demands the same exit code and the same bytes.

Run it from the root of the checkout whose output is to be recorded:

    PYTHONPATH=src python tests/golden/make_cli_corpus.py [OUTPUT]
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys
from fractions import Fraction

SEED = 20250401
HARD_INVERT = (
    "(72*x^2 + 80/3*x + 1588/5)*d + (32*x - 160/3) + 896/3*d^-1 - 16*d^-2"
)
OTHER_PRIMES = (2, 3, 5, 7, 11)


def frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(coeffs, var="x") -> str:
    """Expression text of a Fraction coefficient list, ascending by degree."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
        mag = abs(c)
        body = frac_text(mag) if not mono else mono if mag == 1 else f"{frac_text(mag)}*{mono}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return head + "".join(f" {s} {b}" for s, b in terms[1:])


def op_text(data: dict, var="x") -> str:
    """Expression text of {power: coefficient list}, highest power first."""
    parts = []
    for n in sorted(data, reverse=True):
        dpow = "" if n == 0 else "d" if n == 1 else f"d^{n}"
        parts.append(f"({poly_text(data[n], var)})" + (f"*{dpow}" if dpow else ""))
    return " + ".join(parts)


class Requests:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def scalar(self, p, lo=-2, hi=2, zero_ok=True) -> Fraction:
        """A rational of valuation in [lo, hi] whose unit part mixes p with
        other primes in the denominator."""
        rng = self.rng
        if zero_ok and rng.random() < 0.2:
            return Fraction(0)
        num = rng.choice([n for n in range(1, 4 * p) if n % p])
        den = rng.choice([q for q in OTHER_PRIMES if q != p] + [1, 1])
        return rng.choice((1, -1)) * Fraction(num, den) * Fraction(p) ** rng.randint(lo, hi)

    def poly(self, p, deg, lo=-2, hi=2) -> list:
        return [self.scalar(p, lo, hi) for _ in range(deg)] + [self.scalar(p, lo, hi, False)]

    def integral_factor(self, p, deg) -> list:
        """Gauss norm one with a unit top coefficient."""
        return [self.scalar(p, 0, 2) for _ in range(deg)] + [Fraction(self.rng.choice(
            [n for n in range(1, 2 * p) if n % p]))]

    def diffop(self, p, order, deg) -> dict:
        return {n: self.poly(p, self.rng.randint(0, deg)) for n in range(order + 1)}

    def cyclic(self, p, order) -> dict:
        """An operator whose dominant coefficient is a product of integral
        factors, so its characteristic cycle has points to report."""
        lead = [Fraction(1)]
        for _ in range(self.rng.randint(1, 3)):
            f = self.integral_factor(p, self.rng.randint(1, 2))
            out = [Fraction(0)] * (len(lead) + len(f) - 1)
            for i, a in enumerate(lead):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            lead = out
        data = {n: self.poly(p, self.rng.randint(0, 2), 0, 3) for n in range(order)}
        data[order] = lead
        return data

    def microop(self, p, lo, hi, deg) -> dict:
        return {n: self.poly(p, self.rng.randint(0, deg), -1, 2) for n in range(lo, hi + 1)}

    def unit(self, p) -> dict:
        """A Laurent operator dominated by its order-zero coefficient."""
        rng = self.rng
        return {
            0: [Fraction(1) + self.scalar(p, 2, 3, False), self.scalar(p, 1, 2)],
            1: [self.scalar(p, 4, 5, False)],
            -1: [self.scalar(p, 2, 3, False)] + ([self.scalar(p, 2, 3)] if rng.random() < 0.5 else []),
        }

    def build(self) -> list:
        rng = self.rng
        out = []
        primes = (2, 3, 5, 7)
        for i in range(12):
            p = primes[i % 4]
            text = op_text(self.diffop(p, 1 + i % 4, 3))
            out.append(["norm", "-p", str(p), "-k", str(1 + i % 4), text])
            if i < 10:
                out.append(["order", "-p", str(p), "-k", str(1 + i % 3), text])
        for i in range(16):
            p = primes[i % 4]
            # half of the brackets are of order three or more
            order = 3 + i % 2 if i % 2 == 0 else 1 + i % 3
            P = op_text(self.diffop(p, order, 3))
            Q = op_text(self.diffop(p, 1 + (i // 2) % 3, 2))
            out.append(["commutator", "-p", str(p), "-k", str(1 + i % 3), P, Q])
        for i in range(14):
            p = primes[i % 4]
            lo, hi = -1 - i % 3, 1 + i % 2
            text = op_text(self.microop(p, lo, hi, 2))
            k = 2 + i % 2
            out.append(["micro-check", "-p", str(p), "-k", str(k), "-r", str(1 + i % k), text])
        for i in range(14):
            p = primes[i % 4]
            out.append(["micro-invert", "-p", str(p), "-k", "2", "-r", "1",
                        "--eps", str(-3 - i % 4), op_text(self.unit(p))])
        for eps in (-6, -9, -12):
            out.append(["micro-invert", "-p", "2", "-k", "2", "-r", "1", "--eps", str(eps),
                        HARD_INVERT])
        for i in range(12):
            p = primes[i % 4]
            out.append(["thm28", "-p", str(p), "-k", "3", "-r", str(1 + i % 3),
                        op_text(self.diffop(p, 1 + i % 3, 3))])
        for i in range(12):
            p = primes[i % 3]
            out.append(["charvar", "-p", str(p), op_text(self.cyclic(p, 1 + i % 2))])
        for cmd in ("blowup-support", "fiber-check"):
            for i in range(12):
                p = primes[i % 3]
                spec = f"c={('0', 'p', '1')[i % 3]},m={1 + i % 2}"
                out.append([cmd, "-p", str(p), "--blowup", spec,
                            op_text(self.cyclic(p, 1 + i % 2))])
        for i in range(10):
            p = primes[i % 4]
            size = 1 + i % 3
            text = "; ".join(
                ", ".join(f"({poly_text(self.poly(p, rng.randint(0, 2), -1, 2))})"
                          for _ in range(size))
                for _ in range(size)
            )
            out.append(["connection-level", "-p", str(p), text])
        for i in range(8):
            p = primes[i % 3]
            out.append(["render", "-p", str(p), "--format", ("ascii", "svg")[i % 2],
                        op_text(self.cyclic(p, 1 + i % 2))])
        text = op_text(self.diffop(3, 2, 2))
        out += [
            ["norm", "-p", "3", "(" + text],
            ["norm", "-p", "2", "x + * d"],
            ["norm", "-p", "3", "-k", "0", "d"],
            ["norm", "-p", "6", text],
            ["order", "-p", "3", "--bogus", text],
            ["micro-check", "-p", "2", "-k", "1", "-r", "3", "d"],
            ["micro-invert", "-p", "2", "--eps", "0", "d"],
            ["blowup-support", "-p", "3", text],
            ["blowup-support", "-p", "3", "--blowup", "c=x,m=1", text],
            ["norm", "-p", "3", f"({text})*d^-2"],
            ["norm", "-p", "3", "x*t*d^2"],
            ["micro-invert", "-p", "2", "x^2*d"],
            ["charvar", "-p", "2", "x - x"],
            ["thm28", "-p", "2", "0"],
            ["connection-level", "-p", "2", "d"],
            ["norm", "-p", "2", "x^²"],
        ]
        return out


def run(argv) -> tuple[int, str]:
    from padicdx.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def write(path: pathlib.Path):
    with path.open("w", encoding="utf-8") as fh:
        for argv in Requests(SEED).build():
            code, stdout = run(argv)
            fh.write(json.dumps({"argv": argv, "code": code, "stdout": stdout}) + "\n")


if __name__ == "__main__":
    default = pathlib.Path(__file__).with_name("cli_corpus.jsonl")
    write(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default)
