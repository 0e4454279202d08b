"""Byte-for-byte replay of the CLI golden corpus.

``tests/golden/cli_corpus.jsonl`` was written by
``tests/golden/make_cli_corpus.py``; every request must give the recorded
exit code and exactly the recorded stdout.
"""

import json
import pathlib

from padicdx.cli import main
from padicdx.opparse import parse, to_micro_op
from helpers import frac_add, frac_op, frac_op_mul, frac_op_norm

CORPUS = pathlib.Path(__file__).parent / "golden" / "cli_corpus.jsonl"


def test_cli_golden_corpus(capsys):
    cases = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(cases) >= 150
    commands = {case["argv"][0] for case in cases}
    assert len(commands) == 11
    differ = []
    for case in cases:
        code = main(case["argv"])
        out = capsys.readouterr().out
        if (code, out) != (case["code"], case["stdout"]):
            differ.append(case["argv"])
    assert not differ, f"{len(differ)} requests differ, first: {differ[0]}"


def test_micro_invert_corpus_residuals():
    # every recorded inverse, read back from its text, has the recorded
    # residual exponent by the Fraction oracle, and it is below the target
    cases = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    checked = 0
    for case in cases:
        if case["argv"][0] != "micro-invert" or case["code"] != 0:
            continue
        doc = json.loads(case["stdout"])
        p, k, r = doc["prime"], doc["k"], doc["r"]
        S = frac_op(to_micro_op(parse(case["argv"][-1], micro=True), p).coeffs)
        T = frac_op(to_micro_op(parse(doc["inverse"], micro=True), p).coeffs)
        residual = frac_op_mul(S, T)
        residual[0] = frac_add(residual.get(0, []), [-1])
        assert frac_op_norm(residual, p, k, r) == doc["residual_exp"], case["argv"]
        assert doc["residual_exp"] is None or doc["residual_exp"] < doc["eps_exp"]
        checked += 1
    assert checked >= 16
