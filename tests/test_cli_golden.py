"""Byte-for-byte replay of the CLI golden corpus.

``tests/golden/cli_corpus.jsonl`` was written by
``tests/golden/make_cli_corpus.py``; every request must give the recorded
exit code and exactly the recorded stdout.
"""

import json
import pathlib

from padicdx.cli import main

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
