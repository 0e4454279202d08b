"""The CLI's subcommand table: names, help, expression counts, and the
module globals the handlers call.

``tests/golden/cli_help.json`` holds what ``padicdx --help`` and
``padicdx <name> --help`` print at 80 columns, keyed by the subcommand
name ("" for the top level).  It was written by this loop, run in-process:

    for name in ["", *names]:
        main([name, "--help"] if name else ["--help"])  # stdout is the text
"""

import argparse
import json
import pathlib

import pytest

import padicdx.cli as cli
from padicdx import MicroOp, NormExp

ROOT = pathlib.Path(__file__).parents[1]
HELP = json.loads((ROOT / "tests" / "golden" / "cli_help.json").read_text())

# (name, help line, expression count), in the order --help lists them
SUBCOMMANDS = [
    ("norm", "level-k norm and order of a finite operator", 1),
    ("order", "order of a finite operator at level k", 1),
    ("commutator", "bracket of two finite operators", 2),
    ("micro-check", "unit test in the (k, r) Laurent ring", 1),
    ("micro-invert", "certified inverse in the (k, r) Laurent ring", 1),
    ("thm28", "microlocal invertibility of a finite operator at level r", 1),
    ("charvar", "characteristic cycle of a cyclic module", 1),
    ("blowup-support", "support on the blow-up charts", 1),
    ("fiber-check", "multiplicity bookkeeping across a blow-up", 1),
    ("connection-level", "least level at which a connection converges", 1),
    ("render", "draw the characteristic cycle", 1),
]
NAMES = [name for name, _, _ in SUBCOMMANDS]


def _subparsers(parser) -> argparse._SubParsersAction:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_parser_registers_every_subcommand():
    action = _subparsers(cli.build_parser())
    helps = {choice.dest: choice.help for choice in action._choices_actions}
    found = []
    for name, sub in action.choices.items():
        (expr,) = [a for a in sub._actions if a.dest == "expr"]
        found.append((name, helps[name], expr.nargs))
    assert found == SUBCOMMANDS


def test_table_rows():
    assert [(name, help_line, n) for name, (_, n, help_line) in cli.COMMANDS.items()] == (
        SUBCOMMANDS
    )
    assert cli.COMMANDS["norm"][0] is cli.COMMANDS["order"][0]


@pytest.mark.parametrize("name", ["", *NAMES])
def test_help_text_is_pinned(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([name, "--help"] if name else ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP[name]


def test_names_match_schema_and_golden_corpus():
    schema = json.loads((ROOT / "src" / "padicdx" / "cli_schema.json").read_text())
    in_schema = set()
    for definition in schema["$defs"].values():
        command = definition.get("properties", {}).get("command")
        if command:
            in_schema.update(command.get("enum", [command.get("const")]))
    corpus = ROOT / "tests" / "golden" / "cli_corpus.jsonl"
    in_corpus = {json.loads(line)["argv"][0] for line in corpus.read_text().splitlines()}
    assert in_schema == in_corpus == set(NAMES) == set(HELP) - {""}


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_micro_invert_is_looked_up_on_the_module(capsys, monkeypatch):
    calls = []

    def fake(S, k, r, eps_exp):
        calls.append((str(S), k, r, eps_exp))
        return MicroOp.d_power(-1, S.p, S.var), NormExp(None)

    monkeypatch.setattr(cli, "micro_invert", fake)
    code, doc = _run(capsys, "micro-invert", "-p", "3", "--eps", "-5", "d")
    assert code == 0
    assert calls == [("d", 2, 1, -5)]
    assert doc["inverse"] == "d^-1" and doc["residual_exp"] is None


def test_support_on_blowup_is_looked_up_on_the_module(capsys, monkeypatch):
    calls = []

    def fake(P, B):
        calls.append((str(P), B.m))
        return []

    monkeypatch.setattr(cli, "support_on_blowup", fake)
    code, doc = _run(capsys, "blowup-support", "-p", "2", "--blowup", "c=0,m=2", "x*d")
    assert code == 0
    assert calls == [("x*d", 2)]
    assert doc["points"] == []
