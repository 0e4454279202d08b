import json
import pathlib
import time

import jsonschema
import pytest

from padicdx.cli import SessionConfig, main, parse_blowup_spec
from padicdx import ConfigError, PAdicScalar

SCHEMA = json.loads(
    (
        pathlib.Path(__file__).parents[1] / "src" / "padicdx" / "cli_schema.json"
    ).read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_norm_subcommand(capsys):
    code, doc = run(capsys, "norm", "-p", "2", "-k", "1", "p*d^2 + d")
    assert code == 0
    assert doc["norm_exp"] == 1
    assert doc["order"] == 2


def test_order_subcommand(capsys):
    code, doc = run(capsys, "order", "-p", "2", "-k", "1", "p^3*d^2 + d")
    assert code == 0
    assert doc["order"] == 1
    # session levels below one are rejected at configuration time
    code = main(["order", "-p", "2", "-k", "0", "d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["error"]["type"] == "ConfigError"


def test_commutator_subcommand(capsys):
    code, doc = run(capsys, "commutator", "-p", "2", "d", "x")
    assert code == 0
    assert doc["result"] == "1"
    assert doc["norm_exp"] == 0


def test_micro_check_subcommand(capsys):
    code, doc = run(
        capsys, "micro-check", "-p", "2", "-k", "2", "-r", "1", "d + d^-1"
    )
    assert code == 0
    assert doc["verdict"] == "InvertibleOnDisc"
    assert doc["q"] == 1
    # canonical form: (power, plain coefficient vector, valuation shift);
    # the scaled coefficient is vector times uniformizer**shift
    assert doc["canonical"] == [[-1, ["1"], 1], [1, ["1"], -2]]

    code, doc = run(capsys, "micro-check", "-p", "2", "-k", "1", "-r", "1", "x*d")
    assert code == 0
    assert doc["verdict"] == "BadLocusOnly"
    assert doc["bad"]["label"] == "x"


def test_micro_invert_subcommand(capsys):
    code, doc = run(
        capsys,
        "micro-invert",
        "-p",
        "2",
        "-k",
        "2",
        "-r",
        "1",
        "--eps",
        "-4",
        "1 - p*p^2*d",
    )
    assert code == 0
    assert doc["residual_exp"] is None or doc["residual_exp"] < -4
    # domain error: not invertible here
    code2 = main(["micro-invert", "-p", "2", "x*d"])
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, SCHEMA)
    assert code2 == 2
    assert out["error"]["type"] == "NotInvertibleHere"


def test_thm28_subcommand(capsys):
    code, doc = run(capsys, "thm28", "-p", "2", "-r", "1", "x*d - 1")
    assert code == 0
    assert doc["verdict"] == "BadLocus"
    code, doc = run(capsys, "thm28", "-p", "2", "-r", "1", "d - p^-3")
    assert doc["verdict"] == "FailsDecay" and doc["rmin"] == 4


def test_charvar_subcommand(capsys, tmp_path):
    plot = tmp_path / "cc.txt"
    code, doc = run(
        capsys,
        "charvar",
        "-p",
        "2",
        "--plot",
        str(plot),
        "(x-p)*(x-p^2)*d^2",
    )
    assert code == 0
    assert doc["m0"] == 2
    assert doc["vertical"][0]["label"] == "x"
    assert doc["vertical"][0]["mult"] == 2
    assert doc["length"] == 4
    assert plot.read_text().startswith("   xi")


def test_blowup_support_subcommand(capsys):
    code, doc = run(
        capsys,
        "blowup-support",
        "-p",
        "2",
        "--blowup",
        "c=0,m=1",
        "(x-p)*(x-p^2)*d^2",
    )
    assert code == 0
    assert [(pt["chart"], pt["label"], pt["mult"]) for pt in doc["points"]] == [
        ("U1", "t", 1),
        ("U1", "t + 1", 1),
    ]


def test_fiber_check_subcommand(capsys):
    code, doc = run(
        capsys,
        "fiber-check",
        "-p",
        "2",
        "--blowup",
        "c=0,m=1",
        "(x-p)*(x-p^2)*d^2",
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["base"] == [["x", 2]]
    assert doc["blowup_points"] == [["t", 1], ["t + 1", 1]]
    assert doc["m0_preserved"] is True


def test_connection_level_subcommand(capsys):
    code, doc = run(capsys, "connection-level", "-p", "2", "x, 1; 0, p*x")
    assert code == 0
    assert doc["level"] == 0
    code, doc = run(capsys, "connection-level", "-p", "2", "p^-1")
    assert doc["level"] == 1


def test_render_subcommand(capsys, tmp_path):
    code, doc = run(
        capsys, "render", "-p", "2", "--format", "svg", "x*d - 1"
    )
    assert code == 0
    assert doc["format"] == "svg"
    assert doc["rendering"].startswith("<svg")
    path = tmp_path / "out.txt"
    code, doc = run(
        capsys, "render", "-p", "2", "--plot", str(path), "x*d - 1"
    )
    assert doc["plot_path"] == str(path)
    assert path.exists()


def test_parse_error_exit_code(capsys):
    code = main(["norm", "-p", "2", "x + * d"])
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert code == 1
    assert doc["error"]["type"] == "ParseError"
    assert doc["error"]["position"] == 4


def test_micro_syntax_outside_micro_mode(capsys):
    code = main(["norm", "-p", "2", "d^-1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"]["type"] == "NegativePowerOutsideMicroMode"


def test_config_error_exit_code(capsys):
    code = main(["norm", "-p", "6", "d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"]["type"] == "ConfigError"
    code = main(["micro-check", "-p", "2", "-k", "1", "-r", "3", "d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1


def test_domain_error_exit_code(capsys):
    code = main(["charvar", "-p", "2", "x - x"])
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert code == 2
    assert doc["error"]["type"] == "ZeroOperator"


def test_env_default_prime(capsys, monkeypatch):
    monkeypatch.setenv("PADICDX_DEFAULT_PRIME", "3")
    code, doc = run(capsys, "norm", "-k", "1", "d")
    assert code == 0
    assert doc["prime"] == 3


def test_env_default_prime_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("PADICDX_DEFAULT_PRIME", "abc")
    code, doc = run(capsys, "norm", "d")
    assert code == 1
    assert doc["error"]["type"] == "ConfigError"


def test_non_ascii_digits_are_parse_errors(capsys):
    # a superscript two and an Arabic-Indic one are digits to str.isdigit
    for text in ("x^\u00b2", "x^\u0661"):
        code, doc = run(capsys, "norm", "-p", "2", text)
        assert code == 1
        assert doc["error"]["type"] == "ParseError"
        assert doc["error"]["position"] == 2


def test_blowup_spec_parsing():
    B = parse_blowup_spec("c=0,m=1", 2)
    assert B.center == PAdicScalar.zero(2) and B.m == 1
    B = parse_blowup_spec("c=p^2,m=3", 5)
    assert B.center == PAdicScalar(25, 5) and B.m == 3
    B = parse_blowup_spec("c=3/7,m=2", 2)
    assert B.center.value.numerator == 3
    with pytest.raises(ConfigError):
        parse_blowup_spec("center=0", 2)


def test_missing_blowup_flag(capsys):
    code = main(["blowup-support", "-p", "2", "x*d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"]["type"] == "ConfigError"


def test_parser_built_once_and_reused(capsys, monkeypatch):
    import padicdx.cli as cli

    assert cli.build_parser() is not cli.build_parser()
    built, original = [], cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    sequence = [
        ["norm", "-p", "2", "-k", "1", "p*d^2 + d"],
        ["commutator", "-p", "3", "x*d^2", "x^2*d"],
        ["order", "-p", "3", "--bogus", "d"],
        ["micro-check", "-p", "2", "-k", "2", "-r", "1", "d + d^-1"],
        ["connection-level", "-p", "2", "x, 1; 0, p*x"],
    ]
    passes = []
    for _ in range(2):
        docs = []
        for argv in sequence:
            code = main(argv)
            docs.append((code, capsys.readouterr().out))
        passes.append(docs)
    cli._parser.cache_clear()
    assert passes[0] == passes[1]
    assert passes[0][2][0] == 1 and '"ConfigError"' in passes[0][2][1]
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["commutator", "-p", "2", "x", "t*d"], "MixedVariables"),
        (["connection-level", "-p", "2", "x, 1; 0"], "ConfigError"),
        (["blowup-support", "-p", "2", "--blowup", "c=0,m=0", "x*d"], "ConfigError"),
    ],
)
def test_kernel_value_errors_give_documents(capsys, argv, error):
    code, doc = run(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == error


def test_precision_not_reached_exit_code(capsys, monkeypatch):
    from padicdx import TatePoly

    # an inverse of the constant term only: wrong by p*x at every precision
    monkeypatch.setattr(
        TatePoly,
        "invert_on_disc",
        lambda f, eps: (TatePoly.constant(1 / f.constant_term(), f.p, f.var), None),
    )
    code, doc = run(capsys, "micro-invert", "-p", "2", "--eps", "-4", "1 + p*x")
    assert code == 2
    assert doc["error"]["type"] == "PrecisionNotReached"


def test_prime_limit_is_a_config_error_before_any_work(capsys):
    start = time.perf_counter()
    code, doc = run(capsys, "norm", "-p", str(2**127 - 1), "x*d")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert doc["error"] == {
        "type": "ConfigError",
        "message": f"the prime must be below 2^64, got {2**127 - 1}",
    }
    code, doc = run(capsys, "fiber-check", "-p", str(2**64 + 13), "--blowup", "c=1,m=1", "d")
    assert code == 1 and doc["error"]["type"] == "ConfigError"
    # the largest prime below the limit is accepted
    code, doc = run(capsys, "norm", "-p", str(2**64 - 59), "x*d")
    assert code == 0 and doc["prime"] == 2**64 - 59
    with pytest.raises(ConfigError):
        SessionConfig(2**64, 2, 1, -6)


def test_non_prime_with_blowup_is_a_config_error(capsys):
    # the session is checked before the blow-up centre is built over the prime
    code, doc = run(capsys, "blowup-support", "-p", "6", "--blowup", "c=0,m=1", "x*d")
    assert code == 1
    assert doc["error"] == {"type": "ConfigError", "message": "6 is not a prime"}


def test_each_support_is_factored_once(capsys, monkeypatch):
    from padicdx import ResiduePoly

    factor = ResiduePoly.factor
    calls = []
    monkeypatch.setattr(ResiduePoly, "factor", lambda f: calls.append(f) or factor(f))
    op = "(x^3 - 9*x)*d^2 + 3*x*d + 1"
    run(capsys, "fiber-check", "-p", "3", "--blowup", "c=0,m=1", op)
    assert len(calls) == 2  # on the base and on the inner chart
    calls.clear()
    code, doc = run(capsys, "charvar", "-p", "3", op)
    assert code == 0 and len(calls) == 1 and doc["rmin"] >= 1
