"""The CLI is a total function of its argv: any argv built from the
subcommands, their flags and expression text gives exactly one JSON
document that validates against the schema, with exit code 0, 1 or 2,
within one second, in process through ``main()``.  The draws seldom pair
an invertible operator with a large |eps|: the time of such an inversion
has no limit yet, and ``micro-invert`` of ``1 + p*x*d^-1`` at p = 3 and
eps -500 takes many seconds."""

import contextlib
import io
import json
import os
import pathlib
import signal
import tempfile

import jsonschema
from hypothesis import HealthCheck, given, settings, strategies as st

from padicdx import print_expr
from padicdx.cli import COMMANDS, main

from helpers import expression_trees

SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "src" / "padicdx" / "cli_schema.json").read_text()
)
# built once: jsonschema.validate checks the schema itself on every call
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _expressions(wild: bool):
    trees = expression_trees(micro=True).map(print_expr)
    if not wild:
        return trees
    text = trees | st.text(alphabet="xtdpq0123456789/+-*^() ", max_size=12)
    # connection-level reads a matrix: entries split by ',' and rows by ';'
    matrix = st.lists(st.lists(text, min_size=1, max_size=2), min_size=1, max_size=2).map(
        lambda rows: "; ".join(", ".join(row) for row in rows)
    )
    return text | matrix


def _flags(plot_dir: str, wild: bool):
    """(flag, value) pairs, a value of None standing for a flag without
    one; the wild ones add values that are not valid and lone flags."""
    primes, levels, eps = ["2", "3", "5", "7"], st.integers(1, 3), st.integers(-2000, -1)
    blowups = ["c=0,m=1", "c=p,m=2", "c=1/2,m=1", "c=p^-1,m=1"]
    formats = ["ascii", "svg", "json"]
    plots = [os.path.join(plot_dir, "cc.txt")]
    if wild:
        primes += ["4", "1", "0", "-3", "x", "18446744073709551629"]
        levels = st.integers(-2, 4)
        eps = st.integers(-2100, 2)
        blowups += ["c=0,m=0", "c=1/0,m=1", "c=p^99999,m=1", "m=1"]
        formats += ["png"]
        plots += [os.path.join(plot_dir, "missing", "cc.txt")]
    pairs = [
        st.tuples(st.sampled_from(["-p", "--prime"]), st.sampled_from(primes)),
        st.tuples(st.sampled_from(["-k", "--level", "-r", "--micro-level"]), levels.map(str)),
        st.tuples(st.just("--eps"), eps.map(str)),
        st.tuples(st.just("--blowup"), st.sampled_from(blowups)),
        st.tuples(st.just("--format"), st.sampled_from(formats)),
        st.tuples(st.just("--plot"), st.sampled_from(plots)),
    ]
    if wild:
        pairs.append(st.tuples(st.sampled_from(["--bogus", "-p", "--eps", "-k"]), st.none()))
    return st.one_of(pairs)


@st.composite
def _argvs(draw, plot_dir: str):
    """A well-formed request, its flags then ``--`` then its expressions
    (an expression may start with '-'), or a wild one: any command or
    none, one expression too many or too few, flags anywhere."""
    wild = draw(st.booleans())
    command = draw(st.sampled_from([*COMMANDS, "bogus", None] if wild else list(COMMANDS)))
    count = COMMANDS.get(command, (None, 1))[1]
    if wild:
        count += draw(st.sampled_from([0, -1, 1]))
    words = [draw(_expressions(wild)) for _ in range(count)]
    flags = draw(st.lists(_flags(plot_dir, wild), max_size=4))
    if not wild:
        return [command, *(w for pair in flags for w in pair), "--", *words]
    for pair in flags:
        at = draw(st.integers(0, len(words)))
        words[at:at] = [w for w in pair if w is not None]
    return ([command] if command else []) + words


def _timeout(signum, frame):
    raise TimeoutError("the request took more than 1 s")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_argv_gives_one_valid_document(data):
    with tempfile.TemporaryDirectory() as plot_dir:
        argv = data.draw(_argvs(plot_dir))
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    VALIDATOR.validate(json.loads(out.getvalue()))
