"""Command line driver.

Each subcommand parses its operator arguments in the expression language,
delegates to exactly one kernel operation and prints a single JSON
document on stdout.  Exit codes: 0 on success, 1 on parse or
configuration errors, 2 on domain errors (failed preconditions,
non-invertible inputs).  Plots go to the path given by ``--plot``; the
document schema ships with the package as ``cli_schema.json``.

A new subcommand needs one handler ``(args, cfg) -> fields``, one row in
``COMMANDS`` and one ``$def`` in the schema.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import charcycle, opparse
# unused here, fiber_sum_check and pull_operator_u1 stay for perfbench's span wrappers
from .blowup import (  # noqa: F401
    BlowupModel,
    _fiber_report,
    fiber_sum_check,
    pull_function_u1,
    pull_operator_u1,
    support_on_blowup,
)
from .errors import (
    ConfigError,
    KernelError,
    MixedVariables,
    NegativePowerOutsideMicroMode,
    ParseError,
)
from .micro import _decay_level, finite_order_verdict, micro_invert, micro_unit_verdict
from .residue import ResiduePoly
from .scalars import NormExp, PAdicScalar, is_prime
from .tatepoly import TatePoly
from .weyl import ConnectionMatrix, DiffOp, commutator, connection_level

ENV_PRIME = "PADICDX_DEFAULT_PRIME"
PRIME_LIMIT = 2**64  # is_prime is exact far beyond this
# largest |eps|: it bounds the size of an inversion (about log2 |eps| Newton
# steps toward an inverse of about |eps| terms of about |eps| p-adic digits
# for a tail of norm p^-1), not its time
MAX_EPS = 2000


@dataclass(frozen=True)
class SessionConfig:
    """Validated session parameters shared by the subcommands."""

    prime: int
    k: int
    r: int
    eps_exp: int
    blowup: BlowupModel | None = None

    def __post_init__(self):
        if self.prime >= PRIME_LIMIT:
            raise ConfigError(f"the prime must be below 2^64, got {self.prime}")
        if not is_prime(self.prime):
            raise ConfigError(f"{self.prime} is not a prime")
        if not (self.k >= self.r >= 1):
            raise ConfigError(
                f"levels must satisfy k >= r >= 1, got k={self.k}, r={self.r}"
            )
        if self.eps_exp >= 0:
            raise ConfigError("precision exponent must be negative")
        if self.eps_exp < -MAX_EPS:
            raise ConfigError(
                f"precision exponent must be at least -{MAX_EPS}, got {self.eps_exp}"
            )


_BLOWUP_RE = re.compile(
    r"^c=(?P<c>-?[0-9]+(/[0-9]+)?|p(\^-?[0-9]+)?),m=(?P<m>[0-9]+)$"
)


def parse_blowup_spec(text: str, prime: int) -> BlowupModel:
    match = _BLOWUP_RE.match(text.strip())
    if not match:
        raise ConfigError(f"bad blow-up spec {text!r}, expected c=<scalar>,m=<int>")
    limit = sys.get_int_max_str_digits()
    if limit and any(len(digits) > limit for digits in re.findall("[0-9]+", text)):
        raise ConfigError(f"blow-up spec has an integer of more than {limit} digits")
    c_text = match.group("c")
    if c_text.startswith("p"):
        exp = int(c_text[2:]) if "^" in c_text else 1
        opparse._check_p_exponent(exp, prime)
        center = PAdicScalar.uniformizer_power(prime, exp)
    else:
        try:
            center = PAdicScalar(Fraction(c_text), prime)
        except ZeroDivisionError:
            raise ConfigError(f"zero denominator in the blow-up center {c_text!r}") from None
    m = int(match.group("m"))
    if m < 1:
        raise ConfigError(f"blow-up level must be at least 1, got m={m}")
    opparse._check_p_exponent(m, prime)  # the inner chart builds p^m
    return BlowupModel(center, m)


class _Cli(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _norm_json(e: NormExp):
    return None if e.is_neg_inf() else e.exp


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-p", "--prime", type=int, default=None)
    common.add_argument("-k", "--level", type=int, default=2)
    common.add_argument("-r", "--micro-level", type=int, default=1)
    common.add_argument("--eps", type=int, default=-6, metavar="NEGEXP")
    common.add_argument("--blowup", type=str, default=None, metavar="c=<q>,m=<int>")
    common.add_argument("--plot", type=str, default=None, metavar="PATH")
    common.add_argument(
        "--format", choices=("ascii", "svg", "json"), default="json"
    )

    # the docstring's last paragraph is for developers, not for --help;
    # python -OO strips the docstring
    top = _Cli(prog="padicdx", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, expr_count, help_line) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=help_line)
        sp.add_argument("expr", nargs=expr_count)
    return top


def _session(args) -> SessionConfig:
    prime = args.prime
    if prime is None:
        try:
            prime = int(os.environ.get(ENV_PRIME, "2"))
        except ValueError as e:
            raise ConfigError(f"{ENV_PRIME}: {e}") from None
    cfg = SessionConfig(prime, args.level, args.micro_level, args.eps)
    if args.blowup is None:
        return cfg
    return dataclasses.replace(cfg, blowup=parse_blowup_spec(args.blowup, prime))


def _blowup_operand(args, cfg: SessionConfig) -> tuple[BlowupModel, DiffOp]:
    """The blow-up and the operator of a blow-up subcommand.  The inner
    chart pulls the leading coefficient back through x = c + p^m*t, a
    power of the pullback of x by the degree of the coefficient (at least
    one: the pullback itself is built), so the rule of the expression
    language for powers bounds it before any work."""
    if cfg.blowup is None:
        raise ConfigError("this subcommand needs --blowup c=<scalar>,m=<int>")
    B, P = cfg.blowup, _diff_op(args.expr[0], cfg)
    if not P.is_zero():
        b = pull_function_u1(TatePoly.variable(B.p), B)
        n = max(1, P.leading_coefficient().degree())
        opparse._check_power([b], n, "the chart substitution c + p^m*t")
    return B, P


def _diff_op(text: str, cfg: SessionConfig):
    return opparse.to_diff_op(opparse.parse(text, micro=False), cfg.prime)


def _micro_op(text: str, cfg: SessionConfig):
    return opparse.to_micro_op(opparse.parse(text, micro=True), cfg.prime)


def _verdict_json(v) -> dict:
    """A verdict's tag, then its fields in declaration order."""
    doc = {"verdict": v.tag}
    for field in dataclasses.fields(v):
        value = getattr(v, field.name)
        if isinstance(value, ResiduePoly):
            value = {"coeffs": list(value.coeffs), "label": str(value)}
        doc[field.name] = value
    return doc


def _plot(args, cc) -> dict:
    """The plot format, the rendering of cc in it, and the ``--plot`` path
    it was written to, or None."""
    fmt = args.format if args.format != "json" else "ascii"
    rendering = charcycle.render_cc(cc, fmt)
    if args.plot:
        try:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(rendering)
        except OSError as e:
            raise ConfigError(
                f"cannot write the plot to {args.plot!r}: {e.strerror}"
            ) from None
    return {"format": fmt, "rendering": rendering, "plot_path": args.plot or None}


def _parse_matrix(text: str, cfg: SessionConfig) -> ConnectionMatrix:
    rows = []
    for row_text in text.split(";"):
        row = []
        for entry_text in row_text.split(","):
            op = _diff_op(entry_text, cfg)
            if not op.is_zero() and op.degree() > 0:
                raise ConfigError(
                    f"matrix entry {entry_text.strip()!r} involves the derivation"
                )
            row.append(op.coefficient(0))
        rows.append(row)
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"connection matrix must be square, got {text!r}")
    return ConnectionMatrix(rows, cfg.prime)


# Handlers take (args, cfg) and return their document's fields after
# "command" and "prime".  They call the kernel through this module's
# globals, so that a wrapper set on the module is the one that runs.


def _norm(args, cfg):
    P = _diff_op(args.expr[0], cfg)
    norm = P.norm(cfg.k)
    order = None if P.is_zero() else P.order(cfg.k)
    return {"level": cfg.k, "norm_exp": _norm_json(norm), "order": order}


def _commutator(args, cfg):
    C = commutator(_diff_op(args.expr[0], cfg), _diff_op(args.expr[1], cfg))
    return {"level": cfg.k, "result": str(C), "norm_exp": _norm_json(C.norm(cfg.k))}


def _micro_check(args, cfg):
    S = _micro_op(args.expr[0], cfg)
    verdict = micro_unit_verdict(S, cfg.k, cfg.r)
    canonical = S.canonical_form_json(cfg.k, cfg.r)
    return {"k": cfg.k, "r": cfg.r, "canonical": canonical, **_verdict_json(verdict)}


def _micro_invert(args, cfg):
    T, rho = micro_invert(_micro_op(args.expr[0], cfg), cfg.k, cfg.r, cfg.eps_exp)
    return {
        "k": cfg.k,
        "r": cfg.r,
        "eps_exp": cfg.eps_exp,
        "inverse": str(T),
        "residual_exp": _norm_json(rho),
    }


def _thm28(args, cfg):
    verdict = finite_order_verdict(_diff_op(args.expr[0], cfg), cfg.r)
    return {"r": cfg.r, **_verdict_json(verdict)}


def _charvar(args, cfg):
    P = _diff_op(args.expr[0], cfg)
    cc = charcycle.char_cycle(P)
    doc = {**cc.to_json(), "rmin": _decay_level(P)}
    if args.plot:
        doc["plot_path"] = _plot(args, cc)["plot_path"]
    return doc


def _blowup_support(args, cfg):
    B, P = _blowup_operand(args, cfg)
    points = support_on_blowup(P, B)
    return {
        "blowup": {"c": str(B.center), "m": B.m},
        "points": [cp.to_json(mult) for cp, mult in points],
    }


def _fiber_check(args, cfg):
    B, P = _blowup_operand(args, cfg)
    ok, base, above, m0_preserved = _fiber_report(P, B)
    return {
        "blowup": {"c": str(B.center), "m": B.m},
        "ok": ok,
        "base": [[pt.label(), mult] for pt, mult in base.points],
        "blowup_points": [[cp.point.label(), mult] for cp, mult in above],
        "m0_preserved": m0_preserved,
    }


def _connection_level(args, cfg):
    A = _parse_matrix(args.expr[0], cfg)
    return {"level": connection_level(A), "sup_norm_exp": _norm_json(A.sup_norm())}


def _render(args, cfg):
    return _plot(args, charcycle.char_cycle(_diff_op(args.expr[0], cfg)))


# name: (handler, expression count, help line), in the order --help lists them
COMMANDS = {
    "norm": (_norm, 1, "level-k norm and order of a finite operator"),
    "order": (_norm, 1, "order of a finite operator at level k"),
    "commutator": (_commutator, 2, "bracket of two finite operators"),
    "micro-check": (_micro_check, 1, "unit test in the (k, r) Laurent ring"),
    "micro-invert": (_micro_invert, 1, "certified inverse in the (k, r) Laurent ring"),
    "thm28": (_thm28, 1, "microlocal invertibility of a finite operator at level r"),
    "charvar": (_charvar, 1, "characteristic cycle of a cyclic module"),
    "blowup-support": (_blowup_support, 1, "support on the blow-up charts"),
    "fiber-check": (_fiber_check, 1, "multiplicity bookkeeping across a blow-up"),
    "connection-level": (_connection_level, 1, "least level at which a connection converges"),
    "render": (_render, 1, "draw the characteristic cycle"),
}

# errors in the request itself exit with 1; every other KernelError with 2
USAGE_ERRORS = (ParseError, NegativePowerOutsideMicroMode, MixedVariables, ConfigError)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process, on first use


def main(argv=None) -> int:
    code = 0
    try:
        args = _parser().parse_args(argv)
        cfg = _session(args)
        handler = COMMANDS[args.command][0]
        doc = {"command": args.command, "prime": cfg.prime, **handler(args, cfg)}
    except KernelError as e:
        doc = {"error": {"type": type(e).__name__, "message": str(e)}}
        if isinstance(e, ParseError):
            doc["error"]["position"] = e.position
        code = 1 if isinstance(e, USAGE_ERRORS) else 2
    print(json.dumps(doc, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
