"""Command line driver.

Each subcommand parses its operator arguments in the expression language,
delegates to exactly one kernel operation and prints a single JSON
document on stdout.  Exit codes: 0 on success, 1 on parse or
configuration errors, 2 on domain errors (failed preconditions,
non-invertible inputs).  Plots go to the path given by ``--plot``; the
document schema ships with the package as ``cli_schema.json``.
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
from .micro import (
    BadLocus,
    BadLocusOnly,
    EverywhereInvertible,
    FailsDecay,
    InvertibleOnDisc,
    NotInvertible,
    finite_order_verdict,
    micro_invert,
    micro_unit_verdict,
)
from .scalars import NormExp, PAdicScalar, is_prime
from .weyl import ConnectionMatrix, commutator, connection_level

ENV_PRIME = "PADICDX_DEFAULT_PRIME"
PRIME_LIMIT = 2**64  # is_prime is exact far beyond this


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


_BLOWUP_RE = re.compile(
    r"^c=(?P<c>-?\d+(/\d+)?|p(\^-?\d+)?),m=(?P<m>\d+)$"
)


def parse_blowup_spec(text: str, prime: int) -> BlowupModel:
    match = _BLOWUP_RE.match(text.strip())
    if not match:
        raise ConfigError(f"bad blow-up spec {text!r}, expected c=<scalar>,m=<int>")
    c_text = match.group("c")
    if c_text.startswith("p"):
        exp = int(c_text[2:]) if "^" in c_text else 1
        center = PAdicScalar.uniformizer_power(prime, exp)
    else:
        center = PAdicScalar(Fraction(c_text), prime)
    m = int(match.group("m"))
    if m < 1:
        raise ConfigError(f"blow-up level must be at least 1, got m={m}")
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

    top = _Cli(prog="padicdx", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, expr_count=1, help=None):
        sp = sub.add_parser(name, parents=[common], help=help)
        if expr_count:
            sp.add_argument("expr", nargs=expr_count)
        return sp

    add("norm", help="level-k norm and order of a finite operator")
    add("order", help="order of a finite operator at level k")
    add("commutator", expr_count=2, help="bracket of two finite operators")
    add("micro-check", help="unit test in the (k, r) Laurent ring")
    add("micro-invert", help="certified inverse in the (k, r) Laurent ring")
    add("thm28", help="microlocal invertibility of a finite operator at level r")
    add("charvar", help="characteristic cycle of a cyclic module")
    add("blowup-support", help="support on the blow-up charts")
    add("fiber-check", help="multiplicity bookkeeping across a blow-up")
    add("connection-level", help="least level at which a connection converges")
    add("render", help="draw the characteristic cycle")
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


def _require_blowup(cfg: SessionConfig) -> BlowupModel:
    if cfg.blowup is None:
        raise ConfigError("this subcommand needs --blowup c=<scalar>,m=<int>")
    return cfg.blowup


def _diff_op(text: str, cfg: SessionConfig):
    return opparse.to_diff_op(opparse.parse(text, micro=False), cfg.prime)


def _micro_op(text: str, cfg: SessionConfig):
    return opparse.to_micro_op(opparse.parse(text, micro=True), cfg.prime)


def _micro_verdict_json(v) -> dict:
    if isinstance(v, InvertibleOnDisc):
        return {"verdict": v.tag, "q": v.q}
    if isinstance(v, BadLocusOnly):
        return {
            "verdict": v.tag,
            "q": v.q,
            "bad": {"coeffs": list(v.bad.coeffs), "label": str(v.bad)},
        }
    assert isinstance(v, NotInvertible)
    return {"verdict": v.tag, "reason": v.reason}


def _operator_verdict_json(v) -> dict:
    if isinstance(v, EverywhereInvertible):
        return {"verdict": v.tag}
    if isinstance(v, BadLocus):
        return {
            "verdict": v.tag,
            "bad": {"coeffs": list(v.bad.coeffs), "label": str(v.bad)},
        }
    assert isinstance(v, FailsDecay)
    return {"verdict": v.tag, "rmin": v.rmin}


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


def _run(args) -> dict:
    cfg = _session(args)
    cmd = args.command

    if cmd == "norm" or cmd == "order":
        P = _diff_op(args.expr[0], cfg)
        norm = P.norm(cfg.k)
        order = None if P.is_zero() else P.order(cfg.k)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "level": cfg.k,
            "norm_exp": _norm_json(norm),
            "order": order,
        }

    if cmd == "commutator":
        P = _diff_op(args.expr[0], cfg)
        Q = _diff_op(args.expr[1], cfg)
        C = commutator(P, Q)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "level": cfg.k,
            "result": str(C),
            "norm_exp": _norm_json(C.norm(cfg.k)),
        }

    if cmd == "micro-check":
        S = _micro_op(args.expr[0], cfg)
        verdict = micro_unit_verdict(S, cfg.k, cfg.r)
        doc = {
            "command": cmd,
            "prime": cfg.prime,
            "k": cfg.k,
            "r": cfg.r,
            "canonical": S.canonical_form_json(cfg.k, cfg.r),
        }
        doc.update(_micro_verdict_json(verdict))
        return doc

    if cmd == "micro-invert":
        S = _micro_op(args.expr[0], cfg)
        T, rho = micro_invert(S, cfg.k, cfg.r, cfg.eps_exp)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "k": cfg.k,
            "r": cfg.r,
            "eps_exp": cfg.eps_exp,
            "inverse": str(T),
            "residual_exp": _norm_json(rho),
        }

    if cmd == "thm28":
        P = _diff_op(args.expr[0], cfg)
        verdict = finite_order_verdict(P, cfg.r)
        doc = {"command": cmd, "prime": cfg.prime, "r": cfg.r}
        doc.update(_operator_verdict_json(verdict))
        return doc

    if cmd == "charvar":
        P = _diff_op(args.expr[0], cfg)
        cc, report = charcycle._cycle_and_support(P)
        doc = {"command": cmd, "prime": cfg.prime}
        doc.update(cc.to_json())
        doc["rmin"] = report.rmin
        if args.plot:
            fmt = args.format if args.format != "json" else "ascii"
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(charcycle.render_cc(cc, fmt))
            doc["plot_path"] = args.plot
        return doc

    if cmd == "blowup-support":
        B = _require_blowup(cfg)
        P = _diff_op(args.expr[0], cfg)
        points = support_on_blowup(P, B)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "blowup": {"c": str(B.center), "m": B.m},
            "points": [cp.to_json(mult) for cp, mult in points],
        }

    if cmd == "fiber-check":
        B = _require_blowup(cfg)
        P = _diff_op(args.expr[0], cfg)
        ok, base, above, m0_preserved = _fiber_report(P, B)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "blowup": {"c": str(B.center), "m": B.m},
            "ok": ok,
            "base": [[pt.label(), mult] for pt, mult in base.points],
            "blowup_points": [[cp.point.label(), mult] for cp, mult in above],
            "m0_preserved": m0_preserved,
        }

    if cmd == "connection-level":
        A = _parse_matrix(args.expr[0], cfg)
        return {
            "command": cmd,
            "prime": cfg.prime,
            "level": connection_level(A),
            "sup_norm_exp": _norm_json(A.sup_norm()),
        }

    if cmd == "render":
        P = _diff_op(args.expr[0], cfg)
        cc = charcycle.char_cycle(P)
        fmt = args.format if args.format != "json" else "ascii"
        rendering = charcycle.render_cc(cc, fmt)
        doc = {
            "command": cmd,
            "prime": cfg.prime,
            "format": fmt,
            "rendering": rendering,
            "plot_path": None,
        }
        if args.plot:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(rendering)
            doc["plot_path"] = args.plot
        return doc

    raise ConfigError(f"unknown subcommand {cmd!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # once per process, on first use


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        doc = _run(args)
    except (ParseError, NegativePowerOutsideMicroMode, MixedVariables, ConfigError) as e:
        doc = {"error": {"type": type(e).__name__, "message": str(e)}}
        if isinstance(e, ParseError):
            doc["error"]["position"] = e.position
        print(json.dumps(doc, indent=2))
        return 1
    except KernelError as e:
        doc = {"error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(doc, indent=2))
        return 2
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
