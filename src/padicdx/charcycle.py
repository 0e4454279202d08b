"""Supports, characteristic cycles and multiplicities of cyclic modules.

For a finite nonzero operator the stable support consists of the zeros of
the reduced normalized dominant coefficient, weighted by their zero
multiplicities; the horizontal multiplicity is the degree in the
derivation.  The cycle is the formal sum of the zero section with the
horizontal multiplicity and one vertical line per support point.  The
module also renders the cycle as fixed-size ASCII or SVG pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedPrimes
from .micro import _decay_level
from .residue import ClosedPoint, factor_reduction
from .scalars import _operand
from .weyl import DiffOp

Multiplicities = tuple[tuple[ClosedPoint, int], ...]


def _sorted_points(pairs) -> Multiplicities:
    return tuple(sorted(pairs, key=lambda pm: pm[0].sort_key()))


@dataclass(frozen=True)
class SupportReport:
    """Stable support of a cyclic module, with the least level at which
    the dominant coefficient certifies it."""

    rmin: int
    points: Multiplicities

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.points)


@dataclass(frozen=True)
class CharCycle:
    """Formal sum of the zero section and vertical lines with
    multiplicities; zero exactly when all multiplicities vanish."""

    m0: int
    vertical: Multiplicities

    @property
    def length(self) -> int:
        return self.m0 + sum(m for _, m in self.vertical)

    def is_zero(self) -> bool:
        return self.m0 == 0 and not self.vertical

    def _check(self, other):
        return other if isinstance(other, CharCycle) else None

    @_operand
    def __add__(self, other: "CharCycle") -> "CharCycle":
        return cc_add(self, other)

    def to_json(self) -> dict:
        return {
            "m0": self.m0,
            "vertical": [_point_json(pt, m) for pt, m in self.vertical],
            "length": self.length,
        }


def _point_json(pt: ClosedPoint, mult: int) -> dict:
    return {
        "point": list(pt.minimal_poly.coeffs),
        "label": pt.label(),
        "degree": pt.degree,
        "mult": mult,
    }


def infinite_support(P: DiffOp) -> SupportReport:
    """Support points of the cyclic module: zeros of the reduced
    normalized dominant coefficient, with multiplicities."""
    P._require_finite("support undecidable for a truncated operator", "zero operator")
    return SupportReport(_decay_level(P), char_cycle(P).vertical)


def char_cycle(P: DiffOp) -> CharCycle:
    """Characteristic cycle of the cyclic module presented by P."""
    P._require_finite(
        "cycle undecidable for a truncated operator",
        "the module presented by zero is not cyclic-finite",
    )
    reduced = P.leading_coefficient().normalize()[0].reduce()
    # factors come by (degree, coefficients) under one chart tag: sort_key order
    points = () if reduced.is_constant() else tuple(factor_reduction(reduced))
    return CharCycle(P.degree(), points)


def cc_add(c1: CharCycle, c2: CharCycle) -> CharCycle:
    """Componentwise sum, merging vertical lines at equal points;
    ``MixedPrimes`` when the points lie over different primes."""
    points = (*c1.vertical, *c2.vertical)
    if len({pt.minimal_poly.p for pt, _ in points}) > 1:
        raise MixedPrimes("mixed primes")
    merged: dict[ClosedPoint, int] = {}
    for pt, m in points:
        merged[pt] = merged.get(pt, 0) + m
    return CharCycle(c1.m0 + c2.m0, _sorted_points(merged.items()))


def bernstein_check(P: DiffOp) -> bool:
    """Whether the cycle vanishes exactly for invertible presentations."""
    P._require_finite("check undecidable for a truncated operator", "zero operator")
    return char_cycle(P).is_zero() == P.is_disc_unit()


# rendering

_ASCII_WIDTH = 58
_ASCII_PLOT_ROWS = 6
_AXIS_COL = 3
_SVG_W = 640
_SVG_H = 360


def render_cc(c: CharCycle, format: str = "ascii") -> str:
    """Draw the cycle: one horizontal line when the zero section carries
    multiplicity, one labelled vertical line per support point."""
    if format == "ascii":
        return _render_ascii(c)
    if format == "svg":
        return _render_svg(c)
    raise ValueError(f"unknown format {format!r}")


def _columns(n: int, left: int, right: int) -> list[int]:
    return [left + (i + 1) * (right - left) // (n + 1) for i in range(n)]


def _render_ascii(c: CharCycle) -> str:
    points = list(c.vertical)
    cols = _columns(len(points), _AXIS_COL + 2, _ASCII_WIDTH - 6)
    lines = []
    lines.append(" " * _AXIS_COL + "xi")
    lines.append(" " * _AXIS_COL + "^")
    for _ in range(_ASCII_PLOT_ROWS):
        row = [" "] * _ASCII_WIDTH
        row[_AXIS_COL] = "|"
        for col in cols:
            row[col] = "|"
        lines.append("".join(row).rstrip())
    axis = ["-"] * _ASCII_WIDTH
    if c.m0 > 0:
        axis = ["="] * _ASCII_WIDTH
    axis[_AXIS_COL] = "+"
    for col in cols:
        axis[col] = "+"
    lines.append("".join(axis) + "> x")
    label_row = [" "] * _ASCII_WIDTH
    for i, col in enumerate(cols):
        tag = f"x{i + 1}"
        label_row[col : col + len(tag)] = tag
    lines.append("".join(label_row).rstrip())
    lines.append("")
    lines.append(f"zero section multiplicity m0 = {c.m0}")
    for i, (pt, m) in enumerate(points):
        deg = f", residue degree {pt.degree}" if pt.degree > 1 else ""
        lines.append(f"x{i + 1}: {pt.label()} = 0  (mult {m}{deg})")
    lines.append(f"cycle length = {c.length}")
    return "\n".join(lines) + "\n"


def _render_svg(c: CharCycle) -> str:
    points = list(c.vertical)
    left, right = 60, _SVG_W - 40
    top, bottom = 40, _SVG_H - 60
    cols = _columns(len(points), left + 20, right - 20)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" '
        'stroke="black"/>',
        f'<text x="{right - 10}" y="{bottom + 20}">x</text>',
        f'<text x="{left - 30}" y="{top + 10}">xi</text>',
    ]
    if c.m0 > 0:
        mid = (top + bottom) // 2 + 40
        parts.append(
            f'<line x1="{left}" y1="{mid}" x2="{right}" y2="{mid}" '
            'stroke="#c00" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right - 80}" y="{mid - 8}" fill="#c00">m0 = {c.m0}</text>'
        )
    for col, (pt, m) in zip(cols, points):
        parts.append(
            f'<line x1="{col}" y1="{top}" x2="{col}" y2="{bottom}" '
            'stroke="#c00" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{col + 4}" y="{bottom - 8}" fill="#c00">'
            f"{pt.label()} = 0 (x{m})</text>"
        )
    parts.append(f'<text x="{left}" y="{_SVG_H - 20}">length = {c.length}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
