"""Spans and counters around padicdx entry points, for the traced run.

The wrappers are installed from outside, by replacing the entry points on
their classes and modules (and on every module that imported them by
name), and removed again afterwards.  A span records (name, start, end,
parent); a layer's self time is its spans' durations minus the time
covered by their child spans.  Counting runs in a pass of its own, so its
extra work does not distort the times.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


def entry_points() -> list:
    """(layer name, [(owner, attribute), ...]) for every traced entry point."""
    import padicdx.blowup as blowup
    import padicdx.charcycle as charcycle
    import padicdx.cli as cli
    import padicdx.micro as micro
    import padicdx.opparse as opparse
    from padicdx import DiffOp, MicroOp, ResiduePoly, TatePoly

    return [
        ("tatepoly.mul", [(TatePoly, "__mul__"), (TatePoly, "__rmul__")]),
        ("tatepoly.invert_on_disc", [(TatePoly, "invert_on_disc")]),
        ("tatepoly.reduce", [(TatePoly, "reduce")]),
        ("weyl.mul", [(DiffOp, "__mul__")]),
        ("micro.mul", [(MicroOp, "__mul__")]),
        ("micro.invert", [(micro, "micro_invert"), (cli, "micro_invert")]),
        ("micro.truncate", [(MicroOp, "truncate_below")]),
        ("residue.factor", [(ResiduePoly, "factor")]),
        ("charcycle.char_cycle", [(charcycle, "char_cycle")]),
        ("charcycle.infinite_support",
         [(charcycle, "infinite_support"), (blowup, "infinite_support")]),
        ("blowup.support", [(blowup, "support_on_blowup"), (cli, "support_on_blowup")]),
        ("blowup.fiber_check", [(blowup, "fiber_sum_check"), (cli, "fiber_sum_check")]),
        ("blowup.pull", [(blowup, "pull_operator_u1"), (cli, "pull_operator_u1")]),
        ("opparse.parse", [(opparse, "parse")]),
        ("opparse.eval", [(opparse, "to_diff_op"), (opparse, "to_micro_op")]),
        ("cli.build_parser", [(cli, "build_parser")]),
        ("cli.main", [(cli, "main")]),
    ]


def _poly_bits(f) -> int:
    best = 0
    for i in range(f.degree() + 1):
        v = f.coefficient(i).value
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Installs span or count wrappers; holds what they record.  Time the
    clock spends in reference samples (``clock.paused``) inside a span is
    left out of its duration."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.max_bits = 0
        self._stack: list = []  # [span index, time covered by children]
        self._saved: list = []
        self._subject = None  # operator inside micro_invert, for residual products

    # spans

    def span(self, name, fn):
        spans, stack, self_s, clock = self.spans, self._stack, self.self_s, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            paused = clock.paused
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                busy = end - start - (clock.paused - paused)
                self_s[name] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy

        return traced

    # counts

    def count(self, name, fn):
        calls = self.calls

        if name == "micro.mul":
            def counted(*args, **kwargs):
                calls[name] += 1
                if args[0] is self._subject:
                    calls["micro.invert_attempts"] += 1
                return fn(*args, **kwargs)
        elif name == "micro.invert":
            def counted(*args, **kwargs):
                calls[name] += 1
                outer, self._subject = self._subject, args[0]
                try:
                    T, rho = fn(*args, **kwargs)
                finally:
                    self._subject = outer
                calls["micro.invert_done"] += 1
                for n in T.coeffs:
                    self.max_bits = max(self.max_bits, _poly_bits(T.coefficient(n)))
                return T, rho
        elif name == "tatepoly.mul":
            def counted(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if out is not NotImplemented:
                    self.max_bits = max(self.max_bits, _poly_bits(out))
                return out
        else:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # installation

    def install(self, mode: str):
        """Wrap every entry point with spans ("time") or counters ("count")."""
        wrap = self.span if mode == "time" else self.count
        for name, sites in entry_points():
            wrapped = {}
            for owner, attr in sites:
                fn = getattr(owner, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = wrap(name, fn)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped[id(fn)])
        if mode == "count":
            from padicdx import PAdicScalar

            init = PAdicScalar.__init__
            self._saved.append((PAdicScalar, "__init__", init))
            PAdicScalar.__init__ = self.count("scalars.objects", init)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self):
        """Return and clear the self times, counts and maximum bit size."""
        out = (dict(self.self_s), Counter(self.calls), self.max_bits)
        self.self_s.clear()
        self.calls.clear()
        self.max_bits = 0
        return out
