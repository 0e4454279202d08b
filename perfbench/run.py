"""padicdx benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; padicdx is imported from ``src/`` of
that checkout and nowhere else.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The full record of the run goes to perfbench/results/.

The speed this shared host gives a process changes by up to 40% within
seconds, so every time is reported in reference-host units: each
measurement is scaled by (REF_NOMINAL_MS over the time of a fixed
pure-Python reference loop sampled around it) ** REF_EXPONENT (README.md).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

REF_NOMINAL_MS = 10.0  # the reference loop's time on the reference host
# padicdx's times follow host speed as the 0.8th power of the reference
# loop's: fit on this host, where that exponent gave the smallest spread of
# median pass times over ten runs (products: 25% raw, 7.0% with exponent
# 1, 2.5% with 0.8; inversion: 17%, 4.9%, 3.1%)
REF_EXPONENT = 0.8
REF_EVERY_S = 0.25  # sample the reference loop this often during passes
SETUP_REPEATS = 15
SPAWNS = 15
SPAWN_TIMEOUT_S = 60
IMPORT_SPAWNS = 5
WORKLOADS = ("products", "inversion", "cycles", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "hard_case_s": "s",
    "peak_rss_mb": "MB",
    "spawn_ms": "ms",
}

# per-layer metric -> (unit, the traced layer it reads)
PER_LAYER = {
    "tatepoly.mul_calls": ("count", "tatepoly.mul"),
    "tatepoly.mul_ms": ("ms", "tatepoly.mul"),
    "scalars.objects": ("count", None),
    "weyl.mul_calls": ("count", "weyl.mul"),
    "weyl.mul_ms": ("ms", "weyl.mul"),
    "micro.mul_calls": ("count", "micro.mul"),
    "micro.mul_ms": ("ms", "micro.mul"),
    "micro.invert_ms": ("ms", "micro.invert"),
    "micro.invert_attempts": ("count/call", "micro.invert"),
    "micro.truncate_calls": ("count/call", "micro.invert"),
    "tatepoly.invert_on_disc_ms": ("ms", "tatepoly.invert_on_disc"),
    "scalars.max_bits": ("bits", None),
    "residue.factor_calls": ("count", "residue.factor"),
    "residue.factor_ms": ("ms", "residue.factor"),
    "tatepoly.reduce_ms": ("ms", "tatepoly.reduce"),
    "charcycle.infinite_support_calls": ("count/op", "charcycle.infinite_support"),
    "charcycle.char_cycle_ms": ("ms", "charcycle.char_cycle"),
    "blowup.support_ms": ("ms", "blowup.support"),
    "blowup.fiber_check_ms": ("ms", "blowup.fiber_check"),
    "blowup.pull_calls": ("count", "blowup.pull"),
    "opparse.parse_ms": ("ms", "opparse.parse"),
    "opparse.eval_ms": ("ms", "opparse.eval"),
    "cli.build_parser_ms": ("ms", "cli.build_parser"),
    "cli.self_ms": ("ms", "cli.main"),
    "cli.import_ms": ("ms", None),
    "bench.ref_loop_ms": ("ms", None),
    "bench.trace_overhead_pct": ("%", None),
}


def ref_loop() -> float:
    """A fixed pure-Python loop with no padicdx code: Fraction arithmetic,
    small ints, tuples and a dict, like the kernel's own mix."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1300):
        acc += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, i % 11 + 1)
        table[i % 97] = (i, acc.numerator & 255, acc.denominator % 7)
    return perf_counter() - start


class Clock:
    """Reference-loop samples over the whole run, in time order.

    During passes a timer signal takes a sample every REF_EVERY_S, also in
    the middle of long operations; ``paused`` adds up the time spent in
    samples, which the op timings leave out.
    """

    def __init__(self):
        self.at: list = []
        self.took: list = []
        self.paused = 0.0

    def sample(self, *_signal):
        start = perf_counter()
        self.took.append(ref_loop())
        self.at.append(start)
        self.paused += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t: float, duration: float = 0.0) -> float:
        """Factor from seconds measured from time t on to reference-host
        seconds: the median of the samples from 0.3 s before to 0.3 s
        after the measurement, and never fewer than the two samples
        before it and the two after it."""
        i = bisect.bisect(self.at, t)
        lo = min(bisect.bisect_left(self.at, t - 0.3), max(0, i - 2))
        hi = max(bisect.bisect_right(self.at, t + duration + 0.3), i + 2)
        return (REF_NOMINAL_MS / 1000 / statistics.median(self.took[lo:hi])) ** REF_EXPONENT


class Pass:
    """Per-op start times, durations and success of one pass."""

    __slots__ = ("starts", "times", "ok")

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self.ok: list = []

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def scaled(self, clock: Clock) -> list:
        return [dt * clock.scale(t, dt) for t, dt in zip(self.starts, self.times)]


class Run:
    """One workload in one process: its clock, the checked output of each
    op, mismatches between passes and unexpected failures."""

    def __init__(self, workload, clock: Clock):
        self.wl = workload
        self.clock = clock
        self.outputs: dict = {}
        self.mismatches: list = []
        self.unexpected = 0

    def one_pass(self, runner=None, only_warm=False) -> Pass:
        """Run every op once (only the warm ones for the warm-up)."""
        clock, out = self.clock, Pass()
        clock.sample()
        with clock:
            for i, op in enumerate(self.wl.ops):
                if only_warm and not op.warm:
                    continue
                paused = clock.paused
                start = perf_counter()
                try:
                    res = runner(op) if runner else op.run()
                except Exception as exc:  # noqa: BLE001 (a failing op is counted, not fatal)
                    res, failure = None, exc
                else:
                    failure = None
                out.starts.append(start)
                out.times.append(perf_counter() - start - (clock.paused - paused))
                out.ok.append(failure is None)
                if failure is not None:
                    if not (op.fault and isinstance(failure, op.fault)):
                        self.unexpected += 1
                        print(f"unexpected failure in {op.label}:", file=sys.stderr)
                        traceback.print_exception(failure, file=sys.stderr)
                    continue
                c = op.canon(res)
                del res
                if i not in self.outputs:
                    self.outputs[i] = c
                elif self.outputs[i] != c:
                    self.mismatches.append(f"{op.label}: output differs between passes")
        clock.sample()
        return out

    def verify(self) -> bool:
        from workloads import CheckFailed

        problems = list(self.mismatches)
        if self.unexpected:
            problems.append(f"{self.unexpected} operations raised unexpectedly")
        for i, c in sorted(self.outputs.items()):
            try:
                self.wl.ops[i].verify(c)
            except CheckFailed as exc:
                problems.append(str(exc))
        if self.wl.extra_check:
            try:
                self.wl.extra_check(self.outputs)
            except CheckFailed as exc:
                problems.append(str(exc))
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        return not problems


def pin_to_one_cpu():
    """Keep this process and the processes it starts on the CPU it runs
    on now, so that the reference loop and the work it scales share one
    core; the two cores of a shared host can run at different speeds."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu if cpu in cpus else min(cpus)})


def purge_padicdx():
    for name in [m for m in sys.modules if m == "padicdx" or m.startswith("padicdx.")]:
        del sys.modules[name]


def build(name: str, seed: int, validator):
    import workloads

    importlib.import_module("padicdx")
    if name == "cli":
        return workloads.build_cli(seed, validator)
    return getattr(workloads, f"build_{name}")(seed)


def timed_setups(name: str, seed: int, validator, clock: Clock):
    """Import padicdx afresh and build the corpus, SETUP_REPEATS times;
    return the scaled set-up times and the last corpus."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_padicdx()
        gc.collect()  # the modules just dropped are garbage cycles
        clock.sample()
        start = perf_counter()
        wl = build(name, seed, validator)
        times.append((start, perf_counter() - start))
    clock.sample()
    return [dt * clock.scale(t, dt) for t, dt in times], wl


def spawn(argv: list, env: dict) -> tuple[float, float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SPAWN_TIMEOUT_S,
    )
    return start, perf_counter() - start, proc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_spawns(wl, validator, clock: Clock) -> tuple[list, bool]:
    """Fresh `python -m padicdx.cli` processes on the workload's fixed
    request, one at a time; every output must equal the in-process one."""
    from workloads import CheckFailed, check_document, run_main

    env = child_env()
    times, outputs = [], set()
    for _ in range(SPAWNS):
        clock.sample()
        start, dt, proc = spawn(["-m", "padicdx.cli", *wl.spawn_argv], env)
        times.append((start, dt))
        outputs.add((proc.returncode, proc.stdout))
    clock.sample()
    code, text = run_main(wl.spawn_argv)
    ok = outputs == {(code, text)} and code == 0
    try:
        check_document(validator, "spawned " + " ".join(wl.spawn_argv), text)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: fresh processes gave {sorted(outputs)[:2]}", file=sys.stderr)
    return [dt * clock.scale(t, dt) for t, dt in times], ok


def time_imports(clock: Clock) -> list:
    """`import padicdx.cli` in fresh processes, scaled seconds."""
    code = ("import time; t = time.perf_counter(); import padicdx.cli; "
            "print(time.perf_counter() - t)")
    env = child_env()
    out = []
    for _ in range(IMPORT_SPAWNS):
        clock.sample()
        start, _, proc = spawn(["-c", code], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import padicdx.cli failed: {proc.stderr}")
        out.append((start, float(proc.stdout)))
    clock.sample()
    return [dt * clock.scale(t, dt) for t, dt in out]


def end_to_end(run: Run, setups: list, passes: list, spawns: list, peak_kb: int) -> dict:
    """Medians (and one percentile) of scaled times.  The latencies and
    hard_case_s leave out failed operations; were every sample of one
    kind to fail, the run is not correct and they read 0."""
    ops = run.wl.ops
    samples = [
        (op.kind, t) for p in passes
        for op, t, ok in zip(ops, p.scaled(run.clock), p.ok) if ok
    ]
    seeded = [t for kind, t in samples if kind == "seeded"] or [0.0, 0.0]
    hard = [t for kind, t in samples if kind == "hard"] or [0.0]
    scaled = [sum(p.scaled(run.clock)) for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / statistics.median(scaled),
        "latency_p50_ms": statistics.median(seeded) * 1000,
        "latency_p90_ms": statistics.quantiles(seeded, n=10)[8] * 1000,
        "hard_case_s": statistics.median(hard),
        "peak_rss_mb": peak_kb / 1024,
        "spawn_ms": statistics.median(spawns) * 1000,
    }


def traced_pass(run: Run, tracer, mode: str):
    """One pass with the tracer's wrappers installed; in "time" mode each
    op is a root span, so a span's ancestors lead to the op it served."""
    tracer.install(mode)
    try:
        if mode == "time":
            out = run.one_pass(lambda op: tracer.span("op", op.run)())
        else:
            out = run.one_pass()
    finally:
        tracer.uninstall()
    return out, tracer.take()


def per_layer(run: Run, seed: int, validator, deadline: float):
    """Alternate untraced and traced passes until the deadline, then one
    counting pass.  Layers the workload never enters are measured on the
    cli requests of the same seed, which enter every layer."""
    from spans import Tracer

    clock = run.clock
    tracer = Tracer(clock)
    passes, plain, traced, layer_ms, spans = [], [], [], [], None
    while True:
        p = run.one_pass()
        passes.append(p)
        plain.append(sum(p.scaled(clock)))
        p, (self_s, _, _) = traced_pass(run, tracer, "time")
        passes.append(p)
        traced.append(sum(p.scaled(clock)))
        f = traced[-1] / sum(p.times)  # this pass's mean scale
        layer_ms.append({k: v * f * 1000 for k, v in self_s.items()})
        if spans is None:
            spans = list(tracer.spans)  # the spans of the first traced pass
        tracer.spans.clear()
        if perf_counter() >= deadline:
            break
    p, (_, calls, max_bits) = traced_pass(run, tracer, "count")
    passes.append(p)

    own = (layer_ms, calls, max_bits, len(run.wl.ops))
    companion = None
    if run.wl.name != "cli":
        side = Run(build("cli", seed, validator), clock)
        side.one_pass()
        p, (self_s, _, _) = traced_pass(side, tracer, "time")
        f = sum(p.scaled(clock)) / sum(p.times)
        _, (_, c_calls, c_bits) = traced_pass(side, tracer, "count")
        companion = ([{k: v * f * 1000 for k, v in self_s.items()}], c_calls, c_bits,
                     len(side.wl.ops))
        tracer.spans.clear()
        if not side.verify():
            run.mismatches.append("the cli requests of the traced run failed their checks")

    imports = time_imports(clock)
    metrics = {}
    for name, (unit, layer) in PER_LAYER.items():
        src = own if companion is None or layer is None or calls[layer] else companion
        ms_list, counts, bits, n_ops = src
        done = max(1, counts["micro.invert_done"])
        if name == "scalars.objects":
            value = counts["scalars.objects"]
        elif name == "scalars.max_bits":
            value = bits
        elif name == "micro.invert_attempts":
            value = counts["micro.invert_attempts"] / done
        elif name == "micro.truncate_calls":
            value = counts["micro.truncate"] / done
        elif name == "charcycle.infinite_support_calls":
            value = counts[layer] / n_ops
        elif name == "cli.import_ms":
            value = statistics.median(imports) * 1000
        elif name == "bench.ref_loop_ms":
            value = statistics.median(clock.took) * 1000
        elif name == "bench.trace_overhead_pct":
            value = (statistics.median(traced) / statistics.median(plain) - 1) * 100
        elif unit == "ms":
            value = statistics.median(ms.get(layer, 0.0) for ms in ms_list)
        else:
            value = counts[layer]
        metrics[name] = value
    return metrics, passes, spans


def write_results(record: dict, spans: list | None):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "padicdx" / "__init__.py").is_file():
        print(f"no padicdx sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import load_validator

    validator = load_validator(ROOT)
    pin_to_one_cpu()
    clock = Clock()
    setups, wl = timed_setups(args.workload, args.seed, validator, clock)
    run = Run(wl, clock)
    run.one_pass(only_warm=True)

    deadline = perf_counter() + args.seconds
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setups}
    spans = None
    if args.trace:
        metrics, passes, spans = per_layer(run, args.seed, validator, deadline)
    else:
        passes = []
        while True:
            passes.append(run.one_pass())
            if perf_counter() >= deadline:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spawns, spawn_ok = time_spawns(wl, validator, clock)
        if not spawn_ok:
            run.mismatches.append("fresh processes disagree with main()")
        metrics = end_to_end(run, setups, passes, spawns, peak_kb)
        record["spawn_s"] = spawns

    correct = run.verify()
    units = {**END_TO_END, **{k: u for k, (u, _) in PER_LAYER.items()}}
    result = {
        "correct": correct,
        "attempted": len(passes) * len(wl.ops),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(passes=len(passes), unexpected_failures=run.unexpected, ref_raw_s=clock.took,
                  pass_raw_s=[sum(p.times) for p in passes],
                  pass_scaled_s=[sum(p.scaled(clock)) for p in passes], result=result)
    write_results(record, spans)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
