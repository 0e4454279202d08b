"""Record a BENCH_<n>.json: the end-to-end benchmark of two revisions.

    python3 tools/bench_record.py --parent HEAD~1 --out BENCH_11.json
    python3 tools/bench_record.py --parent HEAD~1 --workloads cli --pairs 10 --out cli.json

Both revisions are exported with ``git archive`` into fresh directories,
and ``perfbench/run.py --trace 0`` runs there for each workload, in
alternating pairs (odd pairs parent first) so that the phases of a noisy
host fall on both sides.  For each workload and side the file holds the
median and quartiles over the runs of the seven end-to-end metrics, every
run's values, and how many pairs the change won on each metric; at the
top, the revisions, the Python version, ``nproc`` and the ``src/*.py``
line count of each side.  An existing ``--out`` file of the same two
revisions keeps the workloads this run does not measure.

The file also holds the hard-case ladder, ``hard_ladder``: a list of
rungs, each run five times per revision in alternating order, each run
in a fresh process capped at 60 s.  The first rungs invert the inversion
workload's hard operator (``HARD_INVERT`` through ``hard_invert_operator``
of each checkout's ``perfbench/workloads.py``, at p = 2, k = 2, r = 1) at
eps -24, -36, -48, -96 and -192; the next inverts ``SEED71_UNIT`` below at
p = 7, k = r = 1, eps -14; ``DENSE_POWER`` raises x + 1 to the power 2000
at p = 2, the dense polynomial product at large degree and with wide
coefficients; ``NARROW_SQUARE`` squares 7 times the sum of x^i for
i < 1000 at p = 2, one product of two long lists of narrow entries, whose
3-byte slots ``_mul_into`` rounds up to 4 bytes.  The next two take
``char_cycle`` of (x - c_1)···(x - c_n)·d + 1, whose dominant coefficient
reduces to n distinct linear factors: ``ROOT_SCAN`` at p = 101 with
n = 60, where equal-degree splitting finds the roots by evaluation (p at
most ``residue._SCAN_MAX``), and ``ROOT_SPLIT`` at p = 10007 with n = 12,
where it draws random splits.  ``BLOWUP_SUPPORT`` takes
``support_on_blowup`` of the same shape of operator at p = 101 over the
blow-up at c = 3, m = 2, with 60 roots c + p^e·u, u = 1..15, for each e
in 0..3: off the center, at the crossing point and on the inner chart.
A run is the seconds ``micro_invert``, the power, ``char_cycle`` or
``support_on_blowup`` took, or ``"timeout"`` when the process hit the
cap; each rung records every run with their median, min and max, a
timeout counting as slower than any time.  In ``BENCH_17.json`` the three runs of the -48 rung spread
from 1.25 to 1.30 s on the parent and from 0.73 to 0.81 s on the change,
at most 11% of their medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("products", "inversion", "cycles", "cli")
# the end-to-end metrics, +1 where higher is better and -1 where lower is
BETTER = {
    "setup_s": -1, "ops_per_s": 1, "latency_p50_ms": -1, "latency_p90_ms": -1,
    "hard_case_s": -1, "peak_rss_mb": -1, "spawn_ms": -1,
}
# the slowest of the 120 units of test_cutoffs_need_one_attempt's generator
# (seed 71, widened from 40 units; unit 76, q = 3): its x-degree and its
# count of powers of d bound it, where the hard operator is bound by bits
SEED71_UNIT = (
    "-(117649*x^3 - 117649*x^2 - 352947/8*x + 3983259/8)*d^3"
    " - (2470629/8*x^2 - 16807*x - 1294139/8)*d^2 + (2401*x^2 - 1715)"
    " - (2401/5*x - 1029/8)*d^-1 - (539/5*x^3 - 343*x^2 - 7*x + 343)*d^-2"
)
# the rungs: name, operator text ("" for the benchmark's hard operator) and the
# levels p, k, r, eps of an inversion; name, base text and p, exponent of a
# power; name, operator text and p of a characteristic cycle; or name,
# operator text and p, center c, level m of a support on a blow-up
LADDER = (
    ("HARD_INVERT", "", {"p": 2, "k": 2, "r": 1, "eps": -24}),
    ("HARD_INVERT", "", {"p": 2, "k": 2, "r": 1, "eps": -36}),
    ("HARD_INVERT", "", {"p": 2, "k": 2, "r": 1, "eps": -48}),
    ("HARD_INVERT", "", {"p": 2, "k": 2, "r": 1, "eps": -96}),
    ("HARD_INVERT", "", {"p": 2, "k": 2, "r": 1, "eps": -192}),
    ("SEED71_UNIT", SEED71_UNIT, {"p": 7, "k": 1, "r": 1, "eps": -14}),
    ("DENSE_POWER", "x + 1", {"p": 2, "exponent": 2000}),
    ("NARROW_SQUARE", " + ".join(f"7*x^{i}" for i in range(1000)), {"p": 2, "exponent": 2}),
    ("ROOT_SCAN", "*".join(f"(x - {c})" for c in range(1, 61)) + "*d + 1", {"p": 101}),
    ("ROOT_SPLIT", "*".join(f"(x - {7 * c})" for c in range(1, 13)) + "*d + 1", {"p": 10007}),
    ("BLOWUP_SUPPORT", "*".join(f"(x - {3 + 101**e * u})" for e in range(4) for u in range(1, 16))
     + "*d + 1", {"p": 101, "c": 3, "m": 2}),
)
LADDER_CAP_S = 60
LADDER_REPEATS = 5
# one rung, run from the root of a checkout with the text and the levels of
# LADDER as arguments (name=value); it times the inversion, the power, the
# support on the blow-up or the cycle alone
RUNG = """import sys, time
sys.path[:0] = ["src", "perfbench"]
from workloads import hard_invert_operator
from padicdx import BlowupModel, PAdicScalar, char_cycle, micro_invert, support_on_blowup
from padicdx.opparse import parse, to_diff_op, to_micro_op
text, levels = sys.argv[1], {k: int(v) for k, v in (a.split("=") for a in sys.argv[2:])}
p = levels["p"]
if "eps" in levels:
    S = to_micro_op(parse(text, micro=True), p) if text else hard_invert_operator()
    start = time.perf_counter()
    micro_invert(S, levels["k"], levels["r"], levels["eps"])
elif "exponent" in levels:
    base = to_micro_op(parse(text, micro=True), p).coeffs[0]
    start = time.perf_counter()
    base ** levels["exponent"]
elif "m" in levels:
    P, B = to_diff_op(parse(text), p), BlowupModel(PAdicScalar(levels["c"], p), levels["m"])
    start = time.perf_counter()
    support_on_blowup(P, B)
else:
    P = to_diff_op(parse(text), p)
    start = time.perf_counter()
    char_cycle(P)
print(time.perf_counter() - start)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def src_lines(checkout: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in (checkout / "src").rglob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def rung(checkout: Path, text: str, levels: dict):
    try:
        proc = subprocess.run([sys.executable, "-c", RUNG, text,
                               *(f"{k}={v}" for k, v in levels.items())],
                              cwd=checkout, capture_output=True, text=True,
                              timeout=LADDER_CAP_S, check=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    return float(proc.stdout)


def sides(i: int) -> tuple:
    """The order of the i-th pair of runs: parent first when i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def ladder_spread(runs: list) -> dict:
    """The median, min and max of an odd number of runs, and the runs;
    ``"timeout"`` counts as slower than any time."""
    ordered = sorted(runs, key=lambda s: float("inf") if s == "timeout" else s)
    return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1],
            "runs": runs}


def summary(runs: list) -> dict:
    out = {"correct": all(r["correct"] for r in runs), "failed": sum(r["failed"] for r in runs)}
    for metric in BETTER:
        values = [r[metric] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--change", default="HEAD", help="the revision measured (default HEAD)")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    revs = {side: git("rev-parse", rev) for side, rev in
            (("parent", args.parent), ("change", args.change))}
    doc = {"sha": revs["change"], "parent_sha": revs["parent"],
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "seed": args.seed, "seconds": args.seconds,
           "command": "perfbench/run.py --trace 0", "workloads": {}}
    out = Path(args.out)
    if out.exists():
        old = json.loads(out.read_text())
        if (old["sha"], old["parent_sha"]) == (doc["sha"], doc["parent_sha"]):
            doc["workloads"] = old["workloads"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        doc["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        rungs = []
        for name, text, levels in LADDER:
            runs = {"parent": [], "change": []}
            for i in range(LADDER_REPEATS):
                for side in sides(i):
                    runs[side].append(rung(trees[side], text, levels))
                    print("ladder", name, levels, side, runs[side][-1], file=sys.stderr,
                          flush=True)
            rungs.append({"operator": name, **levels,
                          **{side: ladder_spread(values) for side, values in runs.items()}})
        doc["hard_ladder"] = {"cap_s": LADDER_CAP_S, "repeats": LADDER_REPEATS,
                              "operators": {"SEED71_UNIT": SEED71_UNIT}, "rungs": rungs}
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in sides(i):
                    runs[side].append(run_once(trees[side], workload, args.seed, args.seconds))
                    print(workload, i, side, runs[side][-1], file=sys.stderr, flush=True)
            wins = {m: sum((c[m] - p[m]) * sign > 0
                           for p, c in zip(runs["parent"], runs["change"]))
                    for m, sign in BETTER.items()}
            doc["workloads"][workload] = {
                "pairs": args.pairs, "parent": summary(runs["parent"]),
                "change": summary(runs["change"]), "change_wins": wins}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
