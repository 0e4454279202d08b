"""Quick self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs one pass of every workload on seed 1 and checks every output as
the benchmark does, then hands the checks deliberately corrupted answers,
each of which they must reject: an inverse with one coefficient changed,
a cycle with a dropped factor, a product with one coefficient changed and
a CLI document with a wrong value.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run
from workloads import CheckFailed, load_validator

SEED = 1


def _bump(poly: list):
    poly[0] += 1


def corrupt_product(c):
    prod, norms = copy.deepcopy(c)
    _bump(prod[min(prod)])
    return prod, norms


def corrupt_inverse(c):
    T, rho = copy.deepcopy(c)
    _bump(T[max(T)])
    return T, rho


def corrupt_cycle(c):
    cc, support, ok = copy.deepcopy(c)
    cc["vertical"].pop(0)
    return cc, support, ok


def corrupt_document(c):
    code, text = c
    doc = json.loads(text)
    doc["norm_exp"] = (doc["norm_exp"] or 0) + 1
    return code, json.dumps(doc)


CORRUPTIONS = {
    "products": ("a product with one coefficient changed", corrupt_product, lambda op, c: True),
    "inversion": ("an inverse with one coefficient changed", corrupt_inverse,
                  lambda op, c: True),
    "cycles": ("a cycle with a dropped factor", corrupt_cycle,
               lambda op, c: len(c[0]["vertical"]) > 1),
    "cli": ("a norm document with a wrong exponent", corrupt_document,
            lambda op, c: op.label.startswith("norm ") and c[0] == 0),
}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    validator = load_validator(run.ROOT)
    ok = True
    for name in run.WORKLOADS:
        bench = run.Run(run.build(name, SEED, validator), run.Clock())
        failed = bench.one_pass().failed
        good = bench.verify()
        print(f"{name}: one pass, {len(bench.wl.ops)} ops, {failed} failed, "
              f"checks {'pass' if good else 'FAIL'}")
        ok &= good
        what, corrupt, usable = CORRUPTIONS[name]
        i, c = next((i, c) for i, c in sorted(bench.outputs.items())
                    if usable(bench.wl.ops[i], c))
        try:
            bench.wl.ops[i].verify(corrupt(c))
        except CheckFailed as exc:
            print(f"{name}: {what} is rejected ({exc})")
        else:
            print(f"{name}: {what} is ACCEPTED")
            ok = False
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
