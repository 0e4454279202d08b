"""Byte-for-byte replay of the six demos.

``tests/golden/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``
as first recorded; each demo runs in a fresh interpreter with ``src`` on
the path and must print exactly that.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    assert len(DEMOS) == 6
    assert sorted(g.stem for g in GOLDEN.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_recording(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
