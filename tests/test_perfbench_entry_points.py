"""The traced benchmark run reaches the package by name: every entry
point ``perfbench/spans.py`` wraps must exist, or only that run fails."""

import importlib.util
import pathlib

from padicdx import PAdicScalar

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sites(spans):
    return [(owner, attr) for _, pairs in spans.entry_points() for owner, attr in pairs]


def test_every_traced_entry_point_resolves():
    sites = _sites(_spans())
    assert sites
    for owner, attr in sites:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_count_mode_wraps_and_restores_every_site():
    spans = _spans()
    tracer = spans.Tracer(clock=None)
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in _sites(spans)]
    init = PAdicScalar.__init__
    tracer.install("count")
    try:
        # a scalar built by a field operator runs the wrapped constructor
        PAdicScalar(1, 2) + 1
    finally:
        tracer.uninstall()
    assert tracer.take()[1]["scalars.objects"] == 2
    assert PAdicScalar.__init__ is init
    assert all(getattr(owner, attr) is fn for owner, attr, fn in before)
