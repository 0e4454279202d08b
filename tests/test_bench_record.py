"""The pure helpers of ``tools/bench_record.py``, which build every
``BENCH_<n>.json``: the order of a pair, the spread of a ladder rung and
the summary of a workload's runs."""

import importlib.util
import pathlib

import pytest

BENCH_RECORD = pathlib.Path(__file__).parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", BENCH_RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sides_alternate_parent_first_on_even_pairs(bench_record):
    assert [bench_record.sides(i) for i in range(4)] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


@pytest.mark.parametrize(
    "runs, median, low, high",
    [
        ([0.3, 0.1, 0.2], 0.2, 0.1, 0.3),
        ([0.5, "timeout", 0.4], 0.5, 0.4, "timeout"),
        (["timeout", 2.0, "timeout"], "timeout", 2.0, "timeout"),
        ([0.7], 0.7, 0.7, 0.7),
    ],
)
def test_ladder_spread_sorts_timeouts_last_and_takes_the_middle_run(
    bench_record, runs, median, low, high
):
    assert bench_record.ladder_spread(runs) == {
        "median": median, "min": low, "max": high, "runs": runs,
    }


def _run(bench_record, value, correct=True, failed=0):
    return {"correct": correct, "failed": failed, **{m: value for m in bench_record.BETTER}}


def test_summary_of_one_run_has_equal_quartiles(bench_record):
    out = bench_record.summary([_run(bench_record, 2.5, failed=1)])
    assert out["correct"] is True and out["failed"] == 1
    for metric in bench_record.BETTER:
        assert out[metric] == {"median": 2.5, "q1": 2.5, "q3": 2.5, "runs": [2.5]}


def test_summary_ands_correct_and_sums_failed_over_runs(bench_record):
    runs = [
        _run(bench_record, 1.0),
        _run(bench_record, 2.0, failed=2),
        _run(bench_record, 3.0, correct=False, failed=1),
        _run(bench_record, 4.0),
    ]
    out = bench_record.summary(runs)
    assert out["correct"] is False and out["failed"] == 3
    assert set(out) == {"correct", "failed", *bench_record.BETTER}
    for metric in bench_record.BETTER:
        # statistics.quantiles' default, exclusive method
        assert out[metric] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "runs": [1.0, 2.0, 3.0, 4.0]}
    assert bench_record.summary(runs[:2])["correct"] is True
