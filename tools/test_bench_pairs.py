"""``tools/bench_pairs.py``'s summary of one workload and seed, on
synthetic runs; no child process is started."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).with_name("bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(arm: str, run_s: list[float], problems=()) -> list[dict]:
    """One synthetic run per ``run_s`` value; the listed indices failed."""
    return [{"arm": arm, "run_s": v, "setup_s": 0.5, "peak_rss_mb": 100.0,
             "cpu_s": 2 * v, "steal_s": 0.0, "digest": "d",
             "drift_cosine": 1.0,
             "problems": ["drift"] if i in problems else []}
            for i, v in enumerate(run_s)]


def summary(parent, change, failed=None) -> dict:
    """``summarize`` of parent and change runs plus two serial ones;
    ``failed`` maps an arm to the indices of its failed runs."""
    failed = failed or {}
    return bench_pairs.summarize(
        [r for arm, values in (("parent", parent), ("change", change),
                               ("serial", [9.0, 9.0]))
         for r in runs(arm, values, failed.get(arm, ()))])


def test_a_tie_counts_for_neither_side():
    # pair 0 ties, pair 1 the change wins, pair 2 the parent wins
    row = summary([1.0, 2.0, 3.0], [1.0, 1.5, 4.0])["run_s"]
    assert row["pairs_change_better"] == "1 of 3"
    # equal metrics tie in every pair
    assert summary([1.0, 2.0], [1.0, 2.0])["setup_s"][
        "pairs_change_better"] == "0 of 2"


def test_parent_iqr_is_the_parent_arms_quartile_distance():
    row = summary([5.0, 1.0, 4.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0, 50.0])[
        "run_s"]
    assert row["parent"] == {"median": 3.0, "q1_q3": [2.0, 4.0]}
    assert row["parent_iqr"] == 2.0
    assert row["change_over_parent"] == pytest.approx(30.0 / 3.0)


def test_failed_counts_runs_with_problems():
    s = summary([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                {"parent": (1,), "change": (0, 2), "serial": (1,)})
    assert s["failed"] == 4
    assert summary([1.0, 2.0], [1.0, 2.0])["failed"] == 0
