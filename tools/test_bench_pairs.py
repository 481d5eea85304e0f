"""``tools/bench_pairs.py``'s summary of one workload and seed, and a
whole session with one failed run, on synthetic runs; no child process is
started but in the bytecode test, which starts four bare interpreters."""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).with_name("bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(arm: str, run_s: list[float], problems=()) -> list[dict]:
    """One synthetic run per ``run_s`` value; the listed indices failed."""
    return [{"arm": arm, "pair": i, "run_s": v, "setup_s": 0.5,
             "peak_rss_mb": 100.0, "cpu_s": 2 * v, "steal_s": 0.0,
             "digest": "d",
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


def test_a_tie_is_within_the_bound():
    row = summary([2.0, 2.01, 2.02], [2.0, 2.01, 2.02])["run_s"]
    assert row["verdict"] == "within_bound"


def test_a_win_in_every_pair_inside_the_parents_iqr_is_no_gain():
    # the change wins all 10 pairs, but by 0.05 against an IQR of 0.225
    parent = [2.0 + 0.05 * i for i in range(10)]
    row = summary(parent, [v - 0.05 for v in parent])["run_s"]
    assert row["pairs_change_better"] == "10 of 10"
    assert row["parent_iqr"] == pytest.approx(0.225)
    assert row["verdict"] == "within_bound"
    # by 0.3, past the IQR, it is a gain
    assert summary(parent, [v - 0.3 for v in parent])["run_s"][
        "verdict"] == "gain"


def test_a_loss_beyond_the_bound_is_flagged():
    bound = bench_pairs.METRIC_SPECS["run_s"]["bound"]
    parent = [2.0] * 10
    row = summary(parent, [2.0 * (1 + bound) + 0.01] * 10)["run_s"]
    assert row["pairs_change_better"] == "0 of 10"
    assert row["verdict"] == "worse_beyond_bound"
    assert summary(parent, [2.0 * (1 + bound) - 0.01] * 10)["run_s"][
        "verdict"] == "within_bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 1.0 on a median of 2.0, wider than the bound
    parent = [1.0, 1.5, 2.0, 2.5, 3.0]
    assert bench_pairs.METRIC_SPECS["run_s"]["bound"] < 0.5
    assert summary(parent, parent)["run_s"]["verdict"] == "unresolved"
    # even with a median worse by more than the bound
    assert summary(parent, [v + 0.9 for v in parent])["run_s"][
        "verdict"] == "unresolved"
    # runs that do not overlap the parent's resolve it either way
    assert summary(parent, [3.1] * 5)["run_s"]["verdict"] == \
        "worse_beyond_bound"
    assert summary(parent, [0.9] * 5)["run_s"]["verdict"] == "gain"


class RunFailed(Exception):
    pass


def stub_run(root: Path, log: list, fail_at: int) -> types.SimpleNamespace:
    """A stand-in for a tree's ``perfbench/run.py`` whose ``spawn`` starts
    nothing: each call returns run time ``1 + call index`` and a fixed
    latent, and call ``fail_at`` raises ``RunFailed``."""
    z = np.ones((2, 3))

    def spawn(spec, timeout):
        log.append(spec)
        if len(log) - 1 == fail_at:
            raise RunFailed("exit code 1: boom")
        return {"run_s": float(len(log)), "setup_s": 0.1, "peak_rss_mb": 9.0,
                "blas": {"threads": 1},
                "scmbench": str(root / "src" / "scmbench" / "__init__.py")}, z

    def check_run(got, reference, expected, exact):
        return "d", 1.0, []

    return types.SimpleNamespace(
        ROOT=root, SRC=root / "src", DEV_SEED=0, HOLDOUT_SEED=1,
        WORKLOADS={"w": {"mode": "turbo"}}, RunFailed=RunFailed, spawn=spawn,
        check_run=check_run, dense_reference=lambda config: (config, z),
        machine=lambda blas: {"blas_threads": blas})


def stub_session(tmp_path: Path, monkeypatch) -> dict:
    """The output of a one-pair session of ``tmp_path``'s ``parent`` and
    ``change`` trees through ``stub_run``, which builds nothing."""
    stub = stub_run(tmp_path, [], fail_at=-1)
    monkeypatch.setattr(bench_pairs, "load_run", lambda tree, name: stub)
    monkeypatch.setattr(bench_pairs, "build_kernels", lambda src: None)
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "out.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                      str(out)])
    return json.loads(out.read_text())


def test_a_failed_run_is_recorded_and_its_pair_left_out(tmp_path,
                                                        monkeypatch):
    # Two pairs per seed: parent, change, serial, then serial, change,
    # parent. The second call, seed 0's first change run, fails.
    for tree in ("parent", "change"):
        (tmp_path / tree / "src").mkdir(parents=True)
    log: list = []
    stub = stub_run(tmp_path, log, fail_at=1)
    monkeypatch.setattr(bench_pairs, "load_run", lambda tree, name: stub)
    monkeypatch.setattr(bench_pairs, "build_kernels", lambda src: None)
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "out.json"
    code = bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert len(log) == len(doc["runs"]) == 12
    failed = doc["runs"][1]
    assert (failed["arm"], failed["seed"], failed["pair"]) == ("change", 0, 0)
    assert failed["problems"] == ["exit code 1: boom"]
    assert "run_s" not in failed and "digest" not in failed
    seed0, seed1 = doc["summary"]["w/seed0"], doc["summary"]["w/seed1"]
    assert (seed0["failed"], seed1["failed"]) == (1, 0)
    assert (seed0["pairs"], seed1["pairs"]) == (1, 2)
    # the parent's spread keeps both its runs; the change's has one left
    assert seed0["run_s"]["parent"]["median"] == (1.0 + 6.0) / 2
    assert seed0["run_s"]["change"] is None
    # pair 1 only: change 5.0 against parent 6.0, not parent 1.0
    assert seed0["run_s"]["pairs_change_better"] == "1 of 1"
    assert seed0["final_latent_sha256"] == ["d"]


def test_both_trees_are_built_before_the_first_run(tmp_path, monkeypatch):
    # Builds and runs go to one log: the two builds come first.
    log: list = []
    stubs = {}
    for tree in ("parent", "change"):
        (tmp_path / tree / "src").mkdir(parents=True)
        stubs[tree] = stub_run(tmp_path / tree, log, fail_at=-1)
    monkeypatch.setattr(bench_pairs, "load_run",
                        lambda tree, name: stubs[tree.name])
    monkeypatch.setattr(bench_pairs, "build_kernels",
                        lambda src: log.append(("built", src)))
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"),
                             str(tmp_path / "out.json")]) == 0
    assert log[:2] == [("built", tmp_path / "parent" / "src"),
                       ("built", tmp_path / "change" / "src")]
    # then one run per arm and seed, none of them a build
    assert len(log) == 2 + 6
    assert all(isinstance(spec, dict) for spec in log[2:])


def test_the_source_digest_covers_the_c_kernels_and_nothing_built(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (package / "k.c").write_text("int k;\n")
    first = bench_pairs.source_digest(tmp_path)
    (package / "k.so").write_bytes(b"\x7fELF")
    assert bench_pairs.source_digest(tmp_path) == first
    (package / "k.c").write_text("int k = 1;\n")
    second = bench_pairs.source_digest(tmp_path)
    assert second != first
    (package / "a.py").write_text("x = 2\n")
    assert bench_pairs.source_digest(tmp_path) not in (first, second)


def test_source_lines_count_newlines_by_language(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, as wc -l
    (package / "k.c").write_text("int k;\n\n")
    (package / "k.so").write_bytes(b"\n\n\n")
    assert bench_pairs.source_lines(tmp_path) == {"python": 2, "c": 2}
    # a session records both trees' counts next to their digests
    for tree in ("parent", "change"):
        (tmp_path / tree / "src").mkdir(parents=True)
    (tmp_path / "change" / "src" / "m.py").write_text("a\nb\nc\n")
    sources = stub_session(tmp_path, monkeypatch)["sources"]
    assert sources["parent"] == {
        "sha256": bench_pairs.source_digest(tmp_path / "parent"),
        "lines": {"python": 0, "c": 0}}
    assert sources["change"]["lines"] == {"python": 3, "c": 0}


@pytest.mark.parametrize("value, writes", [(None, True), ("", True),
                                           ("1", False)],
                         ids=["unset", "empty", "set"])
def test_the_machine_records_whether_children_write_bytecode(
        tmp_path, monkeypatch, value, writes):
    # The children inherit PYTHONDONTWRITEBYTECODE; Python honours it only
    # when it is non-empty.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    for tree in ("parent", "change"):
        (tmp_path / tree / "src").mkdir(parents=True)
    machine = stub_session(tmp_path, monkeypatch)["machine"]
    assert machine["child_writes_bytecode"] is writes


def test_each_trees_children_import_that_trees_compiled_files(tmp_path,
                                                              monkeypatch):
    # Each tree's package is compiled, then its source changes without a
    # change of size or time stamp, so a child that imports the compiled
    # file sees the first value and one that compiles the source the
    # second.
    for tree, value in (("parent", 1), ("change", 2)):
        source = tmp_path / tree / "src" / "scmbench" / "__init__.py"
        source.parent.mkdir(parents=True)
        source.write_text(f"WHO = {value}\n")
        bench_pairs.build_kernels(source.parent.parent)
        stat = source.stat()
        source.write_text(f"WHO = {value + 6}\n")
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    seen = {}

    def child_of(root: Path) -> types.SimpleNamespace:
        def spawn(spec, timeout):
            # A child with this process's environment, as run.spawn's is.
            who, cached = subprocess.run(
                [sys.executable, "-c", "import sys; "
                 "sys.path.insert(0, sys.argv[1]); import scmbench; "
                 "print(scmbench.WHO, scmbench.__cached__)",
                 str(root / "src")], capture_output=True, text=True,
                check=True).stdout.split()
            seen[root.name] = int(who), Path(cached)
            return {"run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 9.0,
                    "blas": None,
                    "scmbench": str(root / "src" / "scmbench")}, None

        return types.SimpleNamespace(ROOT=root, SRC=root / "src",
                                     RunFailed=RunFailed, spawn=spawn)

    for tree in ("parent", "change"):
        bench_pairs.one_run(child_of(tmp_path / tree), {}, serial=False)
    for tree, value in (("parent", 1), ("change", 2)):
        who, cached = seen[tree]
        assert who == value
        assert cached.is_relative_to(
            bench_pairs.bytecode_dir(tmp_path / tree / "src"))
    assert "PYTHONPYCACHEPREFIX" not in os.environ


def test_the_machine_records_where_children_read_bytecode(tmp_path,
                                                          monkeypatch):
    for tree in ("parent", "change"):
        (tmp_path / tree / "src").mkdir(parents=True)
    assert stub_session(tmp_path, monkeypatch)["machine"][
        "child_bytecode_dir"] == ".bench_build/pycache"
