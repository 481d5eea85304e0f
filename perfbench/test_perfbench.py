"""Tests of the benchmark itself: checker, names, tracer restore and
bit-identity. Tiny dims keep every run well under a second."""

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402
from scmbench import build_config, run_benchmark  # noqa: E402

TINY = dict(frames=2, views=2, height=4, width=4, channels=8, layers=3,
            steps=6)


def test_checker_accepts_identical_and_flags_tampered_latent():
    ref = np.linspace(-1.0, 1.0, 2 * 3 * 4).reshape(2, 3, 4)
    d, cos, problems = bench.check_run(ref.copy(), ref, None, exact=True)
    assert (cos, problems) == (1.0, [])

    tampered = ref.copy()
    tampered[1, 2, 3] = np.nextafter(tampered[1, 2, 3], 2.0)
    _, _, problems = bench.check_run(tampered, ref, d, exact=True)
    assert any("SHA-256" in p for p in problems)
    assert any("bit-identical" in p for p in problems)

    tampered[0, 0, 0] = np.nan
    _, _, problems = bench.check_run(tampered, ref, None, exact=False)
    assert any("not finite" in p for p in problems)


def test_checker_flags_digest_mismatch_and_drift_below_gate():
    ref = np.ones((4, 4))
    other = np.eye(4)  # cosine 0.5 against ref
    _, cos, problems = bench.check_run(other, ref, bench.digest(ref),
                                       exact=False)
    assert cos == pytest.approx(0.5)
    assert any("SHA-256" in p for p in problems)
    assert any("below" in p for p in problems)
    # Close enough, matching digest: an accelerated run passes.
    near = ref + 1e-3 * other
    assert bench.check_run(near, ref, bench.digest(near), exact=False)[2] == []


def _declared():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"]}, \
        {m["name"]: m["unit"] for m in doc["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(trace, monkeypatch, tmp_path,
                                            capsys):
    doc, end_to_end, per_layer = _declared()
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    tiny = {name: dict(cfg, **TINY) for name, cfg in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", tiny)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    code = bench.main(["--workload", "turbo", "--seconds", "0",
                       "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = per_layer if trace else end_to_end
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name in [*end_to_end, "failed_frac"]:
        assert f"  {name} " in out


def test_peak_rss_is_the_runs_own_not_the_parents():
    ballast = np.ones(int(150e6 / 8))  # the parent's peak RSS is now > 150 MB
    header, _ = bench.spawn({"config": dict(TINY, mode="dense")}, timeout=120)
    assert header["peak_rss_mb"] < 100 < ballast.nbytes / 1e6


def _lookups():
    found = []
    for module_name, attrs in tracer.PATCHED_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        found += [(module, a, getattr(module, a)) for a in attrs]
    for module_name, classes in tracer.PATCHED_METHODS.items():
        module = importlib.import_module(module_name)
        for cls_name, attrs in classes.items():
            cls = getattr(module, cls_name)
            found += [(cls, a, vars(cls)[a]) for a in attrs]
    return found


def test_tracer_restores_every_wrapped_name():
    before = _lookups()
    with tracer.Tracer() as t:
        assert t.missing == []
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, attr


@pytest.mark.parametrize("mode", ["dense", "turbo", "prune-only"])
def test_traced_run_is_bit_identical_to_untraced(mode):
    config = build_config(None, dict(TINY, mode=mode))
    plain = run_benchmark(config).z_final
    with tracer.Tracer() as t:
        start = time.perf_counter()
        report = run_benchmark(config)
        run_s = time.perf_counter() - start
    assert np.array_equal(report.z_final, plain)
    m = t.metrics(report, run_s)
    assert set(m) == set(bench.PER_LAYER) - {"trace.overhead_s"}
    assert (m["cache.ops.store"] > 0) == (mode != "dense")
    assert 0.5 < m["trace.coverage"] <= 1.0
