"""Benchmark harness: config precedence, reports, determinism, CLI."""

import json
import math

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmbench import RunConfig, build_config, emit_report, run_benchmark
from scmbench.bench import UsageError, _execute
from scmbench.cli import main


SMALL = dict(frames=2, views=2, height=4, width=4, channels=8, layers=2,
             steps=6)


def small_config(**over):
    return RunConfig(**{**SMALL, **over})


# --- config building ------------------------------------------------------

def test_defaults_match_contract():
    c = RunConfig()
    assert (c.frames, c.views, c.steps) == (5, 8, 20)
    assert c.topk_ratio == 0.2
    assert c.delta_t == 3
    assert c.alpha_threshold == 0.9
    assert c.elevation_deg == 30.0


def test_build_config_precedence():
    c = build_config(file_values={"alpha_threshold": 0.8},
                     flag_values={"alpha_threshold": 0.95})
    assert c.alpha_threshold == 0.95


def test_build_config_unknown_key():
    with pytest.raises(UsageError, match="bogus"):
        build_config(file_values={"bogus": 1})


def test_build_config_range_errors():
    with pytest.raises(UsageError):
        build_config(flag_values={"topk_ratio": 1.5})
    with pytest.raises(UsageError):
        build_config(flag_values={"mode": "warp"})
    with pytest.raises(UsageError):
        build_config(flag_values={"steps": 0})
    # Dims and SamplerConfig check most ranges; RunConfig re-raises their
    # errors, which still name the field
    for values in ({"topk_ratio": 0.0}, {"alpha_threshold": -1.0},
                   {"warmup": -1}, {"delta_t": -1}, {"views": 0},
                   {"n_heads": 3}, {"layers": 0}, {"mode": "warp"},
                   {"mode": "turbo", "warmup": 0}):
        with pytest.raises(UsageError, match=list(values)[-1]):
            RunConfig(**values)


@pytest.mark.parametrize("values", [
    {"frames": "5"},
    {"frames": 2.5},
    {"steps": True},
    {"topk_ratio": True},
    {"alpha_threshold": float("nan")},
    {"alpha_threshold": float("inf")},
    {"elevation_deg": float("-inf")},
    {"per_axis_ratio": 1},
    {"mode": None},
])
def test_build_config_rejects_wrong_types(values):
    (key,) = values
    with pytest.raises(UsageError, match=key):
        build_config(None, values)


def test_build_config_accepts_an_int_for_a_float():
    assert build_config(None, {"alpha_threshold": 1}).alpha_threshold == 1


_FIELD_KINDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["dense", "turbo", "prune-only"]),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(sorted(_FIELD_KINDS)), _ANY_VALUE,
                       max_size=5))
def test_build_config_fuzz(values):
    # Any value either yields a config whose fields have their declared
    # types (bool is not a number, floats are finite) or a UsageError.
    try:
        config = build_config(values)
    except UsageError:
        return
    for name, kind in _FIELD_KINDS.items():
        value = getattr(config, name)
        if kind == "bool":
            assert isinstance(value, bool)
        elif kind == "str":
            assert isinstance(value, str)
        else:
            assert not isinstance(value, bool)
            assert isinstance(value, int if kind == "int" else (int, float))
            assert math.isfinite(value)


# --- run + report ---------------------------------------------------------

def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing", None)
    return doc


def test_dense_self_comparison():
    report = run_benchmark(small_config(mode="dense", compare_dense=True))
    assert report.drift_cosine == pytest.approx(1.0, abs=1e-12)
    assert math.isinf(report.drift_psnr_db)
    assert report.dense_counters.flops_total == report.counters.flops_total


def test_totals_equal_step_sums():
    report = _execute(small_config(mode="turbo", warmup=2))
    doc = report.to_dict()
    for key in ("flops_attention", "flops_ffn", "flops_mixing"):
        assert doc["totals"][key] == sum(s[key] for s in doc["steps"])


def test_report_json_deterministic(tmp_path):
    cfg = small_config(mode="turbo", warmup=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(_execute(cfg), p1)
    emit_report(_execute(cfg), p2)
    d1 = strip_timing(json.loads(p1.read_text()))
    d2 = strip_timing(json.loads(p2.read_text()))
    assert json.dumps(d1, sort_keys=False) == json.dumps(d2, sort_keys=False)


def test_report_reemit_byte_identical(tmp_path):
    report = _execute(small_config(mode="dense"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, p1)
    emit_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_step_csv_row_count(tmp_path):
    report = _execute(small_config(mode="dense"))
    emit_report(report, tmp_path / "r.json")
    rows = (tmp_path / "r_steps.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + SMALL["steps"]


def test_drift_present_iff_compare():
    plain = run_benchmark(small_config(mode="turbo", warmup=2))
    assert "drift" not in plain.to_dict()
    compared = run_benchmark(small_config(mode="turbo", warmup=2,
                                          compare_dense=True))
    assert "drift" in compared.to_dict()


def test_all_modes_run():
    for mode in ("dense", "turbo", "cache-only", "prune-only", "bypass-only",
                 "random-prune"):
        report = _execute(small_config(mode=mode, warmup=2))
        assert np.all(np.isfinite(report.z_final))


def test_flop_cost_ordering():
    dense = _execute(small_config(mode="dense"))
    cache_only = _execute(small_config(mode="cache-only", warmup=2))
    turbo = _execute(small_config(mode="turbo", warmup=2))
    assert dense.counters.flops_total > cache_only.counters.flops_total
    assert cache_only.counters.flops_total > turbo.counters.flops_total


# --- CLI ------------------------------------------------------------------

def test_cli_run_and_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["run", "--mode", "dense", "--frames", "2", "--views", "2",
                 "--height", "4", "--width", "4", "--channels", "8",
                 "--layers", "2", "--steps", "4", "--out", str(out)])
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["config"]["mode"] == "dense"
    assert "report:" in capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    assert main(["run", "--topk-ratio", "1.5"]) == 2
    assert "topk_ratio" in capsys.readouterr().err


def test_cli_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL, "mode": "dense",
                               "alpha_threshold": 0.8}))
    out = tmp_path / "r.json"
    code = main(["run", "--config", str(cfg), "--alpha-threshold", "0.95",
                 "--steps", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["alpha_threshold"] == 0.95
    assert doc["config"]["steps"] == 4


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "--param", "topk_ratio", "--values", "0.5,1.0",
                 "--mode", "prune-only", "--frames", "2", "--views", "2",
                 "--height", "4", "--width", "4", "--channels", "8",
                 "--layers", "2", "--steps", "4", "--warmup", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep_topk_ratio_0.5.json").exists()
    assert (tmp_path / "sweep_topk_ratio_1.0.json").exists()


def test_cli_compare(tmp_path):
    out = tmp_path / "c.json"
    code = main(["compare", "--mode", "turbo", "--frames", "2", "--views",
                 "2", "--height", "4", "--width", "4", "--channels", "8",
                 "--layers", "2", "--steps", "6", "--warmup", "2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "drift" in doc
    assert "speedup" in doc["timing"]


def test_cli_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg)]) == 2


_TINY = ["--frames", "2", "--views", "2", "--height", "4", "--width", "4",
         "--channels", "8", "--layers", "1", "--steps", "2", "--warmup", "1"]


@pytest.mark.parametrize("param, values, bad", [
    ("frames", "x", "'x'"),            # int
    ("frames", "2,2.5", "'2.5'"),
    ("topk_ratio", "0.5,half", "'half'"),  # float
    ("zero_refill", "maybe", "'maybe'"),   # bool
    ("per_axis_ratio", "true,2", "'2'"),
    ("frames", "1,,2", "''"),          # empty item
    ("mode", "dense,", "''"),
])
def test_cli_sweep_rejects_bad_values(tmp_path, capsys, param, values, bad):
    code = main(["sweep", "--param", param, "--values", values, *_TINY,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert param in err and bad in err
    assert not list(tmp_path.iterdir())  # rejected before any run


def test_cli_sweep_rejects_a_bad_value_before_any_run(tmp_path, capsys):
    # the literal parses, the config check fails: still nothing runs
    code = main(["sweep", "--param", "topk_ratio", "--values", "0.5,1.5",
                 *_TINY, "--out", str(tmp_path)])
    assert code == 2
    assert "topk_ratio" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("param,values,first,again", [
    ("seed", "1, 1,2", "'1'", "'1'"),
    ("topk_ratio", "0.5,.5", "'0.5'", "'.5'"),
])
def test_cli_sweep_rejects_a_repeated_value(tmp_path, capsys, param, values,
                                            first, again):
    # one config would run twice, and its report file be written twice
    code = main(["sweep", "--param", param, "--values", values, *_TINY,
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert param in err and f"{again} repeats {first}" in err
    assert not list(tmp_path.iterdir())  # rejected before any run


def test_cli_sweep_bool_literals(tmp_path, capsys):
    code = main(["sweep", "--param", "zero_refill", "--values", "no,YES",
                 "--mode", "prune-only", *_TINY, "--out", str(tmp_path)])
    assert code == 0
    written = {p.name: json.loads(p.read_text())["config"]["zero_refill"]
               for p in tmp_path.glob("sweep_*.json")}
    assert written == {"sweep_zero_refill_no.json": False,
                       "sweep_zero_refill_YES.json": True}
