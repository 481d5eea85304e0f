"""Benchmark harness: config precedence, reports, determinism, CLI."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scmbench import (Rng, RunConfig, build_config, emit_report,
                      run_benchmark)
from scmbench import cli
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
    # RunConfig checks every range itself; each message names the field
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
    {"topk_ratio": float("-inf")},
    {"zero_refill": 1},
    {"mode": None},
    {"topk_ratio": 10 ** 400},  # an int too large for a float
    {"frames": True},
    {"channels": 8.0},
])
def test_build_config_rejects_wrong_types(values):
    (key,) = values
    with pytest.raises(UsageError, match=key):
        build_config(None, values)


def test_build_config_accepts_an_int_for_a_float():
    value = build_config(None, {"alpha_threshold": 1}).alpha_threshold
    assert value == 1 and type(value) is float


def test_int_and_float_configs_give_the_same_report():
    a, b = small_config(topk_ratio=1), small_config(topk_ratio=1.0)
    assert a == b
    docs = [strip_timing(run_benchmark(c).to_dict()) for c in (a, b)]
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_numpy_int_seed_runs_as_its_int():
    config = small_config(seed=np.int64(3), steps=2)
    assert type(config.seed) is int
    assert np.array_equal(run_benchmark(config).z_final,
                          run_benchmark(small_config(seed=3, steps=2)).z_final)


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
    assert_declared_types(config)


def assert_declared_types(config):
    for name, kind in _FIELD_KINDS.items():
        value = getattr(config, name)
        if kind == "bool":
            assert isinstance(value, bool)
        elif kind == "str":
            assert isinstance(value, str)
        else:
            assert type(value) is (int if kind == "int" else float)
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


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Each size fails at once under any overcommit setting: 2**62 frames or
# schedule steps are past numpy's size limit, and at H = W = 10**6 one
# prior (2.27 PiB) is past the 128 TiB user address space.
@pytest.mark.parametrize("dims", [
    ["--frames", str(2 ** 62)],
    ["--height", "1000000", "--width", "1000000"],
    ["--steps", str(2 ** 62)],
], ids=["frames", "height-width", "steps"])
def test_cli_run_reports_an_oversized_config_in_one_line(tmp_path, capsys,
                                                         dims):
    out = tmp_path / "r.json"
    assert main(["run", "--steps", "1", *dims, "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_cli_run_reports_oversized_layers_before_any_draw(tmp_path, capsys,
                                                         monkeypatch):
    # No one layer's draw is oversized, so the whole model must be checked
    # before the first one.
    def no_draw(self, shape):
        pytest.fail(f"drew {shape} uniforms for an oversized model")

    monkeypatch.setattr(Rng, "uniform", no_draw)
    out = tmp_path / "r.json"
    assert main(["run", "--steps", "1", "--layers", str(2 ** 62),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "model weights" in err
    assert not out.exists()


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


_SIM_HEADER = "step,layer,kind,cosine\n"


def test_cli_similarity_csv_in_every_mode(tmp_path):
    # a mode with no cache still gets its similarity CSV, header only, so
    # a sweep over modes writes one per report
    small = ["--frames", "2", "--views", "2", "--height", "4", "--width",
             "4", "--channels", "8", "--layers", "2", "--steps", "4"]
    assert main(["run", "--mode", "dense", "--similarity-csv", *small,
                 "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r_similarity.csv").read_text() == _SIM_HEADER
    assert main(["sweep", "--param", "mode", "--values", "dense,cache-only",
                 "--similarity-csv", *small, "--out", str(tmp_path)]) == 0
    dense = tmp_path / "sweep_mode_dense_similarity.csv"
    cached = tmp_path / "sweep_mode_cache-only_similarity.csv"
    assert dense.read_text() == _SIM_HEADER
    assert cached.read_text().startswith(_SIM_HEADER)
    assert len(cached.read_text().splitlines()) > 1


def _out_help(command: str) -> str:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.help for a in sub.choices[command]._actions
                if "--out" in a.option_strings)


def test_cli_out_help_names_each_subcommands_output():
    assert _out_help("run") == "report path (default: <outdir>/report.json)"
    assert _out_help("sweep") == \
        "directory for the reports (default: <outdir>)"


def test_cli_compare(tmp_path):
    out = tmp_path / "c.json"
    code = main(["run", "--compare-dense", "--mode", "turbo", "--frames",
                 "2", "--views", "2", "--height", "4", "--width", "4",
                 "--channels", "8", "--layers", "2", "--steps", "6",
                 "--warmup", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "drift" in doc
    assert "speedup" in doc["timing"]


def test_cli_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("content", [
    b'{"seed": ' + b"1" * 5000 + b"}",  # past the int literal digit limit
    b'{"mode": "\xff"}',                 # not UTF-8
], ids=["int-too-long", "not-utf8"])
def test_cli_unreadable_config_file(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: config file")


_TINY = ["--frames", "2", "--views", "2", "--height", "4", "--width", "4",
         "--channels", "8", "--layers", "1", "--steps", "2", "--warmup", "1"]


@pytest.mark.parametrize("param, values, bad", [
    ("frames", "x", "'x'"),            # int
    ("frames", "2,2.5", "'2.5'"),
    ("topk_ratio", "0.5,half", "'half'"),  # float
    ("zero_refill", "maybe", "'maybe'"),   # bool
    ("compare_dense", "true,2", "'2'"),
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


def test_cli_sweep_reports_an_oversized_config_in_one_line(tmp_path, capsys):
    for param in ("frames", "steps"):
        out = tmp_path / param
        code = main(["sweep", "--param", param, "--values", f"2,{2 ** 62}",
                     *_TINY, "--out", str(out)])
        assert code == 2, param
        assert_one_error_line(capsys.readouterr().err)
        assert (out / f"sweep_{param}_2.json").exists(), param


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


# One literal per declared type, valid for every field of that type.
_LITERALS = {"int": "2", "float": "0.5", "bool": "true", "str": "dense"}
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig),
                         ids=lambda f: f.name)
def test_cli_parses_each_field_as_its_declared_type(field):
    flag = "--" + field.name.replace("_", "-")
    literal = _LITERALS[field.type]
    argv = ["run", flag] + ([] if field.type == "bool" else [literal])
    from_flag = cli._flag_values(cli.build_parser().parse_args(argv))
    from_sweep = cli._parse_sweep_value(field.name, literal)
    for value in (from_flag[field.name], from_sweep):
        assert type(value) is _TYPES[field.type]
        assert getattr(build_config(None, {field.name: value}),
                       field.name) == value


# --- CLI fuzz ---------------------------------------------------------------

class _Reached(Exception):
    """Raised by the stand-in for run_benchmark: the config was accepted."""


def _stub_run(config):
    assert isinstance(config, RunConfig)
    assert_declared_types(config)
    raise _Reached


def _exit_code(argv) -> int | None:
    """main's exit code, argparse's included; None if the stub was reached."""
    try:
        return main(argv)
    except _Reached:
        return None
    except SystemExit as exc:
        return exc.code


_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(), st.text(max_size=6),
                    st.sampled_from(["dense", "turbo", "random-prune"]))
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_LITERAL = st.one_of(
    st.text(max_size=6), st.integers(-3, 70).map(str), st.floats().map(repr),
    st.sampled_from(["true", "NO", "dense", "warp", " 1", "1e999", "nan"]),
)
_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(doc=st.one_of(_JSON, st.dictionaries(
    st.sampled_from(sorted(_FIELD_KINDS)), _JSON, max_size=6)))
def test_cli_run_config_file_fuzz(tmp_path, monkeypatch, capsys, doc):
    # Any JSON file either yields a valid config or exit code 2, cleanly.
    monkeypatch.setattr(cli, "run_benchmark", _stub_run)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = _exit_code(["run", "--config", str(path)])
    assert code in (None, 2)
    assert "Traceback" not in capsys.readouterr().err


@_FUZZ
@given(param=st.one_of(st.sampled_from(sorted(_FIELD_KINDS)),
                       st.text(max_size=6)),
       text=st.one_of(st.text(), st.lists(_LITERAL, min_size=1,
                                          max_size=4).map(",".join)))
def test_cli_sweep_values_fuzz(tmp_path, monkeypatch, capsys, param, text):
    # Any --param/--values pair either yields valid configs or exit code 2.
    monkeypatch.setattr(cli, "run_benchmark", _stub_run)
    code = _exit_code(["sweep", "--param", param, "--values", text,
                       "--out", str(tmp_path)])
    assert code in (None, 2)
    assert "Traceback" not in capsys.readouterr().err
