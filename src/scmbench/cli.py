"""Command-line harness: single runs, parameter sweeps, dense comparison.

Precedence for every setting: built-in default < config file (--config,
JSON with RunConfig keys) < explicit flag. Reports land in --out, or in
$SCMBENCH_OUTDIR, or in the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .bench import RunConfig, UsageError, build_config, emit_report, run_benchmark

_FLOAT_FIELDS = {"topk_ratio", "alpha_threshold", "elevation_deg"}
_BOOL_FIELDS = {"per_axis_ratio", "zero_refill", "compare_dense"}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name in _BOOL_FIELDS:
            parser.add_argument(flag, action="store_const", const=True,
                                default=None)
        elif f.name in _FLOAT_FIELDS:
            parser.add_argument(flag, type=float, default=None)
        elif f.name == "mode":
            parser.add_argument(flag, type=str, default=None)
        else:
            parser.add_argument(flag, type=int, default=None)
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with RunConfig keys")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default: <outdir>/report.json)")
    parser.add_argument("--similarity-csv", action="store_true",
                        help="also dump the similarity log as CSV")


def _flag_values(args: argparse.Namespace) -> dict:
    values = {}
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    return values


def _file_values(args: argparse.Namespace) -> dict | None:
    if args.config is None:
        return None
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"config file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file: top level must be a JSON object")
    return data


def _out_path(args: argparse.Namespace, default_name: str) -> Path:
    if args.out is not None:
        return args.out
    outdir = Path(os.environ.get("SCMBENCH_OUTDIR", "."))
    return outdir / default_name


def _summary(report) -> str:
    parts = [
        f"mode={report.config.mode}",
        f"seed={report.config.seed}",
        f"attention_flops={report.counters.flops_attention}",
        f"peak_live_elements={report.counters.peak_live_elements}",
        f"wall={report.trace.wall_seconds:.3f}s",
    ]
    if report.speedup is not None:
        parts.append(f"speedup={report.speedup:.2f}x")
    if report.drift_cosine is not None:
        parts.append(f"drift_cosine={report.drift_cosine:.6f}")
    return "  ".join(parts)


def _cmd_run(args: argparse.Namespace) -> int:
    config = build_config(_file_values(args), _flag_values(args))
    report = run_benchmark(config)
    path = _out_path(args, "report.json")
    emit_report(report, path, similarity_csv=args.similarity_csv)
    print(_summary(report))
    print(f"report: {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    flags = _flag_values(args)
    flags["compare_dense"] = True
    config = build_config(_file_values(args), flags)
    report = run_benchmark(config)
    path = _out_path(args, f"compare_{config.mode}.json")
    emit_report(report, path, similarity_csv=args.similarity_csv)
    print(_summary(report))
    print(f"report: {path}")
    return 0


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(raw)


def _parse_sweep_value(param: str, raw: str):
    """One ``--values`` item as the type of ``param``; UsageError if not."""
    if param in _BOOL_FIELDS:
        kind, parse = "bool (1/true/yes or 0/false/no)", _parse_bool
    elif param in _FLOAT_FIELDS:
        kind, parse = "float", float
    elif param == "mode":
        kind, parse = "mode", str
    else:
        kind, parse = "int", int
    try:
        if raw:
            return parse(raw)
    except ValueError:
        pass
    raise UsageError(f"sweep: {param}: {raw!r} is not a valid {kind}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    param = args.param
    if param not in {f.name for f in dataclasses.fields(RunConfig)}:
        raise UsageError(f"sweep: unknown parameter {param!r}")
    file_values = _file_values(args)
    base_flags = _flag_values(args)
    # Every value is parsed and checked before the first run starts.
    raws = [raw.strip() for raw in args.values.split(",")]
    spelled: dict = {}
    for raw in raws:
        value = _parse_sweep_value(param, raw)
        if value in spelled:
            raise UsageError(f"sweep: {param}: {raw!r} repeats "
                             f"{spelled[value]!r}")
        spelled[value] = raw
    configs = [build_config(file_values, {**base_flags, param: value})
               for value in spelled]
    outdir = args.out or Path(os.environ.get("SCMBENCH_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    for raw, config in zip(spelled.values(), configs):
        report = run_benchmark(config)
        name = f"sweep_{param}_{raw}.json".replace("/", "_")
        emit_report(report, outdir / name, similarity_csv=args.similarity_csv)
        print(f"{param}={raw}  {_summary(report)}")
    print(f"reports: {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmbench",
        description="Attention-chain acceleration benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one config per swept value")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run with a dense baseline")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
