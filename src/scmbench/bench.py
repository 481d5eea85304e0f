"""Run configuration, execution, and machine-readable reporting.

A run is fully determined by its ``RunConfig``: the config echo inside a
report is enough to reproduce it. Reports separate deterministic content
from wall-clock-derived content (the ``timing`` section and nothing else),
so two runs with the same seed produce byte-identical JSON after dropping
``timing``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cache import RollingCache
from .core import CostCounters, Rng, cosine, psnr, tune_allocator
from .denoiser import (
    Dims,
    SamplerConfig,
    SampleTrace,
    build_toy_model,
    cosine_schedule,
    default_trajectory,
    sample,
    synth_priors,
)
from .errors import ParameterError
from .scheduler import MODE_TABLE

__all__ = ["RunConfig", "RunReport", "UsageError", "build_config",
           "run_benchmark", "emit_report"]

# Seed stream separation: one base seed drives three independent streams.
_PRIORS_SEED_OFFSET = 1
_SAMPLING_SEED_OFFSET = 2


class UsageError(ValueError):
    """Bad CLI flag or config-file content; maps to a nonzero exit."""


@dataclass(frozen=True)
class RunConfig:
    frames: int = 5
    views: int = 8
    height: int = 16
    width: int = 16
    channels: int = 64
    n_heads: int = 2
    layers: int = 6
    steps: int = 20
    seed: int = 0
    mode: str = "turbo"
    topk_ratio: float = 0.2
    per_axis_ratio: bool = False
    delta_t: int = 3
    alpha_threshold: float = 0.9
    warmup: int = 2
    zero_refill: bool = False
    compare_dense: bool = False
    elevation_deg: float = 30.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        # Dims and SamplerConfig check their own fields.
        try:
            self.dims()
            self.sampler_config()
        except ParameterError as exc:
            raise UsageError(str(exc)) from exc
        if self.steps < 1:
            raise UsageError("steps: must be >= 1")
        if self.layers < 1:
            raise UsageError("layers: must be >= 1")
        if MODE_TABLE[self.mode].cache and self.warmup < 1:
            raise UsageError("warmup: cache-backed modes need >= 1 dense step")

    def dims(self) -> Dims:
        return Dims(self.frames, self.views, self.height, self.width,
                    self.channels, self.n_heads)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            mode=self.mode,
            topk_ratio=self.topk_ratio,
            per_axis_ratio=self.per_axis_ratio,
            delta_t=self.delta_t,
            alpha_threshold=self.alpha_threshold,
            warmup=self.warmup,
            zero_refill=self.zero_refill,
        )


def _check_type(name: str, kind: str, value) -> None:
    """Reject a value of the wrong type for its field: a bool is not a
    number, and a float must be finite."""
    if kind == "bool":
        ok = isinstance(value, bool)
    elif kind == "str":
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    elif kind == "int":
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, numbers.Real)
        if ok and not math.isfinite(value):
            raise UsageError(f"{name}: must be finite, got {value!r}")
    if not ok:
        raise UsageError(f"{name}: expected {kind}, got {value!r}")


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}


def build_config(file_values: dict | None = None,
                 flag_values: dict | None = None) -> RunConfig:
    """Merge defaults < config file < explicit flags; reject unknown keys."""
    merged: dict = {}
    for source, label in ((file_values, "config file"), (flag_values, "flags")):
        if not source:
            continue
        for key, value in source.items():
            if key not in _FIELD_NAMES:
                raise UsageError(f"{label}: unknown key {key!r}")
            merged[key] = value
    try:
        return RunConfig(**merged)
    except (UsageError, ParameterError) as exc:
        raise UsageError(str(exc)) from exc


@dataclass
class RunReport:
    config: RunConfig
    trace: SampleTrace
    z_final: np.ndarray
    counters: CostCounters
    drift_cosine: float | None = None
    drift_psnr_db: float | None = None
    dense_wall_seconds: float | None = None
    dense_counters: CostCounters | None = None

    @property
    def speedup(self) -> float | None:
        if self.dense_wall_seconds is None:
            return None
        return self.dense_wall_seconds / self.trace.wall_seconds

    def totals(self) -> dict:
        c = self.counters
        return {
            "flops_attention": c.flops_attention,
            "flops_attention_spatial": c.attention_by_block["spatial"],
            "flops_attention_camera": c.attention_by_block["camera"],
            "flops_attention_motion": c.attention_by_block["motion"],
            "flops_ffn": c.flops_ffn,
            "flops_mixing": c.flops_mixing,
            "flops_total": c.flops_total,
        }

    def to_dict(self) -> dict:
        steps = [
            {
                "step": r.step,
                "t": r.t,
                "kind": r.kind,
                "bypassed_layers": r.bypassed_layers,
                "flops_attention": r.flops_attention,
                "flops_attention_spatial": r.flops_attention_spatial,
                "flops_attention_camera": r.flops_attention_camera,
                "flops_attention_motion": r.flops_attention_motion,
                "flops_ffn": r.flops_ffn,
                "flops_mixing": r.flops_mixing,
            }
            for r in self.trace.steps
        ]
        doc = {
            "config": dataclasses.asdict(self.config),
            "steps": steps,
            "totals": self.totals(),
            "peak_live_elements": self.counters.peak_live_elements,
            "asr_trace": [[s, v] for s, v in self.trace.asr_trace],
            "mode_trace": [[s, m.kind.value] for s, m in
                           self.trace.scheduler.mode_trace],
            "bypass_active": self.trace.scheduler.bypass_active,
        }
        if self.drift_cosine is not None:
            doc["drift"] = {
                "cosine": self.drift_cosine,
                "psnr_db": ("inf" if math.isinf(self.drift_psnr_db)
                            else self.drift_psnr_db),
            }
        timing: dict = {
            "wall_seconds": self.trace.wall_seconds,
            "per_step_us": [r.wall_us for r in self.trace.steps],
        }
        if self.dense_wall_seconds is not None:
            timing["dense_wall_seconds"] = self.dense_wall_seconds
            timing["speedup"] = self.speedup
        doc["timing"] = timing
        return doc


def _execute(config: RunConfig) -> RunReport:
    dims = config.dims()
    model = build_toy_model(dims, config.layers, config.seed)
    priors = synth_priors(
        dims,
        default_trajectory(config.views, config.elevation_deg),
        Rng(config.seed + _PRIORS_SEED_OFFSET),
    )
    schedule = cosine_schedule(config.steps)
    counters = CostCounters()
    z_final, trace = sample(
        model, priors, schedule, config.sampler_config(),
        Rng(config.seed + _SAMPLING_SEED_OFFSET), counters,
    )
    return RunReport(config=config, trace=trace, z_final=z_final,
                     counters=counters)


def run_benchmark(config: RunConfig) -> RunReport:
    """Execute the configured run; with compare_dense, also the dense oracle."""
    tune_allocator()
    report = _execute(config)
    if config.compare_dense:
        dense_cfg = dataclasses.replace(config, mode="dense",
                                        compare_dense=False)
        dense = _execute(dense_cfg)
        report.drift_cosine = cosine(dense.z_final, report.z_final)
        report.drift_psnr_db = psnr(dense.z_final, report.z_final)
        report.dense_wall_seconds = dense.trace.wall_seconds
        report.dense_counters = dense.counters
    return report


def emit_report(report: RunReport, path, similarity_csv: bool = False) -> None:
    """Write the JSON report plus a sibling per-step CSV trace.

    JSON key order is construction order and therefore stable; re-emitting
    the same report is byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    csv_path = path.with_name(path.stem + "_steps.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "step", "t", "kind", "bypassed_layers", "flops_attention",
            "flops_ffn", "flops_mixing", "wall_us",
        ])
        for r in report.trace.steps:
            writer.writerow([
                r.step, r.t, r.kind,
                " ".join(map(str, r.bypassed_layers)),
                r.flops_attention, r.flops_ffn, r.flops_mixing,
                f"{r.wall_us:.1f}",
            ])
    if similarity_csv and isinstance(report.trace.cache, RollingCache):
        report.trace.cache.write_similarity_csv(
            path.with_name(path.stem + "_similarity.csv")
        )
