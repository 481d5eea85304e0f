"""Run configuration, execution, and machine-readable reporting.

A run is fully determined by its ``RunConfig``: the config echo inside a
report is enough to reproduce it. ``RunConfig`` is also the model's, the
priors' and the sampler's configuration, and the one place every setting
is checked. Reports
separate deterministic content from wall-clock-derived content (the
``timing`` section and nothing else), so two runs with the same seed
produce byte-identical JSON after dropping ``timing``.
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

from .core import CostCounters, Rng, cosine, psnr, tune_allocator
from .denoiser import (
    SampleTrace,
    build_toy_model,
    cosine_schedule,
    sample,
    synth_priors,
)
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
    delta_t: int = 3
    alpha_threshold: float = 0.9
    warmup: int = 2
    zero_refill: bool = False
    compare_dense: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            _check_type(f.name, f.type, value)
            # A numpy int or an int for a float is stored as the declared
            # type, so equal configs echo equal reports.
            if f.type in _CASTS:
                object.__setattr__(self, f.name, _CASTS[f.type](value))
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise UsageError(f"{name}: must be >= 1, got {value}")
        if self.channels % self.n_heads != 0:
            raise UsageError("channels: must be divisible by n_heads")
        if self.mode not in MODE_TABLE:
            raise UsageError(f"mode: unknown value {self.mode!r}")
        if not 0.0 < self.topk_ratio <= 1.0:
            raise UsageError(f"topk_ratio: {self.topk_ratio} outside (0, 1]")
        if self.delta_t < 0:
            raise UsageError("delta_t: must be >= 0")
        if self.warmup < 0:
            raise UsageError("warmup: must be >= 0")
        if self.alpha_threshold <= 0.0:
            raise UsageError("alpha_threshold: must be positive")
        if MODE_TABLE[self.mode].cache and self.warmup < 1:
            raise UsageError("warmup: cache-backed modes need >= 1 dense step")

    @property
    def latent_shape(self) -> tuple[int, int, int, int, int]:
        return (self.frames, self.views, self.height, self.width,
                self.channels)


_AT_LEAST_ONE = ("frames", "views", "height", "width", "channels", "n_heads",
                 "layers", "steps")
_CASTS = {"int": int, "float": float}


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
        try:
            finite = ok and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if ok and not finite:
            raise UsageError(f"{name}: must be finite, got {value!r}")
    if not ok:
        raise UsageError(f"{name}: expected {kind}, got {value!r}")


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def build_config(file_values: dict | None = None,
                 flag_values: dict | None = None) -> RunConfig:
    """Merge defaults < config file < explicit flags; reject unknown keys."""
    merged: dict = {}
    for source, label in ((file_values, "config file"), (flag_values, "flags")):
        if not source:
            continue
        for key, value in source.items():
            if key not in FIELD_TYPES:
                raise UsageError(f"{label}: unknown key {key!r}")
            merged[key] = value
    return RunConfig(**merged)


@dataclass
class RunReport:
    config: RunConfig
    trace: SampleTrace
    z_final: np.ndarray
    counters: CostCounters
    drift_cosine: float | None = None
    drift_psnr_db: float | None = None
    dense_wall_seconds: float | None = None

    @property
    def speedup(self) -> float | None:
        if self.dense_wall_seconds is None:
            return None
        return self.dense_wall_seconds / self.trace.wall_seconds

    def totals(self) -> dict:
        return {**self.counters.flops(),
                "flops_total": self.counters.flops_total}

    def to_dict(self) -> dict:
        # wall_us is clock-derived, so it is reported under timing only.
        steps = [{k: v for k, v in dataclasses.asdict(r).items()
                  if k != "wall_us"} for r in self.trace.steps]
        doc = {
            "config": dataclasses.asdict(self.config),
            "steps": steps,
            "totals": self.totals(),
            "peak_live_elements": self.counters.peak_live_elements,
            "asr_trace": [[s, v] for s, v in self.trace.asr_trace],
            "mode_trace": [[r.step, r.kind] for r in self.trace.steps],
            "bypass_active": self.trace.bypass_active,
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
    model = build_toy_model(config)
    priors = synth_priors(config, Rng(config.seed + _PRIORS_SEED_OFFSET))
    schedule = cosine_schedule(config.steps)
    counters = CostCounters()
    z_final, trace = sample(
        model, priors, schedule, config,
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
    return report


def emit_report(report: RunReport, path, similarity_csv: bool = False) -> None:
    """Write the JSON report plus a sibling per-step CSV trace, and with
    ``similarity_csv`` a sibling CSV of the similarity log (header only in
    a mode with no cache, so that every report gets one).

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
    if similarity_csv:
        with open(path.with_name(path.stem + "_similarity.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "layer", "kind", "cosine"])
            writer.writerows([r.step, r.layer, r.kind, repr(r.value)]
                             for r in report.trace.similarity_log)
