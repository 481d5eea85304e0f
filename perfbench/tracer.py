"""Span recorder for the traced run, installed from outside the program.

Wraps the public functions of each scmbench module in every namespace that
looks them up (callers do ``from .attention import ffn``, so patching only
the defining module would miss most calls), records one span per call
(name, label, start, end, parent) and turns the spans plus the run's report
into the per-layer metrics. Everything is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# Every place a traced name is looked up during a run, per module.
PATCHED_FUNCTIONS = {
    "scmbench.attention": ("axis_attention", "ffn", "softmax_last_inplace",
                           "spatial_forward", "camera_forward",
                           "motion_forward"),
    "scmbench.pruning": ("axis_attention", "ffn", "spatial_forward",
                         "identify_tokens", "pruned_camera_forward",
                         "pruned_motion_forward"),
    "scmbench.denoiser": ("ffn", "spatial_forward", "camera_forward",
                          "motion_forward", "mixing", "denoise_step",
                          "ddim_update", "compute_asr", "select_mode"),
    "scmbench.cache": ("cosine",),
    "scmbench.bench": ("build_toy_model", "synth_priors"),
}
PATCHED_METHODS = {
    "scmbench.cache": {"RollingCache": ("store", "retrieve", "peek",
                                        "record_similarity")},
}

BLOCKS = ("spatial", "camera", "motion")
STEP_KINDS = ("dense", "prune", "reuse")


def _axis_label(args, kwargs):
    return kwargs.get("block", args[4] if len(args) > 4 else None)


def _step_label(args, kwargs):
    return kwargs.get("mode", args[5] if len(args) > 5 else None).kind.value


# Span labels split one function's spans by block or by step kind.
_LABELS = {
    "attention.axis_attention": _axis_label,
    "denoiser.denoise_step": _step_label,
}


def span_name(fn) -> str:
    """``module.qualname`` without the package prefix, e.g. ``attention.ffn``."""
    return f"{fn.__module__.removeprefix('scmbench.')}.{fn.__qualname__}"


class Tracer:
    """Context manager that records spans of every patched call.

    Spans are lists ``[name, label, start, end, parent]`` kept in call order;
    ``parent`` is the index of the enclosing span, or -1 at the top level.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.resident_bytes = 0
        self.resident_peak_bytes = 0

    def _wrap(self, fn):
        name = span_name(fn)
        label_of = _LABELS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else None
            index = len(spans)
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        """Track bytes held by live cache entries through store/retrieve."""
        if name == "cache.RollingCache.store":
            self.resident_bytes += sum(a.nbytes for a in args[2:5])
            self.resident_peak_bytes = max(self.resident_peak_bytes,
                                           self.resident_bytes)
        elif name == "cache.RollingCache.retrieve":
            self.resident_bytes -= result.nbytes

    def _patch(self, owner, attr, where):
        if attr not in vars(owner):
            self.missing.append(f"{where}.{attr}")
            return
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original))

    def __enter__(self):
        for module_name, attrs in PATCHED_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                self._patch(module, attr, module_name)
        for module_name, classes in PATCHED_METHODS.items():
            module = importlib.import_module(module_name)
            for cls_name, attrs in classes.items():
                cls = getattr(module, cls_name)
                for attr in attrs:
                    self._patch(cls, attr, f"{module_name}.{cls_name}")
        if self.missing:
            print(f"tracer: not found, not traced: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def table(self) -> dict[tuple[str, str | None], dict]:
        """Calls, total time and self time per (name, label)."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows: dict = {}
        for (name, label, start, end, _), inner in zip(self.spans, child_time):
            row = rows.setdefault((name, label),
                                  {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return rows

    def metrics(self, report, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run (all but ``trace.overhead_s``)."""
        rows = self.table()

        def pick(name, field, label=None):
            """Sum of one field over a name's rows, or over one label's."""
            return sum(r[field] for (n, lab), r in rows.items()
                       if n == name and label in (None, lab))

        def rate(flops, seconds):
            return flops / 1e9 / seconds if seconds > 0 else 0.0

        counters = report.counters
        m: dict[str, float] = {}
        for b in BLOCKS:
            axis_total = pick("attention.axis_attention", "total_s", b)
            m[f"attention.axis_s.{b}"] = pick("attention.axis_attention",
                                              "self_s", b)
            m[f"attention.block_s.{b}"] = pick(f"attention.{b}_forward",
                                               "self_s")
            m[f"attention.gflops.{b}"] = rate(counters.attention_by_block[b],
                                              axis_total)
            m[f"attention.gflop.{b}"] = counters.attention_by_block[b] / 1e9
        m["core.softmax_s"] = pick("core.softmax_last_inplace", "total_s")
        m["attention.ffn_s"] = pick("attention.ffn", "total_s")
        m["attention.ffn_gflops"] = rate(counters.flops_ffn, m["attention.ffn_s"])
        m["denoiser.mixing_s"] = pick("denoiser.mixing", "total_s")
        m["denoiser.mixing_gflops"] = rate(counters.flops_mixing,
                                           m["denoiser.mixing_s"])
        for kind in STEP_KINDS:
            times = [end - start for name, label, start, end, _ in self.spans
                     if name == "denoiser.denoise_step" and label == kind]
            m[f"denoiser.step_s.{kind}"] = statistics.median(times) if times else 0.0
        m["denoiser.ddim_update_s"] = pick("denoiser.ddim_update", "total_s")
        m["denoiser.build_s"] = (pick("denoiser.build_toy_model", "total_s")
                                 + pick("denoiser.synth_priors", "total_s"))
        for b in ("camera", "motion"):
            m[f"pruning.refill_s.{b}"] = pick(f"pruning.pruned_{b}_forward",
                                              "self_s")
        m["pruning.identify_tokens_s"] = pick("pruning.identify_tokens", "total_s")
        m["cache.record_similarity_s"] = pick(
            "cache.RollingCache.record_similarity", "total_s")
        for op in ("store", "retrieve", "peek"):
            m[f"cache.ops.{op}"] = pick(f"cache.RollingCache.{op}", "calls")
        m["cache.resident_mb.peak"] = self.resident_peak_bytes / 1e6
        m["scheduler.compute_asr_s"] = pick("scheduler.compute_asr", "total_s")
        m["scheduler.select_mode_s"] = pick("scheduler.select_mode", "total_s")
        m.update(step_metrics(report))
        top = sum(end - start for _, _, start, end, parent in self.spans
                  if parent < 0)
        m["trace.coverage"] = top / run_s
        return m


def step_metrics(report) -> dict[str, float]:
    """Exact per-layer ratios from the report's step records."""
    steps = report.trace.steps
    layers = report.config.layers
    warmup = report.config.warmup

    def camera_motion(r):
        return r.flops_attention_camera + r.flops_attention_motion

    # Camera+motion FLOPs of one unpruned layer, from a dense step (cache
    # modes always start with at least one).
    dense = [r for r in steps if r.kind == "dense"]
    per_layer_dense = camera_motion(dense[0]) / layers if dense else 0.0
    prune = [r for r in steps if r.kind == "prune"]
    equivalent = sum(layers - len(r.bypassed_layers) for r in prune) * per_layer_dense
    kept = sum(camera_motion(r) for r in prune) / equivalent if equivalent else 1.0

    active = [layers - len(r.bypassed_layers) for r in steps if r.step >= warmup]
    reused = sum(layers - len(r.bypassed_layers) for r in steps
                 if r.step >= warmup and r.kind == "reuse")
    bypassed = [r.step for r in steps if r.bypassed_layers]
    return {
        "pruning.kept_frac": kept,
        "cache.reuse_frac": reused / sum(active) if sum(active) else 0.0,
        "scheduler.bypass_step": bypassed[0] if bypassed else -1,
        "scheduler.bypassed_frac": (sum(len(r.bypassed_layers) for r in steps)
                                    / (len(steps) * layers)),
    }
