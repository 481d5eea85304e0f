"""End-to-end and per-layer benchmark of scmbench.

Usage:
  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                           [--trace 0|1]

Each run is one ``scmbench.run_benchmark(build_config(...))`` call in a
fresh interpreter, started one at a time, so every run pays the set-up a
``scmbench run`` user pays and reports its own peak RSS. A workload keeps
starting runs until ``--seconds`` have passed (at least three runs) and
reports medians. The dense reference for the workload's seed and dims is
computed in this process before any run starts. Every run is checked:
finite final latent, the same SHA-256 as the workload's other runs,
bit-identical to the dense reference on ``dense``, drift cosine at least
0.90 elsewhere. Any failed check makes the exit code 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` adds one traced
run and prints the per-layer metrics. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the machine and every sample, is written
to ``.perfbench/`` in the checkout. ``--workload all`` runs every workload
and prints turbo's speedup over dense, which is not a gated metric.

Seeds: develop a change against seed 0 (the default) and check its claim
against the held-out seed 7919, which no change is tuned on.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

DEV_SEED = 0
HOLDOUT_SEED = 7919

# Default dims (F=5 V=8 H=W=16 C=64, 2 heads, 6 layers) at 6 steps keep a
# dense run near 7 s; turbo-small has 20x fewer tokens, so 20x the steps.
STEPS = 6
SMALL_DIMS = {"frames": 2, "views": 4, "height": 8, "width": 8, "channels": 32}
WORKLOADS = {
    "dense": {"mode": "dense", "steps": STEPS},
    "turbo": {"mode": "turbo", "steps": STEPS},
    "prune-only": {"mode": "prune-only", "steps": STEPS},
    "turbo-small": {"mode": "turbo", "steps": 20 * STEPS, **SMALL_DIMS},
}

DRIFT_GATE = 0.90
MIN_RUNS = 3
DEADLINE_S = 160.0  # no run starts later than this into an invocation

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "drift_cosine": "1"}
PER_LAYER = {
    **{f"attention.axis_s.{b}": "s" for b in ("spatial", "camera", "motion")},
    "core.softmax_s": "s",
    **{f"attention.block_s.{b}": "s" for b in ("spatial", "camera", "motion")},
    "attention.ffn_s": "s",
    "attention.ffn_gflops": "GFLOP/s",
    **{f"attention.gflops.{b}": "GFLOP/s" for b in ("spatial", "camera", "motion")},
    **{f"attention.gflop.{b}": "GFLOP" for b in ("spatial", "camera", "motion")},
    "denoiser.mixing_s": "s",
    "denoiser.mixing_gflops": "GFLOP/s",
    **{f"denoiser.step_s.{k}": "s" for k in ("dense", "prune", "reuse")},
    "denoiser.ddim_update_s": "s",
    "denoiser.build_s": "s",
    "pruning.refill_s.camera": "s",
    "pruning.refill_s.motion": "s",
    "pruning.identify_tokens_s": "s",
    "pruning.kept_frac": "1",
    "cache.record_similarity_s": "s",
    **{f"cache.ops.{op}": "count" for op in ("store", "retrieve", "peek")},
    "cache.resident_mb.peak": "MB",
    "cache.reuse_frac": "1",
    "scheduler.bypass_step": "step",
    "scheduler.bypassed_frac": "1",
    "scheduler.compute_asr_s": "s",
    "scheduler.select_mode_s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}


class RunFailed(Exception):
    """A child run that exited badly or broke the output protocol."""


def digest(z) -> str:
    h = hashlib.sha256(f"{z.dtype.str}{z.shape}".encode())
    h.update(z.tobytes())
    return h.hexdigest()


def drift_cosine(z, reference) -> float:
    """Cosine over the flattened latents; exactly 1.0 when they are equal."""
    a, b = z.ravel(), reference.ravel()
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


def check_run(z, reference, expected_digest: str | None,
              exact: bool) -> tuple[str, float, list[str]]:
    """Digest, drift cosine and the failed checks of one final latent."""
    problems = []
    if not np.all(np.isfinite(z)):
        problems.append("final latent is not finite")
    d = digest(z)
    if expected_digest is not None and d != expected_digest:
        problems.append("SHA-256 differs from the workload's other runs")
    if z.shape != reference.shape:
        problems.append(f"shape {z.shape} != reference {reference.shape}")
        return d, float("nan"), problems
    cos = drift_cosine(z, reference)
    if exact and not np.array_equal(z, reference):
        problems.append("not bit-identical to the dense reference")
    if not exact and not cos >= DRIFT_GATE:
        problems.append(f"drift cosine {cos!r} below {DRIFT_GATE}")
    return d, cos, problems


def dense_reference(config: dict):
    """The full config echo, and the final latent of the dense run at the
    same seed, dims and steps."""
    import scmbench

    echo = dataclasses.asdict(scmbench.build_config(None, config))
    cfg = scmbench.build_config(None, dict(config, mode="dense"))
    return echo, scmbench.run_benchmark(cfg).z_final


def spawn(spec: dict, timeout: float):
    """Start one child run and wait for it; returns its header and latent."""
    argv = [sys.executable, str(HERE / "child.py"),
            json.dumps(dict(spec, src=str(SRC)))]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"run exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise RunFailed(f"exit code {proc.returncode}: {' | '.join(tail)}")
    line, _, body = out.partition(b"\n")
    try:
        header = json.loads(line)
        latent = np.load(io.BytesIO(body), allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise RunFailed(f"bad child output: {exc}") from None
    if not Path(header["scmbench"]).is_relative_to(SRC):
        raise RunFailed(f"imported scmbench from {header['scmbench']}")
    header["setup_s"] = header["ready"] - started
    return header, latent


def machine(blas: dict | None) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": deps.get("name"), "version": deps.get("version")},
        "blas_threads": blas,
    }


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns its full record."""
    began = time.perf_counter()
    config = dict(WORKLOADS[workload], seed=seed)
    exact = config["mode"] == "dense"
    echo, reference = dense_reference(config)
    runs: list[dict] = []
    expected = None

    def one(spec_extra: dict) -> dict:
        nonlocal expected
        record: dict = {"traced": bool(spec_extra.get("traced"))}
        timeout = max(1.0, began + DEADLINE_S + 15.0 - time.perf_counter())
        try:
            header, z = spawn(dict(config=config, **spec_extra), timeout)
        except RunFailed as exc:
            record["problems"] = [str(exc)]
            return record
        d, cos, problems = check_run(z, reference, expected, exact)
        expected = expected or d
        record.update(digest=d, drift_cosine=cos, problems=problems,
                      setup_s=header["setup_s"], run_s=header["run_s"],
                      peak_rss_mb=header["peak_rss_mb"], blas=header["blas"])
        for key in ("per_layer", "spans"):
            if key in header:
                record[key] = header[key]
        return record

    start = time.perf_counter()
    last = 0.0
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        if t + last > began + DEADLINE_S:
            break
        runs.append(one({}))
        last = time.perf_counter() - t
    if traced:
        if time.perf_counter() + last <= began + DEADLINE_S:
            runs.append(one({"traced": True}))
        else:
            runs.append({"traced": True,
                         "problems": ["traced run did not start in time"]})

    timed = [r for r in runs if not r["traced"] and "run_s" in r]
    end_to_end = {name: summarize([r[name] for r in timed])
                  for name in END_TO_END} if timed else {}
    per_layer = {}
    trace_run = next((r for r in runs if r["traced"] and "per_layer" in r), None)
    if trace_run is not None and timed:
        per_layer = dict(trace_run["per_layer"])
        per_layer["trace.overhead_s"] = (trace_run["run_s"]
                                         - end_to_end["run_s"]["median"])
    return {
        "workload": workload,
        "config": echo,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["problems"]),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "machine": machine(timed[0]["blas"] if timed else None),
        "runs": runs,
    }


def print_record(rec: dict, traced: bool) -> None:
    cfg = rec["config"]
    dims = "x".join(str(cfg[k]) for k in ("frames", "views", "height",
                                          "width", "channels"))
    print(f"workload {rec['workload']}  mode={cfg['mode']}  dims={dims}  "
          f"steps={cfg['steps']}  seed={cfg['seed']}")
    for name, unit in END_TO_END.items():
        s = rec["end_to_end"].get(name)
        if s:
            print(f"  {name:<14} {s['median']:<12.6g} {unit:<3} median of "
                  f"{s['n']}  (min {s['min']:.6g}, max {s['max']:.6g})")
    print(f"  {'failed_frac':<14} {rec['failed'] / rec['attempted']:<12.6g} "
          f"{'1':<3} {rec['failed']} of {rec['attempted']} runs")
    for r in rec["runs"]:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")
    if traced:
        for name, unit in PER_LAYER.items():
            if name in rec["per_layer"]:
                print(f"  {name:<30} {rec['per_layer'][name]:<12.6g} {unit}")
    print(f"  machine {json.dumps(rec['machine'])}")


def save(rec: dict, traced: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{rec['workload']}-seed{rec['config']['seed']}"
                      f"-trace{int(traced)}.json")
    path.write_text(json.dumps(rec, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scmbench" / "__init__.py").is_file():
        print(f"error: no scmbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    traced = bool(args.trace)
    names = [*WORKLOADS] if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = measure(name, args.seed, args.seconds, traced)
        save(rec, traced)
        print_record(rec, traced)
        records.append(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        rec = records[0]
        values = (rec["per_layer"] if traced else
                  {n: s["median"] for n, s in rec["end_to_end"].items()})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in (PER_LAYER if traced else END_TO_END).items()
                   if name in values}
    else:
        metrics = {f"{r['workload']}/{n}": {"value": s["median"],
                                            "unit": END_TO_END[n]}
                   for r in records for n, s in r["end_to_end"].items()}
        by_name = {r["workload"]: r["end_to_end"] for r in records}
        if by_name["dense"] and by_name["turbo"]:
            speedup = (by_name["dense"]["run_s"]["median"]
                       / by_name["turbo"]["run_s"]["median"])
            print(f"derived (not gated): turbo speedup over dense "
                  f"= {speedup:.3f}x (dense run_s / turbo run_s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
