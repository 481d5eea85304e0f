"""Alternated fresh-process pairs of two scmbench trees, with host steal.

Usage: python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json

Each run is one ``perfbench/child.py`` invocation, started by the
``perfbench/run.py`` of the tree it measures (``run.spawn``, which also
checks that the child imported that tree's scmbench), at the change tree's
``run.WORKLOADS`` configs. For each of ``run.DEV_SEED`` and
``run.HOLDOUT_SEED`` and each of 10 pairs, every workload runs once per
arm: parent, change, serial in even pairs and the reverse in odd pairs.
The serial arm is the change tree with a one-CPU affinity set (CPU 0, set
on this process around the spawn and inherited by the child), so each
stage has one drainer. Before the first pair, each tree's scmbench is
compiled and imported once in a fresh interpreter (:func:`build_kernels`),
which writes the bytecode of every module it imports into the tree's own
``PYTHONPYCACHEPREFIX`` directory (:func:`bytecode_dir`), under
``.bench_build/``. Each child of the tree is given that directory, so no
timed run's ``setup_s`` or ``peak_rss_mb`` holds the build of the compiled
kernels or a compile of the Python sources, whether or not the children
may write bytecode.

Per run it records ``run_s``, ``setup_s`` and ``peak_rss_mb`` as
``perfbench/run.py`` takes them, the child's CPU time
(``getrusage(RUSAGE_CHILDREN)`` deltas), the host's steal time over the
run (``/proc/stat``, read only), the scmbench file the child imported
(relative to its tree), and ``run.check_run``'s digest, drift cosine and
failed checks against a dense reference of the same seed and dims made
in this process from the change tree. Every run of a workload and seed,
in every arm, must give the same final latent. A run that fails
(``run.RunFailed``: a timeout, a bad exit or bad output) is recorded, as
``perfbench/run.py``'s ``measure`` records it, with its error under
``problems`` and no metrics, and the session goes on. The output holds
the machine, with whether the children write bytecode and where in its
tree each child reads it, a SHA-256 of
each tree's scmbench sources (its ``*.py`` and ``*.c`` files) with their
Python and C line counts, every run and, per workload and seed, each
arm's median and quartiles over the runs that ran, the parent's IQR, the
change's median over the parent's and the pairs the change won, where a
pair with a failed side counts for neither side, and a verdict
(:func:`verdict`) against the metric's bound in the repository's
``BENCHMARK.json``, which is only read. The exit code is 1 if any run
failed or any check failed.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10
ARMS = ("parent", "change", "serial")
GATED = ("run_s", "setup_s", "peak_rss_mb")
METRICS = GATED + ("cpu_s", "steal_s")
TICK = os.sysconf("SC_CLK_TCK")
# Each end-to-end metric's direction and bound, a share of the parent's
# median.
METRIC_SPECS = {m["name"]: m for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())["end_to_end"]}


def load_run(tree: Path, name: str):
    """The ``perfbench/run.py`` module of ``tree``."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def host_steal_s() -> float:
    """Steal time of all CPUs since boot, from the aggregate ``cpu`` line."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / TICK


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def blas_build() -> dict:
    """OpenBLAS's core name and build string, as the library reports them."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    for lib in libs:
        try:
            dll = ctypes.CDLL(str(lib))
            core = dll.scipy_openblas_get_corename64_
            config = dll.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        core.restype = config.restype = ctypes.c_char_p
        return {"core": core().decode(), "config": config().decode()}
    return {"core": None, "config": None}


def cpu_model() -> str | None:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def source_files(tree: Path) -> list[Path]:
    """``tree``'s scmbench sources, the Python modules and the C kernels."""
    return sorted(p for p in (tree / "src").rglob("*")
                  if p.suffix in (".py", ".c"))


def source_digest(tree: Path) -> str:
    """SHA-256 over the paths and bytes of ``tree``'s scmbench sources."""
    h = hashlib.sha256()
    for path in source_files(tree):
        h.update(str(path.relative_to(tree)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_lines(tree: Path) -> dict[str, int]:
    """Lines of ``tree``'s Python and C sources, each file's newlines, as
    ``wc -l`` counts them."""
    lines = {"python": 0, "c": 0}
    for path in source_files(tree):
        lines["c" if path.suffix == ".c" else "python"] += \
            path.read_bytes().count(b"\n")
    return lines


def bytecode_dir(src: Path) -> Path:
    """The ``PYTHONPYCACHEPREFIX`` of the children of the tree whose
    sources are ``src``."""
    return src.parent / ".bench_build" / "pycache"


def build_kernels(src: Path) -> None:
    """Import the scmbench under ``src`` in a fresh interpreter, which
    builds its compiled kernels if none of the current key are cached, and
    compile all of its modules. The interpreter writes bytecode, into
    :func:`bytecode_dir`, for every module it imports: scmbench's, numpy's
    and the standard library's."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(bytecode_dir(src))
    subprocess.run([sys.executable, "-c", "import compileall, sys; "
                    "sys.path.insert(0, sys.argv[1]); import scmbench; "
                    "sys.exit(not compileall.compile_dir(sys.argv[2], "
                    "quiet=1))", str(src), str(src / "scmbench")],
                   env=env, check=True)


def one_run(run, config: dict,
            serial: bool) -> tuple[dict, np.ndarray | None]:
    """One child run through ``run.spawn``, with its CPU and steal time;
    a failed run gives only its ``problems`` and no latent. The child
    inherits its tree's bytecode directory as ``PYTHONPYCACHEPREFIX``."""
    affinity = os.sched_getaffinity(0)
    prefix = os.environ.get("PYTHONPYCACHEPREFIX")
    os.environ["PYTHONPYCACHEPREFIX"] = str(bytecode_dir(run.SRC))
    if serial:
        os.sched_setaffinity(0, {min(affinity)})
    try:
        cpu0, steal0 = child_cpu_s(), host_steal_s()
        header, z = run.spawn({"config": config}, timeout=600.0)
        cpu1, steal1 = child_cpu_s(), host_steal_s()
    except run.RunFailed as exc:
        return {"problems": [str(exc)]}, None
    finally:
        os.sched_setaffinity(0, affinity)
        if prefix is None:
            del os.environ["PYTHONPYCACHEPREFIX"]
        else:
            os.environ["PYTHONPYCACHEPREFIX"] = prefix
    imported = Path(header["scmbench"]).relative_to(run.ROOT)
    return {"run_s": header["run_s"], "setup_s": header["setup_s"],
            "peak_rss_mb": header["peak_rss_mb"], "cpu_s": cpu1 - cpu0,
            "steal_s": steal1 - steal0, "blas": header["blas"],
            "scmbench": str(imported)}, z


def spread(values: list[float]) -> dict | None:
    """Median and quartiles; None for fewer than two values."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1_q3": [q1, q3]}


def verdict(parent: list[float], change: list[float], wins: int,
            pairs: int, spec: dict) -> str:
    """``gain`` when the change won at least 9 in 10 of the pairs and its
    median is better than the parent's by more than the parent's IQR.
    Otherwise ``unresolved`` when the parent's IQR is wider than
    ``spec``'s bound, a share of the parent's median, and the two arms'
    runs overlap; ``worse_beyond_bound`` when the change's median is worse
    than the parent's by more than the bound; ``within_bound`` else."""
    p, c = spread(parent), spread(change)
    q1, q3 = p["q1_q3"]
    bound = spec["bound"] * abs(p["median"])
    sign = 1.0 if spec["better"] == "lower" else -1.0
    gained = sign * (p["median"] - c["median"])
    if 10 * wins >= 9 * pairs > 0 and gained > q3 - q1:
        return "gain"
    apart = max(change) < min(parent) or min(change) > max(parent)
    if q3 - q1 > bound and not apart:
        return "unresolved"
    if -gained > bound:
        return "worse_beyond_bound"
    return "within_bound"


def summarize(runs: list[dict]) -> dict:
    """Spreads and pair wins over the runs that ran; a run that failed
    counts only in ``failed``, as does its pair."""
    ran = [r for r in runs if "run_s" in r]
    by_arm = {arm: [r for r in ran if r["arm"] == arm] for arm in ARMS}
    change = {r["pair"]: r for r in by_arm["change"]}
    pairs = [(p, change[p["pair"]]) for p in by_arm["parent"]
             if p["pair"] in change]
    out: dict = {"pairs": len(pairs)}
    for m in METRICS:
        row = {arm: spread([r[m] for r in rs]) for arm, rs in by_arm.items()}
        parent, changed = row["parent"], row["change"]
        if parent is not None:
            q1, q3 = parent["q1_q3"]
            row["parent_iqr"] = q3 - q1
        if m in GATED:
            wins = sum(c[m] < p[m] for p, c in pairs)
            row["pairs_change_better"] = f"{wins} of {len(pairs)}"
            if parent is not None and changed is not None:
                row["change_over_parent"] = (changed["median"]
                                             / parent["median"])
                row["verdict"] = verdict(
                    [r[m] for r in by_arm["parent"]],
                    [r[m] for r in by_arm["change"]], wins, len(pairs),
                    METRIC_SPECS[m])
        out[m] = row
    out["final_latent_sha256"] = sorted({r["digest"] for r in ran})
    out["drift_cosine"] = sorted({r["drift_cosine"] for r in ran})
    out["failed"] = sum(1 for r in runs if r["problems"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv[:2])
    modules = {"parent": load_run(parent, "parent_run"),
               "change": load_run(change, "change_run")}
    modules["serial"] = modules["change"]
    run = modules["change"]
    for tree in ("parent", "change"):
        build_kernels(modules[tree].SRC)
    sys.path.insert(0, str(run.SRC))  # for run.dense_reference
    runs: list[dict] = []
    for seed in (run.DEV_SEED, run.HOLDOUT_SEED):
        configs = {w: dict(c, seed=seed) for w, c in run.WORKLOADS.items()}
        references = {w: run.dense_reference(c)[1] for w, c in configs.items()}
        expected: dict[str, str] = {}
        for i in range(PAIRS):
            order = ARMS if i % 2 == 0 else ARMS[::-1]
            for workload, config in configs.items():
                for arm in order:
                    record, z = one_run(modules[arm], config, arm == "serial")
                    if z is not None:
                        digest, cosine, problems = run.check_run(
                            z, references[workload], expected.get(workload),
                            exact=config["mode"] == "dense")
                        expected.setdefault(workload, digest)
                        record.update(digest=digest, drift_cosine=cosine,
                                      problems=problems)
                    record.update(arm=arm, workload=workload, seed=seed,
                                  pair=i)
                    runs.append(record)
                    print(json.dumps({k: record.get(k) for k in
                                      ("arm", "workload", "seed", "pair",
                                       "run_s", "cpu_s", "steal_s",
                                       "problems")}), flush=True)
    machine = run.machine(next((r["blas"] for r in runs if "blas" in r),
                               None))
    # The children inherit this environment, and read their tree's
    # bytecode from its directory, named relative to the tree.
    machine.update(cpu=cpu_model(), blas_build=blas_build(),
                   ram_gb=round(os.sysconf("SC_PAGE_SIZE")
                                * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
                   child_writes_bytecode=not os.environ.get(
                       "PYTHONDONTWRITEBYTECODE"),
                   child_bytecode_dir=str(
                       bytecode_dir(run.SRC).relative_to(run.ROOT)))
    summary = {f"{w}/seed{s}": summarize(
        [r for r in runs if r["workload"] == w and r["seed"] == s])
        for s in (run.DEV_SEED, run.HOLDOUT_SEED) for w in run.WORKLOADS}
    Path(argv[2]).write_text(json.dumps({
        "command": "python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR OUT",
        "machine": machine,
        "sources": {name: {"sha256": source_digest(tree),
                           "lines": source_lines(tree)}
                    for name, tree in (("parent", parent),
                                       ("change", change))},
        "summary": summary, "runs": runs},
        indent=1) + "\n")
    return 1 if any(r["problems"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
