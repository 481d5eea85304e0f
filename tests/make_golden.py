"""Golden outputs: the cases, what is recorded of each, and the machine
fingerprint the bit-level digests are keyed by.

Regenerate ``tests/golden.json`` with::

    PYTHONPATH=src python tests/make_golden.py

Only a change that means to change outputs regenerates it, and its
CHANGES.md entry gives the old and the new digests and the reason.

For each case the file holds the SHA-256 of the final latent's bytes, of
the report without ``timing``, of the step CSV without ``wall_us`` and of
the similarity CSV. Those bits depend on the machine (numpy's kernels,
the BLAS core and the CPU features numpy dispatches on), so they are
compared only where the fingerprint matches. The ``portable`` digest
covers what does not depend on it: the per-step FLOP counts, step kinds
and bypassed layers, the mode trace and ``peak_live_elements``.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from scmbench import build_config, emit_report, run_benchmark
from scmbench.scheduler import MODE_TABLE, StepKind

GOLDEN = Path(__file__).with_name("golden.json")

# Every mode at dims where turbo, cache-only, bypass-only and
# random-prune latch at step 2, so eviction is covered, and every mode
# that prunes also with zero_refill (elsewhere it changes nothing but the
# config echo); and the benchmark's three default-dim modes.
_SMALL = {"frames": 2, "views": 4, "height": 8, "width": 8, "channels": 32,
          "steps": 12}
_PRUNES = {mode for mode, spec in MODE_TABLE.items()
           if StepKind.PRUNE in (spec.even, spec.odd)}
CASES = {
    f"{mode}{'-zero-refill' if zero else ''}-small-seed{seed}":
        dict(_SMALL, mode=mode, zero_refill=zero, seed=seed)
    for seed in (0, 7919) for mode in MODE_TABLE
    for zero in ((False, True) if mode in _PRUNES else (False,))
}
CASES.update({f"{mode}-default-seed0": {"mode": mode, "steps": 4, "seed": 0}
              for mode in ("dense", "turbo", "prune-only")})


def _blas_core() -> str:
    """OpenBLAS's name for this CPU core, as numpy's bundled build reports
    it, or "unknown"."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


def fingerprint() -> dict:
    """What a float64 result's bits depend on besides the program."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas_core": _blas_core(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str)
                          else data).hexdigest()


def digests(config: dict) -> dict[str, str]:
    """Run one case and digest what it emits."""
    report = run_benchmark(build_config(None, config))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        emit_report(report, path, similarity_csv=True)
        doc = json.loads(path.read_text())
        steps = path.with_name("report_steps.csv").read_text()
        similarity = path.with_name("report_similarity.csv").read_text()
    del doc["timing"]
    rows = list(csv.reader(io.StringIO(steps)))
    assert rows[0][-1] == "wall_us", rows[0]
    out = io.StringIO()
    csv.writer(out).writerows(row[:-1] for row in rows)
    portable = {"steps": doc["steps"], "mode_trace": doc["mode_trace"],
                "peak_live_elements": doc["peak_live_elements"]}
    return {
        "latent": _sha(report.z_final.tobytes()),
        "report": _sha(json.dumps(doc, indent=2)),
        "steps_csv": _sha(out.getvalue()),
        "similarity_csv": _sha(similarity),
        "portable": _sha(json.dumps(portable)),
    }


def main() -> int:
    doc = {"fingerprint": fingerprint(),
           "cases": {name: digests(cfg) for name, cfg in CASES.items()}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['cases'])} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
