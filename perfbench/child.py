"""One benchmark run in a fresh interpreter.

Usage: python3 child.py '<json spec>'

The spec names the scmbench source directory and the ``RunConfig`` values.
The child imports scmbench, validates the config (the end of set-up), times
one ``run_benchmark`` call, and writes to standard output one JSON line
followed by the final latent in ``.npy`` format. With ``"traced": true`` it
runs under the span recorder and adds the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time


def blas_threads() -> dict:
    """Thread count of numpy's bundled OpenBLAS, else the environment's."""
    import ctypes
    import glob
    import os
    from pathlib import Path

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs"
                         / "libscipy_openblas*.so*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return {"threads": get(), "source": "scipy_openblas_get_num_threads64_"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return {"threads": os.environ[var], "source": var}
    return {"threads": None, "source": "unknown"}


def peak_rss_mb() -> float:
    """Peak resident set of this process (``VmHWM``), in 10^6 bytes.

    ``ru_maxrss`` would not do: Linux carries the parent's peak across fork
    and exec, so every run would report at least the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep anything the program prints off the protocol
    sys.path.insert(0, spec["src"])
    import scmbench

    config = scmbench.build_config(None, spec["config"])
    ready = time.perf_counter()
    header = {"ready": ready, "scmbench": scmbench.__file__}

    import numpy as np

    if spec.get("traced"):
        from tracer import Tracer

        with Tracer() as tracer:
            t0 = time.perf_counter()
            report = scmbench.run_benchmark(config)
            run_s = time.perf_counter() - t0
        header["per_layer"] = tracer.metrics(report, run_s)
        header["spans"] = [[name, label, row["calls"], row["total_s"],
                            row["self_s"]]
                           for (name, label), row in tracer.table().items()]
    else:
        t0 = time.perf_counter()
        report = scmbench.run_benchmark(config)
        run_s = time.perf_counter() - t0
    header["run_s"] = run_s
    header["peak_rss_mb"] = peak_rss_mb()
    header["blas"] = blas_threads()
    out.write(json.dumps(header).encode() + b"\n")
    np.save(out, report.z_final, allow_pickle=False)
    out.flush()


if __name__ == "__main__":
    main()
