"""Deterministic dense-tensor primitives: softmax, cosine and PSNR, a
seeded PRNG, cost instrumentation, and the tiling that spreads the hot
loops over the available cores.

Everything is float64 and bit-deterministic: the same inputs produce
bit-identical outputs on every call. The thread policy is what makes that
hold on any machine:

* numpy's OpenBLAS is pinned to one thread, process-wide, when this module
  is imported, so every matmul row is computed in one fixed order;
* a tile is the only unit of work: attention, the pruned blocks' cache
  refill, FFN, mixing and the sampler's update cut their whole range into
  tiles of about :data:`_TILE_TOKENS` (512) tokens
  (:func:`tiles`), with every temporary a plain array sized by the tile
  and freed with it, so a thread's working set is bounded by the tile,
  not by the latent; :class:`Rng`'s normals likewise draw in chunks
  straight into their output;
* :func:`run_tiles` hands a stage's tiles out one at a time from one
  queue, which one thread per CPU in the process's affinity set drains;
  :func:`run_aside` runs one whole job, such as a cosine's dots, on the
  pool while the calling thread goes on;
* per-row results do not depend on the tiles or on which thread runs
  each, so outputs do not depend on the core count or on
  ``OPENBLAS_NUM_THREADS``.

The elementwise arithmetic of softmax, GELU, the query scaling and
mixing's reflect average, the random stream's words, and pruning's
keep-list selection, keep-list check, row grid, kept-row copies and
refill, run in ``_kernels.c``, compiled with gcc on first
import (see :func:`_load_kernels`) and called through ``ctypes``, which
releases the GIL for each call, so the drainers run kernels at once.
Each kernel computes every element with the same operations in the same
order as the numpy expression it replaced, so the results are bit for bit
the same; ``np.exp``, ``np.tanh``, Box-Muller's ``np.log``, ``np.cos``
and ``np.sin`` and every matmul stay in numpy. So a run calls none of
numpy's integer ufuncs, reductions, casts or fancy indexing, and never
pages in that code.

All array values flowing through public operations are finite; callers can
assert this cheaply with :func:`assert_finite`.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError

__all__ = [
    "CostCounters",
    "Rng",
    "tiles",
    "run_tiles",
    "out_array",
    "softmax_last_inplace",
    "tune_allocator",
    "cosine",
    "psnr",
    "assert_finite",
]

PSNR_INF = math.inf


@dataclass
class CostCounters:
    """Hardware-independent cost model for a run.

    FLOPs are exact multiply-add counts of the matmuls involved plus one
    count per softmax exponential. ``live_elements`` models allocated
    float64 elements: persistent allocations (cache entries) go through
    :meth:`acquire`/:meth:`release`, while per-step transients go through
    :meth:`acquire_workspace` and are dropped in one shot by
    :meth:`release_workspace` at a step boundary.
    """

    flops_attention: int = 0
    flops_ffn: int = 0
    flops_mixing: int = 0
    live_elements: int = 0
    peak_live_elements: int = 0
    attention_by_block: dict[str, int] = field(
        default_factory=lambda: {"spatial": 0, "camera": 0, "motion": 0}
    )
    _workspace: int = 0

    def add_attention(self, flops: int, block: str | None = None) -> None:
        self.flops_attention += flops
        if block is not None:
            self.attention_by_block[block] += flops

    def add_ffn(self, flops: int) -> None:
        self.flops_ffn += flops

    def add_mixing(self, flops: int) -> None:
        self.flops_mixing += flops

    def acquire(self, elements: int) -> None:
        self.live_elements += elements
        if self.live_elements > self.peak_live_elements:
            self.peak_live_elements = self.live_elements

    def release(self, elements: int) -> None:
        if elements > self.live_elements:
            raise ParameterError("releasing more elements than are live")
        self.live_elements -= elements

    def acquire_workspace(self, elements: int) -> None:
        self._workspace += elements
        self.acquire(elements)

    def release_workspace(self) -> None:
        self.release(self._workspace)
        self._workspace = 0

    def transfer_workspace(self, elements: int) -> None:
        """Reclassify live workspace elements as persistent.

        Used when a tensor produced during a step (and already counted as
        workspace) is retained past the step boundary, e.g. a cache store:
        the elements stay live but survive :meth:`release_workspace`.
        """
        if elements > self._workspace:
            raise ParameterError(
                "transferring more elements than the workspace holds"
            )
        self._workspace -= elements

    def flops(self) -> dict[str, int]:
        """FLOP counts per category, keyed like the report's step fields."""
        by_block = self.attention_by_block
        return {
            "flops_attention": self.flops_attention,
            "flops_attention_spatial": by_block["spatial"],
            "flops_attention_camera": by_block["camera"],
            "flops_attention_motion": by_block["motion"],
            "flops_ffn": self.flops_ffn,
            "flops_mixing": self.flops_mixing,
        }

    @property
    def flops_total(self) -> int:
        return self.flops_attention + self.flops_ffn + self.flops_mixing


# SplitMix64's state increment, and the stream state's modulus.
_GAMMA = 0x9E3779B97F4A7C15
_U64 = 1 << 64
# Values drawn per pass of Rng.normal (even, so a chunk is whole pairs):
# its temporaries are a few chunk-sized arrays.
_DRAW_CHUNK = 1 << 14


def _element_count(shape, what: str = "random draws") -> int:
    """Exact element count of an int or a tuple shape; MemoryError, naming
    the count as ``what``, when numpy cannot hold that many 64-bit words
    (np.prod would wrap, and np.arange and np.empty raise ValueError)."""
    n = (int(shape) if isinstance(shape, numbers.Integral)
         else math.prod(map(int, shape)))
    if 8 * (n + 1) > np.iinfo(np.intp).max:
        raise MemoryError(f"{n} {what}: more than numpy can allocate")
    return n


class Rng:
    """Counter-based SplitMix64 stream with Box-Muller normals.

    The stream is a pure function of the seed: draw ``i`` mixes state
    ``seed + (i+1) * GAMMA`` (mod 2^64), so batches of any size produce the
    same sequence as one-at-a-time draws. ``state`` is a Python integer,
    the state of the last word drawn (the seed before any), and the
    compiled kernels compute the words after it. Normals consume two
    64-bit words per pair and fill output arrays in row-major order.
    """

    def __init__(self, seed: int):
        self.state = int(seed) % _U64

    def _take(self, words: int) -> int:
        """Advance the stream past ``words`` words; the state before."""
        state = self.state
        self.state = (state + words * _GAMMA) % _U64
        return state

    def uniform(self, shape) -> np.ndarray:
        """i.i.d. uniforms in [0, 1) from the top 53 bits of each word."""
        n = _element_count(shape)
        out = np.empty(n)
        _kernels.uniform_draws(out.ctypes.data, self._take(n), n)
        return out.reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller, row-major fill order.

        Drawn :data:`_DRAW_CHUNK` values (whole pairs) at a time straight
        into the output; an odd count drops the last pair's second value.
        """
        n = _element_count(shape)
        out = np.empty(n)
        for a in range(0, n, _DRAW_CHUNK):
            b = min(a + _DRAW_CHUNK, n)
            pairs = (b - a + 1) // 2
            # u1 in (0, 1] so log() is safe; u2 in [0, 1).
            u1, u2 = np.empty(pairs), np.empty(pairs)
            _kernels.box_muller_inputs(u1.ctypes.data, u2.ctypes.data,
                                       self._take(2 * pairs), pairs)
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * np.pi * u2
            np.multiply(r, np.cos(theta), out=out[a:b:2])
            odd = (b - a) // 2
            np.multiply(r[:odd], np.sin(theta[:odd]), out=out[a + 1:b:2])
        return out.reshape(shape)


_ALLOCATOR_TUNED = False


def tune_allocator() -> None:
    """Raise glibc's mmap/trim thresholds for large-array churn.

    Large transient arrays then come from malloc's free list instead of
    fresh kernel pages, which removes page-fault overhead from the hot
    loop. Purely a performance knob: results are unaffected, and the call
    is a no-op where glibc is unavailable. The heap is then never trimmed,
    so the largest transient of a run sets its peak resident set.
    """
    global _ALLOCATOR_TUNED
    if _ALLOCATOR_TUNED:
        return
    _ALLOCATOR_TUNED = True
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except OSError:
        pass


def _pin_blas_to_one_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False if it cannot be found.

    Done through the library's own set-threads symbol rather than an
    environment variable, so it also holds when numpy was imported first.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so*"))
    for lib in libs:
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
        return True
    return False


# Drainers per stage: the CPUs this process may run on, or 1 when BLAS could
# not be pinned (a multi-threaded BLAS under parallel callers would
# oversubscribe the cores).
_PARTS = len(os.sched_getaffinity(0)) if _pin_blas_to_one_thread() else 1
# Tokens per tile: every stage of a block runs over groups of about this
# many tokens, so its temporaries are small and stay in cache. 512 halves
# the tile temporaries of 1024 at no run time a sweep could resolve; 256
# cuts the 512-token stages of small latents into two tiles and ran them
# about a third slower.
_TILE_TOKENS = 512

_executor = None


def _pool():
    """The persistent pool, started on first use with one worker per CPU
    besides the calling thread."""
    global _executor
    if _executor is None:
        # Imported here, not at the top, so that importing scmbench stays
        # as cheap as it was before the pool existed.
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(max_workers=max(1, _PARTS - 1),
                                       thread_name_prefix="scmbench")
    return _executor


def run_aside(tokens: int, fn, *args):
    """Start ``fn(*args)``, a job over ``tokens`` tokens, on the pool and
    return a function that waits for it and returns its result. With one
    drainer, or within one tile, it runs at once, as a one-tile stage does:
    the hand-off would cost more than it saves. A stage started meanwhile
    may wait on ``fn``: ``fn`` holds a pool worker (with 2 CPUs, the only
    one), so a helper of the stage can queue behind it. The calling thread
    drains the tiles meanwhile, but the stage returns only once each of
    its helpers has run, and so, for that helper, after ``fn``.
    ``fn`` must not call :func:`run_tiles`, whose helpers would queue
    behind ``fn`` itself.
    """
    if _PARTS <= 1 or len(tiles(tokens)) < 2:
        result = fn(*args)
        return lambda: result
    return _pool().submit(fn, *args).result


def tiles(n: int, weight: int = 1) -> list[tuple[int, int]]:
    """Near-equal contiguous tiles (start, stop) covering range(n).

    An item weighs ``weight`` tokens. A tile holds at least
    ``_TILE_TOKENS // weight`` items and fewer than twice that, and at
    least one item and two tokens where the range has them. BLAS runs a
    one-row matmul as a matrix-vector product, which sums in another
    order, so tiles of two or more rows keep per-row results the same for
    every tiling.
    """
    per_tile = max(_TILE_TOKENS // weight, -(-2 // weight))
    count = max(1, n // per_tile)
    bounds = [n * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def run_tiles(tile_list: list[tuple], run) -> None:
    """Call ``run(*tile)`` once for every tile of ``tile_list``.

    The tiles form one queue, which ``min(_PARTS, len(tile_list))``
    drainers empty: the calling thread and the rest on the pool. A thread
    that finishes a tile takes the next one, so a stalled thread holds up
    only the tile it is on, and a stage of one tile runs on the calling
    thread. ``run`` must write only the rows of its own tile and not call
    ``run_tiles`` itself, so that the result is the same whichever thread
    runs a tile and no drainer waits on a pool it occupies.
    """
    queue = iter(tile_list)
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:  # hands each tile out once, with or without a GIL
                tile = next(queue, None)
            if tile is None:
                return
            run(*tile)

    futures = [_pool().submit(drain)
               for _ in range(min(_PARTS, len(tile_list)) - 1)]
    try:
        drain()
    finally:
        for fut in futures:
            fut.exception()  # waits for the drainer, even if this one failed
    for fut in futures:
        fut.result()


def out_array(out: np.ndarray | None, shape) -> np.ndarray:
    """A stage's destination: ``out``, checked to be a C-contiguous
    float64 array of ``shape``, or a fresh array when ``out`` is None.

    A caller passes ``out`` only for an array it owns and no longer needs,
    typically the stage's own input, which the stage then writes over.
    """
    if out is None:
        return np.empty(shape)
    if (out.shape != tuple(shape) or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 array of "
                         f"shape {tuple(shape)}, got {out.dtype} "
                         f"{out.shape}")
    return out


# The compiled kernels: _kernels.c, built on first import into
# _KERNEL_CACHE (see _load_kernels). -ffp-contract=off keeps every multiply
# and every add its own rounded operation, as numpy's are, and without
# -ffast-math gcc never reorders a sum, so the kernels' bits are numpy's.
# -march=native ties the library to this CPU, so its key holds the CPU
# features numpy enables.
_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_CACHE = Path(__file__).with_name(".kernels")
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_PTR, _LEN = ctypes.c_void_p, ctypes.c_ssize_t
_SIGNATURES = {
    "softmax_sub_max": ([_PTR, _LEN, _LEN], None),
    "softmax_div_sum": ([_PTR, _LEN, _LEN], None),
    "gelu_tanh_arg": ([_PTR, _PTR, _LEN, ctypes.c_double], None),
    "gelu_finish": ([_PTR, _PTR, _LEN], None),
    "reflect_average": ([_PTR, _PTR, _LEN, _LEN, _LEN, _LEN], ctypes.c_int),
    "row_topk": ([_PTR, _PTR, _LEN, _LEN, _LEN], ctypes.c_int),
    "scale_queries": ([_PTR, _LEN, _LEN, _LEN, ctypes.c_double], None),
    "gather_kv": ([_PTR, _PTR, _PTR, _PTR, _LEN, _LEN, _LEN], None),
    "scatter_rows": ([_PTR, _PTR, _PTR, _LEN, _LEN, _LEN], None),
    "refill_rows": ([_PTR, _PTR, _PTR, _PTR, _LEN, _LEN, _LEN, _LEN, _LEN],
                    None),
    "uniform_draws": ([_PTR, ctypes.c_uint64, _LEN], None),
    "box_muller_inputs": ([_PTR, _PTR, ctypes.c_uint64, _LEN], None),
    "pruned_rows": ([_PTR, _PTR, _PTR, _LEN, _LEN, _LEN, _LEN, _LEN, _LEN],
                    ctypes.c_int),
    "rows_in_range": ([_PTR, _LEN, _LEN, _LEN, _LEN], ctypes.c_int),
}


def _cpu_features() -> str:
    """The CPU features numpy has enabled on this machine."""
    from numpy._core._multiarray_umath import __cpu_features__

    return " ".join(sorted(k for k, on in __cpu_features__.items() if on))


def _build(source: Path, flags: tuple[str, ...], lib: Path) -> None:
    """Compile ``source`` into ``lib`` with gcc, through a file of this
    process's own that is renamed into place when whole."""
    # Imported here, so that a process which finds its library never
    # imports it.
    import subprocess

    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ImportError(f"scmbench's kernel cache {lib.parent} cannot be "
                          f"made: {exc}") from None
    part = lib.with_name(f"{lib.name}.{os.getpid()}")
    command = ["gcc", *flags, "-o", str(part), str(source)]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        problem = (f"exit code {done.returncode}: {done.stderr.strip()}"
                   if done.returncode else None)
    except OSError as exc:
        problem = str(exc)
    if problem is not None:
        part.unlink(missing_ok=True)
        raise ImportError(f"building scmbench's kernels failed: "
                          f"{' '.join(command)}: {problem}") from None
    os.replace(part, lib)


def _load_kernels(cache: Path = _KERNEL_CACHE, source: Path = _KERNEL_SOURCE,
                  flags: tuple[str, ...] = _CFLAGS,
                  features: str | None = None) -> ctypes.CDLL:
    """The kernels of ``source`` compiled with ``flags``, loaded, each with
    its ctypes signature from ``_SIGNATURES``: softmax's two halves,
    GELU's two halves, mixing's reflect average, attention's query scaling
    (``scale_queries``), the random stream's uniforms (``uniform_draws``)
    and Box-Muller inputs (``box_muller_inputs``), and pruning's top-k
    selection (``row_topk``), keep-list check and row grid
    (``pruned_rows``), row-bound check (``rows_in_range``), the kept rows'
    gather into a tile's keys and values (``gather_kv``) and scatter of
    their attention into the new entry (``scatter_rows``), and the refill
    of the entry's other rows from the cache (``refill_rows``). The stream
    kernels wrap their integer arithmetic modulo 2^64, as numpy's uint64
    arithmetic does, and every conversion they make from a word to a
    double is exact, so their bits are numpy's.

    The library lives in ``cache`` under a CRC-32 of the source, the flags
    and the CPU features (numpy's when ``features`` is None); it is built
    only when no library of that key is there, and a build then deletes
    every other library there, whose key is stale; part files stay, since
    another process may still write one. Processes that import at once may
    each build it, and each loads a whole file. A failed build raises
    ImportError naming the command, and a cache directory that cannot be
    made one naming the directory and the OS error.
    """
    if features is None:
        features = _cpu_features()
    key = zlib.crc32(b"\0".join((source.read_bytes(),
                                  " ".join(flags).encode(),
                                  features.encode())))
    lib = cache / f"_kernels-{key:08x}.so"
    if not lib.is_file():
        _build(source, flags, lib)
        for stale in set(cache.glob("_kernels-*.so")) - {lib}:
            stale.unlink(missing_ok=True)
    kernels = ctypes.CDLL(str(lib))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(kernels, name)
        fn.argtypes, fn.restype = argtypes, restype
    return kernels


_kernels = _load_kernels()


def _address(a: np.ndarray) -> int:
    """The address of ``a``'s data, which a kernel reads and writes as a
    C-contiguous float64 array; ShapeError when ``a`` is not one."""
    if a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ShapeError(f"a kernel needs a C-contiguous float64 array, got "
                         f"{a.dtype} with strides {a.strides}")
    return a.ctypes.data


def softmax_last_inplace(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis, overwriting ``x``, a
    C-contiguous float64 array."""
    data = _address(x)
    n = x.shape[-1]
    if n < 1:
        raise ShapeError("softmax needs at least one element on the last axis")
    rows = x.size // n
    _kernels.softmax_sub_max(data, rows, n)
    np.exp(x, out=x)
    _kernels.softmax_div_sum(data, rows, n)
    return x


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity over flattened data, in [-1, 1]."""
    if a.shape != b.shape:
        raise ShapeError(f"cosine shapes disagree: {a.shape} vs {b.shape}")
    # Three whole BLAS dots, each summed as a.ravel() @ b.ravel() is;
    # unlike that, vdot drops the GIL, so a caller of a run_aside cosine
    # runs on meanwhile.
    dot = float(np.vdot(a, b))
    na = math.sqrt(float(np.vdot(a, a)))
    nb = math.sqrt(float(np.vdot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine of a zero-norm operand")
    return float(np.clip(dot / (na * nb), -1.0, 1.0))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(peak^2 / MSE) with peak = max(max|a|, 1); +inf when MSE=0."""
    if a.shape != b.shape:
        raise ShapeError(f"psnr shapes disagree: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_INF
    peak = max(float(np.max(np.abs(a))), 1.0)
    return 10.0 * math.log10(peak * peak / mse)


def assert_finite(x: np.ndarray, what: str = "tensor") -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"{what} contains NaN/Inf")
