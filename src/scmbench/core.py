"""Deterministic dense-tensor primitives: softmax, cosine and PSNR, a
seeded PRNG, cost instrumentation, and the row split and tiling that
spread the hot loops over the available cores.

Everything is float64 and bit-deterministic: the same inputs produce
bit-identical outputs on every call. The thread policy is what makes that
hold on any machine:

* numpy's OpenBLAS is pinned to one thread, process-wide, when this module
  is imported, so every matmul row is computed in one fixed order;
* :func:`split_rows` splits the rows of attention, FFN (which also runs
  the pruned blocks' cache refill, tile by tile) and mixing across the
  CPUs in the process's affinity set, each part on its own thread;
* each part runs its stage tile by tile (:func:`tile_bounds`, about
  :data:`_TILE_TOKENS` tokens a tile), with every temporary a view into
  the thread's one grow-only :func:`scratch` buffer per tag, so a
  thread's working set is bounded by the tile, not by the latent;
* per-row results do not depend on the split or on the tiles, so outputs
  do not depend on the core count or on ``OPENBLAS_NUM_THREADS``.

All array values flowing through public operations are finite; callers can
assert this cheaply with :func:`assert_finite`.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError

__all__ = [
    "CostCounters",
    "Rng",
    "scratch",
    "split_rows",
    "tile_bounds",
    "softmax_last_inplace",
    "tune_allocator",
    "cosine",
    "sq_norm",
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

    @property
    def flops_total(self) -> int:
        return self.flops_attention + self.flops_ffn + self.flops_mixing


# SplitMix64 constants.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


class Rng:
    """Counter-based SplitMix64 stream with Box-Muller normals.

    The stream is a pure function of the seed: draw ``i`` mixes state
    ``seed + (i+1) * GAMMA`` (mod 2^64), so batches of any size produce the
    same sequence as one-at-a-time draws. Normals consume two 64-bit words
    per pair and fill output arrays in row-major order.
    """

    def __init__(self, seed: int):
        self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_u64(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            steps = (np.arange(1, n + 1, dtype=np.uint64)) * _GAMMA
            z = self.state + steps
            self.state = z[-1] if n else self.state
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, shape) -> np.ndarray:
        """i.i.d. uniforms in [0, 1) from the top 53 bits of each word."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U53
        return u.reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller, row-major fill order."""
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        words = self.next_u64(2 * pairs)
        # u1 in (0, 1] so log() is safe; u2 in [0, 1).
        u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _U53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n].reshape(shape)


_ALLOCATOR_TUNED = False


def tune_allocator() -> None:
    """Raise glibc's mmap/trim thresholds for large-array churn.

    Large transient arrays then come from malloc's free list instead of
    fresh kernel pages, which removes page-fault overhead from the hot
    loop. Purely a performance knob: results are unaffected, and the call
    is a no-op where glibc is unavailable.
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


class _ScratchPool(threading.local):
    """Per-thread reusable scratch arrays, one grow-only buffer per tag.

    Every stage runs tile by tile, so each tag only ever needs one tile's
    worth of elements: the buffer grows to the largest request and smaller
    ones (remainder tiles, other block shapes) get views of its head. A
    thread's pool is therefore bounded by the tile size, not by the
    latent. Callers must only hand out views whose contents die before
    the same tag is requested again on the same thread; nothing returned
    to a caller of the public API may alias a scratch buffer.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_POOL = _ScratchPool()


def scratch(tag: str, shape: tuple) -> np.ndarray:
    """A float64 view of the given shape into this thread's ``tag`` buffer."""
    size = math.prod(shape)
    buf = _POOL.buffers.get(tag)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        _POOL.buffers[tag] = buf
    return buf[:size].reshape(shape)


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


# Row-split width: the CPUs this process may run on, or 1 when BLAS could
# not be pinned (a multi-threaded BLAS under parallel callers would
# oversubscribe the cores).
_PARTS = len(os.sched_getaffinity(0)) if _pin_blas_to_one_thread() else 1
# Fewest rows worth a part of their own; smaller jobs run serially on the
# calling thread, where a dispatch would cost more than it saves.
_MIN_PART_ROWS = 1024

_executor = None
_executor_workers = 0


def _workers(n: int):
    """The persistent pool, started on first use, with at least n workers."""
    global _executor, _executor_workers
    # Imported here, not at the top, so that importing scmbench stays as
    # cheap as it was before the pool existed.
    from concurrent.futures import ThreadPoolExecutor

    if _executor_workers < n:
        if _executor is not None:
            _executor.shutdown()
        _executor = ThreadPoolExecutor(max_workers=n,
                                       thread_name_prefix="scmbench")
        _executor_workers = n
    return _executor


def split_rows(n: int, run, rows_per_item: int = 1) -> None:
    """Call ``run(start, stop)`` over contiguous parts covering range(n).

    Each item weighs ``rows_per_item`` rows. The work is cut into at most
    one part per CPU and at most one part per :data:`_MIN_PART_ROWS` rows;
    the calling thread runs the first part and the pool the rest. ``run``
    must write only the rows of its own part, take its temporaries from
    :func:`scratch` (which is per thread), and not call ``split_rows``
    itself, so that the result is the same for every split and no part
    waits on a pool it occupies.
    """
    parts = min(_PARTS, n, n * rows_per_item // _MIN_PART_ROWS)
    if parts <= 1:
        run(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    pool = _workers(parts - 1)
    futures = [pool.submit(run, bounds[i], bounds[i + 1])
               for i in range(1, parts)]
    try:
        run(bounds[0], bounds[1])
    finally:
        for fut in futures:
            fut.exception()  # waits for the part, even if this one failed
    for fut in futures:
        fut.result()


# Tokens per tile: every stage of a block runs over groups of about this
# many tokens, so its temporaries fit small per-thread buffers.
_TILE_TOKENS = 1024


def tile_bounds(lo: int, hi: int, tokens_per_item: int = 1) -> list[int]:
    """Bounds of near-equal contiguous tiles covering range(lo, hi).

    An item weighs ``tokens_per_item`` tokens. A tile holds at least
    ``_TILE_TOKENS // tokens_per_item`` items and fewer than twice that,
    and at least one item and two tokens where the range has them. BLAS
    runs a one-row matmul as a matrix-vector product, which sums in
    another order, so tiles of two or more rows keep per-row results the
    same for every tiling. Consecutive entries of the returned list
    delimit one tile.
    """
    if hi <= lo:
        return [lo]
    per_tile = max(_TILE_TOKENS // tokens_per_item, -(-2 // tokens_per_item))
    count = max(1, (hi - lo) // per_tile)
    return [lo + (hi - lo) * i // count for i in range(count + 1)]


def softmax_last_inplace(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis, overwriting ``x``."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs at least one element on the last axis")
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def sq_norm(a: np.ndarray) -> float:
    """Squared Euclidean norm of the flattened data, as :func:`cosine`
    takes it."""
    af = a.ravel()
    return float(af @ af)


def cosine(a: np.ndarray, b: np.ndarray, a_sq: float | None = None,
           b_sq: float | None = None) -> float:
    """Cosine similarity over flattened data, in [-1, 1].

    ``a_sq`` and ``b_sq`` are the operands' :func:`sq_norm` values when
    the caller already has them; the result is the same either way.
    """
    if a.shape != b.shape:
        raise ShapeError(f"cosine shapes disagree: {a.shape} vs {b.shape}")
    dot = float(a.ravel() @ b.ravel())
    na = math.sqrt(sq_norm(a) if a_sq is None else a_sq)
    nb = math.sqrt(sq_norm(b) if b_sq is None else b_sq)
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
