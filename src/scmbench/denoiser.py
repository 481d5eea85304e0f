"""Deterministic L-layer denoising network and reverse sampling loop.

Each layer applies a channelwise linear map with a 3-point reflect-padded
average along H and W (a convolution stand-in), then its attention chain.
The network predicts the clean latent directly; the reverse loop applies a
deterministic clean-prediction update on the variance-preserving schedule,
so any divergence between runs is attributable to the acceleration path
alone, never to sampling noise. The model, the priors and the sampler
all read their settings from one :class:`bench.RunConfig`, which
validates them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import pruning
from .attention import (
    AttentionSink,
    BlockParams,
    ChainWeights,
    PriorSet,
    camera_forward,
    ffn,
    motion_forward,
    spatial_forward,
)
from .cache import BLOCK_KINDS, RollingCache, SimilarityRecord
from .core import (CostCounters, Rng, _address, _element_count, _kernels,
                   assert_finite, out_array, run_tiles, tiles)
from .errors import ParameterError, ShapeError
from .scheduler import (
    MODE_TABLE,
    SchedulerState,
    StepKind,
    StepMode,
    bypass_set,
    compute_asr,
    select_mode,
)

if TYPE_CHECKING:
    # bench imports this module, so the config type is only named here.
    from .bench import RunConfig

__all__ = [
    "DiffusionSchedule",
    "cosine_schedule",
    "LayerWeights",
    "ToyModel",
    "build_toy_model",
    "synth_priors",
    "ddim_update",
    "cached_chain_forward",
    "model_forward",
    "denoise_step",
    "StepRecord",
    "SampleTrace",
    "sample",
]

@dataclass
class DiffusionSchedule:
    """Variance-preserving schedule: alpha[0]=1, beta[0]=0, alpha^2+beta^2=1."""

    total_steps: int
    alpha: np.ndarray  # length total_steps + 1
    beta: np.ndarray

    def __post_init__(self):
        t = self.total_steps
        if len(self.alpha) != t + 1 or len(self.beta) != t + 1:
            raise ParameterError("schedule arrays must have length T+1")
        # Every check below is a comparison that NaN would pass.
        if not (np.all(np.isfinite(self.alpha))
                and np.all(np.isfinite(self.beta))):
            raise ParameterError("schedule arrays must be finite")
        if abs(self.alpha[0] - 1.0) > 1e-12 or abs(self.beta[0]) > 1e-12:
            raise ParameterError("schedule endpoints: alpha[0]=1, beta[0]=0")
        if np.any(np.diff(self.alpha) > 1e-12) or np.any(np.diff(self.beta) < -1e-12):
            raise ParameterError("alpha must be non-increasing, beta non-decreasing")
        if np.max(np.abs(self.alpha ** 2 + self.beta ** 2 - 1.0)) > 1e-12:
            raise ParameterError("schedule is not variance preserving")


def cosine_schedule(total_steps: int) -> DiffusionSchedule:
    if total_steps < 1:
        raise ParameterError(f"total_steps must be >= 1, got {total_steps}")
    n = _element_count(total_steps + 1, "schedule points")
    # A float arange holds the same integers an int64 one would, exactly.
    t = np.arange(float(n)) / total_steps
    return DiffusionSchedule(
        total_steps=total_steps,
        alpha=np.cos(0.5 * np.pi * t),
        beta=np.sin(0.5 * np.pi * t),
    )


@dataclass
class LayerWeights:
    mix: np.ndarray  # [C, C] channelwise map
    chain: ChainWeights


@dataclass
class ToyModel:
    layers: list[LayerWeights]
    latent_shape: tuple[int, int, int, int, int]
    seed: int


def _uniform_weight(rng: Rng, shape, scale: float) -> np.ndarray:
    return (rng.uniform(shape) * 2.0 - 1.0) * scale


def build_toy_model(cfg: RunConfig) -> ToyModel:
    """Scaled-uniform init in [-1/sqrt(C), 1/sqrt(C)], one stream per model,
    seeded with ``cfg.seed``; ``cfg.layers`` layers of ``cfg.channels``
    channels and ``cfg.n_heads`` heads.

    Draw order: per layer, the mixing map, then for each of the spatial,
    camera, motion blocks wq, wk, wv, wo, w1, w2.
    """
    c = cfg.channels
    # Drawn a layer at a time, so no one draw would catch an oversized model.
    _element_count((cfg.layers, 25, c, c), "model weights")
    scale = 1.0 / math.sqrt(c)
    rng = Rng(cfg.seed)

    def block() -> BlockParams:
        return BlockParams(
            wq=_uniform_weight(rng, (c, c), scale),
            wk=_uniform_weight(rng, (c, c), scale),
            wv=_uniform_weight(rng, (c, c), scale),
            wo=_uniform_weight(rng, (c, c), scale),
            w1=_uniform_weight(rng, (c, 2 * c), scale),
            w2=_uniform_weight(rng, (2 * c, c), scale),
            n_heads=cfg.n_heads,
        )

    layers = [
        LayerWeights(
            mix=_uniform_weight(rng, (c, c), scale),
            chain=ChainWeights(spatial=block(), camera=block(), motion=block()),
        )
        for _ in range(cfg.layers)
    ]
    return ToyModel(layers=layers, latent_shape=cfg.latent_shape,
                    seed=cfg.seed)


def _view_embedding(elevation_deg: float, azimuth_deg: float, c: int) -> np.ndarray:
    """Sinusoidal embedding of the camera angles; equal angles, equal vector.

    Channel k turns at frequency k // 4 + 1, through the elevation when
    k % 4 < 2 and the azimuth else, and takes the sine of that phase when
    k is even and its cosine when odd. The channel arithmetic is on
    Python integers, so no integer array is made.
    """
    e = float(np.deg2rad(elevation_deg))
    a = float(np.deg2rad(azimuth_deg))
    phase = np.array([(e if k % 4 < 2 else a) * (k // 4 + 1)
                      for k in range(c)])
    even = np.array([k % 2 == 0 for k in range(c)])
    return np.where(even, np.sin(phase), np.cos(phase))


def synth_priors(cfg: RunConfig, rng: Rng) -> PriorSet:
    """Seeded stand-in priors at ``cfg``'s latent shape, with camera-angle
    embeddings on the view axis: the views sit at 30 degrees elevation,
    evenly spaced in azimuth."""
    f, v, h, w, c = cfg.latent_shape
    k_s = rng.normal((f, v, 1, c))
    k_c = rng.normal((f, h, w, c))
    k_m = rng.normal((v, h, w, c))
    emb = np.stack([_view_embedding(30.0, azimuth, c)
                    for azimuth in np.arange(float(v)) * (360.0 / v)])
    k_s = k_s + emb[None, :, None, :]
    k_m = k_m + emb[:, None, None, :]
    return PriorSet(k_s=k_s, k_c=k_c, k_m=k_m)


def ddim_update(z_t: np.ndarray, z0_hat: np.ndarray, t: int,
                schedule: DiffusionSchedule,
                out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic clean-prediction update from step t to t-1:
    ``a_prev*z0_hat + (b_prev/b_t)*(z_t - a_t*z0_hat)`` per element, in
    that order, tile by tile into ``out``, or into a fresh array when
    ``out`` is None. ``out`` may be z_t or z0_hat (even when they are one
    array): each tile takes ``a_t*z0_hat`` and ``z_t - ...`` before it
    writes ``a_prev*z0_hat``. The inputs are written only through
    ``out``."""
    if not 1 <= t <= schedule.total_steps:
        raise ParameterError(f"t={t} outside [1, {schedule.total_steps}]")
    if z0_hat.shape != z_t.shape:
        raise ShapeError(f"z0_hat shape {z0_hat.shape} != {z_t.shape}")
    a_prev, b_prev = schedule.alpha[t - 1], schedule.beta[t - 1]
    a_t, b_t = schedule.alpha[t], schedule.beta[t]
    ratio = b_prev / b_t
    c = z_t.shape[-1]
    zt_rows, z0_rows = z_t.reshape(-1, c), z0_hat.reshape(-1, c)
    result = out_array(out, z_t.shape)
    out = result.reshape(zt_rows.shape)

    def apply(i: int, j: int) -> None:
        z0, o = z0_rows[i:j], out[i:j]
        tmp = a_t * z0
        np.subtract(zt_rows[i:j], tmp, out=tmp)
        tmp *= ratio
        np.multiply(a_prev, z0, out=o)
        o += tmp

    run_tiles(tiles(len(out)), apply)
    return result


def mixing(z: np.ndarray, mix: np.ndarray,
           counters: CostCounters | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Channelwise linear map, then 3-point reflect-padded averaging
    along H and then along W, ((y[i-1] + y[i]) + y[i+1]) / 3 with an
    edge's missing neighbour taken from its other side.

    Runs tile by tile over groups of (f, v) slices: the matmul into a tile
    temporary, then the averaging kernel from it straight into ``out``, or
    into a fresh array when ``out`` is None. ``out`` may be z itself: a
    tile's matmul reads all of its rows before the kernel writes them.
    """
    f, v, h, w, c = z.shape
    g, l = f * v, h * w
    rows = z.reshape(g * l, c)
    result = out_array(out, z.shape)
    out = result.reshape(g, h, w, c)

    def apply(i: int, j: int) -> None:
        # Each (f, v) slice is mixed on its own; a tile touches only the
        # rows of its slices.
        y = rows[i * l:j * l] @ mix
        if _kernels.reflect_average(_address(y), out[i:j].ctypes.data,
                                    j - i, h, w, c):
            raise MemoryError("no row buffer for the reflect average")

    run_tiles(tiles(g, l), apply)
    if counters is not None:
        n = f * v * h * w
        counters.add_mixing(2 * n * c * c + 6 * n * c)
        counters.acquire_workspace(2 * n * c)
    return result


def _reuse_chain(z: np.ndarray, chain: ChainWeights, cache: RollingCache,
                 layer: int, counters: CostCounters | None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Eq.-style reuse: FFN(z + cached attention) per block. The entries
    are read in place and stay cached for the next compute step. The
    first block writes to ``out`` (a fresh array when None), and every
    later block writes over that."""
    params = (chain.spatial, chain.camera, chain.motion)
    for kind, p in zip(BLOCK_KINDS, params):
        z = out = ffn(z, p, counters, addend=cache.peek(layer, kind), out=out)
    return z


def cached_chain_forward(
    z: np.ndarray,
    priors: PriorSet,
    w: ChainWeights,
    cache: RollingCache | None,
    layer: int,
    step: int,
    counters: CostCounters | None = None,
    select=None,
    zero_refill: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One chain pass for a layer that computes its attention.

    ``select(semantic)`` maps the spatial block's semantic map to a
    :class:`pruning.TokenIndexSet`; with it, camera and motion run pruned,
    with complements refilled from the cache, which a prune step needs
    (peeked, so the same entries also feed similarity recording), or
    zero-filled with ``zero_refill`` (degradation ablation; the cache is
    still maintained). Without it the step is dense.

    Each block hands its attention over as soon as it is complete, which
    is before its FFN (see :func:`attention.axis_block`). The previous-step
    entry it supersedes, if any,
    is emptied then, and its cosine against the new attention runs off
    the calling thread meanwhile (:meth:`RollingCache.supersede`); the
    next block waits for that cosine before it allocates its own
    attention, so at most one superseded entry is alive at a time, and
    none while a block allocates its attention. The step's own attention
    outputs then become the entries. With no cache the pass records and
    stores nothing.

    The pass owns one working latent: the spatial block writes its output
    to ``out`` (a fresh array when None, so a plain call never writes z),
    and every later block writes over that. Besides it, the pass holds
    only the spatial semantic map and, with a cache, the attention arrays
    it is about to store. Each block adds its attention into its output's
    rows tile by tile; with no cache, no full-size attention is made.
    """
    if select is not None and cache is None:
        raise ParameterError("prune step: no cache given")
    stale = cache is not None and cache.has_entries(layer)
    fresh = []

    def sink(kind: str) -> AttentionSink | None:
        """The block's wait before it builds its attention, and where it
        hands that attention over; None with no cache."""
        if cache is None:
            return None

        def take(attention: np.ndarray) -> None:
            if stale:
                cache.supersede(layer, kind, attention, step)
            fresh.append(attention)

        return AttentionSink(cache.settle, take)

    def refill(kind: str) -> np.ndarray:
        cached = cache.peek(layer, kind)
        return np.zeros_like(cached) if zero_refill else cached

    so = spatial_forward(z, priors.k_s, w.spatial, counters, out=out,
                         sink=sink("spatial"))
    z, semantic = so.out, so.semantic
    if select is None:
        z = camera_forward(z, priors.k_c, w.camera, counters, out=z,
                           sink=sink("camera")).out
        z = motion_forward(z, priors.k_m, w.motion, counters, out=z,
                           sink=sink("motion")).out
    else:
        idx = select(semantic)
        z = pruning.pruned_camera_forward(
            z, priors.k_c, w.camera, idx, refill("camera"), counters, out=z,
            sink=sink("camera")).out
        z = pruning.pruned_motion_forward(
            z, priors.k_m, w.motion, idx, refill("motion"), counters, out=z,
            sink=sink("motion")).out
    if cache is not None:
        cache.store(layer, *fresh, step)
    return z


def model_forward(
    model: ToyModel,
    z: np.ndarray,
    priors: PriorSet,
    mode: StepMode,
    step: int,
    cache: RollingCache | None = None,
    counters: CostCounters | None = None,
    select=None,
    zero_refill: bool = False,
) -> np.ndarray:
    """One full pass over the layers under the given step mode.

    A reuse step reads each layer's cached attention; any other step
    computes it through :func:`cached_chain_forward`. A prune or reuse
    step needs a cache; a dense step may have one. ``select`` maps the spatial
    semantic map to keep lists and is used, and required, on a prune step
    only; ``zero_refill`` zero-fills the pruned complements.
    """
    if mode.kind is not StepKind.PRUNE:
        select = None
    elif select is None:
        raise ParameterError("prune step: no keep-list selector given")
    if mode.kind is not StepKind.DENSE and cache is None:
        raise ParameterError(f"{mode.kind.value} step: no cache given")
    for li, layer in enumerate(model.layers):
        # Layer 0 mixes the caller's latent into a fresh one, which this
        # pass owns; every later stage writes over it.
        z = mixing(z, layer.mix, counters, out=z if li else None)
        if li in mode.bypassed_layers:
            continue
        if mode.kind is StepKind.REUSE:
            z = _reuse_chain(z, layer.chain, cache, li, counters, out=z)
        else:
            z = cached_chain_forward(z, priors, layer.chain, cache, li, step,
                                     counters, select, zero_refill, out=z)
    return z


def denoise_step(
    model: ToyModel,
    z_t: np.ndarray,
    t: int,
    priors: PriorSet,
    schedule: DiffusionSchedule,
    mode: StepMode,
    cache: RollingCache | None = None,
    counters: CostCounters | None = None,
    select=None,
    zero_refill: bool = False,
) -> np.ndarray:
    """One reverse step from t to t-1; z_t is not written.

    The clean prediction is a fresh latent that this step owns, and the
    update writes z_{t-1} over it.
    """
    step = schedule.total_steps - t
    z0_hat = model_forward(model, z_t, priors, mode, step, cache, counters,
                           select, zero_refill)
    if counters is not None:
        # Clean prediction plus the updated latent.
        counters.acquire_workspace(2 * z_t.size)
    return ddim_update(z_t, z0_hat, t, schedule, out=z0_hat)


@dataclass
class StepRecord:
    step: int
    t: int
    kind: str
    bypassed_layers: list[int]
    flops_attention: int
    flops_attention_spatial: int
    flops_attention_camera: int
    flops_attention_motion: int
    flops_ffn: int
    flops_mixing: int
    wall_us: float


@dataclass
class SampleTrace:
    """A run's records: its steps, the ASR read before each, whether
    bypass latched and the settled similarity log (empty with no cache)."""

    steps: list[StepRecord]
    bypass_active: bool
    similarity_log: list[SimilarityRecord]
    wall_seconds: float
    asr_trace: list[tuple[int, float]]


def sample(
    model: ToyModel,
    priors: PriorSet,
    schedule: DiffusionSchedule,
    cfg: RunConfig,
    rng: Rng,
    counters: CostCounters,
) -> tuple[np.ndarray, SampleTrace]:
    """Run the full reverse loop under the configured acceleration mode.

    Reads only the sampling fields of ``cfg``, never its shape or seed.
    Before each step the ASR is read from the similarity log, settled.
    When bypass latches, the bypassed layers' cache entries are evicted:
    bypass never un-latches, so nothing reads them again. Returns only
    once the cache's last cosine, run aside, is done, and then drops the
    cache: no entry outlives the call.
    """
    n_layers = len(model.layers)
    total = schedule.total_steps
    z = rng.normal(model.latent_shape)
    counters.acquire_workspace(z.size)
    counters.release_workspace()

    spec = MODE_TABLE[cfg.mode]
    cache = RollingCache(counters) if spec.cache else None
    effective_alpha = cfg.alpha_threshold if spec.bypass else float("inf")
    state = SchedulerState(alpha=effective_alpha, warmup=cfg.warmup)
    # Built once; the pruning functions are looked up per call, so
    # wrappers installed on the module see every selection.
    if spec.random_keep:
        keep_rng = Rng(model.seed ^ 0x5EED)

        def select(q_s: np.ndarray) -> pruning.TokenIndexSet:
            return pruning.random_tokens(*q_s.shape, cfg.topk_ratio, keep_rng)
    else:
        def select(q_s: np.ndarray) -> pruning.TokenIndexSet:
            return pruning.identify_tokens(q_s, cfg.topk_ratio)

    def settled_log() -> list[SimilarityRecord]:
        return [] if cache is None else cache.similarity_log

    records: list[StepRecord] = []
    asr_trace: list[tuple[int, float]] = []
    run_start = time.perf_counter()
    for step in range(total):
        t = total - step
        exclude = bypass_set(n_layers) if state.bypass_active else frozenset()
        asr = compute_asr(settled_log(), cfg.delta_t, exclude)
        asr_trace.append((step, asr))
        was_latched = state.bypass_active
        mode = select_mode(state, step, asr, n_layers,
                           spec.kind(step, cfg.warmup))
        if cache is not None and state.bypass_active and not was_latched:
            cache.evict(mode.bypassed_layers)

        before = counters.flops()
        t0 = time.perf_counter()
        z = denoise_step(model, z, t, priors, schedule, mode, cache, counters,
                         select, cfg.zero_refill)
        wall_us = (time.perf_counter() - t0) * 1e6
        counters.release_workspace()

        records.append(StepRecord(
            step=step,
            t=t,
            kind=mode.kind.value,
            bypassed_layers=sorted(mode.bypassed_layers),
            **{k: v - before[k] for k, v in counters.flops().items()},
            wall_us=wall_us,
        ))
    log = settled_log()  # the last cosine is part of the run, and may fail
    wall_seconds = time.perf_counter() - run_start
    del cache
    assert_finite(z, "final latent")
    return z, SampleTrace(
        steps=records,
        bypass_active=state.bypass_active,
        similarity_log=log,
        wall_seconds=wall_seconds,
        asr_trace=asr_trace,
    )
