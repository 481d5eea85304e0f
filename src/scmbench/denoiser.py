"""Deterministic L-layer denoising network and reverse sampling loop.

Each layer applies a channelwise linear map with a 3-point reflect-padded
average along H and W (a convolution stand-in), then its attention chain.
The network predicts the clean latent directly; the reverse loop applies a
deterministic clean-prediction update on the variance-preserving schedule,
so any divergence between runs is attributable to the acceleration path
alone, never to sampling noise.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import pruning
from .attention import (
    BlockParams,
    ChainWeights,
    PriorSet,
    camera_forward,
    chain_forward,
    ffn,
    motion_forward,
    spatial_forward,
)
from .cache import BLOCK_KINDS, RollingCache
from .core import (CostCounters, Rng, assert_finite, scratch, split_rows,
                   tile_bounds)
from .errors import ParameterError
from .scheduler import (
    MODE_TABLE,
    SchedulerState,
    StepKind,
    StepMode,
    bypass_set,
    compute_asr,
    select_mode,
)

__all__ = [
    "Dims",
    "DiffusionSchedule",
    "cosine_schedule",
    "CameraTrajectory",
    "default_trajectory",
    "LayerWeights",
    "ToyModel",
    "build_toy_model",
    "synth_priors",
    "planted_latent",
    "forward_noise",
    "ddim_update",
    "cached_chain_forward",
    "model_forward",
    "denoise_step",
    "SamplerConfig",
    "StepRecord",
    "SampleTrace",
    "sample",
    "write_latent",
    "read_latent",
]

@dataclass(frozen=True)
class Dims:
    frames: int = 5
    views: int = 8
    height: int = 16
    width: int = 16
    channels: int = 64
    n_heads: int = 2

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 1:
                raise ParameterError(f"{name}: must be >= 1, got {value}")
        if self.channels % self.n_heads != 0:
            raise ParameterError("channels: must be divisible by n_heads")

    @property
    def latent_shape(self) -> tuple[int, int, int, int, int]:
        return (self.frames, self.views, self.height, self.width, self.channels)


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
        if abs(self.alpha[0] - 1.0) > 1e-12 or abs(self.beta[0]) > 1e-12:
            raise ParameterError("schedule endpoints: alpha[0]=1, beta[0]=0")
        if np.any(np.diff(self.alpha) > 1e-12) or np.any(np.diff(self.beta) < -1e-12):
            raise ParameterError("alpha must be non-increasing, beta non-decreasing")
        if np.max(np.abs(self.alpha ** 2 + self.beta ** 2 - 1.0)) > 1e-12:
            raise ParameterError("schedule is not variance preserving")


def cosine_schedule(total_steps: int) -> DiffusionSchedule:
    t = np.arange(total_steps + 1) / total_steps
    return DiffusionSchedule(
        total_steps=total_steps,
        alpha=np.cos(0.5 * np.pi * t),
        beta=np.sin(0.5 * np.pi * t),
    )


@dataclass
class CameraTrajectory:
    elevations_deg: np.ndarray
    azimuths_deg: np.ndarray


def default_trajectory(views: int, elevation_deg: float = 30.0) -> CameraTrajectory:
    return CameraTrajectory(
        elevations_deg=np.full(views, float(elevation_deg)),
        azimuths_deg=np.arange(views) * (360.0 / views),
    )


@dataclass
class LayerWeights:
    mix: np.ndarray  # [C, C] channelwise map
    chain: ChainWeights


@dataclass
class ToyModel:
    layers: list[LayerWeights]
    dims: Dims
    seed: int


def _uniform_weight(rng: Rng, shape, scale: float) -> np.ndarray:
    return (rng.uniform(shape) * 2.0 - 1.0) * scale


def build_toy_model(dims: Dims, n_layers: int, seed: int) -> ToyModel:
    """Scaled-uniform init in [-1/sqrt(C), 1/sqrt(C)], one stream per model.

    Draw order: per layer, the mixing map, then for each of the spatial,
    camera, motion blocks wq, wk, wv, wo, w1, w2.
    """
    if n_layers < 1:
        raise ParameterError("need at least one layer")
    c = dims.channels
    scale = 1.0 / np.sqrt(c)
    rng = Rng(seed)

    def block() -> BlockParams:
        return BlockParams(
            wq=_uniform_weight(rng, (c, c), scale),
            wk=_uniform_weight(rng, (c, c), scale),
            wv=_uniform_weight(rng, (c, c), scale),
            wo=_uniform_weight(rng, (c, c), scale),
            w1=_uniform_weight(rng, (c, 2 * c), scale),
            w2=_uniform_weight(rng, (2 * c, c), scale),
            n_heads=dims.n_heads,
        )

    layers = [
        LayerWeights(
            mix=_uniform_weight(rng, (c, c), scale),
            chain=ChainWeights(spatial=block(), camera=block(), motion=block()),
        )
        for _ in range(n_layers)
    ]
    return ToyModel(layers=layers, dims=dims, seed=seed)


def _view_embedding(elevation_deg: float, azimuth_deg: float, c: int) -> np.ndarray:
    """Sinusoidal embedding of the camera angles; equal angles, equal vector."""
    e = np.deg2rad(elevation_deg)
    a = np.deg2rad(azimuth_deg)
    k = np.arange(c)
    freq = (k // 4) + 1
    phase = np.where(k % 4 < 2, e, a) * freq
    return np.where(k % 2 == 0, np.sin(phase), np.cos(phase))


def synth_priors(dims: Dims, trajectory: CameraTrajectory, rng: Rng) -> PriorSet:
    """Seeded stand-in priors with camera-angle embeddings on the view axis."""
    f, v, h, w, c = dims.latent_shape
    k_s = rng.normal((f, v, 1, c))
    k_c = rng.normal((f, h, w, c))
    k_m = rng.normal((v, h, w, c))
    emb = np.stack([
        _view_embedding(trajectory.elevations_deg[i], trajectory.azimuths_deg[i], c)
        for i in range(v)
    ])
    k_s = k_s + emb[None, :, None, :]
    k_m = k_m + emb[:, None, None, :]
    return PriorSet(k_s=k_s, k_c=k_c, k_m=k_m)


def planted_latent(dims: Dims, w_spatial: BlockParams, k_s: np.ndarray,
                   cells: np.ndarray, rng: Rng, boost: float = 8.0,
                   background: float = 0.05) -> np.ndarray:
    """Latent whose listed flat (h, w) cells dominate the semantic map.

    Each planted cell is pushed along the direction that maximizes the
    head-summed attention score to that (f, v) slice's prior token, so the
    spatial block assigns those cells near-total prior weight.
    """
    f, v, h, w, c = dims.latent_shape
    z = background * rng.normal(dims.latent_shape).reshape(f, v, h * w, c)
    for fi in range(f):
        for vi in range(v):
            kappa = k_s[fi, vi, 0] @ w_spatial.wk
            g = w_spatial.wq @ kappa
            g = g / np.linalg.norm(g)
            z[fi, vi, cells, :] = boost * g
    return z.reshape(dims.latent_shape)


def forward_noise(z0: np.ndarray, t: int, schedule: DiffusionSchedule,
                  rng: Rng) -> np.ndarray:
    """alpha_t * z0 + beta_t * eps with standard-normal eps."""
    if not 0 <= t <= schedule.total_steps:
        raise ParameterError(f"t={t} outside [0, {schedule.total_steps}]")
    return schedule.alpha[t] * z0 + schedule.beta[t] * rng.normal(z0.shape)


def ddim_update(z_t: np.ndarray, z0_hat: np.ndarray, t: int,
                schedule: DiffusionSchedule) -> np.ndarray:
    """Deterministic clean-prediction update from step t to t-1."""
    if not 1 <= t <= schedule.total_steps:
        raise ParameterError(f"t={t} outside [1, {schedule.total_steps}]")
    a_prev, b_prev = schedule.alpha[t - 1], schedule.beta[t - 1]
    a_t, b_t = schedule.alpha[t], schedule.beta[t]
    return a_prev * z0_hat + (b_prev / b_t) * (z_t - a_t * z0_hat)


def _reflect_avg(y: np.ndarray, axis_view, out: np.ndarray) -> np.ndarray:
    """3-point moving average with width-1 reflect padding along one axis.

    ``axis_view(a, sl)`` slices ``a`` along the averaged axis. Equivalent
    to padding with mode="reflect" and averaging three shifted views, with
    the same left-to-right accumulation order.
    """
    mid = axis_view(out, slice(1, -1))
    np.add(axis_view(y, slice(0, -2)), axis_view(y, slice(1, -1)), out=mid)
    mid += axis_view(y, slice(2, None))
    first = axis_view(out, 0)
    np.add(axis_view(y, 1), axis_view(y, 0), out=first)
    first += axis_view(y, 1)
    last = axis_view(out, -1)
    np.add(axis_view(y, -2), axis_view(y, -1), out=last)
    last += axis_view(y, -2)
    out /= 3.0
    return out


def mixing(z: np.ndarray, mix: np.ndarray,
           counters: CostCounters | None = None) -> np.ndarray:
    """Channelwise linear map, then 3-point reflect-padded averaging.

    Runs tile by tile over groups of (f, v) slices; the last stage of each
    tile writes straight into the fresh output.
    """
    f, v, h, w, c = z.shape
    g, l = f * v, h * w
    rows = z.reshape(g * l, c)
    out = np.empty((g, h, w, c))

    def apply(lo: int, hi: int) -> None:
        # Each (f, v) slice is mixed on its own; a part touches only the
        # rows of its slices.
        bounds = tile_bounds(lo, hi, l)
        for i, j in zip(bounds, bounds[1:]):
            shape = (j - i, h, w, c)
            last = out[i:j]
            y = last if h == w == 1 else scratch("mix.lin", shape)
            np.matmul(rows[i * l:j * l], mix, out=y.reshape(-1, c))
            if h > 1:
                y = _reflect_avg(y, lambda a, s: a[:, s],
                                 last if w == 1 else scratch("mix.h", shape))
            if w > 1:
                _reflect_avg(y, lambda a, s: a[:, :, s], last)

    split_rows(g, apply, rows_per_item=l)
    if counters is not None:
        n = f * v * h * w
        counters.add_mixing(2 * n * c * c + 6 * n * c)
        counters.acquire_workspace(2 * n * c)
    return out.reshape(z.shape)


@dataclass
class SamplerConfig:
    mode: str = "turbo"
    topk_ratio: float = 0.2
    per_axis_ratio: bool = False
    delta_t: int = 3
    alpha_threshold: float = 0.9
    warmup: int = 2
    zero_refill: bool = False

    def __post_init__(self):
        if self.mode not in MODE_TABLE:
            raise ParameterError(f"mode: unknown value {self.mode!r}")
        if not 0.0 < self.topk_ratio <= 1.0:
            raise ParameterError(f"topk_ratio: {self.topk_ratio} outside (0, 1]")
        if self.delta_t < 0:
            raise ParameterError("delta_t: must be >= 0")
        if self.warmup < 0:
            raise ParameterError("warmup: must be >= 0")
        if self.alpha_threshold <= 0.0:
            raise ParameterError("alpha_threshold: must be positive")


def _reuse_chain(z: np.ndarray, chain: ChainWeights, cache: RollingCache,
                 layer: int, step: int,
                 counters: CostCounters | None) -> np.ndarray:
    """Eq.-style reuse: FFN(z + cached attention) per block, FIFO order."""
    params = (chain.spatial, chain.camera, chain.motion)
    used = []
    for kind, p in zip(BLOCK_KINDS, params):
        a = cache.retrieve(layer, kind)
        z = ffn(z, p, counters, addend=a)
        used.append(a)
    # The step's effective attention outputs are exactly the reused values;
    # re-store them so the next pruning step has a previous-step cache.
    cache.store(layer, used[0], used[1], used[2], step)
    return z


def cached_chain_forward(
    z: np.ndarray,
    priors: PriorSet,
    w: ChainWeights,
    cache: RollingCache,
    layer: int,
    step: int,
    counters: CostCounters | None = None,
    select=None,
    zero_refill: bool = False,
) -> np.ndarray:
    """One chain pass for a layer that supersedes its cache entries.

    ``select(semantic)`` maps the spatial block's semantic map to a
    :class:`pruning.TokenIndexSet`; with it, camera and motion run pruned,
    with complements refilled from the cache (peeked, so the same entries
    also feed similarity recording), or zero-filled with ``zero_refill``
    (degradation ablation; the cache is still maintained). Without it the
    step is dense.

    Each previous-step entry, if any, is compared while it is still cached
    and consumed as soon as its block is superseded, so it never outlives
    that block. The step's own attention outputs then become the entries.
    """
    stale = cache.has_entries(layer)

    def supersede(kind: str, out):
        if stale:
            cache.record_similarity(layer, kind, out.attention, step)
            cache.retrieve(layer, kind)
        return out

    def refill(kind: str) -> np.ndarray:
        cached = cache.peek(layer, kind)
        return np.zeros_like(cached) if zero_refill else cached

    so = supersede("spatial",
                   spatial_forward(z, priors.k_s, w.spatial, counters))
    if select is None:
        co = supersede("camera",
                       camera_forward(so.out, priors.k_c, w.camera, counters))
        mo = supersede("motion",
                       motion_forward(co.out, priors.k_m, w.motion, counters))
    else:
        idx = select(so.semantic)
        co = supersede("camera", pruning.pruned_camera_forward(
            so.out, priors.k_c, w.camera, idx, refill("camera"), counters))
        mo = supersede("motion", pruning.pruned_motion_forward(
            co.out, priors.k_m, w.motion, idx, refill("motion"), counters))
    cache.store(layer, so.attention, co.attention, mo.attention, step,
                from_workspace=True)
    return mo.out


def model_forward(
    model: ToyModel,
    z: np.ndarray,
    priors: PriorSet,
    mode: StepMode,
    step: int,
    cache: RollingCache | None = None,
    counters: CostCounters | None = None,
    cfg: SamplerConfig | None = None,
    random_rng: Rng | None = None,
) -> np.ndarray:
    """One full pass over the layers under the given step mode.

    A prune step selects keep lists from the semantic map, or draws them
    from ``random_rng`` when it is given (ablation).
    """
    cfg = cfg or SamplerConfig(mode="dense")
    select = None
    if mode.kind is StepKind.PRUNE:
        def select(q_s: np.ndarray) -> pruning.TokenIndexSet:
            if random_rng is not None:
                return pruning.random_tokens(*q_s.shape, cfg.topk_ratio,
                                             random_rng, cfg.per_axis_ratio)
            return pruning.identify_tokens(q_s, cfg.topk_ratio,
                                           cfg.per_axis_ratio)

    for li, layer in enumerate(model.layers):
        z = mixing(z, layer.mix, counters)
        if li in mode.bypassed_layers:
            continue
        if mode.kind is StepKind.REUSE:
            z = _reuse_chain(z, layer.chain, cache, li, step, counters)
        elif cache is None and select is None:
            z, _ = chain_forward(z, priors, layer.chain, counters)
        else:
            z = cached_chain_forward(z, priors, layer.chain, cache, li, step,
                                     counters, select, cfg.zero_refill)
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
    cfg: SamplerConfig | None = None,
    random_rng: Rng | None = None,
) -> np.ndarray:
    step = schedule.total_steps - t
    z0_hat = model_forward(model, z_t, priors, mode, step, cache, counters,
                           cfg, random_rng)
    if counters is not None:
        # Clean prediction plus the updated latent.
        counters.acquire_workspace(2 * z_t.size)
    return ddim_update(z_t, z0_hat, t, schedule)


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
    steps: list[StepRecord]
    scheduler: SchedulerState
    cache: RollingCache | None
    wall_seconds: float
    asr_trace: list[tuple[int, float]] = field(default_factory=list)


def sample(
    model: ToyModel,
    priors: PriorSet,
    schedule: DiffusionSchedule,
    cfg: SamplerConfig,
    rng: Rng,
    counters: CostCounters,
) -> tuple[np.ndarray, SampleTrace]:
    """Run the full reverse loop under the configured acceleration mode."""
    n_layers = len(model.layers)
    total = schedule.total_steps
    z = rng.normal(model.dims.latent_shape)
    counters.acquire_workspace(z.size)
    counters.release_workspace()

    spec = MODE_TABLE[cfg.mode]
    cache = RollingCache(counters) if spec.cache else None
    effective_alpha = cfg.alpha_threshold if spec.bypass else float("inf")
    state = SchedulerState(delta_t=cfg.delta_t, alpha=effective_alpha,
                           warmup=cfg.warmup)
    random_rng = Rng(model.seed ^ 0x5EED) if spec.random_keep else None

    records: list[StepRecord] = []
    last_logged = None
    run_start = time.perf_counter()
    for step in range(total):
        t = total - step
        if cache is not None and last_logged is not None:
            exclude = bypass_set(n_layers) if state.bypass_active else frozenset()
            asr = compute_asr(cache, last_logged, cfg.delta_t, exclude)
        else:
            asr = 0.0
        mode = select_mode(state, step, asr, n_layers,
                           spec.kind(step, cfg.warmup))

        snap = (counters.flops_attention,
                dict(counters.attention_by_block),
                counters.flops_ffn, counters.flops_mixing)
        log_len = len(cache.similarity_log) if cache is not None else 0
        t0 = time.perf_counter()
        z = denoise_step(model, z, t, priors, schedule, mode, cache, counters,
                         cfg, random_rng)
        wall_us = (time.perf_counter() - t0) * 1e6
        counters.release_workspace()
        if cache is not None and len(cache.similarity_log) > log_len:
            last_logged = step

        by_block = counters.attention_by_block
        records.append(StepRecord(
            step=step,
            t=t,
            kind=mode.kind.value,
            bypassed_layers=sorted(mode.bypassed_layers),
            flops_attention=counters.flops_attention - snap[0],
            flops_attention_spatial=by_block["spatial"] - snap[1]["spatial"],
            flops_attention_camera=by_block["camera"] - snap[1]["camera"],
            flops_attention_motion=by_block["motion"] - snap[1]["motion"],
            flops_ffn=counters.flops_ffn - snap[2],
            flops_mixing=counters.flops_mixing - snap[3],
            wall_us=wall_us,
        ))
    wall_seconds = time.perf_counter() - run_start
    assert_finite(z, "final latent")
    return z, SampleTrace(
        steps=records,
        scheduler=state,
        cache=cache,
        wall_seconds=wall_seconds,
        asr_trace=list(state.asr_history),
    )


_MAGIC = b"SCMB"


def write_latent(path, z: np.ndarray) -> None:
    """Flat little-endian float64 dump with a shape header."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", z.ndim))
        fh.write(struct.pack(f"<{z.ndim}q", *z.shape))
        fh.write(np.ascontiguousarray(z, dtype="<f8").tobytes())


def read_latent(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ParameterError(f"{path} is not a latent dump")
        try:
            ndim = struct.unpack("<q", fh.read(8))[0]
            shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
            data = np.frombuffer(fh.read(), dtype="<f8")
            return data.reshape(shape)
        except (struct.error, ValueError) as exc:
            raise ParameterError(f"{path}: truncated or corrupt latent dump "
                                 f"({exc})") from exc
