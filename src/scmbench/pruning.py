"""Semantic token selection and cache-refilled pruned forwards.

The spatial block's prior-weight map scores each (h, w) position. Camera
attention keeps, per frame, the top-K positions of the view-averaged map;
motion attention keeps, per view, the top-K of the frame-averaged map.
Attention is computed only on kept positions; everything else is copied
from the previous step's cached attention output (or zeros, for the
degradation ablation). The FFN always runs on the full refilled tensor,
and the spatial block itself is never pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import (
    BlockOutput,
    BlockParams,
    ChainWeights,
    PriorSet,
    axis_attention,
    ffn,
    spatial_forward,
)
from .cache import RollingCache
from .core import CostCounters, Rng
from .errors import ParameterError, ShapeError

__all__ = [
    "TokenIndexSet",
    "token_count",
    "identify_tokens",
    "random_tokens",
    "pruned_camera_forward",
    "pruned_motion_forward",
    "pruned_chain_forward",
]


@dataclass
class TokenIndexSet:
    """Per-frame and per-view kept spatial indices over flattened H*W."""

    i_c: np.ndarray  # [F, K], strictly increasing per row
    i_m: np.ndarray  # [V, K]
    comp_c: np.ndarray  # [F, L-K], complements
    comp_m: np.ndarray  # [V, L-K]
    k: int
    ratio: float

    @classmethod
    def from_keep_lists(cls, i_c: np.ndarray, i_m: np.ndarray, length: int,
                        ratio: float) -> "TokenIndexSet":
        def complement(keep: np.ndarray) -> np.ndarray:
            # One mask for all rows; nonzero lists each row's rest in order.
            rows, k = keep.shape
            rest = np.ones((rows, length), dtype=bool)
            rest[np.arange(rows)[:, None], keep] = False
            return np.nonzero(rest)[1].reshape(rows, length - k)

        return cls(i_c, i_m, complement(i_c), complement(i_m), i_c.shape[1],
                   ratio)


def token_count(h: int, w: int, ratio: float, per_axis: bool = False) -> int:
    """Number of kept spatial positions for a pruning ratio.

    Default reading: a fraction of the H*W positions. The per-axis reading
    (ratio applied to H and W independently) is kept for the ablation
    sweep.
    """
    if not 0.0 < ratio <= 1.0:
        raise ParameterError(f"ratio {ratio} outside (0, 1]")
    if per_axis:
        return max(1, math.ceil(ratio * h)) * max(1, math.ceil(ratio * w))
    return max(1, math.ceil(ratio * h * w))


def _row_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k indices, ascending, ties to the lower index."""
    order = np.argsort(-scores, axis=-1, kind="stable")[:, :k]
    return np.sort(order, axis=-1)


def identify_tokens(q_s: np.ndarray, ratio: float,
                    per_axis: bool = False) -> TokenIndexSet:
    """Select kept tokens from the spatial semantic map [F, V, H, W]."""
    if q_s.ndim != 4:
        raise ShapeError(f"semantic map must be [F,V,H,W], got {q_s.shape}")
    f, v, h, w = q_s.shape
    l = h * w
    k = token_count(h, w, ratio, per_axis)
    flat = q_s.reshape(f, v, l)
    i_c = _row_topk(flat.mean(axis=1), k)  # mean over views, per frame
    i_m = _row_topk(flat.mean(axis=0), k)  # mean over frames, per view
    return TokenIndexSet.from_keep_lists(i_c, i_m, l, ratio)


def random_tokens(f: int, v: int, h: int, w: int, ratio: float, rng: Rng,
                  per_axis: bool = False) -> TokenIndexSet:
    """Uniformly random keep lists with the same structure (ablation)."""
    l = h * w
    k = token_count(h, w, ratio, per_axis)
    def draw(rows: int) -> np.ndarray:
        out = np.empty((rows, k), dtype=np.int64)
        for r in range(rows):
            # k distinct indices via a seeded uniform shuffle key
            out[r] = np.sort(np.argsort(rng.uniform(l), kind="stable")[:k])
        return out
    return TokenIndexSet.from_keep_lists(draw(f), draw(v), l, ratio)


def _pruned_block(z: np.ndarray, prior_seq: np.ndarray, w: BlockParams,
                  rows: tuple, keep: np.ndarray, cached: np.ndarray,
                  block: str,
                  counters: CostCounters | None) -> BlockOutput:
    """Attention on the kept sequences only, complements from ``cached``.

    ``keep`` holds the [G, K] kept positions and ``prior_seq`` [G, L, C]
    one prior per (group, position). ``rows`` is a tuple of index arrays
    into the [F, V, L, C] latent that broadcasts to [G, K, n]: entry
    (g, k, i) is token i of the sequence at kept position keep[g, k]. The
    kept rows are gathered straight from the latent. The refilled
    attention is built inside the FFN's tiles: each tile copies its rows
    of ``cached`` and overwrites the attended ones among them just before
    the FFN adds them, so no serial full-size copy or scatter is made.
    """
    f, v, h, ww, c = z.shape
    l = h * ww
    if cached.shape != z.shape:
        raise ShapeError(f"cached {block} attention shape mismatch")
    g, k = keep.shape
    dst = (rows[0] * v + rows[1]) * l + rows[2]   # latent row, [G, K, n]
    n = dst.shape[2]
    kept = np.take(z.reshape(-1, c), dst.ravel(), axis=0)
    prior = prior_seq[np.arange(g)[:, None], keep]
    att, _ = axis_attention(kept.reshape(g * k, n, c),
                            prior.reshape(g * k, 1, c), w, counters,
                            block=block)
    # The attended rows in latent order, so a tile finds its own with one
    # search.
    order = np.argsort(dst, axis=None)
    dst = dst.ravel()[order]
    src = att.reshape(g * k * n, c)
    old = cached.reshape(-1, c)
    attention = np.empty(z.shape)
    new = attention.reshape(-1, c)

    def refill(i: int, j: int) -> None:
        np.copyto(new[i:j], old[i:j])
        a, b = np.searchsorted(dst, (i, j))
        new[dst[a:b]] = src[order[a:b]]

    if counters is not None:
        counters.acquire_workspace(attention.size)
    return BlockOutput(out=ffn(z, w, counters, addend=attention,
                               before_tile=refill),
                       attention=attention)


def pruned_camera_forward(z_s: np.ndarray, k_c: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_c: np.ndarray,
                          counters: CostCounters | None = None) -> BlockOutput:
    """Camera attention on kept positions only, complements from cache."""
    f, v, h, ww, c = z_s.shape
    # Sequence (f, k) runs over the V views at kept position i_c[f, k].
    rows = (np.arange(f)[:, None, None], np.arange(v)[None, None, :],
            idx.i_c[:, :, None])
    return _pruned_block(z_s, k_c.reshape(f, h * ww, c), w, rows, idx.i_c,
                         cached_a_c, "camera", counters)


def pruned_motion_forward(z_c: np.ndarray, k_m: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_m: np.ndarray,
                          counters: CostCounters | None = None) -> BlockOutput:
    """Motion attention on kept positions only, complements from cache."""
    f, v, h, ww, c = z_c.shape
    # Sequence (v, k) runs over the F frames at kept position i_m[v, k].
    rows = (np.arange(f)[None, None, :], np.arange(v)[:, None, None],
            idx.i_m[:, :, None])
    return _pruned_block(z_c, k_m.reshape(v, h * ww, c), w, rows, idx.i_m,
                         cached_a_m, "motion", counters)


def pruned_chain_forward(
    z: np.ndarray,
    priors: PriorSet,
    w: ChainWeights,
    ratio: float,
    cache: RollingCache,
    layer: int,
    step: int,
    counters: CostCounters | None = None,
    per_axis: bool = False,
    random_rng: Rng | None = None,
    zero_refill: bool = False,
) -> np.ndarray:
    """One pruning-mode chain pass for a layer.

    Spatial runs dense and yields the semantic map; camera and motion run
    pruned with complements refilled from the cache (peeked, so the same
    entries also feed similarity recording). The step's own full-shape
    outputs then replace the previous entries.

    With ``random_rng`` set, keep lists are drawn uniformly instead of from
    the semantic map (ablation). With ``zero_refill``, complements are
    zero-filled instead of cache-filled (degradation ablation); the cache
    is still maintained.
    """
    f, v, h, ww, c = z.shape
    so = spatial_forward(z, priors.k_s, w.spatial, counters)
    if random_rng is not None:
        idx = random_tokens(f, v, h, ww, ratio, random_rng, per_axis)
    else:
        idx = identify_tokens(so.semantic, ratio, per_axis)

    # Each previous-step entry is peeked for refill and compared while it
    # is still cached, then consumed as soon as its block is superseded.
    cache.record_similarity(layer, "spatial", so.attention, step)
    cache.retrieve(layer, "spatial")

    refill_c = cache.peek(layer, "camera")
    if zero_refill:
        refill_c = np.zeros_like(refill_c)
    co = pruned_camera_forward(so.out, priors.k_c, w.camera, idx, refill_c,
                               counters)
    cache.record_similarity(layer, "camera", co.attention, step)
    cache.retrieve(layer, "camera")

    refill_m = cache.peek(layer, "motion")
    if zero_refill:
        refill_m = np.zeros_like(refill_m)
    mo = pruned_motion_forward(co.out, priors.k_m, w.motion, idx, refill_m,
                               counters)
    cache.record_similarity(layer, "motion", mo.attention, step)
    cache.retrieve(layer, "motion")

    cache.store(layer, so.attention, co.attention, mo.attention, step,
                from_workspace=True)
    return mo.out
