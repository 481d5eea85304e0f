"""Semantic token selection and the pruned camera and motion blocks.

The spatial block's prior-weight map scores each (h, w) position. Camera
attention keeps, per frame, the top-K positions of the view-averaged map;
motion attention keeps, per view, the top-K of the frame-averaged map.
The pruned blocks are :func:`attention.axis_block` given those keep
lists: attention is computed only on kept positions, and everything else
is copied from the previous step's cached attention output (or zeros, for
the degradation ablation). The FFN always runs on the full refilled
tensor, and the spatial block itself is never pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import BlockOutput, BlockParams, axis_block
# Not called here, but perfbench/tracer.py wraps these names in this
# module too and reports any it cannot find.
from .attention import axis_attention, ffn, spatial_forward  # noqa: F401
from .core import CostCounters, Rng
from .errors import ParameterError, ShapeError

__all__ = [
    "TokenIndexSet",
    "token_count",
    "identify_tokens",
    "random_tokens",
    "pruned_camera_forward",
    "pruned_motion_forward",
]


@dataclass
class TokenIndexSet:
    """Per-frame and per-view kept spatial indices over flattened H*W."""

    i_c: np.ndarray  # [F, K], strictly increasing per row
    i_m: np.ndarray  # [V, K]


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
    return TokenIndexSet(i_c, i_m)


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
    return TokenIndexSet(draw(f), draw(v))


def pruned_camera_forward(z_s: np.ndarray, k_c: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_c: np.ndarray,
                          counters: CostCounters | None = None) -> BlockOutput:
    """Camera attention on kept positions only, complements from cache."""
    return axis_block(z_s, "camera", k_c, w, counters, idx.i_c, cached_a_c)


def pruned_motion_forward(z_c: np.ndarray, k_m: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_m: np.ndarray,
                          counters: CostCounters | None = None) -> BlockOutput:
    """Motion attention on kept positions only, complements from cache."""
    return axis_block(z_c, "motion", k_m, w, counters, idx.i_m, cached_a_m)
