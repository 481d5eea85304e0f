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

from .attention import AttentionSink, BlockOutput, BlockParams, axis_block
# Not called here, but perfbench/tracer.py wraps these names in this
# module too and reports any it cannot find.
from .attention import axis_attention, ffn, spatial_forward  # noqa: F401
from .core import CostCounters, Rng, _kernels
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


def token_count(h: int, w: int, ratio: float) -> int:
    """Number of kept spatial positions for a pruning ratio: the fraction
    ``ratio`` of the H*W positions, rounded up, and at least one."""
    if not 0.0 < ratio <= 1.0:
        raise ParameterError(f"ratio {ratio} outside (0, 1]")
    return max(1, math.ceil(ratio * h * w))


def _row_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k indices of a [rows, n] array, ascending, ties to the
    lower index: ``np.sort(np.argsort(-scores, kind="stable")[:, :k])``,
    computed by the compiled ``row_topk`` in O(n log k) per row."""
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    rows, n = scores.shape
    out = np.empty((rows, k), dtype=np.int64)
    if _kernels.row_topk(scores.ctypes.data, out.ctypes.data, rows, n, k):
        raise MemoryError("no heap for the top-k selection")
    return out


def identify_tokens(q_s: np.ndarray, ratio: float) -> TokenIndexSet:
    """Select kept tokens from the spatial semantic map [F, V, H, W].

    Camera keeps, per frame, the top-K positions of the view-averaged map
    and motion, per view, the top-K of the frame-averaged map, K being
    :func:`token_count`; each list ascends, and equal scores go to the
    lower position. The selection is the compiled ``row_topk``, so it
    runs none of numpy's sort code.
    """
    if q_s.ndim != 4:
        raise ShapeError(f"semantic map must be [F,V,H,W], got {q_s.shape}")
    f, v, h, w = q_s.shape
    l = h * w
    k = token_count(h, w, ratio)
    flat = q_s.reshape(f, v, l)
    # Each mean as np.mean takes it, a sum and then a divide, here by a
    # float, so no integer count is cast.
    i_c = _row_topk(np.add.reduce(flat, axis=1) / float(v), k)  # per frame
    i_m = _row_topk(np.add.reduce(flat, axis=0) / float(f), k)  # per view
    return TokenIndexSet(i_c, i_m)


def random_tokens(f: int, v: int, h: int, w: int, ratio: float,
                  rng: Rng) -> TokenIndexSet:
    """Uniformly random keep lists with the same structure (ablation).

    Each row keeps the positions of its K smallest of H*W seeded uniform
    keys, ties to the lower position, ascending: F rows for camera, then
    V for motion, drawn in that order from ``rng``.
    """
    l = h * w
    k = token_count(h, w, ratio)
    # The K smallest keys are the K largest negated ones; a multiply by -1
    # negates them as np.negative would, in code a dense step has run.
    i_c = _row_topk(rng.uniform((f, l)) * -1.0, k)
    return TokenIndexSet(i_c, _row_topk(rng.uniform((v, l)) * -1.0, k))


def pruned_camera_forward(z_s: np.ndarray, k_c: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_c: np.ndarray,
                          counters: CostCounters | None = None,
                          out: np.ndarray | None = None,
                          sink: AttentionSink | None = None) -> BlockOutput:
    """Camera attention on kept positions only, complements from cache."""
    return axis_block(z_s, "camera", k_c, w, counters, idx.i_c, cached_a_c,
                      out=out, sink=sink)


def pruned_motion_forward(z_c: np.ndarray, k_m: np.ndarray, w: BlockParams,
                          idx: TokenIndexSet, cached_a_m: np.ndarray,
                          counters: CostCounters | None = None,
                          out: np.ndarray | None = None,
                          sink: AttentionSink | None = None) -> BlockOutput:
    """Motion attention on kept positions only, complements from cache."""
    return axis_block(z_c, "motion", k_m, w, counters, idx.i_m, cached_a_m,
                      out=out, sink=sink)
