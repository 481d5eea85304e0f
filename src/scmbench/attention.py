"""The spatial / camera / motion attention blocks and their chained
composition.

A latent is a float64 array of shape [F, V, H, W, C]. Each block runs
prior-augmented multi-head self-attention along one axis:

* spatial: sequences of the H*W positions, one per (f, v), prior k_s[f, v];
* camera:  sequences of the V views, one per (f, h, w), prior k_c[f, h, w];
* motion:  sequences of the F frames, one per (v, h, w), prior k_m[v, h, w].

The prior is appended as one extra key/value token, so every query sees
n + 1 keys. The block output is FFN(z + attention) with no normalization
and no extra residual around the FFN. The spatial block additionally
reports the mean weight each query assigns to the prior token; that map is
what drives token pruning downstream.

All three blocks, dense or pruned, are one function, :func:`axis_block`.
Dense, it reads every sequence through a transposed view of the latent.
Given a keep list, it attends the kept sequences only and refills the
rest of the attention from a cached entry inside the FFN's tiles.

Layout discipline: every batched matmul runs over identical-shaped slices
regardless of batch size, which keeps pruned and dense paths bit-identical
on shared sequences. Each stage runs tile by tile over groups of about
``core._TILE_TOKENS`` tokens: attention does its whole pipeline (kv
concat, fused Q/K/V projection, scores, softmax, weighted sum, head merge,
output projection) per tile, the FFN adds the residual per tile, and
camera and motion read their sequences from the [F, V, H, W, C] layout
through transposed views and get their attention back in that layout's
memory order. No full-size temporary or transposed copy is made, every
attention output is contiguous in the latent's layout, and per-row
results do not depend on the tile size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CostCounters, scratch, softmax_last_inplace, split_rows,
                   tile_bounds)
from .errors import ParameterError, ShapeError

__all__ = [
    "BlockParams",
    "ChainWeights",
    "PriorSet",
    "BlockOutput",
    "gelu",
    "ffn",
    "axis_attention",
    "axis_block",
    "spatial_forward",
    "camera_forward",
    "motion_forward",
    "chain_forward",
    "attention_flop_count",
    "ffn_flop_count",
]


@dataclass
class BlockParams:
    """Projection and FFN weights for one attention block.

    wq/wk/wv/wo are [C, C]; w1 is [C, 2C] and w2 is [2C, C]; n_heads must
    divide C.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    n_heads: int

    def head_dim(self) -> int:
        c = self.wq.shape[0]
        if c % self.n_heads != 0:
            raise ParameterError(f"C={c} not divisible by n_heads={self.n_heads}")
        return c // self.n_heads


@dataclass
class ChainWeights:
    spatial: BlockParams
    camera: BlockParams
    motion: BlockParams


@dataclass
class PriorSet:
    """Conditioning priors: one context token per attended-axis position."""

    k_s: np.ndarray  # [F, V, 1, C]
    k_c: np.ndarray  # [F, H, W, C]
    k_m: np.ndarray  # [V, H, W, C]


@dataclass
class BlockOutput:
    out: np.ndarray        # [F, V, H, W, C], post-FFN
    attention: np.ndarray  # [F, V, H, W, C], pre-FFN attention result
    semantic: np.ndarray | None = None  # [F, V, H, W], spatial block only


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Score elements per softmax chunk inside a tile; results are independent
# of it, it only bounds the scores buffer.
_SCORE_CHUNK_ELEMENTS = 256 * 1024


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU: 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))."""
    u = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    np.tanh(u, out=u)
    u += 1.0
    u *= 0.5 * x
    return u


def _gelu_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Overwrite ``x`` with gelu(x), using ``tmp`` as same-shape scratch.

    Evaluation order matches :func:`gelu` exactly, so the results are
    bit-identical.
    """
    np.multiply(x, x, out=tmp)
    tmp *= x
    tmp *= 0.044715
    tmp += x
    tmp *= _SQRT_2_OVER_PI
    np.tanh(tmp, out=tmp)
    tmp += 1.0
    x *= 0.5
    x *= tmp
    return x


def attention_flop_count(batch: int, n: int, c: int, n_heads: int) -> int:
    """Multiply-add FLOPs plus softmax exp count for one attention call."""
    proj = 2 * batch * n * c * c * 2          # q and output projections
    proj += 2 * batch * (n + 1) * c * c * 2   # k and v over n+1 tokens
    scores = 2 * batch * n * (n + 1) * c      # q @ k^T across heads
    av = 2 * batch * n * (n + 1) * c
    exps = batch * n_heads * n * (n + 1)
    return proj + scores + av + exps


def ffn_flop_count(tokens: int, c: int) -> int:
    return 2 * tokens * c * 2 * c * 2


def _attention_workspace(batch: int, n: int, c: int, n_heads: int) -> int:
    q = batch * n * c
    kv = 2 * batch * (n + 1) * c
    scores = batch * n_heads * n * (n + 1)
    out = 2 * batch * n * c  # head-merged context plus projected output
    return q + kv + scores + out


def _batch_tiles(lo: int, hi: int, inner: int,
                 n: int) -> list[tuple[int, int, int, int]]:
    """Tiles (o0, o1, i0, i1) covering flat batch indices lo:hi in order.

    The flat index of (o, i) is o * inner + i. A tile is either part of
    one outer row or a group of whole rows, so its sequences form a
    rectangle of the [O, I] batch grid. Rows of few tokens are grouped,
    which saves one tile's fixed cost per row: small latents, whose camera
    and motion rows hold 128-256 tokens, run about 5% faster for it.
    """
    tiles = []

    def row(o: int, i: int, j: int) -> None:
        b = tile_bounds(i, j, n)
        tiles.extend((o, o + 1, t0, t1) for t0, t1 in zip(b, b[1:]))

    first, last = -(-lo // inner), hi // inner   # whole rows first:last
    if first > last:
        row(lo // inner, lo % inner, hi % inner)
        return tiles
    if lo % inner:
        row(lo // inner, lo % inner, inner)
    groups = tile_bounds(first, last, inner * n)
    for g0, g1 in zip(groups, groups[1:]):
        if g1 - g0 == 1:
            row(g0, 0, inner)
        else:
            tiles.append((g0, g1, 0, inner))
    if hi % inner:
        row(last, 0, hi % inner)
    return tiles


def _attend_tile(z: np.ndarray, prior: np.ndarray, out: np.ndarray,
                 prior_weight: np.ndarray, p: BlockParams,
                 w_qkv: np.ndarray) -> None:
    """The whole attention pipeline for one rectangular tile of sequences.

    z and out are [ot, it, n, C] with any strides, prior is [ot, it, 1, C]
    and prior_weight a contiguous [ot, it, n]. Every temporary is a view
    into this thread's scratch buffers, sized by the tile.
    """
    ot, it, n, c = z.shape
    t = ot * it
    nh = p.n_heads
    d = c // nh
    kv = scratch("attn.kv", (ot, it, n + 1, c))
    kv[:, :, :n] = z
    kv[:, :, n:] = prior
    # One product for all three projections over every kv row; the queries
    # of the prior rows are never read, which costs less than a second
    # gather of the tokens and two more BLAS calls.
    qkv = np.matmul(kv.reshape(t * (n + 1), c), w_qkv,
                    out=scratch("attn.qkv", (t * (n + 1), 3 * c)))
    heads = qkv.reshape(t, n + 1, 3, nh, d)
    qh = heads[:, :n, 0].transpose(0, 2, 1, 3)      # [t, nh, n, d]
    qh *= 1.0 / math.sqrt(d)
    kht = heads[:, :, 1].transpose(0, 2, 3, 1)      # [t, nh, d, n+1]
    vh = heads[:, :, 2].transpose(0, 2, 1, 3)       # [t, nh, n+1, d]

    # Scores, softmax, and the weighted sum run in batch chunks sized so
    # one chunk of weights stays cache-resident. Per-sequence results do
    # not depend on the chunking, so any chunk size is bit-identical.
    chunk = max(1, _SCORE_CHUNK_ELEMENTS // (nh * n * (n + 1)))
    scores_buf = scratch("attn.scores", (min(t, chunk), nh, n, n + 1))
    merged = scratch("attn.merged", (t, n, nh, d))
    ctx = merged.transpose(0, 2, 1, 3)              # [t, nh, n, d]
    prior_cols = scratch("attn.prior", (t, nh, n))
    for i in range(0, t, chunk):
        j = min(t, i + chunk)
        sc = scores_buf[: j - i]
        np.matmul(qh[i:j], kht[i:j], out=sc)
        softmax_last_inplace(sc)                      # [j-i, nh, n, n+1]
        np.copyto(prior_cols[i:j], sc[:, :, :, -1])
        np.matmul(sc, vh[i:j], out=ctx[i:j])
    rows = merged.reshape(t * n, c)
    if out.flags.c_contiguous and t * n > 1:
        np.matmul(rows, p.wo, out=out.reshape(t * n, c))
    else:
        if t * n == 1:
            # One one-token sequence, left alone by a part boundary: BLAS
            # runs a one-row product as a matrix-vector product, which
            # sums in another order, so pad it to two rows.
            rows = np.concatenate((rows, rows))
        proj = np.matmul(rows, p.wo, out=scratch("attn.out", rows.shape))
        np.copyto(out, proj[:t * n].reshape(out.shape))
    np.mean(prior_cols, axis=1, out=prior_weight.reshape(t, n))


def axis_attention(z_seq: np.ndarray, prior_token: np.ndarray, p: BlockParams,
                   counters: CostCounters | None = None,
                   block: str | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention over one axis with the prior as an extra key.

    z_seq is [B, n, C], or [O, I, n, C] with any strides, so a transposed
    view of a latent is read in place; prior_token has the same batch axes
    and one token, [..., 1, C]. Returns the attended output, of z_seq's
    shape, and the per-query prior weight [..., n] (mean over heads of the
    softmax mass on the prior token). The attended output is a fresh array
    laid out in memory like z_seq, so for a transposed view of a latent it
    is contiguous in the latent's own order.
    """
    if z_seq.ndim not in (3, 4) or prior_token.ndim != z_seq.ndim \
            or prior_token.shape[-2] != 1:
        raise ShapeError("axis_attention expects z_seq [...,n,C], "
                         "prior [...,1,C] with one or two batch axes")
    *batch, n, c = z_seq.shape
    if prior_token.shape != (*batch, 1, c):
        raise ShapeError(f"prior shape {prior_token.shape} != "
                         f"{(*batch, 1, c)}")
    p.head_dim()  # raises unless n_heads divides C
    out = np.empty_like(z_seq, dtype=np.float64)
    prior_weight = np.empty((*batch, n))
    if z_seq.ndim == 3:
        views = (z_seq[None], prior_token[None], out[None], prior_weight[None])
    else:
        views = (z_seq, prior_token, out, prior_weight)
    inner = views[0].shape[1]
    w_qkv = np.concatenate((p.wq, p.wk, p.wv), axis=1)

    def attend(lo: int, hi: int) -> None:
        # The part writes only the rows of sequences lo:hi of both outputs.
        for o0, o1, i0, i1 in _batch_tiles(lo, hi, inner, n):
            _attend_tile(*(a[o0:o1, i0:i1] for a in views), p, w_qkv)

    b = math.prod(batch)
    split_rows(b, attend, rows_per_item=n)
    if counters is not None:
        counters.add_attention(attention_flop_count(b, n, c, p.n_heads),
                               block=block)
        counters.acquire_workspace(_attention_workspace(b, n, c, p.n_heads))
    return out, prior_weight


def ffn(x: np.ndarray, p: BlockParams,
        counters: CostCounters | None = None,
        addend: np.ndarray | None = None,
        before_tile=None) -> np.ndarray:
    """Two-layer C -> 2C -> C map with GELU, applied tokenwise to x + addend.

    The sum with ``addend`` (the block's residual, same shape as x) is
    taken tile by tile, so no full-size sum is ever made. The result has
    x's shape and is always a fresh array. Every block passes its
    residual; ``addend`` defaults to none so that ``ffn(x, p)`` stays the
    plain tokenwise FFN the oracle tests and direct callers use.

    ``before_tile(i, j)``, when given, is called on the tile's thread just
    before flat rows i:j of ``addend`` are read, so a caller can fill
    those rows then, while they are in cache.
    """
    c = x.shape[-1]
    rows = x.reshape(-1, c)
    if addend is not None:
        if addend.shape != x.shape:
            raise ShapeError(f"addend shape {addend.shape} != {x.shape}")
        addend = addend.reshape(-1, c)
    m = rows.shape[0]
    out = np.empty((m, c))

    def apply(lo: int, hi: int) -> None:
        # Tile-sized row groups keep the hidden activation cache-resident;
        # tokenwise results are independent of the tiles and the split.
        bounds = tile_bounds(lo, hi)
        for i, j in zip(bounds, bounds[1:]):
            src = rows[i:j]
            if before_tile is not None:
                before_tile(i, j)
            if addend is not None:
                src = np.add(src, addend[i:j], out=scratch("ffn.in", src.shape))
            hidden = np.matmul(src, p.w1, out=scratch("ffn.hidden",
                                                      (j - i, 2 * c)))
            _gelu_inplace(hidden, scratch("ffn.tmp", hidden.shape))
            np.matmul(hidden, p.w2, out=out[i:j])

    split_rows(m, apply)
    if counters is not None:
        counters.add_ffn(ffn_flop_count(m, c))
        counters.acquire_workspace(m * 3 * c)
    return out.reshape(x.shape)


# Per axis, the transpose of the [F, V, L, C] latent that makes each
# sequence run along its third axis: [F, V, L, C] for spatial, [F, L, V, C]
# for camera and [V, L, F, C] for motion.
_AXES = {"spatial": (0, 1, 2, 3), "camera": (0, 2, 1, 3),
         "motion": (1, 2, 0, 3)}


def axis_block(z: np.ndarray, axis: str, prior: np.ndarray, w: BlockParams,
               counters: CostCounters | None = None,
               keep: np.ndarray | None = None,
               cached: np.ndarray | None = None) -> BlockOutput:
    """One SCM block: attention along ``axis``, then FFN(z + attention).

    ``axis`` is "spatial", "camera" or "motion" and ``prior`` is that
    axis's prior: k_s [F, V, 1, C], k_c [F, H, W, C] or k_m [V, H, W, C].
    With no ``keep``, every sequence is read in place through a transposed
    view of the latent, and the attention comes back in the latent's own
    memory order, so mapping it back is a view as well.

    With ``keep`` [G, K], a list of kept spatial positions per frame
    (camera) or per view (motion), only the kept sequences are gathered
    and attended. Every other position of the attention is taken from
    ``cached``, which has the latent's shape. That refill runs inside the
    FFN's tiles: each tile copies its rows of ``cached`` and overwrites the
    attended ones among them just before the FFN adds them, so no serial
    full-size copy or scatter is made.

    Only the spatial block reports the semantic map [F, V, H, W], the
    mean weight each query puts on the prior token.
    """
    if z.ndim != 5:
        raise ShapeError(f"latent must be [F,V,H,W,C], got {z.shape}")
    f, v, h, ww, c = z.shape
    l = h * ww
    want = {"spatial": (f, v, 1, c), "camera": (f, h, ww, c),
            "motion": (v, h, ww, c)}[axis]
    if prior.shape != want:
        raise ShapeError(f"{axis} prior shape {prior.shape} != {want}")
    if keep is not None and axis == "spatial":
        raise ParameterError("the spatial block is never pruned")
    axes = _AXES[axis]
    grid = (f, v, l)
    prior = prior.reshape(grid[axes[0]], grid[axes[1]], 1, c)
    refill = None
    if keep is None:
        att, pw = axis_attention(z.reshape(f, v, l, c).transpose(axes), prior,
                                 w, counters, block=axis)
        attention = att.transpose(np.argsort(axes)).reshape(z.shape)
    else:
        if cached is None or cached.shape != z.shape:
            raise ShapeError(f"cached {axis} attention must have shape "
                             f"{z.shape}")
        g, k = keep.shape
        groups = np.arange(g)[:, None]
        # Latent row of token i of the sequence at kept position keep[g, k].
        dst = np.arange(f * v * l).reshape(grid).transpose(axes[:3])[
            groups, keep]
        n = dst.shape[2]
        kept = np.take(z.reshape(-1, c), dst.ravel(), axis=0)
        att, pw = axis_attention(kept.reshape(g * k, n, c),
                                 prior[groups, keep].reshape(g * k, 1, c),
                                 w, counters, block=axis)
        # The attended rows in latent order, so a tile finds its own with
        # one search.
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
    semantic = pw.reshape(f, v, h, ww) if axis == "spatial" else None
    return BlockOutput(out=ffn(z, w, counters, addend=attention,
                               before_tile=refill),
                       attention=attention, semantic=semantic)


def spatial_forward(z: np.ndarray, k_s: np.ndarray, w: BlockParams,
                    counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the flattened H*W axis for each (f, v)."""
    return axis_block(z, "spatial", k_s, w, counters)


def camera_forward(z: np.ndarray, k_c: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the V axis for each (f, h, w)."""
    return axis_block(z, "camera", k_c, w, counters)


def motion_forward(z: np.ndarray, k_m: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the F axis for each (v, h, w)."""
    return axis_block(z, "motion", k_m, w, counters)


def chain_forward(
    z: np.ndarray,
    priors: PriorSet,
    w: ChainWeights,
    counters: CostCounters | None = None,
) -> tuple[np.ndarray, tuple[BlockOutput, BlockOutput, BlockOutput]]:
    """spatial -> camera -> motion composition; returns all block outputs."""
    so = spatial_forward(z, priors.k_s, w.spatial, counters)
    co = camera_forward(so.out, priors.k_c, w.camera, counters)
    mo = motion_forward(co.out, priors.k_m, w.motion, counters)
    return mo.out, (so, co, mo)
