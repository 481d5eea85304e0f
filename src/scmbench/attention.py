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

Layout discipline: every batched matmul runs over identical-shaped slices
regardless of batch size, which keeps pruned and dense paths bit-identical
on shared sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CostCounters, scratch, softmax_last_inplace, split_rows
from .errors import ParameterError, ShapeError

__all__ = [
    "BlockParams",
    "ChainWeights",
    "PriorSet",
    "BlockOutput",
    "gelu",
    "ffn",
    "axis_attention",
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

# Chunk sizes for cache-resident inner loops; results are independent of
# these values, they only bound scratch-buffer footprints.
_SCORE_CHUNK_ELEMENTS = 256 * 1024
_FFN_CHUNK_ROWS = 1024


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


def axis_attention(z_seq: np.ndarray, prior_token: np.ndarray, p: BlockParams,
                   counters: CostCounters | None = None,
                   block: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention over one axis with the prior as an extra key.

    z_seq is [B, n, C], prior_token [B, 1, C]. Returns the attended output
    [B, n, C] and the per-query prior weight [B, n] (mean over heads of the
    softmax mass on the prior token).
    """
    if z_seq.ndim != 3 or prior_token.ndim != 3 or prior_token.shape[1] != 1:
        raise ShapeError("axis_attention expects z_seq [B,n,C], prior [B,1,C]")
    b, n, c = z_seq.shape
    if prior_token.shape != (b, 1, c):
        raise ShapeError(f"prior shape {prior_token.shape} != ({b}, 1, {c})")
    d = p.head_dim()
    nh = p.n_heads
    out = np.empty((b, n, c))
    prior_weight = np.empty((b, n))

    def attend(lo: int, hi: int) -> None:
        # Transients live in this thread's scratch buffers; the part writes
        # only rows lo:hi of the two returned arrays.
        bp = hi - lo
        kv_in = np.concatenate(
            (z_seq[lo:hi], prior_token[lo:hi]), axis=1,
            out=scratch("attn.kv", (bp, n + 1, c)),
        )
        kv_rows = kv_in.reshape(bp * (n + 1), c)
        q = np.matmul(z_seq[lo:hi].reshape(bp * n, c), p.wq,
                      out=scratch("attn.q", (bp * n, c)))
        k = np.matmul(kv_rows, p.wk, out=scratch("attn.k", (bp * (n + 1), c)))
        v = np.matmul(kv_rows, p.wv, out=scratch("attn.v", (bp * (n + 1), c)))
        q *= 1.0 / math.sqrt(d)

        qh = q.reshape(bp, n, nh, d).transpose(0, 2, 1, 3)
        kht = k.reshape(bp, n + 1, nh, d).transpose(0, 2, 3, 1)
        vh = v.reshape(bp, n + 1, nh, d).transpose(0, 2, 1, 3)

        # Scores, softmax, and the weighted sum run in batch chunks sized
        # so one chunk of weights stays cache-resident. Per-sequence
        # results do not depend on the chunking, so any chunk size is
        # bit-identical.
        chunk = max(1, _SCORE_CHUNK_ELEMENTS // (nh * n * (n + 1)))
        scores_buf = scratch("attn.scores", (min(bp, chunk), nh, n, n + 1))
        ctx = scratch("attn.ctx", (bp, nh, n, d))
        prior_cols = scratch("attn.prior", (bp, nh, n))
        for i in range(0, bp, chunk):
            j = min(bp, i + chunk)
            sc = scores_buf[: j - i]
            np.matmul(qh[i:j], kht[i:j], out=sc)
            softmax_last_inplace(sc)                      # [j-i, nh, n, n+1]
            np.copyto(prior_cols[i:j], sc[:, :, :, -1])
            np.matmul(sc, vh[i:j], out=ctx[i:j])
        merged = scratch("attn.merged", (bp, n, nh, d))
        np.copyto(merged, ctx.transpose(0, 2, 1, 3))
        np.matmul(merged.reshape(bp * n, c), p.wo,
                  out=out[lo:hi].reshape(bp * n, c))
        np.mean(prior_cols, axis=1, out=prior_weight[lo:hi])  # [bp, n]

    split_rows(b, attend, rows_per_item=n)
    if counters is not None:
        counters.add_attention(attention_flop_count(b, n, c, nh), block=block)
        counters.acquire_workspace(_attention_workspace(b, n, c, nh))
    return out, prior_weight


def ffn(x: np.ndarray, p: BlockParams,
        counters: CostCounters | None = None) -> np.ndarray:
    """Two-layer C -> 2C -> C map with GELU, applied tokenwise.

    Runs in a canonical [..., n, C] batched layout; both dense and pruned
    paths call it on full-shape tensors only.
    """
    c = x.shape[-1]
    rows = x.reshape(-1, c)
    m = rows.shape[0]
    out = np.empty((m, c))

    def apply(lo: int, hi: int) -> None:
        # Row-chunked so the hidden activation stays cache-resident;
        # tokenwise results are independent of the chunking and the split.
        step = _FFN_CHUNK_ROWS
        hidden_buf = scratch("ffn.hidden", (min(hi - lo, step), 2 * c))
        tmp_buf = scratch("ffn.tmp", hidden_buf.shape)
        for i in range(lo, hi, step):
            j = min(hi, i + step)
            hidden = np.matmul(rows[i:j], p.w1, out=hidden_buf[: j - i])
            _gelu_inplace(hidden, tmp_buf[: j - i])
            np.matmul(hidden, p.w2, out=out[i:j])

    split_rows(m, apply)
    out = out.reshape(x.shape)
    if counters is not None:
        tokens = rows.shape[0]
        counters.add_ffn(ffn_flop_count(tokens, c))
        counters.acquire_workspace(tokens * 3 * c)
    return out


def _check_latent(z: np.ndarray) -> tuple[int, int, int, int, int]:
    if z.ndim != 5:
        raise ShapeError(f"latent must be [F,V,H,W,C], got {z.shape}")
    return z.shape


def spatial_forward(z: np.ndarray, k_s: np.ndarray, w: BlockParams,
                    counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the flattened H*W axis for each (f, v)."""
    f, v, h, ww, c = _check_latent(z)
    if k_s.shape != (f, v, 1, c):
        raise ShapeError(f"k_s shape {k_s.shape} != ({f},{v},1,{c})")
    seq = z.reshape(f * v, h * ww, c)
    prior = k_s.reshape(f * v, 1, c)
    att, pw = axis_attention(seq, prior, w, counters, block="spatial")
    attention = att.reshape(f, v, h, ww, c)
    if counters is not None:
        counters.acquire_workspace(attention.size)
    resid = np.add(z.reshape(f * v, h * ww, c), att,
                   out=scratch("block.resid", (f * v, h * ww, c)))
    out = ffn(resid, w, counters)
    return BlockOutput(
        out=out.reshape(f, v, h, ww, c),
        attention=attention,
        semantic=pw.reshape(f, v, h, ww),
    )


def camera_forward(z: np.ndarray, k_c: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the V axis for each (f, h, w)."""
    f, v, h, ww, c = _check_latent(z)
    if k_c.shape != (f, h, ww, c):
        raise ShapeError(f"k_c shape {k_c.shape} != ({f},{h},{ww},{c})")
    l = h * ww
    # [F, L, V, C]: one sequence of V views per (f, spatial position).
    seq = z.reshape(f, v, l, c).transpose(0, 2, 1, 3).reshape(f * l, v, c)
    prior = k_c.reshape(f * l, 1, c)
    att, _ = axis_attention(seq, prior, w, counters, block="camera")
    attention = (
        att.reshape(f, l, v, c).transpose(0, 2, 1, 3).reshape(f, v, h, ww, c)
    )
    if counters is not None:
        counters.acquire_workspace(attention.size)
    resid = np.add(z, attention, out=scratch("block.resid", z.shape))
    out = ffn(resid.reshape(f * v, l, c), w, counters)
    return BlockOutput(out=out.reshape(f, v, h, ww, c), attention=attention)


def motion_forward(z: np.ndarray, k_m: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None) -> BlockOutput:
    """Attention along the F axis for each (v, h, w)."""
    f, v, h, ww, c = _check_latent(z)
    if k_m.shape != (v, h, ww, c):
        raise ShapeError(f"k_m shape {k_m.shape} != ({v},{h},{ww},{c})")
    l = h * ww
    # [V, L, F, C]: one sequence of F frames per (view, spatial position).
    seq = z.reshape(f, v, l, c).transpose(1, 2, 0, 3).reshape(v * l, f, c)
    prior = k_m.reshape(v * l, 1, c)
    att, _ = axis_attention(seq, prior, w, counters, block="motion")
    attention = (
        att.reshape(v, l, f, c).transpose(2, 0, 1, 3).reshape(f, v, h, ww, c)
    )
    if counters is not None:
        counters.acquire_workspace(attention.size)
    resid = np.add(z, attention, out=scratch("block.resid", z.shape))
    out = ffn(resid.reshape(f * v, l, c), w, counters)
    return BlockOutput(out=out.reshape(f, v, h, ww, c), attention=attention)


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
