"""The spatial / camera / motion attention blocks.

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

All three blocks, dense or pruned, are one function, :func:`axis_block`,
which attends through a transposed view of its input latent or, given a
keep list, through a grid of the kept positions' rows of it, whose
attention is written straight into the block's attention array; the
other positions' attention is then refilled from a cached entry, as a
stage of its own. Every block hands its attention over before its FFN.

Layout discipline: every batched matmul runs over identical-shaped slices
regardless of batch size, which keeps pruned and dense paths bit-identical
on shared sequences. A tile is the only unit of work: each stage cuts
its whole range into tiles of about ``core._TILE_TOKENS`` tokens, where
an attention sequence weighs its tokens or its score elements divided by
:data:`_SCORES_PER_TOKEN`, whichever is more. Attention runs its whole
pipeline (kv concat, fused Q/K/V projection, scores, softmax, weighted
sum, head merge, output projection) once per tile, and camera and motion
read their sequences from the [F, V, H, W, C] layout through transposed
views and write their results back in that layout's memory order. No
full-size temporary or transposed copy is made, every attention output is
contiguous in the latent's layout, and per-row results do not depend on
the tiles.

Ownership: every stage writes its result to ``out``, or to a fresh array
when ``out`` is None, and writes its inputs only when one of them is
``out``. A caller passes ``out`` only for a latent it owns and no longer
needs, so a step holds one working latent that each stage writes over.
Each attention tile of an unpruned block writes z + attention over its
rows of the output, and its rows of a cache's copy when a cache keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (CostCounters, _address, _kernels, out_array, run_tiles,
                   softmax_last_inplace, tiles)
from .errors import ParameterError, ShapeError

__all__ = [
    "BlockParams",
    "ChainWeights",
    "PriorSet",
    "BlockOutput",
    "AttentionSink",
    "ffn",
    "axis_attention",
    "axis_block",
    "spatial_forward",
    "camera_forward",
    "motion_forward",
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
    """A block's result; its attention leaves it only through a sink."""

    out: np.ndarray        # [F, V, H, W, C], post-FFN
    semantic: np.ndarray | None = None  # [F, V, H, W], spatial block only


class AttentionSink(NamedTuple):
    """Where a block hands its full-size attention, for a caller that
    keeps it, such as a cache (see :func:`axis_block`); every block hands
    it over before its FFN."""

    before: Callable[[], None]  # called just before the attention is allocated
    take: Callable[[np.ndarray], None]  # called once it is complete


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Score elements that weigh as much as one token when attention is tiled:
# a tile holds about _TILE_TOKENS * _SCORES_PER_TOKEN score elements (128K,
# 1 MiB) or one sequence, whichever is more.
_SCORES_PER_TOKEN = 256


def _gelu_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x``, a C-contiguous float64 array, with the tanh-form
    GELU, with one same-shape temporary: (0.5 x) (tanh(u) + 1), where
    u = ((x^3 * 0.044715) + x) * sqrt(2/pi) and x^3 = (x * x) * x. The
    kernels compute u before ``np.tanh`` and the rest after it.
    """
    tmp = np.empty_like(x)
    data, scratch = _address(x), tmp.ctypes.data
    _kernels.gelu_tanh_arg(data, scratch, x.size, _SQRT_2_OVER_PI)
    np.tanh(tmp, out=tmp)
    _kernels.gelu_finish(data, scratch, x.size)
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


def _batch_tiles(outer: int, inner: int,
                 weight: int) -> list[tuple[int, int, int, int]]:
    """Tiles (o0, o1, i0, i1) covering the [O, I] sequence grid in
    row-major order, each sequence weighing ``weight`` tokens.

    A tile is either part of one outer row or a group of whole rows, so
    it is a rectangle of the grid. Rows of few tokens are grouped, which
    saves one tile's fixed cost per row: small latents, whose camera and
    motion rows hold 128-256 tokens, run about 5% faster for it.
    """
    grid = []
    for o0, o1 in tiles(outer, inner * weight):
        if o1 - o0 > 1:
            grid.append((o0, o1, 0, inner))
        else:
            grid.extend((o0, o1, i0, i1) for i0, i1 in tiles(inner, weight))
    return grid


def _attend_tile(z: np.ndarray, prior: np.ndarray, prior_weight: np.ndarray,
                 att: np.ndarray | None, total: np.ndarray | None,
                 p: BlockParams, w_qkv: np.ndarray,
                 rows: np.ndarray | None = None) -> None:
    """The whole attention pipeline for one rectangular tile of sequences.

    z, att and total are [ot, it, n, C] with any strides, prior is
    [ot, it, 1, C] and prior_weight a contiguous [ot, it, n]. Scores,
    softmax and the weighted sum run once over the whole tile, whose size
    :func:`axis_attention` bounds by its tokens and by its score elements.
    Every temporary is a plain array sized by the tile, the projected
    attention too: ``att``, when given, gets a copy of it, and ``total``,
    when given, gets z + attention; ``total`` may be z itself, whose rows
    are copied before anything is written.

    Given ``rows``, the tile's contiguous [ot, it, n + 1] slice of a
    pruned block's row grid (see :func:`axis_attention`), z, prior and
    att are whole [rows, C] arrays instead: the compiled ``gather_kv``
    copies each sequence's rows of z and its prior row straight into kv,
    and ``scatter_rows`` writes each of its attention rows over the same
    row of att. total is then None.

    Each temporary is dropped after its last read: kv once the fused
    Q/K/V product has read it; qkv, its head views and the scores once
    the weighted sum has read them, the prior-weight mean being taken
    right after the softmax; the merged heads once the output projection
    has read them. So a tile holds kv and qkv, then qkv, the scores and
    the merged heads, then the merged heads and the projection, and never
    more than the larger of the first two sets.
    """
    if rows is None:
        ot, it, n, c = z.shape
    else:
        (ot, it, n), c = rows.shape, z.shape[1]
        n -= 1
    t = ot * it
    nh = p.n_heads
    d = c // nh
    kv = np.empty((ot, it, n + 1, c))
    if rows is None:
        kv[:, :, :n] = z
        kv[:, :, n:] = prior
    else:
        _kernels.gather_kv(kv.ctypes.data, z.ctypes.data, prior.ctypes.data,
                           rows.ctypes.data, t, n, c)
    # One product for all three projections over every kv row; the queries
    # of the prior rows are never read, which costs less than a second
    # gather of the tokens and two more BLAS calls.
    qkv = kv.reshape(t * (n + 1), c) @ w_qkv
    del kv
    _kernels.scale_queries(qkv.ctypes.data, t, n, c, 1.0 / math.sqrt(d))
    heads = qkv.reshape(t, n + 1, 3, nh, d)
    qh = heads[:, :n, 0].transpose(0, 2, 1, 3)      # [t, nh, n, d]
    kht = heads[:, :, 1].transpose(0, 2, 3, 1)      # [t, nh, d, n+1]
    vh = heads[:, :, 2].transpose(0, 2, 1, 3)       # [t, nh, n+1, d]

    scores = softmax_last_inplace(qh @ kht)         # [t, nh, n, n+1]
    # The mean over heads as np.mean takes it, a sum and then a divide,
    # here by a float, so no integer count is cast.
    mean = np.add.reduce(scores[..., -1], axis=1,
                         out=prior_weight.reshape(t, n))
    mean /= float(nh)
    merged = np.empty((t, n, nh, d))
    np.matmul(scores, vh, out=merged.transpose(0, 2, 1, 3))
    del qkv, heads, qh, kht, vh, scores
    flat = merged.reshape(t * n, c)
    if t * n == 1:
        # The whole call is one one-token sequence, as at all dims 1
        # (tiles hold two tokens where the call has them): BLAS runs a
        # one-row product as a matrix-vector product, which sums in
        # another order, so pad it to two rows.
        flat = np.concatenate((flat, flat))
    proj = (flat @ p.wo)[:t * n]
    del merged, flat
    if rows is not None:
        _kernels.scatter_rows(att.ctypes.data, proj.ctypes.data,
                              rows.ctypes.data, t, n, c)
        return
    proj = proj.reshape(z.shape)
    if att is not None:
        np.copyto(att, proj)
    if total is not None:
        np.add(z, proj, out=total)


def _check_rows(z: np.ndarray, prior: np.ndarray, rows: np.ndarray,
                attention_out: np.ndarray | None,
                residual_out: np.ndarray | None) -> None:
    """ShapeError unless a pruned :func:`axis_attention` call's arrays are
    what its kernels read and write."""
    for name, a in (("z_seq", z), ("prior_token", prior),
                    ("attention_out", attention_out)):
        if (a is None or a.ndim != 2 or a.dtype != np.float64
                or not a.flags.c_contiguous):
            raise ShapeError(f"with rows, {name} must be a C-contiguous "
                             f"float64 [rows, C] array")
    if (rows.ndim != 3 or rows.dtype != np.int64 or not rows.flags.c_contiguous
            or rows.shape[2] < 2 or 0 in rows.shape):
        raise ShapeError(f"rows must be a C-contiguous int64 [O, I, n + 1] "
                         f"grid with n >= 1, got {rows.dtype} {rows.shape}")
    if (attention_out.shape != z.shape or prior.shape[1] != z.shape[1]
            or residual_out is not None):
        raise ShapeError(f"with rows, attention_out must have z_seq's shape "
                         f"{z.shape}, prior_token its C and residual_out "
                         f"must be None")
    if _kernels.rows_in_range(rows.ctypes.data, rows.size // rows.shape[2],
                              rows.shape[2] - 1, z.shape[0], prior.shape[0]):
        raise ShapeError(f"rows name a row outside [0, {z.shape[0]}) of "
                         f"z_seq or [0, {prior.shape[0]}) of prior_token")


def axis_attention(z_seq: np.ndarray, prior_token: np.ndarray, p: BlockParams,
                   counters: CostCounters | None = None,
                   block: str | None = None,
                   residual_out: np.ndarray | None = None,
                   attention_out: np.ndarray | None = None,
                   rows: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention over one axis with the prior as an extra key.

    z_seq is the [O, I, n, C] grid of sequences, with any strides, so a
    transposed view of a latent is read in place; prior_token is
    [O, I, 1, C]. Returns the attended output, of z_seq's shape, and the
    per-query prior weight [O, I, n] (mean over heads of the softmax mass
    on the prior token). The attended output is a fresh array laid out in
    memory like z_seq, so for a transposed view of a latent it is
    contiguous in the latent's own order.

    With ``residual_out``, an array of z_seq's shape (z_seq itself is
    allowed), each tile writes z_seq + attention over its own sequences'
    rows of it, and it is returned in place of the attended output: the
    block's residual sum. The attention goes to ``attention_out`` when
    given, an array of z_seq's shape that overlaps neither, and is else
    never made at full size. The caller must own both. Every tile copies
    its sequences before it writes them, and no tile reads another's rows.

    With ``rows``, a C-contiguous int64 [O, I, n + 1] grid, the sequences
    are named rows of C-contiguous [rows, C] arrays, as a pruned block
    attends a latent's kept positions: sequence (o, i) is rows
    ``rows[o, i, :n]`` of z_seq and has row ``rows[o, i, n]`` of
    prior_token as its prior. Each tile gathers its sequences' rows into
    its keys and values and writes their attention over the same rows of
    ``attention_out``, an array of z_seq's shape that the caller owns,
    which is returned; its other rows are left as they are, so no latent
    row may be named twice. There is no residual sum.

    The batch grid runs over the cores as rectangular tiles
    (:func:`_batch_tiles`), each attended in one pass.
    """
    if rows is not None:
        _check_rows(z_seq, prior_token, rows, attention_out, residual_out)
        (o, i, n), c = rows.shape, z_seq.shape[1]
        n -= 1
    else:
        if z_seq.ndim != 4 or \
                prior_token.shape != (*z_seq.shape[:2], 1, z_seq.shape[3]):
            raise ShapeError(f"axis_attention expects z_seq [O,I,n,C] and "
                             f"prior [O,I,1,C], got {z_seq.shape} and "
                             f"{prior_token.shape}")
        o, i, n, c = z_seq.shape
        if 0 in (o, i, n):
            raise ShapeError(f"axis_attention: empty input, z_seq shape "
                             f"{z_seq.shape}")
        for a in (residual_out, attention_out):
            if a is not None and a.shape != z_seq.shape:
                raise ShapeError(f"output shape {a.shape} != {z_seq.shape}")
    p.head_dim()  # raises unless n_heads divides C
    att = attention_out
    if att is None and residual_out is None:
        att = np.empty_like(z_seq, dtype=np.float64)
    prior_weight = np.empty((o, i, n))
    w_qkv = np.concatenate((p.wq, p.wk, p.wv), axis=1)
    if rows is None:
        views = (z_seq, prior_token, prior_weight, att, residual_out)

        def attend(o0: int, o1: int, i0: int, i1: int) -> None:
            # The tile writes only the rows of its own sequences of each
            # output.
            _attend_tile(*(None if a is None else a[o0:o1, i0:i1]
                           for a in views), p, w_qkv)
    else:
        def attend(o0: int, o1: int, i0: int, i1: int) -> None:
            _attend_tile(z_seq, prior_token, prior_weight[o0:o1, i0:i1], att,
                         None, p, w_qkv, rows[o0:o1, i0:i1])

    weight = max(n, p.n_heads * n * (n + 1) // _SCORES_PER_TOKEN)
    run_tiles(_batch_tiles(o, i, weight), attend)
    b = o * i
    if counters is not None:
        counters.add_attention(attention_flop_count(b, n, c, p.n_heads),
                               block=block)
        counters.acquire_workspace(_attention_workspace(b, n, c, p.n_heads))
    return (att if residual_out is None else residual_out), prior_weight


def ffn(x: np.ndarray, p: BlockParams,
        counters: CostCounters | None = None,
        addend: np.ndarray | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Two-layer C -> 2C -> C map with GELU, applied tokenwise to x + addend.

    The sum with ``addend`` (the block's attention, same shape as x) is
    taken tile by tile, so no full-size sum is ever made. A block whose
    attention is already in x (see :func:`axis_block`) passes none, and
    ``ffn(x, p)`` is the plain tokenwise FFN the oracle tests use.

    The result, of x's shape, goes to ``out``, or to a fresh array when
    ``out`` is None; x is written only when it is ``out``. ``out`` may be
    x itself: each tile takes its rows of x + addend into a temporary
    before it writes them. That sum is dropped once the ``w1`` product
    has read it, so a tile holds no more than its hidden activation and
    GELU's temporary, each [rows, 2C].
    """
    c = x.shape[-1]
    rows = x.reshape(-1, c)
    if addend is not None:
        if addend.shape != x.shape:
            raise ShapeError(f"addend shape {addend.shape} != {x.shape}")
        addend = addend.reshape(-1, c)
    m = rows.shape[0]
    result = out_array(out, x.shape)
    out = result.reshape(m, c)

    def apply(i: int, j: int) -> None:
        # Tile-sized row groups keep the hidden activation cache-resident;
        # tokenwise results are independent of the tiles and the split.
        src = rows[i:j]
        if addend is not None:
            src = src + addend[i:j]
        hidden = src @ p.w1
        del src
        _gelu_inplace(hidden)
        np.matmul(hidden, p.w2, out=out[i:j])

    run_tiles(tiles(m), apply)
    if counters is not None:
        counters.add_ffn(ffn_flop_count(m, c))
        counters.acquire_workspace(m * 3 * c)
    return result


# Per axis, the transpose of the [F, V, L, C] latent that makes each
# sequence run along its third axis: [F, V, L, C] for spatial, [F, L, V, C]
# for camera and [V, L, F, C] for motion.
_AXES = {"spatial": (0, 1, 2, 3), "camera": (0, 2, 1, 3),
         "motion": (1, 2, 0, 3)}


def _row_grid(keep: np.ndarray, axis: str, f: int, v: int,
              l: int) -> tuple[np.ndarray, np.ndarray]:
    """The [G, K, n + 1] row grid of the camera or motion block of an
    [F, V, H, W, C] latent pruned to ``keep``, a C-contiguous int64 [G, K]
    with L = H * W positions, and each (f, v) slab's keep row [F * V]:
    sequence (o, i) is the latent rows of kept position keep[o, i] along
    the attended axis, then its prior row. ParameterError, from the
    compiled ``pruned_rows``, unless each keep row is strictly increasing
    within [0, L).
    """
    axes = _AXES[axis]
    g, k = keep.shape
    n = (f, v)[axes[2]]
    slab = (v, 1)  # the (f, v) slab grid's strides
    rows = np.empty((g, k, n + 1), dtype=np.int64)
    owner = np.empty(f * v, dtype=np.int64)
    if _kernels.pruned_rows(rows.ctypes.data, owner.ctypes.data,
                            keep.ctypes.data, g, k, n, l, slab[axes[0]],
                            slab[axes[2]]):
        raise ParameterError(f"{axis} keep rows must be strictly "
                             f"increasing within [0, {l})")
    return rows, owner


def axis_block(z: np.ndarray, axis: str, prior: np.ndarray, w: BlockParams,
               counters: CostCounters | None = None,
               keep: np.ndarray | None = None,
               cached: np.ndarray | None = None,
               out: np.ndarray | None = None,
               sink: AttentionSink | None = None) -> BlockOutput:
    """One SCM block: attention along ``axis``, then FFN(z + attention).

    ``axis`` is "spatial", "camera" or "motion" and ``prior`` is that
    axis's prior: k_s [F, V, 1, C], k_c [F, H, W, C] or k_m [V, H, W, C].
    With no ``keep``, every sequence is read in place through a transposed
    view of the latent, and each attention tile writes z + attention over
    its own rows of the output, where the FFN then runs in place.

    With ``keep`` [G, K], a list of 1 <= K <= H*W kept spatial positions
    per frame (camera) or per view (motion), integers strictly increasing
    within [0, H*W) in each row (checked), attention runs on the kept
    positions only, in place: the block allocates its full-size attention
    first, and :func:`axis_attention`, given the kept positions' latent
    rows as an [G, K, n + 1] row grid (with each sequence's prior row
    last), has each tile gather its sequences' rows of z into its keys and
    values and write their attention over the same rows of that array. So
    neither a K-size latent nor a K-size attention is made. Every other
    row of the attention is then taken from ``cached``, which has the
    latent's shape, as a tiled stage of its own: each tile copies the runs
    of rows around the kept ones from ``cached``, in one pass of the
    compiled ``refill_rows``, which reads the keep lists themselves. The
    FFN then adds the whole attention to z. The keep-list check and the
    row grid are the compiled ``pruned_rows`` (:func:`_row_grid`), so a
    pruned block runs none of numpy's integer, sort or search code.

    The block output goes to ``out``, or to a fresh array when ``out`` is
    None; z is written only when it is ``out``, which a caller passes only
    for a latent it owns.

    A block given a ``sink`` hands its full-size, latent-ordered attention
    over before its FFN; an unpruned block's attention tiles write it
    beside the residual sum, and a pruned block's write its kept rows
    before the refill completes it. ``sink.before()`` is called before the
    block allocates it, and so before its attention runs, so the caller
    can free memory first, and ``sink.take(attention)`` as soon as it is
    complete.

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

    def sequences(a: np.ndarray) -> np.ndarray:
        return a.reshape(f, v, l, c).transpose(axes)

    if keep is None:
        if sink is not None:
            sink.before()
        out = out_array(out, z.shape)
        attention = None if sink is None else np.empty(z.shape)
        _, pw = axis_attention(
            sequences(z), prior, w, counters, block=axis,
            residual_out=sequences(out),
            attention_out=None if sink is None else sequences(attention))
        semantic = pw.reshape(f, v, h, ww) if axis == "spatial" else None
        # The FFN reads z + attention from out and writes over it.
        z, addend = out, None
    else:
        if cached is None or cached.shape != z.shape:
            raise ShapeError(f"cached {axis} attention must have shape "
                             f"{z.shape}")
        keep, g = np.asarray(keep), grid[axes[0]]
        if (keep.ndim != 2 or keep.shape[0] != g
                or keep.dtype.kind not in "iu" or not 1 <= keep.shape[1] <= l):
            raise ShapeError(f"{axis} keep lists must be {g} rows of 1 to {l}"
                             f" integers, got {keep.dtype} {keep.shape}")
        # A uint64 position of 2^63 or more turns negative here, which the
        # row grid's check refuses.
        keep = np.ascontiguousarray(keep, dtype=np.int64)
        rows, owner = _row_grid(keep, axis, f, v, l)

        def flat(a: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(a, dtype=np.float64).reshape(-1, c)

        if sink is not None:
            sink.before()
        attention = np.empty(z.shape)
        entry = flat(attention)
        axis_attention(flat(z), flat(prior), w, counters, block=axis,
                       attention_out=entry, rows=rows)
        del rows
        old = flat(cached)
        arrays = (entry.ctypes.data, old.ctypes.data, keep.ctypes.data,
                  owner.ctypes.data, keep.shape[1], l, c)

        def refill(i: int, j: int) -> None:
            _kernels.refill_rows(*arrays, i, j)

        run_tiles(tiles(len(entry)), refill)
        semantic, addend = None, attention

    if sink is not None:
        sink.take(attention)
    if counters is not None:
        # Modeled as a full-size attention array whether or not one is made.
        counters.acquire_workspace(z.size)
    out = ffn(z, w, counters, addend=addend, out=out)
    return BlockOutput(out=out, semantic=semantic)


def spatial_forward(z: np.ndarray, k_s: np.ndarray, w: BlockParams,
                    counters: CostCounters | None = None,
                    out: np.ndarray | None = None,
                    sink: AttentionSink | None = None) -> BlockOutput:
    """Attention along the flattened H*W axis for each (f, v)."""
    return axis_block(z, "spatial", k_s, w, counters, out=out, sink=sink)


def camera_forward(z: np.ndarray, k_c: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None,
                   out: np.ndarray | None = None,
                   sink: AttentionSink | None = None) -> BlockOutput:
    """Attention along the V axis for each (f, h, w)."""
    return axis_block(z, "camera", k_c, w, counters, out=out, sink=sink)


def motion_forward(z: np.ndarray, k_m: np.ndarray, w: BlockParams,
                   counters: CostCounters | None = None,
                   out: np.ndarray | None = None,
                   sink: AttentionSink | None = None) -> BlockOutput:
    """Attention along the F axis for each (v, h, w)."""
    return axis_block(z, "motion", k_m, w, counters, out=out, sink=sink)
