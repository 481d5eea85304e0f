"""Shared helpers for the test suite."""

import math
import tracemalloc

import numpy as np
import pytest

from scmbench import (
    BlockOutput,
    BlockParams,
    ChainWeights,
    CostCounters,
    PriorSet,
    Rng,
    RunConfig,
    build_toy_model,
    camera_forward,
    motion_forward,
    spatial_forward,
    synth_priors,
)
from scmbench import core
from scmbench.attention import AttentionSink


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# The numpy expressions that the compiled kernels replaced, in the order of
# their operations; each kernel must give their bits.

def softmax_reference(x: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis of a copy of ``x``."""
    x = np.array(x, dtype=np.float64)
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU: 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))),
    with x^3 as (x * x) * x."""
    u = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    np.tanh(u, out=u)
    u += 1.0
    u *= 0.5 * x
    return u


def _reflect_avg(y: np.ndarray, axis: int) -> np.ndarray:
    """3-point moving average with width-1 reflect padding along ``axis``
    (of length 2 or more): ((y[i-1] + y[i]) + y[i+1]) / 3, where an edge's
    missing neighbour is the one on its other side."""
    at = lambda a, s: a[(slice(None),) * axis + (s,)]
    out = np.empty_like(y)
    mid = at(out, slice(1, -1))
    np.add(at(y, slice(0, -2)), at(y, slice(1, -1)), out=mid)
    mid += at(y, slice(2, None))
    first = at(out, 0)
    np.add(at(y, 1), at(y, 0), out=first)
    first += at(y, 1)
    last = at(out, -1)
    np.add(at(y, -2), at(y, -1), out=last)
    last += at(y, -2)
    out /= 3.0
    return out


def reflect_average_reference(y: np.ndarray) -> np.ndarray:
    """Mixing's averaging of ``y`` [t, H, W, C]: along H, then along W, each
    only where that axis has two or more positions."""
    for axis in (1, 2):
        if y.shape[axis] > 1:
            y = _reflect_avg(y, axis)
    return y


def row_topk_reference(scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest of each row of ``scores``, as ascending indices, ties
    to the lower index."""
    return np.sort(np.argsort(-scores, axis=-1, kind="stable")[:, :k],
                   axis=-1)


def random_tokens_reference(f: int, v: int, l: int, k: int,
                            rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the positions of the k smallest of l fresh uniform keys,
    ascending: f rows, then v rows, drawn one row at a time."""
    def draw(rows: int) -> np.ndarray:
        return np.array([np.sort(np.argsort(rng.uniform(l), kind="stable")[:k])
                         for _ in range(rows)])
    return draw(f), draw(v)


def scale_queries_reference(qkv: np.ndarray, t: int, n: int,
                            n_heads: int) -> None:
    """An attention tile's query scaling over its fused projection ``qkv``
    [t * (n + 1), 3C], through the strided head view of its queries."""
    d = qkv.shape[1] // 3 // n_heads
    qh = qkv.reshape(t, n + 1, 3, n_heads, d)[:, :n, 0].transpose(0, 2, 1, 3)
    qh *= 1.0 / math.sqrt(d)


def pruned_rows_reference(axis: str, keep: np.ndarray, f: int, v: int,
                          l: int) -> tuple[np.ndarray, np.ndarray]:
    """A pruned block's row grid [G, K, n + 1] and per-slab keep row
    [F * V], one entry at a time: camera sequence (f, i) is latent rows
    (f, v', keep[f, i]) over the views v', motion sequence (v, i) rows
    (f', v, keep[v, i]) over the frames f', each followed by prior row
    (g, keep[g, i]); slab (f, v) keeps keep[f] (camera) or keep[v]."""
    rows = []
    for g, kept in enumerate(keep.tolist()):
        slabs = ([g * v + vi for vi in range(v)] if axis == "camera"
                 else [fi * v + g for fi in range(f)])
        rows.append([[s * l + x for s in slabs] + [g * l + x] for x in kept])
    owner = [fi if axis == "camera" else vi
             for fi in range(f) for vi in range(v)]
    return np.array(rows, dtype=np.int64), np.array(owner, dtype=np.int64)


def gather_kv_reference(z: np.ndarray, prior: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """Pruned sequences' keys and values [..., n + 1, C]: rows
    ``rows[..., :n]`` of z, then row ``rows[..., n]`` of prior."""
    return np.concatenate((z[rows[..., :-1]], prior[rows[..., -1:]]),
                          axis=-2)


def scatter_reference(out: np.ndarray, att: np.ndarray,
                      rows: np.ndarray) -> None:
    """Each pruned sequence's attention rows ``att`` [..., n, C] over rows
    ``rows[..., :n]`` of ``out``."""
    out[rows[..., :-1].ravel()] = att.reshape(-1, out.shape[1])


def refill_reference(new: np.ndarray, cached: np.ndarray, keep: np.ndarray,
                     owner: np.ndarray, l: int, i: int, j: int) -> None:
    """Rows i:j of a pruned block's attention ``new`` [rows, C] that no
    keep list names, from ``cached``: row r is position r % l of slab
    r // l, which keeps ``keep[owner[r // l]]``."""
    r = np.arange(i, j)
    refilled = r[~(keep[owner[r // l]] == (r % l)[:, None]).any(axis=1)]
    new[refilled] = cached[refilled]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes, NaN at the same positions, every other element
    bit-equal (so -0.0 differs from 0.0); NaN payloads may differ."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def with_attention(forward, *args, **kwargs
                   ) -> tuple[BlockOutput, np.ndarray]:
    """A block forward's output, and the attention it hands to a sink that
    keeps it."""
    kept = []
    block = forward(*args, sink=AttentionSink(lambda: None, kept.append),
                    **kwargs)
    return block, kept[0]


def chain_forward(
    z: np.ndarray,
    priors: PriorSet,
    w: ChainWeights,
    counters: CostCounters | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """spatial -> camera -> motion composition; returns the output and each
    block's attention, kept by a sink."""
    so, a_s = with_attention(spatial_forward, z, priors.k_s, w.spatial,
                             counters)
    co, a_c = with_attention(camera_forward, so.out, priors.k_c, w.camera,
                             counters)
    mo, a_m = with_attention(motion_forward, co.out, priors.k_m, w.motion,
                             counters)
    return mo.out, (a_s, a_c, a_m)


# SplitMix64's constants, in numpy's uint64 arithmetic, which wraps.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def words_reference(state: int, n: int) -> np.ndarray:
    """The n SplitMix64 words after stream state ``state`` (a seed, or an
    ``Rng``'s ``state``): word i mixes state + (i+1) * GAMMA, mod 2^64."""
    with np.errstate(over="ignore"):
        z = np.uint64(state) + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def box_muller_inputs_reference(state: int, pairs: int
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller's u1 in (0, 1] and u2 in [0, 1) from the words after
    ``state``, two a pair."""
    words = words_reference(state, 2 * pairs)
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return u1, u2


def normal_reference(seed: int, shape) -> np.ndarray:
    """``Rng(seed).normal(shape)`` drawn in one pass: Box-Muller over every
    pair at once, from the word stream of :func:`words_reference`."""
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    pairs = (n + 1) // 2
    u1, u2 = box_muller_inputs_reference(seed, pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].reshape(shape)


def uniform_reference(seed: int, shape) -> np.ndarray:
    """``Rng(seed).uniform(shape)`` drawn in one pass."""
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    words = words_reference(seed, n)
    return ((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            ).reshape(shape)


def ddim_reference(z_t: np.ndarray, z0_hat: np.ndarray, t: int,
                   schedule) -> np.ndarray:
    """The clean-prediction update as one whole-array expression."""
    a_prev, b_prev = schedule.alpha[t - 1], schedule.beta[t - 1]
    a_t, b_t = schedule.alpha[t], schedule.beta[t]
    return a_prev * z0_hat + (b_prev / b_t) * (z_t - a_t * z0_hat)


def working_set(call) -> int:
    """Peak bytes a call allocates beyond what it returns, a tuple of
    arrays; tracemalloc must be tracing."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    returned = call()
    peak = tracemalloc.get_traced_memory()[1]
    return peak - before - sum(a.nbytes for a in returned)


def make_block(c: int, n_heads: int, seed: int) -> BlockParams:
    rng = Rng(seed)
    scale = 1.0 / np.sqrt(c)
    u = lambda shape: (rng.uniform(shape) * 2.0 - 1.0) * scale
    return BlockParams(wq=u((c, c)), wk=u((c, c)), wv=u((c, c)),
                       wo=u((c, c)), w1=u((c, 2 * c)), w2=u((2 * c, c)),
                       n_heads=n_heads)


def config_at(f, v, h, w, c, layers=1, **fields) -> RunConfig:
    """A ``RunConfig`` at the given latent shape, one layer by default."""
    return RunConfig(frames=f, views=v, height=h, width=w, channels=c,
                     layers=layers, **fields)


def make_setup(cfg: RunConfig):
    """Model, priors, and a seeded latent at ``cfg``'s shape, seeded as a
    run of ``cfg`` seeds them."""
    model = build_toy_model(cfg)
    priors = synth_priors(cfg, Rng(cfg.seed + 1))
    z = Rng(cfg.seed + 2).normal(cfg.latent_shape)
    return model, priors, z


def planted_latent(cfg: RunConfig, w_spatial: BlockParams, k_s: np.ndarray,
                   cells: np.ndarray, rng: Rng, boost: float = 8.0,
                   background: float = 0.05) -> np.ndarray:
    """Latent whose listed flat (h, w) cells dominate the semantic map.

    Each planted cell is pushed along the direction that maximizes the
    head-summed attention score to that (f, v) slice's prior token, so the
    spatial block assigns those cells near-total prior weight.
    """
    f, v, h, w, c = cfg.latent_shape
    z = background * rng.normal(cfg.latent_shape).reshape(f, v, h * w, c)
    for fi in range(f):
        for vi in range(v):
            kappa = k_s[fi, vi, 0] @ w_spatial.wk
            g = w_spatial.wq @ kappa
            g = g / np.linalg.norm(g)
            z[fi, vi, cells, :] = boost * g
    return z.reshape(cfg.latent_shape)


@pytest.fixture
def small_setup():
    """A one-layer config at 2x2x4x4x8, then its model, priors and latent."""
    cfg = config_at(2, 2, 4, 4, 8)
    return (cfg, *make_setup(cfg))


@pytest.fixture
def split_into(monkeypatch):
    """Force a given number of drainers onto each stage's tile queue, with
    tiles so small that tiny inputs still cut into many of them."""
    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PARTS", parts)
        monkeypatch.setattr(core, "_TILE_TOKENS", 1)
    return force
