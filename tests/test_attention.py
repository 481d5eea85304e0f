"""Attention blocks, FFN, and the chained composition."""

import math

import numpy as np
import pytest

from scmbench import (
    BlockParams,
    CostCounters,
    ParameterError,
    PriorSet,
    Rng,
    ShapeError,
    axis_attention,
    camera_forward,
    chain_forward,
    ffn,
    gelu,
    motion_forward,
    spatial_forward,
)
from scmbench.attention import attention_flop_count, axis_block, ffn_flop_count

from conftest import make_block, make_setup


# --- independent transcription oracle -------------------------------------

def oracle_axis_attention(z_seq, prior, p):
    """Straight per-head, per-query formula transcription."""
    b, n, c = z_seq.shape
    d = c // p.n_heads
    out = np.zeros((b, n, c))
    pw = np.zeros((b, n))
    for bi in range(b):
        kv = np.concatenate([z_seq[bi], prior[bi]], axis=0)  # [n+1, C]
        q = z_seq[bi] @ p.wq
        k = kv @ p.wk
        v = kv @ p.wv
        merged = np.zeros((n, c))
        for h in range(p.n_heads):
            qh = q[:, h * d:(h + 1) * d] / math.sqrt(d)
            kh = k[:, h * d:(h + 1) * d]
            vh = v[:, h * d:(h + 1) * d]
            for i in range(n):
                s = np.array([qh[i] @ kh[j] for j in range(n + 1)])
                e = np.exp(s - s.max())
                w = e / e.sum()
                merged[i, h * d:(h + 1) * d] = w @ vh
                pw[bi, i] += w[-1]
        out[bi] = merged @ p.wo
    return out, pw / p.n_heads


def oracle_block(z, prior_per_seq, p, layout):
    """Dense block oracle: attention along one axis, then FFN(z + att)."""
    seq, unseq = layout
    z_seq = seq(z)
    att_seq, _ = oracle_axis_attention(z_seq, prior_per_seq, p)
    att = unseq(att_seq)
    hidden = gelu((z + att).reshape(-1, z.shape[-1]) @ p.w1)
    return (hidden @ p.w2).reshape(z.shape), att


# --- axis_attention -------------------------------------------------------

def test_axis_attention_symmetric_prior():
    # n=1, identity projections, z == prior: both keys get weight 0.5
    c = 2
    p = BlockParams(wq=np.eye(c), wk=np.eye(c), wv=np.eye(c), wo=np.eye(c),
                    w1=np.zeros((c, 2 * c)), w2=np.zeros((2 * c, c)), n_heads=1)
    z = np.array([[[1.0, 2.0]]])
    out, pw = axis_attention(z, z.copy(), p)
    assert pw[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(out, z, atol=1e-12)  # average of two equal values


def test_axis_attention_zero_values():
    p = make_block(4, 2, 0)
    p.wv = np.zeros_like(p.wv)
    z = Rng(1).normal((3, 5, 4))
    prior = Rng(2).normal((3, 1, 4))
    out, _ = axis_attention(z, prior, p)
    assert np.array_equal(out, np.zeros_like(out))


def test_axis_attention_scalar_oracle():
    p = make_block(2, 1, 11)
    z = Rng(12).normal((1, 2, 2))
    prior = Rng(13).normal((1, 1, 2))
    got, got_pw = axis_attention(z, prior, p)
    want, want_pw = oracle_axis_attention(z, prior, p)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got_pw - want_pw)) < 1e-12


def test_axis_attention_oracle_multihead_batch():
    p = make_block(8, 2, 21)
    z = Rng(22).normal((4, 5, 8))
    prior = Rng(23).normal((4, 1, 8))
    got, got_pw = axis_attention(z, prior, p)
    want, want_pw = oracle_axis_attention(z, prior, p)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got_pw - want_pw)) < 1e-12


def test_axis_attention_prior_weight_range():
    p = make_block(8, 2, 31)
    z = Rng(32).normal((3, 6, 8))
    prior = Rng(33).normal((3, 1, 8))
    _, pw = axis_attention(z, prior, p)
    assert np.all((pw > 0.0) & (pw < 1.0))


def test_axis_attention_value_scaling():
    # scaling wv by lambda scales the pre-projection context, hence the
    # output, by exactly lambda
    p = make_block(4, 2, 41)
    z = Rng(42).normal((2, 3, 4))
    prior = Rng(43).normal((2, 1, 4))
    base, _ = axis_attention(z, prior, p)
    p.wv = 2.5 * p.wv
    scaled, _ = axis_attention(z, prior, p)
    assert np.max(np.abs(scaled - 2.5 * base)) < 1e-12


def test_axis_attention_head_divisibility():
    p = make_block(4, 2, 1)
    p.n_heads = 3
    with pytest.raises(ParameterError):
        axis_attention(np.zeros((1, 2, 4)), np.zeros((1, 1, 4)), p)


def test_axis_attention_returns_fresh_arrays():
    # results must not alias internal scratch across calls
    p = make_block(4, 2, 51)
    z1, pr1 = Rng(52).normal((2, 3, 4)), Rng(53).normal((2, 1, 4))
    out1, pw1 = axis_attention(z1, pr1, p)
    saved, saved_pw = out1.copy(), pw1.copy()
    axis_attention(Rng(54).normal((2, 3, 4)), Rng(55).normal((2, 1, 4)), p)
    assert np.array_equal(out1, saved)
    assert np.array_equal(pw1, saved_pw)


# --- ffn / gelu -----------------------------------------------------------

def test_gelu_analytic_limits():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-6


def test_ffn_zero_weights():
    p = make_block(4, 2, 61)
    p.w1 = np.zeros_like(p.w1)
    p.w2 = np.zeros_like(p.w2)
    out = ffn(Rng(62).normal((3, 5, 4)), p)
    assert np.array_equal(out, np.zeros_like(out))


def test_ffn_transcription_oracle():
    p = make_block(6, 2, 63)
    x = Rng(64).normal((4, 3, 6))
    want = (gelu(x.reshape(-1, 6) @ p.w1) @ p.w2).reshape(x.shape)
    assert np.max(np.abs(ffn(x, p) - want)) < 1e-12


def test_ffn_chunking_invariance(monkeypatch):
    # results are independent of the internal row-tile size
    from scmbench import core
    p = make_block(8, 2, 65)
    x = Rng(66).normal((500, 3, 8))
    base = ffn(x, p)
    monkeypatch.setattr(core, "_TILE_TOKENS", 7)
    assert np.array_equal(ffn(x, p), base)


# --- block forwards vs. transcription oracle ------------------------------

def test_spatial_forward_oracle():
    dims, model, priors, z = make_setup(1, 1, 2, 2, 2, n_heads=1, seed=70)
    p = model.layers[0].chain.spatial
    so = spatial_forward(z, priors.k_s, p)
    f, v, h, w, c = dims.latent_shape
    layout = (lambda t: t.reshape(f * v, h * w, c),
              lambda t: t.reshape(f, v, h, w, c))
    want_out, want_att = oracle_block(z, priors.k_s.reshape(f * v, 1, c), p,
                                      layout)
    assert np.max(np.abs(so.out - want_out)) < 1e-12
    assert np.max(np.abs(so.attention - want_att)) < 1e-12


def test_spatial_forward_degenerate_axis():
    dims, model, priors, z = make_setup(2, 2, 1, 1, 4, seed=71)
    so = spatial_forward(z, priors.k_s, model.layers[0].chain.spatial)
    assert so.semantic.shape == (2, 2, 1, 1)
    assert np.all((so.semantic > 0.0) & (so.semantic < 1.0))


def test_spatial_forward_zero_weights():
    dims, model, priors, z = make_setup(2, 2, 4, 4, 8, seed=72)
    p = model.layers[0].chain.spatial
    p.wv = np.zeros_like(p.wv)
    p.w2 = np.zeros_like(p.w2)
    so = spatial_forward(z, priors.k_s, p)
    assert np.array_equal(so.out, np.zeros_like(so.out))


def test_camera_forward_oracle():
    dims, model, priors, z = make_setup(2, 3, 2, 2, 4, seed=73)
    p = model.layers[0].chain.camera
    co = camera_forward(z, priors.k_c, p)
    f, v, h, w, c = dims.latent_shape
    l = h * w
    layout = (
        lambda t: t.reshape(f, v, l, c).transpose(0, 2, 1, 3).reshape(f * l, v, c),
        lambda t: t.reshape(f, l, v, c).transpose(0, 2, 1, 3).reshape(f, v, h, w, c),
    )
    want_out, want_att = oracle_block(z, priors.k_c.reshape(f * l, 1, c), p,
                                      layout)
    assert np.max(np.abs(co.out - want_out)) < 1e-12
    assert np.max(np.abs(co.attention - want_att)) < 1e-12


def test_camera_forward_degenerate_axis():
    dims, model, priors, z = make_setup(2, 1, 3, 3, 4, seed=74)
    co = camera_forward(z, priors.k_c, model.layers[0].chain.camera)
    assert np.all(np.isfinite(co.out))
    again = camera_forward(z, priors.k_c, model.layers[0].chain.camera)
    assert np.array_equal(co.out, again.out)


def test_camera_forward_view_permutation_equivariance():
    dims, model, priors, z = make_setup(2, 3, 2, 2, 4, seed=75)
    p = model.layers[0].chain.camera
    perm = [2, 0, 1]
    base = camera_forward(z, priors.k_c, p)
    permuted = camera_forward(z[:, perm], priors.k_c, p)
    assert np.max(np.abs(permuted.out - base.out[:, perm])) < 1e-12


def test_motion_forward_oracle():
    dims, model, priors, z = make_setup(3, 2, 2, 2, 4, seed=76)
    p = model.layers[0].chain.motion
    mo = motion_forward(z, priors.k_m, p)
    f, v, h, w, c = dims.latent_shape
    l = h * w
    layout = (
        lambda t: t.reshape(f, v, l, c).transpose(1, 2, 0, 3).reshape(v * l, f, c),
        lambda t: t.reshape(v, l, f, c).transpose(2, 0, 1, 3).reshape(f, v, h, w, c),
    )
    want_out, want_att = oracle_block(z, priors.k_m.reshape(v * l, 1, c), p,
                                      layout)
    assert np.max(np.abs(mo.out - want_out)) < 1e-12
    assert np.max(np.abs(mo.attention - want_att)) < 1e-12


def test_motion_forward_degenerate_axis():
    dims, model, priors, z = make_setup(1, 2, 3, 3, 4, seed=77)
    mo = motion_forward(z, priors.k_m, model.layers[0].chain.motion)
    assert np.all(np.isfinite(mo.out))


def test_motion_forward_frame_permutation_equivariance():
    dims, model, priors, z = make_setup(3, 2, 2, 2, 4, seed=78)
    p = model.layers[0].chain.motion
    perm = [1, 2, 0]
    base = motion_forward(z, priors.k_m, p)
    permuted = motion_forward(z[perm], priors.k_m, p)
    assert np.max(np.abs(permuted.out - base.out[perm])) < 1e-12


def test_axis_block_rejects_a_wrong_prior_and_a_pruned_spatial_block(
        small_setup):
    _, model, priors, z = small_setup
    w = model.layers[0].chain.camera
    with pytest.raises(ShapeError, match="camera prior"):
        axis_block(z, "camera", priors.k_m[:1], w)
    with pytest.raises(ShapeError, match="latent"):
        axis_block(z[0], "camera", priors.k_c, w)
    with pytest.raises(ShapeError, match="cached motion"):
        axis_block(z, "motion", priors.k_m, w, keep=np.zeros((2, 1), int),
                   cached=z[:1])
    with pytest.raises(ParameterError, match="never pruned"):
        axis_block(z, "spatial", priors.k_s, w, keep=np.zeros((2, 1), int),
                   cached=z)


# --- chain ----------------------------------------------------------------

def test_chain_equals_manual_composition(small_setup):
    dims, model, priors, z = small_setup
    chain = model.layers[0].chain
    a, (so, co, mo) = chain_forward(z, priors, chain)
    so2 = spatial_forward(z, priors.k_s, chain.spatial)
    co2 = camera_forward(so2.out, priors.k_c, chain.camera)
    mo2 = motion_forward(co2.out, priors.k_m, chain.motion)
    assert np.array_equal(a, mo2.out)
    assert np.array_equal(so.attention, so2.attention)
    assert np.array_equal(co.attention, co2.attention)
    assert np.array_equal(mo.attention, mo2.attention)


def test_chain_pure_function(small_setup):
    dims, model, priors, z = small_setup
    a1, _ = chain_forward(z, priors, model.layers[0].chain)
    a2, _ = chain_forward(z, priors, model.layers[0].chain)
    assert np.array_equal(a1, a2)


def test_chain_zero_weights(small_setup):
    dims, model, priors, z = small_setup
    chain = model.layers[0].chain
    for p in (chain.spatial, chain.camera, chain.motion):
        for name in ("wq", "wk", "wv", "wo", "w1", "w2"):
            setattr(p, name, np.zeros_like(getattr(p, name)))
    a, _ = chain_forward(z, priors, chain)
    assert np.array_equal(a, np.zeros_like(a))


# --- FLOP accounting ------------------------------------------------------

def _chain_flop_model(f, v, h, w, c, nh):
    l = h * w
    att = (attention_flop_count(f * v, l, c, nh)
           + attention_flop_count(f * l, v, c, nh)
           + attention_flop_count(v * l, f, c, nh))
    return att, 3 * ffn_flop_count(f * v * l, c)


def test_chain_flops_closed_form():
    dims, model, priors, z = make_setup(5, 8, 16, 16, 64, layers=1)
    counters = CostCounters()
    chain_forward(z, priors, model.layers[0].chain, counters)
    att, ffn_flops = _chain_flop_model(5, 8, 16, 16, 64, 2)
    assert counters.flops_attention == att
    assert counters.flops_ffn == ffn_flops


def test_chain_flops_axis_scaling():
    # doubling the frame axis matches the closed-form model
    for f in (2, 4):
        dims, model, priors, z = make_setup(f, 2, 4, 4, 8, layers=1)
        counters = CostCounters()
        chain_forward(z, priors, model.layers[0].chain, counters)
        att, _ = _chain_flop_model(f, 2, 4, 4, 8, 2)
        assert counters.flops_attention == att


def test_dense_flops_exceed_pruned_tokens():
    # attention over n tokens costs strictly more than over k < n
    assert (attention_flop_count(10, 16, 8, 2)
            > attention_flop_count(10, 4, 8, 2))
