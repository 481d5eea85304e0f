"""Tiled block pipeline: outputs do not depend on the tile size, scratch
stays bounded by the tile, and nothing returned aliases scratch."""

import threading

import numpy as np
import pytest

from scmbench import (
    Rng,
    RollingCache,
    axis_attention,
    camera_forward,
    ffn,
    identify_tokens,
    model_forward,
    motion_forward,
    pruned_camera_forward,
    pruned_motion_forward,
    spatial_forward,
)
from scmbench import core
from scmbench.denoiser import mixing
from scmbench.scheduler import StepKind, StepMode

from conftest import make_block, make_setup

F, V, H, W, C = 3, 5, 3, 4, 8
L = H * W


def _layouts(prior_seed: int):
    """(name, sequence view of a [F, V, L, C] array, prior) for the spatial,
    camera and motion readings of a latent; camera and motion are strided,
    as the block forwards read and write them."""
    rng = Rng(prior_seed)
    return [
        ("spatial", lambda a: a.reshape(F * V, L, C),
         rng.normal((F * V, 1, C))),
        ("camera", lambda a: a.transpose(0, 2, 1, 3), rng.normal((F, L, 1, C))),
        ("motion", lambda a: a.transpose(1, 2, 0, 3), rng.normal((V, L, 1, C))),
    ]


def _tiled_outputs():
    p = make_block(C, 2, 301)
    z = Rng(302).normal((F, V, H, W, C))
    addend = Rng(303).normal(z.shape)
    mix = Rng(304).normal((C, C))
    got = []
    for _, view, prior in _layouts(305):
        got += axis_attention(view(z.reshape(F, V, L, C)), prior, p,
                              block="camera")
    got.append(ffn(z, p, addend=addend))
    got.append(mixing(z, mix))
    # the pruned blocks refill the cached attention inside the FFN's tiles
    idx = identify_tokens(Rng(306).uniform((F, V, H, W)), 0.4)
    for forward, prior in ((pruned_camera_forward, (F, H, W, C)),
                           (pruned_motion_forward, (V, H, W, C))):
        block = forward(z, Rng(307).normal(prior), p, idx, addend)
        got += [block.out, block.attention]
    return [a.tobytes() for a in got]


@pytest.fixture
def split_into(monkeypatch):
    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PARTS", parts)
        monkeypatch.setattr(core, "_MIN_PART_ROWS", 1)
    return force


def test_outputs_do_not_depend_on_tile_size_or_split(monkeypatch, split_into):
    want = None
    # one token (so one sequence a tile), an odd size, the default, and
    # more than any part holds
    for tile in (1, 23, core._TILE_TOKENS, 10**9):
        monkeypatch.setattr(core, "_TILE_TOKENS", tile)
        for parts in (1, 2, 3):
            split_into(parts)
            got = _tiled_outputs()
            if want is None:
                want = got
            assert got == want, (tile, parts)


def test_one_token_sequences_split_mid_row(split_into):
    # [3, 3] batch of one-token sequences in two parts: the second part
    # starts one sequence into row 1, so that sequence is a tile alone
    p = make_block(C, 2, 306)
    z = Rng(307).normal((3, 3, 1, C))
    prior = Rng(308).normal((3, 3, 1, C))
    split_into(1)
    want = [a.tobytes() for a in axis_attention(z, prior, p)]
    split_into(2)
    assert [a.tobytes() for a in axis_attention(z, prior, p)] == want


def test_strided_layouts_match_contiguous_copies(monkeypatch):
    # reading transposed views gives what contiguous copies of the same
    # sequences give, byte for byte, and the output comes back in the
    # latent's memory order
    monkeypatch.setattr(core, "_TILE_TOKENS", 23)
    p = make_block(C, 2, 311)
    z4 = Rng(312).normal((F, V, L, C))
    for name, view, prior in _layouts(313):
        seq = view(z4)
        n = seq.shape[-2]
        out, pw = axis_attention(seq, prior, p)
        assert out.strides == seq.strides, name
        flat, flat_pw = axis_attention(
            np.ascontiguousarray(seq).reshape(-1, n, C),
            prior.reshape(-1, 1, C), p)
        assert np.array_equal(
            np.ascontiguousarray(out).reshape(-1, n, C), flat), name
        assert np.array_equal(pw.reshape(-1, n), flat_pw), name


def test_ffn_addend_is_the_residual():
    p = make_block(C, 2, 321)
    x = Rng(322).normal((F, V, L, C))
    a = Rng(323).normal(x.shape)
    assert np.array_equal(ffn(x, p, addend=a), ffn(x + a, p))


def _pool_bytes() -> int:
    return sum(buf.nbytes for buf in core._POOL.buffers.values())


def _run_blocks(scale: int) -> None:
    """Attention at the three default sequence lengths, FFN with an addend
    and mixing, all on ``scale`` times a base batch, at C = 64."""
    c = 64
    p = make_block(c, 2, 331)
    rng = Rng(332)
    for n, batch in ((256, 8), (8, 256), (5, 408)):
        b = batch * scale
        axis_attention(rng.normal((b, n, c)), rng.normal((b, 1, c)), p)
    x = rng.normal((2 * scale, 4, 16, 16, c))
    ffn(x, p, addend=x)
    mixing(x, rng.normal((c, c)))


def test_scratch_is_bounded_by_the_tile(monkeypatch):
    # A thread's pool after blocks at B and at 4B sequences: the same
    # bytes, and no more than a few tiles' worth. A stage that kept a
    # full-size buffer would grow with the batch.
    monkeypatch.setattr(core, "_PARTS", 1)
    sizes = []

    def measure():
        for scale in (1, 4):
            _run_blocks(scale)
            sizes.append(_pool_bytes())

    worker = threading.Thread(target=measure)  # starts with an empty pool
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert len(sizes) == 2
    assert sizes[0] == sizes[1]
    assert sizes[0] < 12 * 2**20


def _assert_fresh(*values) -> None:
    for value in values:
        for buf in core._POOL.buffers.values():
            assert value is None or not np.shares_memory(value, buf)


def test_returned_values_never_alias_scratch(monkeypatch):
    # everything runs on this thread, so its pool holds every buffer used
    monkeypatch.setattr(core, "_PARTS", 1)
    dims, model, priors, z = make_setup(2, 3, 4, 4, 8, layers=3, seed=340)
    chain = model.layers[0].chain
    _assert_fresh(*axis_attention(z.reshape(6, 16, 8),
                                  priors.k_s.reshape(6, 1, 8), chain.spatial))
    _assert_fresh(ffn(z, chain.spatial), ffn(z, chain.spatial, addend=z),
                  mixing(z, model.layers[0].mix))
    so = spatial_forward(z, priors.k_s, chain.spatial)
    co = camera_forward(so.out, priors.k_c, chain.camera)
    mo = motion_forward(co.out, priors.k_m, chain.motion)
    idx = identify_tokens(so.semantic, 0.5)
    pco = pruned_camera_forward(so.out, priors.k_c, chain.camera, idx,
                                co.attention)
    pmo = pruned_motion_forward(co.out, priors.k_m, chain.motion, idx,
                                mo.attention)
    for block in (so, co, mo, pco, pmo):
        _assert_fresh(block.out, block.attention, block.semantic)

    dense = StepMode(StepKind.DENSE)
    cache = RollingCache()
    _assert_fresh(
        model_forward(model, z, priors, dense, 0),
        model_forward(model, z, priors, dense, 0, cache),
        model_forward(model, z, priors, StepMode(StepKind.REUSE), 1, cache),
        # every chain bypassed: the last mixing output is the result
        model_forward(model, z, priors,
                      StepMode(StepKind.DENSE, frozenset({0, 1, 2})), 0),
    )
