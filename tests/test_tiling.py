"""Tiled block pipeline: outputs do not depend on the tile size, each
stage's working set is bounded by the tile, a chain pass holds only the
latents it still reads, neither the latent draw nor a step's update
makes a full-size temporary, and a stage writes over a latent only when
its owner passes it as ``out``, with the bytes a fresh call gives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scmbench import (
    camera_forward,
    motion_forward,
    spatial_forward,
    RollingCache,
    Rng,
    RunConfig,
    ShapeError,
    StepKind,
    axis_attention,
    cached_chain_forward,
    cosine_schedule,
    ddim_update,
    denoise_step,
    ffn,
    model_forward,
    identify_tokens,
    pruned_camera_forward,
    pruned_motion_forward,
)
from scmbench import core
from scmbench.attention import (AttentionSink, _attend_tile, _batch_tiles,
                                axis_block)
from scmbench.denoiser import mixing
from scmbench.scheduler import StepMode

from conftest import (config_at, make_block, make_setup, with_attention,
                      working_set)

F, V, H, W, C = 3, 5, 3, 4, 8
L = H * W
# Each axis's prior as its block takes it.
PRIOR_SHAPES = {"spatial": (F, V, 1, C), "camera": (F, H, W, C),
                "motion": (V, H, W, C)}


def _layouts(prior_seed: int):
    """(name, sequence view of a [F, V, L, C] array, prior) for the spatial,
    camera and motion readings of a latent; camera and motion are strided,
    as the block forwards read and write them."""
    rng = Rng(prior_seed)
    return [
        ("spatial", lambda a: a.reshape(1, F * V, L, C),
         rng.normal((1, F * V, 1, C))),
        ("camera", lambda a: a.transpose(0, 2, 1, 3), rng.normal((F, L, 1, C))),
        ("motion", lambda a: a.transpose(1, 2, 0, 3), rng.normal((V, L, 1, C))),
    ]


def _tiled_outputs():
    p = make_block(C, 2, 301)
    z = Rng(302).normal((F, V, H, W, C))
    addend = Rng(303).normal(z.shape)
    mix = Rng(304).normal((C, C))
    got = []
    for axis, view, prior in _layouts(305):
        got += axis_attention(view(z.reshape(F, V, L, C)), prior, p,
                              block="camera")
        # a dense block writes its attention beside the residual sum
        block, att = with_attention(axis_block, z, axis,
                                    prior.reshape(PRIOR_SHAPES[axis]), p)
        got += [block.out, att]
    got.append(ffn(z, p, addend=addend))
    got.append(mixing(z, mix))
    # the pruned blocks refill the cached attention in a stage of its own
    idx = identify_tokens(Rng(306).uniform((F, V, H, W)), 0.4)
    for forward, prior in ((pruned_camera_forward, (F, H, W, C)),
                           (pruned_motion_forward, (V, H, W, C))):
        block, att = with_attention(forward, z, Rng(307).normal(prior), p,
                                    idx, addend)
        got += [block.out, att]
    return [a.tobytes() for a in got]


def test_outputs_do_not_depend_on_tile_size_or_split(monkeypatch, split_into):
    want = None
    # one token (so one sequence a tile), an odd size, the default, and
    # more than the whole input holds
    for tile in (1, 23, core._TILE_TOKENS, 10**9):
        for parts in (1, 2, 3):
            split_into(parts)
            monkeypatch.setattr(core, "_TILE_TOKENS", tile)
            got = _tiled_outputs()
            if want is None:
                want = got
            assert got == want, (tile, parts)


@given(outer=st.integers(1, 6), inner=st.integers(1, 6),
       weight=st.integers(1, 5), tile=st.integers(1, 12))
def test_batch_tiles_cover_the_grid_in_rectangles(outer, inner, weight, tile):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TILE_TOKENS", tile)
        got = _batch_tiles(outer, inner, weight)
    cells = []
    for o0, o1, i0, i1 in got:
        # part of one row, or whole rows
        assert 0 <= o0 < o1 <= outer and 0 <= i0 < i1 <= inner
        assert o1 - o0 == 1 or (i0, i1) == (0, inner)
        assert (o1 - o0) * (i1 - i0) * weight >= min(2, outer * inner * weight)
        cells += [o * inner + i for o in range(o0, o1) for i in range(i0, i1)]
    assert cells == list(range(outer * inner))


def test_one_token_call_matches_its_row_in_a_batch_of_two():
    # a call that is one one-token sequence is a one-row tile, which the
    # output projection pads to two rows; in a batch of two the same
    # sequence shares a two-row tile
    p = make_block(C, 2, 306)
    z = Rng(307).normal((2, 1, C))
    prior = Rng(308).normal((2, 1, C))
    one = axis_attention(z[None, :1], prior[None, :1], p)
    two = axis_attention(z[None], prior[None], p)
    assert [a.tobytes() for a in one] == [a[:, :1].tobytes() for a in two]


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
            np.ascontiguousarray(seq).reshape(1, -1, n, C),
            prior.reshape(1, -1, 1, C), p)
        assert np.array_equal(
            np.ascontiguousarray(out).reshape(1, -1, n, C), flat), name
        assert np.array_equal(pw.reshape(1, -1, n), flat_pw), name


@pytest.mark.parametrize("axis", ["spatial", "camera", "motion"])
def test_a_sink_changes_no_bit_of_a_dense_block(monkeypatch, axis):
    # The attention tiles write the sink's copy beside the residual sum, so
    # the block's output is the sinkless one, bit for bit, and the copy is
    # a fresh axis_attention result in the latent's order.
    p = make_block(C, 2, 401)
    z = Rng(402).normal((F, V, H, W, C))
    view, prior = {name: (view, prior)
                   for name, view, prior in _layouts(403)}[axis]
    for tile in (23, core._TILE_TOKENS):
        monkeypatch.setattr(core, "_TILE_TOKENS", tile)
        plain = axis_block(z, axis, prior.reshape(PRIOR_SHAPES[axis]), p)
        block, att = with_attention(axis_block, z, axis,
                                    prior.reshape(PRIOR_SHAPES[axis]), p)
        assert block.out.tobytes() == plain.out.tobytes(), tile
        fresh, _ = axis_attention(view(z.reshape(F, V, L, C)), prior, p)
        assert att.shape == z.shape and att.flags.c_contiguous
        assert view(att.reshape(F, V, L, C)).tobytes() == fresh.tobytes()


def test_ffn_addend_is_the_residual():
    p = make_block(C, 2, 321)
    x = Rng(322).normal((F, V, L, C))
    a = Rng(323).normal(x.shape)
    assert np.array_equal(ffn(x, p, addend=a), ffn(x + a, p))


def _stage_calls(scale: int):
    """(name, call) for attention at the three default sequence lengths,
    FFN with an addend and mixing, all on ``scale`` times a base batch at
    C = 64; every input exists before its call is made."""
    c = 64
    p = make_block(c, 2, 331)
    rng = Rng(332)
    calls = []
    for n, batch in ((256, 8), (8, 256), (5, 408)):
        z = rng.normal((batch * scale, n, c))
        prior = rng.normal((batch * scale, 1, c))
        calls.append((f"attention n={n}",
                      lambda z=z, prior=prior: axis_attention(z[None],
                                                              prior[None], p)))
    x = rng.normal((2 * scale, 4, 16, 16, c))
    mix = rng.normal((c, c))
    calls.append(("ffn", lambda: (ffn(x, p, addend=x),)))
    calls.append(("mixing", lambda: (mixing(x, mix),)))
    return calls


def test_working_set_is_bounded_by_the_tile(monkeypatch):
    # Each stage's temporaries at B and at 4B sequences: the same bytes,
    # give or take Python objects, and no more than a few tiles' worth.
    # A stage that made a full-size temporary would grow with the batch.
    # One part, so the peak is one thread's working set, not two at once.
    monkeypatch.setattr(core, "_PARTS", 1)
    tracemalloc.start()
    try:
        sizes = [{name: working_set(call)
                  for name, call in _stage_calls(scale)} for scale in (1, 4)]
    finally:
        tracemalloc.stop()
    for name, small in sizes[0].items():
        big = sizes[1][name]
        assert abs(big - small) < 2**20, (name, small, big)
        assert max(small, big) < 12 * 2**20, (name, small, big)


def test_chain_working_set_is_four_latents_at_most(monkeypatch):
    # A chain pass holds the current block's input, attention and output,
    # and a tile's temporaries; with a cache, also the attention it is
    # about to store, each in place of the stale entry it releases. A pass
    # that kept every block's output and attention to the end would peak
    # at 6.5 latents with no cache and 4.5 with a stale one.
    monkeypatch.setattr(core, "_PARTS", 1)
    model, priors, z = make_setup(config_at(5, 8, 16, 16, 64, seed=341))
    chain = model.layers[0].chain
    cache = RollingCache()
    tracemalloc.start()
    try:
        # Traced from the first store on, so that freeing a stale entry
        # counts.
        cached_chain_forward(z, priors, chain, cache, 0, 0)
        peaks = {}
        for name, c in (("no cache", None), ("stale cache", cache)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cached_chain_forward(z, priors, chain, c, 0, 1)
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    for name, peak in peaks.items():
        assert peak <= 4 * z.nbytes, (name, peak / z.nbytes)


@pytest.fixture
def traced_serial(monkeypatch):
    """tracemalloc on, and one part, so a peak is one thread's."""
    monkeypatch.setattr(core, "_PARTS", 1)
    tracemalloc.start()
    yield
    tracemalloc.stop()


LATENT = RunConfig().latent_shape
LATENT_BYTES = 8 * math.prod(LATENT)


def _peak_latents(call) -> float:
    """Peak a call allocates, its output included, in default latents;
    the call returns one latent."""
    return 1 + working_set(lambda: (call(),)) / LATENT_BYTES


def test_latent_draw_peaks_at_one_and_a_half_latents(traced_serial):
    # Drawn a chunk at a time into the output; a one-pass draw held 4.5
    # latents (words, both uniforms, r and theta, the output).
    peak = _peak_latents(lambda: Rng(0).normal(LATENT))
    assert peak <= 1.5, peak


def test_ddim_update_peaks_at_one_latent_and_a_tile(traced_serial):
    # Tile by tile into the output; the whole-array expression held 3.
    z_t, z0_hat = Rng(1).normal(LATENT), Rng(2).normal(LATENT)
    schedule = cosine_schedule(8)
    peak = _peak_latents(lambda: ddim_update(z_t, z0_hat, 3, schedule))
    assert peak <= 1.1, peak


def test_dense_step_peaks_at_one_point_six_latents(traced_serial):
    # Above its input: the one latent the step owns, which every stage
    # writes over, and a tile's temporaries. A step whose stages each
    # returned a fresh latent, with a full-size attention array per
    # block, peaked at 3.28.
    model, priors, z = make_setup(config_at(*LATENT, seed=351))
    schedule = cosine_schedule(8)
    peak = _peak_latents(lambda: denoise_step(
        model, z, 8, priors, schedule, StepMode(StepKind.DENSE)))
    assert peak <= 1.6, peak


def test_reuse_pass_peaks_at_one_point_three_latents(traced_serial):
    # Above its input: the one latent the pass owns, which each FFN
    # writes over, and a tile's temporaries. A pass whose FFNs each
    # returned a fresh latent peaked at 2.25.
    model, priors, z = make_setup(config_at(*LATENT, seed=361))
    cache = RollingCache()
    model_forward(model, z, priors, StepMode(StepKind.DENSE), 0, cache)
    peak = _peak_latents(lambda: model_forward(
        model, z, priors, StepMode(StepKind.REUSE), 1, cache))
    assert peak <= 1.3, peak


# Array headers and Python objects a traced peak holds beside the arrays.
OBJECT_BYTES = 16 * 2**10


@pytest.mark.parametrize("ot, it, n", [(1, 1, 256), (1, 64, 8), (1, 128, 5)],
                         ids=["spatial", "camera", "motion"])
def test_an_attention_tile_holds_only_its_live_set(traced_serial, ot, it, n):
    # One tile of each block at the default dims (H*W = 256, V = 8, F = 5,
    # C = 64, 2 heads). It holds kv and qkv while it projects, then qkv,
    # the scores and the merged heads; a tile that kept kv, the scores and
    # qkv to its end peaked at 1.84, 1.78 and 2.29 MB.
    c, nh = 64, 2
    p = make_block(c, nh, 409)
    w_qkv = np.concatenate((p.wq, p.wk, p.wv), axis=1)
    z = Rng(410).normal((ot, it, n, c))
    prior = Rng(411).normal((ot, it, 1, c))
    prior_weight, total = np.empty((ot, it, n)), np.empty_like(z)

    def call():
        _attend_tile(z, prior, prior_weight, None, total, p, w_qkv)
        return ()

    peak = working_set(call)
    t = ot * it
    kv, qkv = 8 * t * (n + 1) * c, 8 * t * (n + 1) * 3 * c
    scores, merged = 8 * t * nh * n * (n + 1), 8 * t * n * c
    live = max(kv + qkv, qkv + scores + merged)
    assert peak <= live + OBJECT_BYTES, (peak, live)


def test_an_ffn_tile_holds_only_its_hidden_activation(traced_serial):
    # One 512-row tile with an addend: beyond its output, the hidden
    # activation and GELU's temporary. Keeping x + addend to the end of
    # the tile peaked a quarter higher.
    c = 64
    p = make_block(c, 2, 412)
    x, addend = Rng(413).normal((512, c)), Rng(414).normal((512, c))
    peak = working_set(lambda: (ffn(x, p, addend=addend),))
    hidden = 8 * 512 * 2 * c
    assert peak <= 2 * hidden + OBJECT_BYTES, (peak, hidden)


@pytest.mark.parametrize("forward, axis", [
    (pruned_camera_forward, "camera"), (pruned_motion_forward, "motion")])
def test_a_pruned_block_attends_its_kept_rows_in_place(traced_serial, forward,
                                                       axis):
    # A pruned block at the default dims (K = 52 of 256), with a sink, as a
    # prune step runs it. Beyond the attention it hands over, it holds one
    # FFN tile with an addend or one attention tile's live set and its
    # gathered rows: no K-size copy of the latent or of its attention. A
    # block that gathered a kept latent and returned a kept attention
    # peaked at 2.154 MB above the entry.
    f, v, h, w, c = LATENT
    p = make_block(c, 2, 415)
    z, cached = Rng(416).normal(LATENT), Rng(417).normal(LATENT)
    idx = identify_tokens(Rng(418).uniform((f, v, h, w)), 0.2)
    prior = Rng(419).normal((f if axis == "camera" else v, h, w, c))
    taken = []
    sink = AttentionSink(lambda: None, taken.append)

    def call():
        forward(z, prior, p, idx, cached, out=z, sink=sink)
        return (taken.pop(),)

    peak = working_set(call)
    o, k, n = (f, idx.i_c.shape[1], v) if axis == "camera" else \
        (v, idx.i_m.shape[1], f)
    t = max((o1 - o0) * (i1 - i0) for o0, o1, i0, i1 in _batch_tiles(
        o, k, max(n, 2 * n * (n + 1) // 256)))
    kv, qkv = 8 * t * (n + 1) * c, 8 * t * (n + 1) * 3 * c
    scores, merged = 8 * t * 2 * n * (n + 1), 8 * t * n * c
    attention_tile = max(kv + qkv, qkv + scores + merged) + 8 * t * n * c
    ffn_tile = 2 * 8 * 512 * 2 * c
    assert peak <= max(attention_tile, ffn_tile) + OBJECT_BYTES, \
        (peak, attention_tile, ffn_tile)


def _stages(f, v, h, w, c, seed):
    """(name, call) for every stage that can write over the latent it is
    given. ``call(inputs, None)`` returns a fresh result, and
    ``call(inputs, inputs["z"])`` writes it over the stage's input. A call
    reads its latent and second operand from the dict ``inputs``
    ("z" and "att"), so a test can hand each call fresh copies."""
    p = make_block(c, 2, seed)
    rng = Rng(seed + 1)
    idx = identify_tokens(rng.uniform((f, v, h, w)), 0.4)
    k_s = rng.normal((f, v, 1, c))
    k_c, k_m = rng.normal((f, h, w, c)), rng.normal((v, h, w, c))
    mix = rng.normal((c, c))
    schedule = cosine_schedule(8)
    seq = lambda a: a.reshape(f, v, h * w, c).transpose(0, 2, 1, 3)

    def attention_sum(a, out):
        # camera attention plus its input, taken with residual_out in place
        z, prior = a["z"], seq(a["att"])[:, :, :1]
        if out is not None:
            axis_attention(seq(z), prior, p, residual_out=seq(out))
            return out
        att = axis_attention(seq(z), prior, p)[0]
        return z + att.transpose(0, 2, 1, 3).reshape(z.shape)

    return [
        ("ffn", lambda a, out: ffn(a["z"], p, addend=a["att"], out=out)),
        ("ffn without addend", lambda a, out: ffn(a["z"], p, out=out)),
        ("mixing", lambda a, out: mixing(a["z"], mix, out=out)),
        ("ddim_update", lambda a, out: ddim_update(a["z"], a["att"], 3,
                                                   schedule, out=out)),
        ("axis_attention", lambda a, out: attention_sum(a, out)),
        *[(f"{fwd.__name__} {'with' if sink else 'without'} a sink",
           lambda a, out, fwd=fwd, prior=prior, sink=sink:
               fwd(a["z"], prior, p, out=out, sink=sink).out)
          for fwd, prior in ((spatial_forward, k_s), (camera_forward, k_c),
                             (motion_forward, k_m))
          for sink in (None, AttentionSink(lambda: None, lambda att: None))],
        ("pruned_camera_forward", lambda a, out: pruned_camera_forward(
            a["z"], k_c, p, idx, a["att"], out=out).out),
        ("pruned_motion_forward", lambda a, out: pruned_motion_forward(
            a["z"], k_m, p, idx, a["att"], out=out).out),
    ]


def _inputs(shape, seed):
    return {"z": Rng(seed).normal(shape), "att": Rng(seed + 1).normal(shape)}


def test_plain_calls_leave_their_inputs_untouched():
    shape = (F, V, H, W, C)
    for name, call in _stages(*shape, seed=371):
        a = _inputs(shape, 372)
        before = {k: x.tobytes() for k, x in a.items()}
        call(a, None)
        assert {k: x.tobytes() for k, x in a.items()} == before, name


@pytest.mark.parametrize("shape", [(F, V, H, W, C), (F, V, 1, 1, C),
                                   (1, 1, 1, 1, C)],
                         ids=["odd", "H=W=1", "one token"])
def test_in_place_calls_match_fresh_ones(shape):
    # One token: every attention call is one one-token sequence, which the
    # output projection pads to two rows.
    for name, call in _stages(*shape, seed=381):
        fresh = call(_inputs(shape, 382), None).tobytes()
        a = _inputs(shape, 382)
        got = call(a, a["z"])
        assert got.tobytes() == fresh, name
        assert np.shares_memory(got, a["z"]), name


def test_ddim_update_over_its_own_input():
    # z_t is z0_hat, written over, and each of the two given as out
    schedule = cosine_schedule(8)
    z_t, z0_hat = Rng(391).normal(LATENT), Rng(392).normal(LATENT)
    for t in (1, 8):
        same = ddim_update(z_t, z_t, t, schedule).tobytes()
        z = z_t.copy()
        assert ddim_update(z, z, t, schedule, out=z).tobytes() == same, t
        fresh = ddim_update(z_t, z0_hat, t, schedule).tobytes()
        for which in (0, 1):
            pair = [z_t.copy(), z0_hat.copy()]
            got = ddim_update(*pair, t, schedule, out=pair[which])
            assert got.tobytes() == fresh, (t, which)


def test_out_must_be_a_contiguous_float64_array_of_the_shape():
    p = make_block(C, 2, 397)
    z = Rng(398).normal((F, V, H, W, C))
    for bad in (np.empty((F, V, H, W, C + 1)), np.empty((C, W, H, V, F)).T,
                np.empty(z.shape, dtype=np.float32)):
        with pytest.raises(ShapeError, match="out"):
            ffn(z, p, out=bad)


def test_chain_in_place_matches_fresh():
    # A pass that owns its latent, with a stale cache and no cache, pruned
    # and dense, gives the plain call's bytes.
    model, priors, z = make_setup(config_at(2, 3, 4, 4, 8, seed=395))
    chain = model.layers[0].chain
    select = lambda q: identify_tokens(q, 0.4)
    for sel, cached in ((None, False), (None, True), (select, True)):
        outs = []
        for in_place in (False, True):
            cache = RollingCache() if cached else None
            if cached:
                cached_chain_forward(z, priors, chain, cache, 0, 0)
            a = z.copy()
            outs.append(cached_chain_forward(
                a, priors, chain, cache, 0, 1, select=sel,
                out=a if in_place else None).tobytes())
        assert outs[0] == outs[1], (sel, cached)
