"""Semantic token selection, the pruned blocks and the cached chain step."""

import numpy as np
import pytest

from scmbench import (
    CostCounters,
    ParameterError,
    RollingCache,
    Rng,
    run_benchmark,
    ShapeError,
    TokenIndexSet,
    cached_chain_forward,
    camera_forward,
    identify_tokens,
    motion_forward,
    pruned_camera_forward,
    pruned_motion_forward,
    random_tokens,
    spatial_forward,
    token_count,
)

from scmbench import attention
from scmbench.attention import AttentionSink

from conftest import (assert_same_bits, chain_forward, config_at, make_setup,
                      planted_latent, pruned_rows_reference,
                      random_tokens_reference, refill_reference,
                      row_topk_reference, with_attention)


def complement(row, length):
    """The positions of range(length) not in ``row``, ascending."""
    return np.setdiff1d(np.arange(length), row)


def semantic(ratio):
    """A selector that keeps the top ``ratio`` of the semantic map."""
    return lambda q_s: identify_tokens(q_s, ratio)


# --- token_count / identify_tokens ---------------------------------------

def test_token_count_rounding():
    assert token_count(4, 4, 0.2) == 4      # ceil(0.2 * 16)
    assert token_count(16, 16, 0.2) == 52   # ceil(0.2 * 256)
    assert token_count(4, 4, 1.0) == 16


def test_token_count_range():
    with pytest.raises(ParameterError):
        token_count(4, 4, 0.0)
    with pytest.raises(ParameterError):
        token_count(4, 4, 1.5)


def test_identify_ratio_one_selects_all():
    q_s = Rng(0).uniform((2, 3, 4, 4))
    idx = identify_tokens(q_s, 1.0)
    assert np.array_equal(idx.i_c, np.tile(np.arange(16), (2, 1)))
    assert np.array_equal(idx.i_m, np.tile(np.arange(16), (3, 1)))


def test_identify_hand_ranking():
    q_s = np.array([0.1, 0.9, 0.5, 0.2]).reshape(1, 1, 2, 2)
    idx = identify_tokens(q_s, 0.5)
    assert np.array_equal(idx.i_c, [[1, 2]])
    assert np.array_equal(idx.i_m, [[1, 2]])


def test_identify_complements_partition():
    q_s = Rng(1).uniform((3, 2, 4, 4))
    idx = identify_tokens(q_s, 0.25)
    for keep in (idx.i_c, idx.i_m):
        for row_k in keep:
            # distinct positions in range: kept and rest add up to all 16
            row_c = complement(row_k, 16)
            assert len(row_k) + len(row_c) == 16
            union = np.sort(np.concatenate([row_k, row_c]))
            assert np.array_equal(union, np.arange(16))


def test_identify_planted_region():
    # cells with 10x weight across views must land in every frame's list
    q_s = np.full((3, 2, 4, 4), 0.05)
    planted = [3, 7, 9]
    flat = q_s.reshape(3, 2, 16)
    flat[:, :, planted] = 0.5
    idx = identify_tokens(flat.reshape(3, 2, 4, 4), 0.25)  # k=4
    for f in range(3):
        assert set(planted) <= set(idx.i_c[f].tolist())


def test_random_tokens_structure():
    idx = random_tokens(2, 3, 4, 4, 0.25, Rng(7))
    assert idx.i_c.shape == (2, 4)
    assert idx.i_m.shape == (3, 4)
    for row in list(idx.i_c) + list(idx.i_m):
        assert np.all(np.diff(row) > 0)
    # deterministic in the stream
    again = random_tokens(2, 3, 4, 4, 0.25, Rng(7))
    assert np.array_equal(idx.i_c, again.i_c)


@pytest.mark.parametrize("shape, ratio", [((2, 3, 4, 4), 0.25),
                                          ((5, 8, 16, 16), 0.2),
                                          ((1, 1, 1, 1), 0.5),
                                          ((3, 2, 4, 5), 1.0)])
def test_identify_matches_the_stable_argsort(shape, ratio):
    f, v, h, w = shape
    k = token_count(h, w, ratio)
    for q_s in (Rng(9).uniform(shape),
                np.floor(Rng(10).uniform(shape) * 3)):  # many ties
        idx = identify_tokens(q_s, ratio)
        flat = q_s.reshape(f, v, h * w)
        assert np.array_equal(idx.i_c, row_topk_reference(flat.mean(1), k))
        assert np.array_equal(idx.i_m, row_topk_reference(flat.mean(0), k))


@pytest.mark.parametrize("shape, ratio", [((2, 3, 4, 4), 0.25),
                                          ((5, 8, 16, 16), 0.2),
                                          ((1, 1, 1, 1), 0.5),
                                          ((3, 2, 4, 5), 1.0)])
def test_random_tokens_are_the_per_row_argsort_draws(shape, ratio):
    f, v, h, w = shape
    k = token_count(h, w, ratio)
    rng, ref = Rng(11), Rng(11)
    for _ in range(2):  # a second draw continues the same stream
        idx = random_tokens(f, v, h, w, ratio, rng)
        i_c, i_m = random_tokens_reference(f, v, h * w, k, ref)
        assert np.array_equal(idx.i_c, i_c)
        assert np.array_equal(idx.i_m, i_m)


@pytest.mark.parametrize("mode", ["prune-only", "random-prune"])
def test_a_pruned_run_calls_no_numpy_sort_or_search(monkeypatch, mode):
    # A prune step's keep lists and refill run in the compiled kernels, so
    # it loads none of numpy's sort or search code.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy sort or search called")

    for name in ("sort", "argsort", "searchsorted"):
        monkeypatch.setattr(np, name, refuse)
    report = run_benchmark(config_at(2, 2, 4, 4, 8, layers=2, steps=5,
                                     mode=mode))
    assert "prune" in {r.kind for r in report.trace.steps}


def test_random_differs_from_semantic_on_planted():
    cfg = config_at(2, 2, 4, 4, 8, seed=80)
    model, priors, _ = make_setup(cfg)
    w_s = model.layers[0].chain.spatial
    cells = np.array([0, 5, 10, 15])
    z = planted_latent(cfg, w_s, priors.k_s, cells, Rng(81))
    so = spatial_forward(z, priors.k_s, w_s)
    sem = identify_tokens(so.semantic, 0.25)
    rnd = random_tokens(2, 2, 4, 4, 0.25, Rng(82))
    assert not np.array_equal(sem.i_c, rnd.i_c)
    assert set(sem.i_c[0].tolist()) == set(cells.tolist())


# --- pruned forwards ------------------------------------------------------

def _mask_oracle_camera(z_s, k_c, w, idx, cached):
    """Dense camera attention, non-selected positions overwritten by cache."""
    f, v, h, ww, c = z_s.shape
    _, dense = with_attention(camera_forward, z_s, k_c, w)
    att = dense.reshape(f, v, h * ww, c).copy()
    cached_flat = cached.reshape(f, v, h * ww, c)
    for fi in range(f):
        comp = complement(idx.i_c[fi], h * ww)
        att[fi, :, comp, :] = cached_flat[fi, :, comp, :]
    att = att.reshape(z_s.shape)
    from scmbench import ffn
    out = ffn((z_s + att).reshape(f * v, h * ww, c), w).reshape(z_s.shape)
    return out, att


def _mask_oracle_motion(z_c, k_m, w, idx, cached):
    f, v, h, ww, c = z_c.shape
    _, dense = with_attention(motion_forward, z_c, k_m, w)
    att = dense.reshape(f, v, h * ww, c).copy()
    cached_flat = cached.reshape(f, v, h * ww, c)
    for vi in range(v):
        comp = complement(idx.i_m[vi], h * ww)
        att[:, vi, comp, :] = cached_flat[:, vi, comp, :]
    att = att.reshape(z_c.shape)
    from scmbench import ffn
    out = ffn((z_c + att).reshape(f * v, h * ww, c), w).reshape(z_c.shape)
    return out, att


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
def test_pruned_camera_exact_vs_mask_oracle(ratio):
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=90))
    w = model.layers[0].chain.camera
    so = spatial_forward(z, priors.k_s, model.layers[0].chain.spatial)
    idx = identify_tokens(so.semantic, ratio)
    cached = Rng(91).normal(z.shape)
    got, got_att = with_attention(pruned_camera_forward, so.out, priors.k_c,
                                  w, idx, cached)
    want_out, want_att = _mask_oracle_camera(so.out, priors.k_c, w, idx, cached)
    assert np.max(np.abs(got_att - want_att)) == 0.0
    assert np.max(np.abs(got.out - want_out)) == 0.0


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0])
def test_pruned_motion_exact_vs_mask_oracle(ratio):
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=92))
    w = model.layers[0].chain.motion
    so = spatial_forward(z, priors.k_s, model.layers[0].chain.spatial)
    idx = identify_tokens(so.semantic, ratio)
    cached = Rng(93).normal(z.shape)
    got, got_att = with_attention(pruned_motion_forward, so.out, priors.k_m,
                                  w, idx, cached)
    want_out, want_att = _mask_oracle_motion(so.out, priors.k_m, w, idx, cached)
    assert np.max(np.abs(got_att - want_att)) == 0.0
    assert np.max(np.abs(got.out - want_out)) == 0.0


def test_pruned_complement_refill_bit_exact():
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=94))
    w = model.layers[0].chain.camera
    so = spatial_forward(z, priors.k_s, model.layers[0].chain.spatial)
    idx = identify_tokens(so.semantic, 0.5)
    cached = Rng(95).normal(z.shape)
    _, att = with_attention(pruned_camera_forward, so.out, priors.k_c, w,
                            idx, cached)
    att = att.reshape(2, 2, 16, 8)
    cached_flat = cached.reshape(2, 2, 16, 8)
    for fi in range(2):
        comp = complement(idx.i_c[fi], 16)
        assert np.array_equal(att[fi, :, comp, :], cached_flat[fi, :, comp, :])


# Keep lists one wrong way each, made from the well-formed rows [1, 5, 15]
# at H*W = 16, and the error each must raise.
_BAD_KEEP = {
    "reversed": (lambda k: k[:, ::-1], ParameterError),
    "duplicate": (lambda k: k[:, [0, 0, 2]], ParameterError),
    "negative": (lambda k: k - 2, ParameterError),
    "past-the-end": (lambda k: k + 1, ParameterError),
    "uint64-2^63": (lambda k: k.astype(np.uint64) + np.uint64(2 ** 63),
                    ParameterError),
    "row-short": (lambda k: k[:-1], ShapeError),
    "float": (lambda k: k.astype(float), ShapeError),
    "empty-rows": (lambda k: k[:, :0], ShapeError),
    "too-long": (lambda k: np.tile(np.arange(17), (len(k), 1)), ShapeError),
}


@pytest.mark.parametrize("bad", sorted(_BAD_KEEP))
@pytest.mark.parametrize("block", ["camera", "motion"])
def test_pruned_block_rejects_a_bad_keep_list(block, bad):
    # A keep list is G rows (F for camera, V for motion) of 1 to H*W
    # integers, strictly increasing within [0, H*W); nothing else reaches
    # the gather or the refill.
    model, priors, z = make_setup(config_at(2, 3, 4, 4, 8, seed=100))
    forward, prior, groups = {
        "camera": (pruned_camera_forward, priors.k_c, 2),
        "motion": (pruned_motion_forward, priors.k_m, 3)}[block]
    w = getattr(model.layers[0].chain, block)
    cached = Rng(101).normal(z.shape)
    keep = np.tile(np.array([1, 5, 15]), (groups, 1))
    forward(z, prior, w, TokenIndexSet(keep, keep), cached)  # well formed
    make, error = _BAD_KEEP[bad]
    with pytest.raises(error):
        forward(z, prior, w, TokenIndexSet(make(keep), make(keep)), cached)


@pytest.mark.parametrize("block", ["camera", "motion"])
def test_a_pruned_block_hands_its_entry_over_before_its_ffn(monkeypatch,
                                                            block):
    # The entry is whole once the refill stage has run: the kept rows'
    # attention, which is the dense block's, and every other row from the
    # cache, as the numpy refill reference copies them.
    cfg = config_at(2, 3, 4, 4, 8, seed=104)
    model, priors, z = make_setup(cfg)
    forward, dense_forward, prior = {
        "camera": (pruned_camera_forward, camera_forward, priors.k_c),
        "motion": (pruned_motion_forward, motion_forward, priors.k_m)}[block]
    w = getattr(model.layers[0].chain, block)
    idx = identify_tokens(Rng(105).uniform((2, 3, 4, 4)), 0.4)
    keep = idx.i_c if block == "camera" else idx.i_m
    cached = Rng(106).normal(z.shape)
    taken, ffn = [], attention.ffn

    def ffn_after_the_hand_over(*args, **kwargs):
        assert taken, "the FFN ran before the entry was handed over"
        return ffn(*args, **kwargs)

    monkeypatch.setattr(attention, "ffn", ffn_after_the_hand_over)
    forward(z, prior, w, idx, cached,
            sink=AttentionSink(lambda: None,
                               lambda a: taken.append(a.copy())))
    assert len(taken) == 1
    _, want = with_attention(dense_forward, z, prior, w)
    want = want.reshape(-1, 8)
    _, owner = pruned_rows_reference(block, keep, 2, 3, 16)
    refill_reference(want, cached.reshape(-1, 8), keep, owner, 16, 0,
                     len(want))
    assert_same_bits(taken[0].reshape(-1, 8), want)


def test_pruned_chain_ratio_one_equals_dense():
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=96))
    chain = model.layers[0].chain
    dense_out, (a_s, a_c, a_m) = chain_forward(z, priors, chain)
    cache = RollingCache()
    cache.store(0, Rng(97).normal(z.shape), Rng(98).normal(z.shape),
                Rng(99).normal(z.shape), step=0)
    got = cached_chain_forward(z, priors, chain, cache, layer=0, step=1,
                               select=semantic(1.0))
    assert np.array_equal(got, dense_out)
    # cache now holds exactly the dense outputs
    assert np.array_equal(cache.retrieve(0, "spatial"), a_s)
    assert np.array_equal(cache.retrieve(0, "camera"), a_c)
    assert np.array_equal(cache.retrieve(0, "motion"), a_m)


def test_cached_chain_dense_step_supersedes_entries():
    # no selector: a dense step, which compares to and replaces the entries
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=103))
    chain = model.layers[0].chain
    dense_out, attention = chain_forward(z, priors, chain)
    cache = RollingCache()
    assert np.array_equal(
        cached_chain_forward(z, priors, chain, cache, layer=0, step=0),
        dense_out)
    assert cache.similarity_log == []  # nothing cached yet to compare
    old = cache.peek(0, "spatial")
    cached_chain_forward(z, priors, chain, cache, layer=0, step=1)
    assert [r.kind for r in cache.similarity_log] == [
        "spatial", "camera", "motion"]
    assert cache.peek(0, "spatial") is not old
    for kind, att in zip(("spatial", "camera", "motion"), attention):
        assert np.array_equal(cache.retrieve(0, kind), att)


def test_pruned_chain_records_similarities():
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=100))
    chain = model.layers[0].chain
    cache = RollingCache()
    _, attention = chain_forward(z, priors, chain)
    cache.store(0, *attention, step=0)
    cached_chain_forward(z, priors, chain, cache, layer=0, step=1,
                         select=semantic(0.5))
    assert len(cache.similarity_log) == 3
    # same latent both steps: spatial attention is identical
    assert cache.similarity_log[0].value == pytest.approx(1.0, abs=1e-12)


def test_pruned_flops_scale_with_ratio():
    model, priors, z = make_setup(config_at(2, 2, 8, 8, 8, seed=101))
    chain = model.layers[0].chain
    _, attention = chain_forward(z, priors, chain)

    def att_flops(ratio):
        cache = RollingCache()
        cache.store(0, *attention, step=0)
        counters = CostCounters()
        cached_chain_forward(z, priors, chain, cache, 0, 1, counters,
                             semantic(ratio))
        return counters.attention_by_block

    lo, hi = att_flops(0.25), att_flops(0.75)
    assert lo["camera"] < hi["camera"]
    assert lo["motion"] < hi["motion"]
    assert lo["spatial"] == hi["spatial"]  # spatial never pruned


def test_pruned_chain_zero_refill():
    model, priors, z = make_setup(config_at(2, 2, 4, 4, 8, seed=102))
    chain = model.layers[0].chain
    _, attention = chain_forward(z, priors, chain)

    def run(zero_refill):
        cache = RollingCache()
        cache.store(0, *attention, step=0)
        return cached_chain_forward(z, priors, chain, cache, 0, 1,
                                    select=semantic(0.25),
                                    zero_refill=zero_refill)

    assert not np.array_equal(run(True), run(False))
