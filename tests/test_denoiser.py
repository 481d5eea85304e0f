"""Toy denoiser: schedule, sampler update, layers, sampling loop."""

import dataclasses

import numpy as np
import pytest

from scmbench import (
    BLOCK_KINDS,
    CostCounters,
    ParameterError,
    RollingCache,
    Rng,
    RunConfig,
    ShapeError,
    StepKind,
    build_toy_model,
    cached_chain_forward,
    cosine_schedule,
    ddim_update,
    identify_tokens,
    model_forward,
    sample,
    synth_priors,
)
from scmbench.bench import UsageError
from scmbench.denoiser import DiffusionSchedule, mixing, _view_embedding
from scmbench.scheduler import StepMode

from scmbench import core

from conftest import chain_forward, config_at, ddim_reference, make_setup


# --- schedule -------------------------------------------------------------

def test_cosine_schedule_valid():
    s = cosine_schedule(20)
    assert s.alpha[0] == 1.0 and s.beta[0] == pytest.approx(0.0, abs=1e-15)
    assert np.max(np.abs(s.alpha ** 2 + s.beta ** 2 - 1.0)) < 1e-12
    assert np.all(np.diff(s.alpha) <= 1e-12)
    assert np.all(np.diff(s.beta) >= -1e-12)


def test_schedule_rejects_non_vp():
    with pytest.raises(ParameterError):
        DiffusionSchedule(2, np.array([1.0, 0.5, 0.0]),
                          np.array([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("alpha, beta, message", [
    # T points for total_steps T, one short
    ([1.0, 0.0], [0.0, 1.0], "must have length"),
    # variance preserving and monotone, but alpha[0] < 1
    ([0.8, 0.6, 0.0], [0.6, 0.8, 1.0], "endpoints"),
    # variance preserving, but alpha rises and beta falls
    ([1.0, 0.6, 0.8], [0.0, 0.8, 0.6], "non-increasing"),
], ids=["length", "endpoints", "monotone"])
def test_schedule_rejects_what_each_check_names(alpha, beta, message):
    with pytest.raises(ParameterError, match=message):
        DiffusionSchedule(2, np.array(alpha), np.array(beta))


def test_cosine_schedule_rejects_zero_steps():
    # t / total_steps would be 0/0: an all-NaN schedule
    with pytest.raises(ParameterError, match="total_steps"):
        cosine_schedule(0)


def test_schedule_rejects_nan():
    # each ordering and variance check is a comparison NaN passes
    with pytest.raises(ParameterError, match="finite"):
        DiffusionSchedule(2, np.array([1.0, np.nan, 0.0]),
                          np.array([0.0, np.nan, 1.0]))


# --- ddim_update ----------------------------------------------------------

def test_ddim_identity_network_algebra():
    s = cosine_schedule(10)
    t = 4
    z = Rng(7).normal((3, 3))
    got = ddim_update(z, z, t, s)
    coeff = (s.alpha[t - 1] - s.alpha[t] * s.beta[t - 1] / s.beta[t]
             + s.beta[t - 1] / s.beta[t])
    assert np.max(np.abs(got - coeff * z)) < 1e-12


@pytest.mark.parametrize("tile", [1, None])
@pytest.mark.parametrize("shape", [(1, 8), (3, 5, 7),
                                   RunConfig().latent_shape],
                         ids=["one-row", "odd", "default"])
def test_tiled_ddim_update_matches_the_closed_form(monkeypatch, shape, tile):
    if tile is not None:
        monkeypatch.setattr(core, "_TILE_TOKENS", tile)
    s = cosine_schedule(10)
    z_t, z0_hat = Rng(8).normal(shape), Rng(9).normal(shape)
    for t in (1, 4, 10):
        got = ddim_update(z_t, z0_hat, t, s)
        want = ddim_reference(z_t, z0_hat, t, s)
        assert got.shape == shape and got.tobytes() == want.tobytes(), t


def test_ddim_range_check():
    s = cosine_schedule(10)
    with pytest.raises(ParameterError):
        ddim_update(np.zeros(2), np.zeros(2), 0, s)


def test_ddim_rejects_a_prediction_of_another_shape():
    with pytest.raises(ShapeError, match="z0_hat"):
        ddim_update(np.zeros((4, 8)), np.zeros((2, 8)), 1, cosine_schedule(10))


# --- model construction / priors ------------------------------------------

@pytest.mark.parametrize("field, value", [("frames", 2.5), ("frames", "3")])
def test_dims_rejects_a_non_int_field(field, value):
    # The model and the priors take their dims from RunConfig, whose type
    # check names the field.
    with pytest.raises(UsageError, match=field):
        RunConfig(**{field: value})


def test_build_model_deterministic():
    cfg = config_at(2, 2, 4, 4, 8, layers=2, seed=5)
    a = build_toy_model(cfg)
    b = build_toy_model(cfg)
    assert np.array_equal(a.layers[1].chain.camera.w1,
                          b.layers[1].chain.camera.w1)
    assert not np.array_equal(a.layers[0].chain.spatial.wq,
                              a.layers[1].chain.spatial.wq)


def test_build_model_init_scale():
    m = build_toy_model(config_at(2, 2, 4, 4, 16))
    bound = 1.0 / np.sqrt(16)
    for w in (m.layers[0].mix, m.layers[0].chain.spatial.wq):
        assert np.max(np.abs(w)) <= bound


def test_mixing_preserves_constants():
    # identity channel map + reflect averaging leaves a constant field fixed
    z = np.full((2, 2, 4, 4, 3), 1.5)
    out = mixing(z, np.eye(3))
    assert np.max(np.abs(out - 1.5)) < 1e-12


def test_mixing_matches_pad_oracle():
    z = Rng(8).normal((2, 2, 4, 5, 3))
    mix = Rng(9).normal((3, 3))
    got = mixing(z, mix)
    y = (z.reshape(-1, 3) @ mix).reshape(z.shape)
    for axis in (2, 3):
        pad = [(0, 0)] * 5
        pad[axis] = (1, 1)
        yp = np.pad(y, pad, mode="reflect")
        sl = [slice(None)] * 5
        acc = []
        for off in range(3):
            s = list(sl)
            s[axis] = slice(off, off + z.shape[axis])
            acc.append(yp[tuple(s)])
        y = (acc[0] + acc[1] + acc[2]) / 3.0
    assert np.max(np.abs(got - y)) < 1e-12


def test_synth_priors_deterministic_and_angle_tied():
    cfg = config_at(2, 4, 4, 4, 8)
    a = synth_priors(cfg, Rng(3))
    b = synth_priors(cfg, Rng(3))
    assert np.array_equal(a.k_s, b.k_s)
    # equal angles get identical embeddings
    e1 = _view_embedding(30.0, 90.0, 8)
    e2 = _view_embedding(30.0, 90.0, 8)
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1, _view_embedding(30.0, 180.0, 8))


# --- model_forward protocol ------------------------------------------------

def test_dense_step_equals_reference(small_setup):
    cfg, model, priors, z = small_setup
    model3 = build_toy_model(dataclasses.replace(cfg, layers=3))
    dense = StepMode(kind=StepKind.DENSE)
    # reference: each layer's mixing, then its plain chain composition
    z_ref = z
    for layer in model3.layers:
        z_ref, _ = chain_forward(mixing(z_ref, layer.mix), priors, layer.chain)
    assert np.array_equal(model_forward(model3, z, priors, dense, step=0),
                          z_ref)
    cache = RollingCache()
    z_cached = model_forward(model3, z, priors, dense, step=0, cache=cache)
    assert np.array_equal(z_cached, z_ref)
    for li in range(3):
        assert cache.has_entries(li)


def test_prune_step_without_selector_is_rejected(small_setup):
    _, model, priors, z = small_setup
    cache = RollingCache()
    model_forward(model, z, priors, StepMode(StepKind.DENSE), 0, cache)
    # never a dense pass recorded as a prune step
    with pytest.raises(ParameterError, match="selector"):
        model_forward(model, z, priors, StepMode(StepKind.PRUNE), 1, cache)


def test_reuse_step_without_cache_is_rejected(small_setup):
    _, model, priors, z = small_setup
    with pytest.raises(ParameterError, match="cache"):
        model_forward(model, z, priors, StepMode(StepKind.REUSE), 1)


def test_prune_step_without_cache_is_rejected(small_setup):
    _, model, priors, z = small_setup
    with pytest.raises(ParameterError, match="prune step: no cache given"):
        model_forward(model, z, priors, StepMode(StepKind.PRUNE), 1, None,
                      None, keep_all)


def test_pruned_chain_pass_without_cache_is_rejected(small_setup):
    _, model, priors, z = small_setup
    with pytest.raises(ParameterError, match="prune step: no cache given"):
        cached_chain_forward(z, priors, model.layers[0].chain, None, 0, 1,
                             select=keep_all)


def keep_all(semantic):
    return identify_tokens(semantic, 1.0)


def test_reuse_step_matches_dense_on_frozen_input(small_setup):
    cfg, model, priors, z = small_setup
    model3 = build_toy_model(dataclasses.replace(cfg, layers=3))
    dense = StepMode(kind=StepKind.DENSE)
    reuse = StepMode(kind=StepKind.REUSE)
    cache = RollingCache()
    z_dense = model_forward(model3, z, priors, dense, step=0, cache=cache)
    # same latent again: cached attention equals the would-be fresh one
    z_reuse = model_forward(model3, z, priors, reuse, step=1, cache=cache)
    assert np.max(np.abs(z_reuse - z_dense)) < 1e-9


def test_reuse_step_reads_the_cache_in_place(small_setup, monkeypatch):
    cfg, model, priors, z = small_setup
    model3 = build_toy_model(dataclasses.replace(cfg, layers=3))
    counters = CostCounters()
    cache = RollingCache(counters)
    model_forward(model3, z, priors, StepMode(StepKind.DENSE), step=0,
                  cache=cache, counters=counters)
    counters.release_workspace()
    live = counters.live_elements
    before = {(li, kind): cache.peek(li, kind)
              for li in range(3) for kind in BLOCK_KINDS}
    calls = []

    def spy(name):
        original = getattr(RollingCache, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("store", "retrieve"):
        monkeypatch.setattr(RollingCache, name, spy(name))
    model_forward(model3, z, priors, StepMode(StepKind.REUSE), step=1,
                  cache=cache, counters=counters)
    counters.release_workspace()
    assert calls == []
    assert counters.live_elements == live
    for (li, kind), value in before.items():
        assert cache.peek(li, kind) is value


def test_bypassed_layer_is_identity_for_chain(small_setup):
    cfg, model, priors, z = small_setup
    model3 = build_toy_model(dataclasses.replace(cfg, layers=3))
    full = StepMode(kind=StepKind.DENSE)
    byp = StepMode(kind=StepKind.DENSE, bypassed_layers=frozenset({1}))
    c_full, c_byp = CostCounters(), CostCounters()
    model_forward(model3, z, priors, full, step=0, counters=c_full)
    model_forward(model3, z, priors, byp, step=0, counters=c_byp)
    # exactly one layer's chain flops disappear; mixing unchanged
    assert c_byp.flops_attention == c_full.flops_attention * 2 // 3
    assert c_byp.flops_mixing == c_full.flops_mixing


# --- sample loop ----------------------------------------------------------

def test_sample_dense_mode_trace():
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=2))
    schedule = cosine_schedule(4)
    cfg = RunConfig(mode="dense")
    z, trace = sample(model, priors, schedule, cfg, Rng(2), CostCounters())
    assert [r.kind for r in trace.steps] == ["dense"] * 4
    assert trace.similarity_log == []  # no cache, so nothing compared


def test_sample_deterministic():
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=2))
    schedule = cosine_schedule(6)
    cfg = RunConfig(mode="turbo", warmup=2)
    z1, t1 = sample(model, priors, schedule, cfg, Rng(2), CostCounters())
    z2, t2 = sample(model, priors, schedule, cfg, Rng(2), CostCounters())
    assert np.array_equal(z1, z2)
    assert [r.kind for r in t1.steps] == [r.kind for r in t2.steps]


def test_sample_turbo_step_pattern():
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=2))
    schedule = cosine_schedule(6)
    cfg = RunConfig(mode="turbo", warmup=2, alpha_threshold=2.0)
    _, trace = sample(model, priors, schedule, cfg, Rng(2), CostCounters())
    assert [r.kind for r in trace.steps] == [
        "dense", "dense", "prune", "reuse", "prune", "reuse"]


def test_degenerate_turbo_equals_dense_small():
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=3))
    schedule = cosine_schedule(6)
    z_t, _ = sample(model, priors, schedule,
                    RunConfig(mode="turbo", topk_ratio=1.0, warmup=6,
                              alpha_threshold=1.5),
                    Rng(2), CostCounters())
    z_d, _ = sample(model, priors, schedule, RunConfig(mode="dense"),
                    Rng(2), CostCounters())
    assert np.array_equal(z_t, z_d)


def test_single_layer_model_never_bypasses():
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=1))
    schedule = cosine_schedule(4)
    cfg = RunConfig(mode="turbo", warmup=1, alpha_threshold=0.5)
    _, trace = sample(model, priors, schedule, cfg, Rng(2), CostCounters())
    for r in trace.steps:
        assert r.bypassed_layers == []


def test_sample_memory_accounting_balances():
    cfg = config_at(2, 2, 4, 4, 8, layers=2)
    model, priors, _ = make_setup(cfg)
    schedule = cosine_schedule(6)
    counters = CostCounters()
    sample(model, priors, schedule, RunConfig(mode="turbo", warmup=2),
           Rng(2), counters)
    # all workspace released; only the final cache entries remain live
    assert counters.live_elements == 2 * 3 * int(np.prod(cfg.latent_shape))

