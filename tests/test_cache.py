"""Rolling cache: one slot per (layer, block kind), memory accounting,
similarity log. Every test goes through the public methods."""

import gc
import math
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from scmbench import (
    BLOCK_KINDS,
    CacheProtocolError,
    CostCounters,
    ParameterError,
    RollingCache,
    Rng,
    RunConfig,
    ShapeError,
    cached_chain_forward,
    emit_report,
    run_benchmark,
)
from scmbench import core
from scmbench import cache as cache_module
from scmbench.pruning import identify_tokens

from conftest import config_at, make_setup


def entries(shape=(2, 2, 2), seed=0):
    rng = Rng(seed)
    return rng.normal(shape), rng.normal(shape), rng.normal(shape)


def test_store_order_and_size():
    cache = RollingCache()
    stored = entries()
    cache.store(0, *stored, step=0)
    assert cache.has_entries(0) and not cache.has_entries(1)
    for kind, value in zip(BLOCK_KINDS, stored):
        assert cache.peek(0, kind) is value


def test_double_store_protocol_error():
    cache = RollingCache()
    cache.store(0, *entries(), step=0)
    with pytest.raises(CacheProtocolError):
        cache.store(0, *entries(seed=1), step=1)


def test_live_elements_default_dims_layer():
    counters = CostCounters()
    cache = RollingCache(counters)
    shape = (5, 8, 16, 16, 64)
    counters.acquire_workspace(3 * int(np.prod(shape)))
    cache.store(0, *entries(shape), step=0)
    counters.release_workspace()  # the entries outlive the step
    assert counters.live_elements == 3 * 5 * 8 * 16 * 16 * 64 == 1_966_080


def test_retrieve_returns_each_stored_array():
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=3)
    cache.store(1, x_s, x_c, x_m, step=0)
    assert cache.retrieve(1, "spatial") is x_s
    assert cache.retrieve(1, "camera") is x_c
    assert cache.retrieve(1, "motion") is x_m


def test_retrieve_in_any_order_returns_each_array():
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=3)
    cache.store(1, x_s, x_c, x_m, step=0)
    assert cache.retrieve(1, "motion") is x_m
    assert cache.retrieve(1, "spatial") is x_s
    assert cache.retrieve(1, "camera") is x_c
    assert not cache.has_entries(1)


def test_second_retrieve_of_a_slot_protocol_error():
    cache = RollingCache()
    cache.store(0, *entries(), step=0)
    cache.retrieve(0, "camera")
    with pytest.raises(CacheProtocolError):
        cache.retrieve(0, "camera")
    cache.peek(0, "motion")  # the other slots stay filled


def test_retrieve_empty_protocol_error():
    with pytest.raises(CacheProtocolError):
        RollingCache().retrieve(0, "spatial")


def test_memory_conservation():
    counters = CostCounters()
    cache = RollingCache(counters)
    counters.acquire(7)
    counters.acquire_workspace(3 * 8)
    cache.store(0, *entries(), step=0)
    counters.release_workspace()
    assert counters.live_elements == 7 + 3 * 8
    for kind in BLOCK_KINDS:
        cache.retrieve(0, kind)
    assert counters.live_elements == 7
    assert counters.peak_live_elements == 7 + 3 * 8


def test_peek_does_not_consume():
    counters = CostCounters()
    cache = RollingCache(counters)
    x_s, x_c, x_m = entries(seed=4)
    counters.acquire_workspace(3 * x_s.size)
    cache.store(0, x_s, x_c, x_m, step=0)
    live = counters.live_elements
    assert cache.peek(0, "motion") is x_m
    assert cache.peek(0, "motion") is x_m
    assert counters.live_elements == live
    assert cache.retrieve(0, "motion") is x_m


def test_peek_missing_protocol_error():
    with pytest.raises(CacheProtocolError):
        RollingCache().peek(0, "camera")


def test_store_from_workspace_transfers():
    counters = CostCounters()
    cache = RollingCache(counters)
    x_s, x_c, x_m = entries(seed=5)
    counters.acquire_workspace(x_s.size * 3)
    cache.store(0, x_s, x_c, x_m, step=0)
    peak = counters.peak_live_elements
    counters.release_workspace()
    # stored entries survive the workspace release, and no double count
    assert counters.live_elements == 3 * x_s.size
    assert peak == 3 * x_s.size


def test_store_of_uncharged_arrays_into_a_counted_cache_is_rejected():
    counters = CostCounters()
    cache = RollingCache(counters)
    with pytest.raises(ParameterError):
        cache.store(0, *entries(), step=0)
    assert not cache.has_entries(0)
    assert counters.live_elements == 0


def test_evict_empties_the_layers():
    counters = CostCounters()
    cache = RollingCache(counters)
    for layer in (0, 1, 2):
        counters.acquire_workspace(3 * 8)
        cache.store(layer, *entries(seed=layer), step=0)
        counters.release_workspace()
        entry = cache.peek(layer, "camera")
        cache.record_similarity(layer, "camera", entry, 0, entry)
    cache.evict({1, 2, 5})  # an empty layer is skipped
    assert [cache.has_entries(layer) for layer in (0, 1, 2)] == \
        [True, False, False]
    assert counters.live_elements == 3 * 8


def test_bypass_latch_evicts_the_bypassed_layers():
    # Turbo latches at these dims; bypass never un-latches, so the
    # bypassed layers' entries are dead and the latch frees them.
    shape = dict(frames=2, views=2, height=4, width=4, channels=8, layers=4,
                 steps=8)
    turbo = run_benchmark(RunConfig(mode="turbo", **shape))
    latent = turbo.z_final.size
    assert turbo.trace.bypass_active
    bypassed = set().union(*(r.bypassed_layers for r in turbo.trace.steps))
    assert bypassed == {1, 2}
    # Every entry is a latent's size: only layers 0 and 3 hold theirs.
    assert turbo.counters.live_elements == 2 * len(BLOCK_KINDS) * latent

    # prune-only never latches and keeps every layer's slots
    prune = run_benchmark(RunConfig(mode="prune-only", **shape))
    assert not prune.trace.bypass_active
    assert prune.counters.live_elements == 4 * len(BLOCK_KINDS) * latent


def test_a_finished_report_holds_no_attention():
    # Once run_benchmark returns, the report keeps the final latent and
    # its records; every cache entry died with the sampler.
    config = RunConfig(mode="prune-only", frames=2, views=4, height=8,
                       width=8, channels=32, steps=6)
    latent_bytes = 8 * math.prod(config.latent_shape)
    run_benchmark(config)  # a first run loads and starts what stays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_benchmark(config)
        # A pool worker drops its last job just after it sets the result.
        deadline = time.monotonic() + 5.0
        while True:
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
            if held < 2 * latent_bytes or time.monotonic() > deadline:
                break
            time.sleep(0.01)
    finally:
        tracemalloc.stop()
    assert report.z_final.nbytes == latent_bytes
    assert held < 2 * latent_bytes


def test_record_similarity_identical():
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=6)
    cache.store(0, x_s, x_c, x_m, step=0)
    assert cache.record_similarity(0, "spatial", x_s.copy(), 1, x_s) == \
        pytest.approx(1.0, abs=1e-12)


def test_record_similarity_orthogonal():
    cache = RollingCache()
    a = np.array([[[1.0, 0.0]]])
    b = np.array([[[0.0, 1.0]]])
    cache.store(0, a, a, a, step=0)
    assert cache.record_similarity(0, "spatial", b, 1, a) == 0.0


def test_record_similarity_degenerate_zero_norm():
    cache = RollingCache()
    z = np.zeros((2, 2))
    cache.store(0, z, z, z, step=0)
    value = cache.record_similarity(0, "spatial", np.ones((2, 2)), 1, z)
    assert value == 0.0
    assert cache.similarity_log[-1].value == 0.0


@pytest.mark.parametrize("parts", [1, 2])
def test_comparisons_run_aside_and_are_logged_in_order(split_into, parts):
    # As a compute step does: supersede each entry, which empties its slot
    # at once, and read the log only later. The values and their order are
    # those of plain cosines taken one after another, on either thread.
    from scmbench.core import cosine

    split_into(parts)
    cache = RollingCache()
    old = {li: entries((4, 8, 8), seed=20 + li) for li in range(3)}
    new = {li: entries((4, 8, 8), seed=30 + li) for li in range(3)}
    for li in range(3):
        cache.store(li, *old[li], step=0)
    for li in range(3):
        for kind, fresh in zip(BLOCK_KINDS, new[li]):
            cache.supersede(li, kind, fresh, step=1)
    want = [(li, kind, cosine(a, b)) for li in range(3)
            for kind, a, b in zip(BLOCK_KINDS, old[li], new[li])]
    assert [(r.layer, r.kind, r.value) for r in cache.similarity_log] == want


def test_evict_leaves_a_running_comparison_to_be_logged(split_into):
    # The comparison is held back for a while: evict empties the layer
    # meanwhile, and the comparison still logs its cosine.
    split_into(2)
    cache = RollingCache()
    record = cache.record_similarity

    def record_late(*args):
        time.sleep(0.2)
        return record(*args)

    cache.record_similarity = record_late
    cache.store(0, *entries((4, 8, 8), seed=40), step=0)
    cache.supersede(0, "spatial", entries((4, 8, 8), seed=41)[0], step=1)
    cache.evict({0})
    assert [r.layer for r in cache.similarity_log] == [0]


@pytest.mark.parametrize("parts", [1, 2])
def test_evict_keeps_no_evicted_array(split_into, parts):
    # A compute step's comparisons and store, then the layer's eviction:
    # once the log is read, nothing holds the old or the new entries.
    split_into(parts)
    cache = RollingCache()
    old, new = entries((4, 8, 8), seed=43), entries((4, 8, 8), seed=44)
    cache.store(0, *old, step=0)
    for kind, value in zip(BLOCK_KINDS, new):
        cache.supersede(0, kind, value, step=1)
    cache.store(0, *new, step=1)
    cache.evict({0})
    assert len(cache.similarity_log) == 3
    refs = [weakref.ref(a) for a in old + new]
    del old, new, value
    # A pool worker drops its job's arguments just after it sets the result.
    deadline = time.monotonic() + 5.0
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert [r() is None for r in refs] == [True] * 6


def test_a_run_waits_for_its_last_comparison(split_into, monkeypatch):
    # Two pool workers, so no later stage's helper queues behind the last
    # comparison: only the run's own wait can see it fail.
    split_into(3)
    monkeypatch.setattr(core, "_executor", None)
    config = RunConfig(mode="prune-only", frames=2, views=2, height=4,
                       width=4, channels=8, layers=2, steps=3)
    try:
        total = len(run_benchmark(config).trace.similarity_log)
        record = RollingCache.record_similarity
        calls = []

        def record_fails_last(self, *args):
            calls.append(args)
            if len(calls) == total:
                time.sleep(0.3)
                raise RuntimeError("the last comparison failed")
            return record(self, *args)

        monkeypatch.setattr(RollingCache, "record_similarity",
                            record_fails_last)
        with pytest.raises(RuntimeError, match="the last comparison"):
            run_benchmark(config)
        assert len(calls) == total
    finally:
        if core._executor is not None:
            core._executor.shutdown()


@pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
def test_a_block_frees_what_earlier_blocks_superseded_before_it_allocates(
        pruned, monkeypatch):
    # Each cosine runs aside (2,048 tokens) and takes 0.2 s, longer than a
    # block's FFN. With four drainers, every helper of a stage of this
    # size finds a free pool worker instead of queueing behind the cosine,
    # so no stage waits for it by the way: the block's own wait before it
    # allocates is what frees the entry that an earlier block superseded,
    # ahead of its attention pass (unpruned) or its refill (pruned). The
    # output and the log are those of a serial pass.
    model, priors, z = make_setup(config_at(2, 4, 16, 16, 16))
    chain = model.layers[0].chain
    select = (lambda q: identify_tokens(q, 0.5)) if pruned else None

    def stale_pass():
        cache = RollingCache()
        z1 = cached_chain_forward(z, priors, chain, cache, 0, 0)
        # The second pass writes over its input, as a run's does, so every
        # full-size array it allocates is an attention.
        z2 = cached_chain_forward(z1, priors, chain, cache, 0, 1,
                                  select=select, out=z1)
        return z2, [(r.kind, r.value) for r in cache.similarity_log]

    monkeypatch.setattr(core, "_PARTS", 1)
    want, want_log = stale_pass()

    monkeypatch.setattr(core, "_PARTS", 4)
    monkeypatch.setattr(core, "_executor", None)
    cosine = cache_module.cosine

    def slow_cosine(a, b):
        time.sleep(0.2)
        return cosine(a, b)

    superseded = []
    retrieve = RollingCache.retrieve

    def tracked_retrieve(self, layer, kind):
        value = retrieve(self, layer, kind)
        superseded.append(weakref.ref(value))
        return value

    # Per full-size allocation on this thread once an entry has been
    # superseded: which superseded entries are still alive.
    alive = []
    this_thread = threading.get_ident()

    def checked(allocate, size):
        def wrapped(a, *args, **kwargs):
            if (superseded and threading.get_ident() == this_thread
                    and size(a) == z.size):
                alive.append([r() is not None for r in superseded])
            return allocate(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(cache_module, "cosine", slow_cosine)
    monkeypatch.setattr(RollingCache, "retrieve", tracked_retrieve)
    monkeypatch.setattr(np, "empty", checked(np.empty, np.prod))
    monkeypatch.setattr(np, "empty_like", checked(np.empty_like, np.size))
    try:
        got, got_log = stale_pass()
    finally:
        if core._executor is not None:
            core._executor.shutdown()
    assert len(superseded) == 3
    # the camera and the motion attention
    assert alive == [[False], [False, False]]
    assert np.array_equal(got, want)
    assert got_log == want_log


def test_a_failing_comparison_raises_at_the_next_one(split_into):
    split_into(2)
    cache = RollingCache()
    cache.store(0, *entries((4, 8, 8), seed=42), step=0)
    cache.supersede(0, "spatial", np.ones((4, 8, 4)), step=1)
    with pytest.raises(ShapeError):
        cache.supersede(0, "camera", np.ones((4, 8, 8)), step=1)
    assert cache.similarity_log == []  # the failed one logged nothing


def test_log_growth_per_compute_step():
    cache = RollingCache()
    layers = 4
    for step in (0, 1):
        for li in range(layers):
            if step > 0:
                for kind in BLOCK_KINDS:
                    entry = cache.peek(li, kind)
                    cache.record_similarity(li, kind, entry, step, entry)
                for kind in BLOCK_KINDS:
                    cache.retrieve(li, kind)
            cache.store(li, *entries(seed=10 + li), step=step)
    assert len(cache.similarity_log) == 3 * layers


def test_similarity_csv(tmp_path):
    # the report writer dumps the run's similarity log, one row a record
    report = run_benchmark(RunConfig(frames=2, views=2, height=4, width=4,
                                     channels=8, layers=2, steps=4,
                                     mode="cache-only"))
    emit_report(report, tmp_path / "r.json", similarity_csv=True)
    lines = (tmp_path / "r_similarity.csv").read_text().strip().splitlines()
    assert lines[0] == "step,layer,kind,cosine"
    log = report.trace.similarity_log
    assert len(log) > 0
    assert lines[1:] == [f"{r.step},{r.layer},{r.kind},{r.value!r}"
                         for r in log]
