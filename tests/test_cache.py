"""Rolling cache: FIFO protocol, memory accounting, similarity log."""

import numpy as np
import pytest

from scmbench import (
    BLOCK_KINDS,
    CacheProtocolError,
    CostCounters,
    RollingCache,
    Rng,
)


def entries(shape=(2, 2, 2), seed=0):
    rng = Rng(seed)
    return rng.normal(shape), rng.normal(shape), rng.normal(shape)


def test_store_order_and_size():
    cache = RollingCache()
    cache.store(0, *entries(), step=0)
    q = cache._queue(0)
    assert len(q) == 3
    assert [e.kind for e in q] == list(BLOCK_KINDS)


def test_double_store_protocol_error():
    cache = RollingCache()
    cache.store(0, *entries(), step=0)
    with pytest.raises(CacheProtocolError):
        cache.store(0, *entries(seed=1), step=1)


def test_live_elements_default_dims_layer():
    counters = CostCounters()
    cache = RollingCache(counters)
    shape = (5, 8, 16, 16, 64)
    cache.store(0, *entries(shape), step=0)
    assert counters.live_elements == 3 * 5 * 8 * 16 * 16 * 64 == 1_966_080


def test_fifo_roundtrip_bit_exact():
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=3)
    cache.store(1, x_s, x_c, x_m, step=0)
    assert cache.retrieve(1, "spatial") is x_s
    assert cache.retrieve(1, "camera") is x_c
    assert cache.retrieve(1, "motion") is x_m


def test_retrieve_order_enforced():
    cache = RollingCache()
    cache.store(0, *entries(), step=0)
    with pytest.raises(CacheProtocolError):
        cache.retrieve(0, "camera")


def test_retrieve_empty_protocol_error():
    with pytest.raises(CacheProtocolError):
        RollingCache().retrieve(0, "spatial")


def test_memory_conservation():
    counters = CostCounters()
    cache = RollingCache(counters)
    counters.acquire(7)
    cache.store(0, *entries(), step=0)
    for kind in BLOCK_KINDS:
        cache.retrieve(0, kind)
    assert counters.live_elements == 7
    assert counters.peak_live_elements == 7 + 3 * 8


def test_peek_does_not_consume():
    counters = CostCounters()
    cache = RollingCache(counters)
    x_s, x_c, x_m = entries(seed=4)
    cache.store(0, x_s, x_c, x_m, step=0)
    live = counters.live_elements
    assert cache.peek(0, "motion") is x_m
    assert counters.live_elements == live
    assert len(cache._queue(0)) == 3


def test_peek_missing_protocol_error():
    with pytest.raises(CacheProtocolError):
        RollingCache().peek(0, "camera")


def test_store_from_workspace_transfers():
    counters = CostCounters()
    cache = RollingCache(counters)
    x_s, x_c, x_m = entries(seed=5)
    counters.acquire_workspace(x_s.size * 3)
    cache.store(0, x_s, x_c, x_m, step=0, from_workspace=True)
    peak = counters.peak_live_elements
    counters.release_workspace()
    # stored entries survive the workspace release, and no double count
    assert counters.live_elements == 3 * x_s.size
    assert peak == 3 * x_s.size


def test_record_similarity_identical():
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=6)
    cache.store(0, x_s, x_c, x_m, step=0)
    assert cache.record_similarity(0, "spatial", x_s.copy(), step=1) == \
        pytest.approx(1.0, abs=1e-12)


def test_record_similarity_orthogonal():
    cache = RollingCache()
    a = np.array([[[1.0, 0.0]]])
    b = np.array([[[0.0, 1.0]]])
    cache.store(0, a, a, a, step=0)
    assert cache.record_similarity(0, "spatial", b, step=1) == 0.0


def test_record_similarity_degenerate_zero_norm():
    cache = RollingCache()
    z = np.zeros((2, 2))
    cache.store(0, z, z, z, step=0)
    value = cache.record_similarity(0, "spatial", np.ones((2, 2)), step=1)
    assert value == 0.0
    assert cache.similarity_log[-1].degenerate


def test_record_similarity_reuses_the_entry_norm_only_for_that_array():
    # a step's fresh value is the next step's cached side; its squared
    # norm is kept, and the values equal a plain cosine either way
    from scmbench.core import cosine, sq_norm

    cache = RollingCache()
    a, b, c = entries((3, 4, 5), seed=12)
    cache.store(0, a, a, a, step=0)
    assert cache.record_similarity(0, "spatial", b, step=1) == cosine(a, b)
    known = cache._sq_norms[(0, "spatial")]
    assert known[0] is b and known[1] == sq_norm(b)
    for kind in BLOCK_KINDS:
        cache.retrieve(0, kind)
    cache.store(0, b, b, b, step=1)
    assert cache.record_similarity(0, "spatial", c, step=2) == cosine(b, c)
    # a different array under the same key: its own norm is taken
    for kind in BLOCK_KINDS:
        cache.retrieve(0, kind)
    other = 2.0 * c
    cache.store(0, other, other, other, step=2)
    assert cache.record_similarity(0, "spatial", a, step=3) == \
        cosine(other, a)
    assert cache._sq_norms[(0, "spatial")][1] == sq_norm(a)


def test_log_growth_per_compute_step():
    cache = RollingCache()
    layers = 4
    for step in (0, 1):
        for li in range(layers):
            if step > 0:
                for kind in BLOCK_KINDS:
                    cache.record_similarity(li, kind,
                                            cache.peek(li, kind), step)
                for kind in BLOCK_KINDS:
                    cache.retrieve(li, kind)
            cache.store(li, *entries(seed=10 + li), step=step)
    assert len(cache.similarity_log) == 3 * layers


def test_similarity_csv(tmp_path):
    cache = RollingCache()
    x_s, x_c, x_m = entries(seed=8)
    cache.store(0, x_s, x_c, x_m, step=0)
    cache.record_similarity(0, "spatial", x_s.copy(), step=1)
    path = tmp_path / "sim.csv"
    cache.write_similarity_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,layer,kind,cosine"
    assert len(lines) == 2
