"""Numeric primitives: matmul, softmax, selection, scatter, RNG, counters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmbench import (
    CostCounters,
    ParameterError,
    Rng,
    ShapeError,
    cosine,
    gather_tokens,
    matmul,
    psnr,
    scatter_refill,
    softmax_last,
    topk_indices,
)
from scmbench.core import PSNR_INF, randn, sq_norm
from scmbench.errors import DegenerateInputError


# --- matmul ---------------------------------------------------------------

def test_matmul_identity():
    out = matmul(np.eye(2), np.array([[3.0], [4.0]]))
    assert np.array_equal(out, [[3.0], [4.0]])


def test_matmul_hand():
    assert matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])) == [[11.0]]


def test_matmul_triple_loop_oracle():
    rng = Rng(3)
    a = rng.normal((5, 7))
    b = rng.normal((7, 3))
    want = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(matmul(a, b) - want)) < 1e-12


def test_matmul_counts_flops():
    c = CostCounters()
    matmul(np.ones((5, 7)), np.ones((7, 3)), c)
    assert c.flops_attention == 2 * 5 * 3 * 7


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ShapeError):
        matmul(np.ones(3), np.ones((3, 2)))


def test_matmul_associative():
    rng = Rng(9)
    a, b, c = rng.normal((4, 5)), rng.normal((5, 6)), rng.normal((6, 3))
    assert np.max(np.abs(matmul(matmul(a, b), c) - matmul(a, matmul(b, c)))) < 1e-9


# --- softmax --------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(softmax_last(np.array([0.0, 0.0])), [0.5, 0.5],
                       atol=1e-15)


def test_softmax_no_overflow():
    out = softmax_last(np.array([1000.0, 1000.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    assert np.all(np.isfinite(out))


def test_softmax_analytic():
    out = softmax_last(np.array([0.0, math.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.integers(1, 3))
def test_softmax_rows_sum_to_one(row, rows):
    x = np.array([row] * rows)
    out = softmax_last(x)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_does_not_mutate_input():
    x = np.array([1.0, 2.0, 3.0])
    softmax_last(x)
    assert np.array_equal(x, [1.0, 2.0, 3.0])


# --- cosine ---------------------------------------------------------------

def test_cosine_self():
    x = Rng(1).normal((3, 4))
    assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand():
    got = cosine(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
    assert got == pytest.approx(10.0 / 14.0, abs=1e-12)


def test_cosine_with_known_norms_is_the_same():
    a, b = Rng(2).normal((4, 6)), Rng(3).normal((4, 6))
    assert cosine(a, b, sq_norm(a), sq_norm(b)) == cosine(a, b)
    assert sq_norm(a) == float(a.ravel() @ a.ravel())


def test_cosine_zero_norm_raises():
    with pytest.raises(DegenerateInputError):
        cosine(np.zeros(3), np.ones(3))


# --- topk_indices ---------------------------------------------------------

def test_topk_hand():
    assert np.array_equal(topk_indices(np.array([0.1, 0.9, 0.5]), 2), [1, 2])


def test_topk_all():
    assert np.array_equal(topk_indices(np.array([3.0, 1.0, 2.0]), 3), [0, 1, 2])


def test_topk_tie_break_lower_index():
    assert np.array_equal(topk_indices(np.ones(4), 2), [0, 1])


def test_topk_range_errors():
    with pytest.raises(ParameterError):
        topk_indices(np.ones(3), 0)
    with pytest.raises(ParameterError):
        topk_indices(np.ones(3), 4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12), st.data())
def test_topk_property(scores, data):
    scores = np.array(scores)
    k = data.draw(st.integers(1, len(scores)))
    idx = topk_indices(scores, k)
    assert len(idx) == k
    assert np.all(np.diff(idx) > 0)
    # every selected score >= every unselected score
    unselected = np.setdiff1d(np.arange(len(scores)), idx)
    if len(unselected):
        assert scores[idx].min() >= scores[unselected].max()


# --- gather / scatter -----------------------------------------------------

def test_gather_identity():
    x = Rng(5).normal((2, 3, 3, 2))
    out = gather_tokens(x, np.arange(9))
    assert np.array_equal(out, x.reshape(2, 9, 2))


def test_gather_positional():
    x = np.arange(4.0).reshape(1, 1, 2, 2, 1)  # flat [0, 1, 2, 3]
    out = gather_tokens(x, [0, 3])
    assert np.array_equal(out.ravel(), [0.0, 3.0])


def test_gather_loop_oracle():
    x = Rng(6).normal((2, 2, 4, 4, 3))
    idx = [1, 5, 10, 14]
    got = gather_tokens(x, idx)
    flat = x.reshape(2, 2, 16, 3)
    for a in range(2):
        for b in range(2):
            for j, p in enumerate(idx):
                assert np.array_equal(got[a, b, j], flat[a, b, p])


def test_gather_bad_indices():
    x = np.ones((2, 2, 3))
    with pytest.raises(IndexError):
        gather_tokens(x, [0, 4])
    with pytest.raises(IndexError):
        gather_tokens(x, [2, 1])  # not increasing


def test_scatter_full_overwrite():
    cached = Rng(7).normal((2, 2, 3))
    computed = Rng(8).normal((4, 3))
    out = scatter_refill(computed, cached, np.arange(4))
    assert np.array_equal(out.reshape(4, 3), computed)


def test_scatter_positional():
    cached = np.array([[[1.0], [2.0]]]).reshape(1, 2, 1)
    computed = np.array([[9.0]])
    out = scatter_refill(computed, cached, [0])
    assert np.array_equal(out.ravel(), [9.0, 2.0])


def test_scatter_loop_oracle():
    cached = Rng(9).normal((2, 4, 4, 3))
    idx = [0, 3, 7, 9, 15]
    computed = Rng(10).normal((2, 5, 3))
    got = scatter_refill(computed, cached, idx).reshape(2, 16, 3)
    flat = cached.reshape(2, 16, 3)
    for b in range(2):
        for p in range(16):
            if p in idx:
                assert np.array_equal(got[b, p], computed[b, idx.index(p)])
            else:
                assert np.array_equal(got[b, p], flat[b, p])


def test_scatter_coverage_mismatch():
    with pytest.raises(ShapeError):
        scatter_refill(np.ones((3, 2)), np.ones((2, 2, 2)), [0, 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.data())
def test_gather_scatter_roundtrip(seed, data):
    h, w, c = 3, 4, 2
    k = data.draw(st.integers(1, h * w))
    rng = Rng(seed)
    idx = np.sort(np.argsort(rng.uniform(h * w), kind="stable")[:k])
    cached = rng.normal((h, w, c))
    computed = rng.normal((k, c))
    merged = scatter_refill(computed, cached, idx)
    # selected positions round-trip; complements equal `cached`
    assert np.array_equal(gather_tokens(merged, idx), computed)
    comp = np.setdiff1d(np.arange(h * w), idx)
    if len(comp):
        assert np.array_equal(gather_tokens(merged, comp),
                              gather_tokens(cached, comp))


# --- Rng ------------------------------------------------------------------

GOLDEN_U64_SEED42 = [
    0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
    0x581CE1FF0E4AE394, 0x09BC585A244823F2, 0xDE4431FA3C80DB06,
    0x37E9671C45376D5D, 0xCCF635EE9E9E2FA4, 0x5705B8770B3D7DD5,
    0x9E54D738297F77AE, 0x3474724A775B19BF, 0x7E348A0E451650BE,
    0x836DED897F3E46E6, 0x851F977347ED6DB7, 0xAA47E31C02E78EDC,
    0x341452C54D7C33F2,
]


def test_rng_golden_sequence_seed42():
    got = Rng(42).next_u64(16)
    assert [int(x) for x in got] == GOLDEN_U64_SEED42


def test_rng_determinism():
    a = Rng(123).normal((4, 5))
    b = Rng(123).normal((4, 5))
    assert np.array_equal(a, b)


def test_rng_seed_separation():
    assert Rng(1).normal(4)[0] != Rng(2).normal(4)[0]


def test_rng_batching_invariance():
    whole = Rng(77).next_u64(10)
    r = Rng(77)
    parts = np.concatenate([r.next_u64(3), r.next_u64(7)])
    assert np.array_equal(whole, parts)


def test_randn_statistics():
    x = randn(Rng(0), 10 ** 5)
    assert abs(float(x.mean())) < 0.02
    assert abs(float(x.var()) - 1.0) < 0.03


def test_uniform_range():
    u = Rng(4).uniform(10 ** 4)
    assert np.all((u >= 0.0) & (u < 1.0))


# --- psnr -----------------------------------------------------------------

def test_psnr_identical():
    x = Rng(2).normal((3, 3))
    assert psnr(x, x) == PSNR_INF


def test_psnr_analytic_zero_db():
    assert psnr(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(0.0)


def test_psnr_analytic_peak():
    got = psnr(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
    assert got == pytest.approx(10.0 * math.log10(4.0 / 2.0), abs=1e-9)


# --- CostCounters ---------------------------------------------------------

def test_counters_peak_tracking():
    c = CostCounters()
    c.acquire(100)
    c.release(40)
    c.acquire(20)
    assert c.live_elements == 80
    assert c.peak_live_elements == 100


def test_counters_workspace_release():
    c = CostCounters()
    c.acquire(10)
    c.acquire_workspace(50)
    c.release_workspace()
    assert c.live_elements == 10
    assert c.peak_live_elements == 60


def test_counters_transfer_workspace():
    c = CostCounters()
    c.acquire_workspace(30)
    c.transfer_workspace(20)
    c.release_workspace()
    assert c.live_elements == 20  # transferred elements survive the release


def test_counters_over_release():
    c = CostCounters()
    c.acquire(5)
    with pytest.raises(ParameterError):
        c.release(6)
    with pytest.raises(ParameterError):
        c.transfer_workspace(1)
