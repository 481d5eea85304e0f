"""Numeric primitives: softmax, cosine, top-k selection, RNG, PSNR, counters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmbench import CostCounters, ParameterError, Rng, RunConfig, cosine, psnr
from scmbench.core import PSNR_INF, _DRAW_CHUNK, softmax_last_inplace
from scmbench.pruning import _row_topk
from scmbench.errors import DegenerateInputError

from conftest import normal_reference, uniform_reference, words_reference


# --- softmax --------------------------------------------------------------

def softmax(x):
    """The in-place softmax, run on a float copy of ``x``."""
    return softmax_last_inplace(np.array(x, dtype=np.float64))


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5],
                       atol=1e-15)


def test_softmax_no_overflow():
    out = softmax(np.array([1000.0, 1000.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    assert np.all(np.isfinite(out))


def test_softmax_analytic():
    out = softmax(np.array([0.0, math.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.integers(1, 3))
def test_softmax_rows_sum_to_one(row, rows):
    x = np.array([row] * rows)
    out = softmax(x)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_inplace_overwrites_and_returns_its_input():
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x - 3.0) / np.exp(x - 3.0).sum()
    assert softmax_last_inplace(x) is x
    assert np.allclose(x, want, atol=1e-15)


# --- cosine ---------------------------------------------------------------

def test_cosine_self():
    x = Rng(1).normal((3, 4))
    assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand():
    got = cosine(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
    assert got == pytest.approx(10.0 / 14.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(1,), (2,), (3, 5), (5, 8, 16, 16, 64)])
def test_dots_sum_in_the_order_of_a_plain_vector_product(shape):
    # cosine feeds the similarity log, which the golden reports pin, so
    # each of its BLAS dots must sum as ``a.ravel() @ b.ravel()`` does,
    # for contiguous and strided operands alike.
    a, b = Rng(4).normal(shape), Rng(5).normal(shape)
    for x, y in ((a, b), (a.T, b.T)):
        dot = float(x.ravel() @ y.ravel())
        na, nb = float(x.ravel() @ x.ravel()), float(y.ravel() @ y.ravel())
        assert cosine(x, y) == float(np.clip(
            dot / (math.sqrt(na) * math.sqrt(nb)), -1.0, 1.0))


def test_cosine_zero_norm_raises():
    with pytest.raises(DegenerateInputError):
        cosine(np.zeros(3), np.ones(3))


# --- top-k selection ------------------------------------------------------

def topk(scores, k):
    """``_row_topk`` on one row of scores."""
    return _row_topk(np.asarray(scores, dtype=np.float64)[None], k)[0]


def test_topk_hand():
    assert np.array_equal(topk([0.1, 0.9, 0.5], 2), [1, 2])


def test_topk_all():
    assert np.array_equal(topk([3.0, 1.0, 2.0], 3), [0, 1, 2])


def test_topk_tie_break_lower_index():
    assert np.array_equal(topk(np.ones(4), 2), [0, 1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12), st.data())
def test_topk_property(scores, data):
    scores = np.array(scores)
    k = data.draw(st.integers(1, len(scores)))
    idx = topk(scores, k)
    assert len(idx) == k
    assert np.all(np.diff(idx) > 0)
    # every selected score >= every unselected score
    unselected = np.setdiff1d(np.arange(len(scores)), idx)
    if len(unselected):
        assert scores[idx].min() >= scores[unselected].max()


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
    # The word reference gives the golden words, and the stream's uniforms
    # are their top 53 bits.
    got = words_reference(42, 16)
    assert [int(x) for x in got] == GOLDEN_U64_SEED42
    assert Rng(42).uniform(16).tolist() == [(w >> 11) * 2.0 ** -53
                                            for w in GOLDEN_U64_SEED42]


def test_rng_determinism():
    a = Rng(123).normal((4, 5))
    b = Rng(123).normal((4, 5))
    assert np.array_equal(a, b)


def test_rng_seed_separation():
    assert Rng(1).normal(4)[0] != Rng(2).normal(4)[0]


def test_rng_batching_invariance():
    # Words 3:10 follow the state the stream holds after 3 draws, and
    # draws in batches are the draws of one pass.
    whole = words_reference(77, 10)
    r = Rng(77)
    first = r.uniform(3)
    parts = np.concatenate([words_reference(77, 3),
                            words_reference(r.state, 7)])
    assert np.array_equal(whole, parts)
    assert np.array_equal(np.concatenate([first, r.uniform(7)]),
                          Rng(77).uniform(10))
    r = Rng(77)
    assert np.array_equal(np.concatenate([r.normal(4), r.normal(6)]),
                          Rng(77).normal(10))


@pytest.mark.parametrize("seed", [0, 7919, 2 ** 64 - 1])
@pytest.mark.parametrize("shape", [
    1, 2, 3, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1,
    2 * _DRAW_CHUNK + 3, RunConfig().latent_shape])
def test_chunked_draws_match_one_pass_draws(seed, shape):
    # The normals run a chunk at a time; the values, and the words the
    # stream has consumed after them (two per normal pair), are those of
    # one pass.
    n = math.prod(shape) if isinstance(shape, tuple) else shape
    for draw, reference, used in (
            ("normal", normal_reference, 2 * ((n + 1) // 2)),
            ("uniform", uniform_reference, n)):
        rng = Rng(seed)
        got = getattr(rng, draw)(shape)
        assert got.tobytes() == reference(seed, shape).tobytes(), draw
        assert (words_reference(rng.state, 1)[0]
                == words_reference(seed, used + 1)[-1]), draw


def test_randn_statistics():
    x = Rng(0).normal(10 ** 5)
    assert abs(float(x.mean())) < 0.02
    assert abs(float(x.var()) - 1.0) < 0.03


def test_uniform_range():
    u = Rng(4).uniform(10 ** 4)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_rng_counts_draws_exactly():
    # np.prod of this shape wraps to 0; the exact count, 2**71, is past
    # what numpy can allocate, so both draws refuse it before allocating.
    for draw in (Rng(0).normal, Rng(0).uniform):
        with pytest.raises(MemoryError, match=str(2 ** 71)):
            draw((2 ** 62, 8, 1, 64))


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
