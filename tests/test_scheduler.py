"""Step-mode selection, ASR windowing, and bypass latching."""

import pytest

from scmbench import (CostCounters, RollingCache, Rng, SamplerConfig,
                      SchedulerState, StepKind, compute_asr, cosine_schedule,
                      sample, select_mode)
from scmbench.cache import SimilarityRecord
from scmbench.scheduler import MODE_TABLE, bypass_set

from conftest import make_setup


def log_into(cache, values, step=0, layer=0):
    for v in values:
        cache.similarity_log.append(SimilarityRecord(step, layer, "spatial", v))


def test_asr_all_ones():
    cache = RollingCache()
    log_into(cache, [1.0, 1.0, 1.0], step=5)
    assert compute_asr(cache, 5, 3) == pytest.approx(1.0, abs=1e-12)


def test_asr_mean():
    cache = RollingCache()
    log_into(cache, [1.0, 0.8, 0.6], step=5)
    assert compute_asr(cache, 5, 3) == pytest.approx(0.8, abs=1e-12)


def test_asr_window_excludes_old_steps():
    cache = RollingCache()
    log_into(cache, [0.0], step=1)
    log_into(cache, [1.0], step=5)
    assert compute_asr(cache, 5, 3) == 1.0  # step 1 outside [2, 5]
    assert compute_asr(cache, 5, 4) == 0.5


def test_asr_empty_window_not_ready():
    cache = RollingCache()
    assert compute_asr(cache, 5, 3) == 0.0
    log_into(cache, [1.0], step=0)
    assert compute_asr(cache, 10, 3) == 0.0


def test_asr_layer_exclusion():
    cache = RollingCache()
    log_into(cache, [1.0], step=4, layer=0)
    log_into(cache, [0.0], step=4, layer=2)
    assert compute_asr(cache, 4, 3) == 0.5
    assert compute_asr(cache, 4, 3, exclude_layers=frozenset({2})) == 1.0


# Per mode at warmup=2 over 8 steps: step kinds (D dense, P prune, R
# reuse), whether a cache is kept, whether bypass can latch.
_MODES_AT_WARMUP2 = {
    "dense":        ("DDDDDDDD", False, False),
    "turbo":        ("DDPRPRPR", True, True),
    "cache-only":   ("DDDRDRDR", True, True),
    "prune-only":   ("DDPPPPPP", True, False),
    "bypass-only":  ("DDDDDDDD", True, True),
    "random-prune": ("DDPRPRPR", True, True),
}


@pytest.mark.parametrize("mode", sorted(_MODES_AT_WARMUP2))
def test_modes_at_warmup2(mode):
    kinds, cached, latches = _MODES_AT_WARMUP2[mode]
    _, model, priors, _ = make_setup(2, 2, 4, 4, 8, layers=3)
    # a threshold every logged similarity clears: bypass latches iff allowed
    cfg = SamplerConfig(mode=mode, warmup=2, alpha_threshold=1e-9)
    _, trace = sample(model, priors, cosine_schedule(8), cfg, Rng(2),
                      CostCounters())
    assert "".join(r.kind[0].upper() for r in trace.steps) == kinds
    assert (trace.cache is not None) == cached
    assert trace.scheduler.bypass_active == latches


def test_bypass_set_excludes_first_last():
    assert bypass_set(6) == frozenset({1, 2, 3, 4})
    assert bypass_set(2) == frozenset()
    assert bypass_set(1) == frozenset()


def test_select_mode_threshold_latches():
    state = SchedulerState(delta_t=3, alpha=0.9, warmup=2)
    m7 = select_mode(state, 7, asr=0.95, total_layers=6,
                     kind=StepKind.REUSE)
    assert state.bypass_active
    assert m7.bypassed_layers == frozenset({1, 2, 3, 4})
    # never un-triggers, even if asr drops
    m8 = select_mode(state, 8, asr=0.1, total_layers=6,
                     kind=StepKind.PRUNE)
    assert m8.bypassed_layers == frozenset({1, 2, 3, 4})


def test_select_mode_no_bypass_during_warmup():
    state = SchedulerState(delta_t=3, alpha=0.9, warmup=2)
    m = select_mode(state, 1, asr=1.0, total_layers=6,
                    kind=StepKind.DENSE)
    assert not state.bypass_active
    assert m.kind is StepKind.DENSE
    assert m.bypassed_layers == frozenset()


def test_alpha_above_one_never_triggers():
    state = SchedulerState(delta_t=3, alpha=1.0 + 1e-9, warmup=2)
    for step in range(20):
        select_mode(state, step, asr=1.0, total_layers=6,
                    kind=MODE_TABLE["turbo"].kind(step, state.warmup))
    assert not state.bypass_active


def test_mode_trace_recorded():
    state = SchedulerState(delta_t=3, alpha=0.9, warmup=1)
    for step in range(4):
        select_mode(state, step, asr=0.0, total_layers=4,
                    kind=MODE_TABLE["turbo"].kind(step, state.warmup))
    assert [s for s, _ in state.mode_trace] == [0, 1, 2, 3]
    assert [m.kind for _, m in state.mode_trace] == [
        StepKind.DENSE, StepKind.REUSE, StepKind.PRUNE, StepKind.REUSE]
