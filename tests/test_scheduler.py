"""Step-mode selection, ASR windowing, and bypass latching."""

import pytest

from scmbench import (CostCounters, Rng, RunConfig, SchedulerState, StepKind,
                      compute_asr, cosine_schedule, run_benchmark, sample,
                      select_mode)
from scmbench.cache import SimilarityRecord
from scmbench.scheduler import MODE_TABLE, bypass_set

from conftest import config_at, make_setup


def log_into(log, values, step=0, layer=0):
    for v in values:
        log.append(SimilarityRecord(step, layer, "spatial", v))


def test_asr_all_ones():
    log = []
    log_into(log, [1.0, 1.0, 1.0], step=5)
    assert compute_asr(log, 3) == pytest.approx(1.0, abs=1e-12)


def test_asr_mean():
    log = []
    log_into(log, [1.0, 0.8, 0.6], step=5)
    assert compute_asr(log, 3) == pytest.approx(0.8, abs=1e-12)


def test_asr_window_excludes_old_steps():
    log = []
    log_into(log, [0.0], step=1)
    log_into(log, [1.0], step=5)
    assert compute_asr(log, 3) == 1.0  # step 1 outside [2, 5]
    assert compute_asr(log, 4) == 0.5


def test_asr_empty_window_not_ready():
    assert compute_asr([], 3) == 0.0
    # Every record in the window is from an excluded layer.
    log = []
    log_into(log, [1.0], step=0, layer=0)
    log_into(log, [1.0], step=10, layer=2)
    assert compute_asr(log, 3, exclude_layers=frozenset({2})) == 0.0


def test_asr_layer_exclusion():
    log = []
    log_into(log, [1.0], step=4, layer=0)
    log_into(log, [0.0], step=4, layer=2)
    assert compute_asr(log, 3) == 0.5
    assert compute_asr(log, 3, exclude_layers=frozenset({2})) == 1.0


def test_asr_reads_only_the_window_of_a_longer_log():
    # Records before the window, inside it and from an excluded layer: the
    # rate is the mean of the window's kept values, summed in log order.
    log = []
    rng = Rng(7)
    records = [(s, layer, float(v)) for s in range(10) for layer in range(3)
               for v in rng.uniform(2)]
    for s, layer, v in records:
        log_into(log, [v], step=s, layer=layer)
    kept = [v for s, layer, v in records if 6 <= s <= 9 and layer != 1]
    assert compute_asr(log, 3, exclude_layers=frozenset({1})) == \
        sum(kept) / len(kept)


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
    model, priors, _ = make_setup(config_at(2, 2, 4, 4, 8, layers=3))
    # a threshold every logged similarity clears: bypass latches iff allowed
    cfg = RunConfig(mode=mode, warmup=2, alpha_threshold=1e-9)
    _, trace = sample(model, priors, cosine_schedule(8), cfg, Rng(2),
                      CostCounters())
    assert "".join(r.kind[0].upper() for r in trace.steps) == kinds
    assert bool(trace.similarity_log) == cached
    assert trace.bypass_active == latches


def test_bypass_set_excludes_first_last():
    assert bypass_set(6) == frozenset({1, 2, 3, 4})
    assert bypass_set(2) == frozenset()
    assert bypass_set(1) == frozenset()


def test_select_mode_threshold_latches():
    state = SchedulerState(alpha=0.9, warmup=2)
    m7 = select_mode(state, 7, asr=0.95, total_layers=6,
                     kind=StepKind.REUSE)
    assert state.bypass_active
    assert m7.bypassed_layers == frozenset({1, 2, 3, 4})
    # never un-triggers, even if asr drops
    m8 = select_mode(state, 8, asr=0.1, total_layers=6,
                     kind=StepKind.PRUNE)
    assert m8.bypassed_layers == frozenset({1, 2, 3, 4})


def test_select_mode_no_bypass_during_warmup():
    state = SchedulerState(alpha=0.9, warmup=2)
    m = select_mode(state, 1, asr=1.0, total_layers=6,
                    kind=StepKind.DENSE)
    assert not state.bypass_active
    assert m.kind is StepKind.DENSE
    assert m.bypassed_layers == frozenset()


def test_alpha_above_one_never_triggers():
    state = SchedulerState(alpha=1.0 + 1e-9, warmup=2)
    for step in range(20):
        select_mode(state, step, asr=1.0, total_layers=6,
                    kind=MODE_TABLE["turbo"].kind(step, state.warmup))
    assert not state.bypass_active


def test_mode_trace_recorded():
    report = run_benchmark(config_at(2, 2, 4, 4, 8, layers=4, steps=4,
                                     mode="turbo", warmup=1))
    mode_trace = report.to_dict()["mode_trace"]
    assert mode_trace == [[r.step, r.kind] for r in report.trace.steps]
    assert mode_trace == [
        [0, "dense"], [1, "reuse"], [2, "prune"], [3, "reuse"]]
