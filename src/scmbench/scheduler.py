"""Sampling modes, per-step mode selection and adaptive chain bypass.

:data:`MODE_TABLE` holds every mode. Each runs ``warmup`` fully dense
steps, then its own kinds on even and odd steps. In turbo, even steps
prune (which refreshes the cache and logs similarities) and odd steps
reuse (which reads it in place), so every cache entry is written exactly
one step before a reuse step reads it.

Bypass is driven by the average similarity rate: the mean of all logged
cosines across block kinds, layers, and the compute steps inside a
trailing window of depth ``delta_t``. Once the rate reaches the threshold
``alpha``, all intermediate layers skip their chain for the rest of the
run; the first and last layers keep alternating. The decision is evaluated
once per step boundary, before the step runs, on the window ending at the
latest compute step, and it never un-triggers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["StepKind", "StepMode", "ModeSpec", "MODE_TABLE", "SchedulerState",
           "compute_asr", "select_mode"]


class StepKind(enum.Enum):
    DENSE = "dense"
    PRUNE = "prune"
    REUSE = "reuse"


@dataclass(frozen=True)
class ModeSpec:
    """How one sampling mode runs.

    ``even`` and ``odd`` are the step kinds after warm-up; ``cache`` says
    whether the mode keeps a rolling cache, ``bypass`` whether chain bypass
    may latch, and ``random_keep`` whether keep lists are drawn uniformly
    instead of from the semantic map.
    """

    even: StepKind
    odd: StepKind
    cache: bool
    bypass: bool
    random_keep: bool = False

    def kind(self, step: int, warmup: int) -> StepKind:
        """Dense during warm-up, then ``even`` or ``odd`` by parity."""
        if step < warmup:
            return StepKind.DENSE
        return self.even if step % 2 == 0 else self.odd


_D, _P, _R = StepKind.DENSE, StepKind.PRUNE, StepKind.REUSE
MODE_TABLE = {
    #                       even odd cache  bypass random keep
    "dense":        ModeSpec(_D, _D, False, False),
    "turbo":        ModeSpec(_P, _R, True, True),
    "cache-only":   ModeSpec(_D, _R, True, True),
    "prune-only":   ModeSpec(_P, _P, True, False),
    "bypass-only":  ModeSpec(_D, _D, True, True),
    "random-prune": ModeSpec(_P, _R, True, True, random_keep=True),
}


@dataclass(frozen=True)
class StepMode:
    kind: StepKind
    bypassed_layers: frozenset[int] = frozenset()


@dataclass
class SchedulerState:
    alpha: float
    warmup: int
    bypass_active: bool = False


def bypass_set(total_layers: int) -> frozenset[int]:
    """Intermediate layers only; the first and last are never bypassed."""
    return frozenset(range(1, total_layers - 1))


def compute_asr(log: list, delta_t: int,
                exclude_layers: frozenset[int] = frozenset()) -> float:
    """Windowed mean of a similarity log (records with ``step``, ``layer``
    and ``value``, appended in step order); 0.0 when the window is empty.

    The window ends at the log's latest step, s, and covers records from
    steps in [s - delta_t, s], all block kinds and all non-excluded
    layers. An empty log or window is the not-ready signal: bypass cannot
    trigger on it.
    """
    lo = log[-1].step - delta_t if log else 0
    values = [rec.value for rec in log
              if rec.step >= lo and rec.layer not in exclude_layers]
    return sum(values) / len(values) if values else 0.0


def select_mode(state: SchedulerState, step: int, asr: float,
                total_layers: int, kind: StepKind) -> StepMode:
    """Mode of one step of the given kind; latches bypass if the rate
    clears alpha."""
    if not state.bypass_active and step >= state.warmup and asr >= state.alpha:
        state.bypass_active = True
    layers = bypass_set(total_layers) if state.bypass_active else frozenset()
    return StepMode(kind=kind, bypassed_layers=layers)
