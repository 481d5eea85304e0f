"""Attention cache with one slot per (layer, block kind).

A compute step fills a layer's three slots; :meth:`RollingCache.retrieve`
empties one, in any order, and :meth:`RollingCache.peek` reads one in
place, as prune steps do to refill complements and reuse steps to read
their attention. :meth:`RollingCache.evict` empties every slot of layers
that nothing reads again, as the sampler does for the bypassed layers
once bypass latches. A compute step empties each slot it supersedes
through :meth:`RollingCache.supersede`, which logs the cosine between the
old entry and its fresh counterpart, aside while the step runs its next
stage; the bypass scheduler averages that similarity log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CostCounters, cosine, run_aside
from .errors import CacheProtocolError, DegenerateInputError

__all__ = ["BLOCK_KINDS", "SimilarityRecord", "RollingCache"]

BLOCK_KINDS = ("spatial", "camera", "motion")


@dataclass
class SimilarityRecord:
    step: int
    layer: int
    kind: str
    value: float


class RollingCache:
    """Attention cache, one slot per (layer, block kind).

    A slot holds its entry until a compute step supersedes it or
    :meth:`evict` empties its layer.
    """

    def __init__(self, counters: CostCounters | None = None):
        self._slots: dict[tuple[int, str], np.ndarray] = {}
        self._log: list[SimilarityRecord] = []
        self._running = None  # the comparison running aside, if any
        self.counters = counters

    @property
    def similarity_log(self) -> list[SimilarityRecord]:
        """Every cosine so far, in the order compared; reading it waits
        for the one running aside."""
        self.settle()
        return self._log

    def store(self, layer: int, a_s: np.ndarray, a_c: np.ndarray,
              a_m: np.ndarray, step: int) -> None:
        """Fill a layer's three empty slots with this step's outputs, moving
        their elements from workspace to the persistent live count."""
        if self.has_entries(layer):
            raise CacheProtocolError(
                f"store into filled slots (layer {layer}, step {step})"
            )
        if self.counters is not None:
            self.counters.transfer_workspace(a_s.size + a_c.size + a_m.size)
        for kind, value in zip(BLOCK_KINDS, (a_s, a_c, a_m)):
            self._slots[(layer, kind)] = value

    def retrieve(self, layer: int, kind: str) -> np.ndarray:
        """Empty one slot and return its array."""
        value = self._slots.pop((layer, kind), None)
        if value is None:
            raise CacheProtocolError(f"no cached {kind} entry for layer {layer}")
        if self.counters is not None:
            self.counters.release(value.size)
        return value

    def peek(self, layer: int, kind: str) -> np.ndarray:
        """Read one slot without emptying it."""
        value = self._slots.get((layer, kind))
        if value is None:
            raise CacheProtocolError(f"no cached {kind} entry for layer {layer}")
        return value

    def evict(self, layers) -> None:
        """Empty every slot of ``layers`` through :meth:`retrieve`, so the
        live count falls by their elements. A comparison running aside
        still finishes on the entry it was given."""
        for layer in layers:
            for kind in BLOCK_KINDS:
                if (layer, kind) in self._slots:
                    self.retrieve(layer, kind)

    def has_entries(self, layer: int) -> bool:
        return any((layer, kind) in self._slots for kind in BLOCK_KINDS)

    def record_similarity(self, layer: int, kind: str, new_value: np.ndarray,
                          step: int, cached: np.ndarray) -> float:
        """Log and return the cosine between ``new_value`` and ``cached``,
        the (layer, kind) entry it supersedes; 0.0 when either has zero
        norm. Not for use while a comparison runs aside."""
        try:
            value = cosine(cached, new_value)
        except DegenerateInputError:
            value = 0.0
        self._log.append(SimilarityRecord(step, layer, kind, value))
        return value

    def supersede(self, layer: int, kind: str, new_value: np.ndarray,
                  step: int) -> None:
        """Empty one slot through :meth:`retrieve` and run
        :meth:`record_similarity` between its entry and ``new_value`` off
        the calling thread (:func:`core.run_aside`); ``new_value`` may not
        be written meanwhile. The next comparison, :meth:`settle` or read
        of :attr:`similarity_log` waits for it, so the log keeps call
        order, and once it returns nothing here holds the entry: a caller
        that settles before it allocates never holds two superseded
        entries at once.
        """
        self.settle()
        held = [self.retrieve(layer, kind)]

        def compare() -> float:
            # The job takes the entry out of ``held``, so the entry dies
            # when the job returns: a pool worker drops a job's arguments
            # only after it has set the job's result.
            return self.record_similarity(layer, kind, new_value, step,
                                          held.pop())

        self._running = run_aside(math.prod(new_value.shape[:-1]), compare)

    def settle(self) -> None:
        """Wait for the comparison running aside, if any, and so for its
        entry to be freed; its error, if it failed, is raised here."""
        running, self._running = self._running, None
        if running is not None:
            running()
