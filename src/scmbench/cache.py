"""Per-layer FIFO store of the three block attention outputs.

Each layer owns a queue of at most three entries, always inserted in
spatial, camera, motion order by :meth:`RollingCache.store` and drained in
the same order by :meth:`RollingCache.retrieve`. Retrieval releases the
entry's elements from the live-memory counter; :meth:`RollingCache.peek`
reads without consuming, which is how a pruning step refills complements
while the same entry still feeds similarity recording.

Every cosine between a cached entry and its freshly computed counterpart
is appended to a global similarity log; the bypass scheduler averages over
that log. The fresh side's squared norm is kept, so the next step's cosine
against the same array, once it is the cached side, skips that pass.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import CostCounters, cosine, sq_norm
from .errors import CacheProtocolError, DegenerateInputError

__all__ = ["BLOCK_KINDS", "SimilarityRecord", "RollingCache"]

BLOCK_KINDS = ("spatial", "camera", "motion")


@dataclass
class CacheEntry:
    kind: str
    value: np.ndarray


@dataclass
class SimilarityRecord:
    step: int
    layer: int
    kind: str
    value: float
    degenerate: bool = False


class RollingCache:
    """FIFO attention cache, one queue per layer, capacity three."""

    def __init__(self, counters: CostCounters | None = None):
        self._queues: dict[int, deque[CacheEntry]] = {}
        self.similarity_log: list[SimilarityRecord] = []
        self.counters = counters
        # (layer, kind) -> the last fresh value compared and its sq_norm
        self._sq_norms: dict[tuple[int, str], tuple[np.ndarray, float]] = {}

    def _queue(self, layer: int) -> deque[CacheEntry]:
        return self._queues.setdefault(layer, deque())

    def store(self, layer: int, a_s: np.ndarray, a_c: np.ndarray,
              a_m: np.ndarray, step: int, from_workspace: bool = False) -> None:
        """Insert a full entry set for a layer.

        With ``from_workspace`` the stored tensors were produced during the
        current step and are already counted as workspace; storing them
        moves their elements to the persistent side of the live counter
        instead of acquiring them a second time.
        """
        q = self._queue(layer)
        if q:
            raise CacheProtocolError(
                f"store into non-empty queue (layer {layer}, step {step})"
            )
        for kind, value in zip(BLOCK_KINDS, (a_s, a_c, a_m)):
            q.append(CacheEntry(kind, value))
            if self.counters is not None:
                if from_workspace:
                    self.counters.transfer_workspace(value.size)
                else:
                    self.counters.acquire(value.size)

    def retrieve(self, layer: int, kind: str) -> np.ndarray:
        q = self._queue(layer)
        if not q:
            raise CacheProtocolError(f"retrieve from empty queue (layer {layer})")
        if q[0].kind != kind:
            raise CacheProtocolError(
                f"retrieve order violation: wanted {kind}, head is {q[0].kind}"
            )
        entry = q.popleft()
        if self.counters is not None:
            self.counters.release(entry.value.size)
        return entry.value

    def peek(self, layer: int, kind: str) -> np.ndarray:
        """Read a cached entry without consuming it."""
        for entry in self._queue(layer):
            if entry.kind == kind:
                return entry.value
        raise CacheProtocolError(f"no cached {kind} entry for layer {layer}")

    def has_entries(self, layer: int) -> bool:
        return bool(self._queues.get(layer))

    def record_similarity(self, layer: int, kind: str, new_value: np.ndarray,
                          step: int) -> float:
        cached = self.peek(layer, kind)
        known = self._sq_norms.get((layer, kind))
        cached_sq = known[1] if known is not None and known[0] is cached \
            else sq_norm(cached)
        new_sq = sq_norm(new_value)
        self._sq_norms[(layer, kind)] = (new_value, new_sq)
        try:
            value = cosine(cached, new_value, cached_sq, new_sq)
            degenerate = False
        except DegenerateInputError:
            value = 0.0
            degenerate = True
        self.similarity_log.append(
            SimilarityRecord(step, layer, kind, value, degenerate)
        )
        return value

    def write_similarity_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "layer", "kind", "cosine"])
            for rec in self.similarity_log:
                writer.writerow([rec.step, rec.layer, rec.kind, repr(rec.value)])
