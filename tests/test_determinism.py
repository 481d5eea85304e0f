"""Thread policy: outputs do not depend on the BLAS thread count or on how
many runs the tiles are split into."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from scmbench import CostCounters, Rng, axis_attention, ffn
from scmbench import core
from scmbench.denoiser import mixing

from conftest import make_block

SRC = Path(__file__).resolve().parent.parent / "src"

_DIGEST_SCRIPT = """
import hashlib
from scmbench import build_config, run_benchmark
z = run_benchmark(build_config(None, {"steps": 1, "layers": 1,
                                      "mode": "dense"})).z_final
print(hashlib.sha256(z.tobytes()).hexdigest())
"""


def _final_latent_digest(blas_threads: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.strip()


def test_final_latent_does_not_depend_on_blas_threads():
    one = _final_latent_digest("1")
    two = _final_latent_digest("2")
    assert len(one) == 64
    assert one == two


@pytest.fixture
def split_into(monkeypatch):
    """Force the tiles into a given number of runs, with tiles so small
    that tiny inputs still split into many of them."""
    def force(parts: int) -> None:
        monkeypatch.setattr(core, "_PARTS", parts)
        monkeypatch.setattr(core, "_TILE_TOKENS", 1)
    return force


# B=7 is odd and splits unevenly; B=2 is smaller than three parts.
@pytest.mark.parametrize("batch", [7, 2])
def test_outputs_and_counters_do_not_depend_on_split(split_into, batch):
    c, n = 8, 5
    p = make_block(c, 2, 91)
    z_seq = Rng(92).normal((batch, n, c))
    prior = Rng(93).normal((batch, 1, c))
    z = Rng(94).normal((batch, 1, 3, 4, c))
    mix = Rng(95).normal((c, c))

    def run_all():
        counters = CostCounters()
        att, pw = axis_attention(z_seq, prior, p, counters, block="camera")
        hidden = ffn(z_seq, p, counters)
        mixed = mixing(z, mix, counters).copy()
        similarity = core.cosine(att, hidden)
        return [a.tobytes() for a in (att, pw, hidden, mixed)], \
            similarity, counters

    results = []
    for parts in (1, 2, 3):
        split_into(parts)
        results.append(run_all())
    for got in results[1:]:
        assert got == results[0]

    # More parts than cores, with the interpreter switching threads as
    # often as it can: a part that strayed outside its rows, or a buffer
    # shared between threads, would show as a changed byte.
    split_into(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert run_all() == results[0]
    finally:
        sys.setswitchinterval(interval)


def test_split_covers_every_row_once(split_into):
    split_into(3)
    seen = np.zeros(10, dtype=int)

    def mark(lo, hi):
        seen[lo:hi] += 1

    core.run_tiles(core.tiles(10), mark)
    assert seen.tolist() == [1] * 10


def test_split_reraises_a_failing_part(split_into):
    split_into(2)

    # four one-row tiles in two runs: only the pool's run fails
    def fail_second_half(lo, hi):
        if lo >= 2:
            raise RuntimeError("part failed")

    with pytest.raises(RuntimeError, match="part failed"):
        core.run_tiles(core.tiles(4), fail_second_half)


def test_small_jobs_run_serially_on_the_calling_thread(monkeypatch):
    # Fewer than two tiles' worth of tokens is one tile, run in place.
    monkeypatch.setattr(core, "_PARTS", 2)
    n = 2 * core._TILE_TOKENS - 1
    calls = []
    core.run_tiles(core.tiles(n), lambda lo, hi: calls.append(
        (lo, hi, threading.get_ident())))
    assert calls == [(0, n, threading.get_ident())]
