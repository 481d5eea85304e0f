"""Thread policy: outputs do not depend on the BLAS thread count or on how
many drainers empty a stage's tile queue, and every tile runs once."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from scmbench import (CostCounters, Rng, axis_attention, build_config,
                      ffn, run_benchmark)
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


# B=7 is odd and splits unevenly; B=2 is fewer tiles than three drainers.
@pytest.mark.parametrize("batch", [7, 2])
def test_outputs_and_counters_do_not_depend_on_split(split_into, batch):
    c, n = 8, 5
    p = make_block(c, 2, 91)
    z_seq = Rng(92).normal((1, batch, n, c))
    prior = Rng(93).normal((1, batch, 1, c))
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

    # More drainers than cores, with the interpreter switching threads as
    # often as it can: a tile that strayed outside its rows, or a buffer
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

    # More drainers than cores, switching threads as often as the
    # interpreter can, and each tile yielding: a tile handed out twice,
    # or never, shows as a count other than one.
    def mark_and_yield(lo, hi):
        mark(lo, hi)
        time.sleep(0)

    split_into(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            seen = np.zeros(200, dtype=int)
            core.run_tiles([(i, i + 1) for i in range(200)], mark_and_yield)
            assert seen.tolist() == [1] * 200
    finally:
        sys.setswitchinterval(interval)


def test_split_reraises_a_failing_part(split_into):
    split_into(2)
    caller = threading.get_ident()

    # Any drainer may take any tile, so make both threads take one: each
    # thread's first tile waits at a barrier until the other has taken
    # one too. Then every tile on the failing side raises.
    for failing_on_caller in (True, False):
        both_started = threading.Barrier(2)
        first = threading.local()

        def fail_on_one_side(lo, hi):
            if not getattr(first, "taken", False):
                first.taken = True
                both_started.wait(timeout=5)
            if (threading.get_ident() == caller) == failing_on_caller:
                raise RuntimeError("tile failed")

        with pytest.raises(RuntimeError, match="tile failed"):
            core.run_tiles([(i, i + 1) for i in range(4)], fail_on_one_side)


def test_a_stalled_thread_holds_up_only_its_own_tile(split_into):
    # The helper's first tile stalls until the calling thread has run
    # every other tile. A split fixed before the stage starts would leave
    # half the tiles behind the stall, and the wait would time out.
    split_into(2)
    n = 20
    caller = threading.get_ident()
    helper_started = threading.Event()
    others_done = threading.Event()
    lock = threading.Lock()
    ran = []

    def run(lo, hi):
        if threading.get_ident() == caller:
            helper_started.wait(timeout=5)
        elif not helper_started.is_set():
            helper_started.set()
            others_done.wait(timeout=5)
        with lock:
            ran.append((lo, threading.get_ident()))
            if sum(t == caller for _, t in ran) == n - 1:
                others_done.set()

    core.run_tiles([(i, i + 1) for i in range(n)], run)
    assert sorted(lo for lo, _ in ran) == list(range(n))
    assert sum(t == caller for _, t in ran) == n - 1


def test_a_stage_started_behind_an_aside_job_does_not_wait_for_it(
        split_into):
    # The pool's workers are all busy with a job that waits until every
    # tile has run; the calling thread drains the whole queue meanwhile.
    split_into(2)
    workers = core._pool()._max_workers
    n = 20
    tiles_done = threading.Event()
    lock = threading.Lock()
    ran = []

    def run(lo, hi):
        with lock:
            ran.append(lo)
            if len(ran) == n:
                tiles_done.set()

    jobs = [core.run_aside(4, tiles_done.wait, 5) for _ in range(workers)]
    core.run_tiles([(i, i + 1) for i in range(n)], run)
    assert sorted(ran) == list(range(n))
    assert all(job() for job in jobs)  # no wait timed out


@pytest.mark.parametrize("parts, tokens", [(1, 10_000), (2, 1_000)])
def test_an_aside_job_runs_at_once_with_one_drainer_or_tile(
        monkeypatch, parts, tokens):
    monkeypatch.setattr(core, "_PARTS", parts)
    calls = []
    job = core.run_aside(tokens, lambda x: calls.append(
        threading.get_ident()) or x, 7)
    assert calls == [threading.get_ident()]
    assert job() == 7


def test_similarity_log_does_not_depend_on_drainers(split_into):
    # The cosines run aside on the pool with several drainers, and on the
    # calling thread with one: the log and the final latent keep their bits.
    config = dict(frames=2, views=2, height=4, width=4, channels=8, layers=2,
                  steps=5, mode="turbo")
    reports = []
    for parts in (1, 3):
        split_into(parts)
        reports.append(run_benchmark(build_config(None, config)))
    logs = [[(r.step, r.layer, r.kind, r.value)
             for r in rep.trace.similarity_log] for rep in reports]
    assert logs[0] == logs[1] and len(logs[0]) > 0
    assert np.array_equal(reports[0].z_final, reports[1].z_final)


def test_small_jobs_run_serially_on_the_calling_thread(monkeypatch):
    # Fewer than two tiles' worth of tokens is one tile, run in place.
    monkeypatch.setattr(core, "_PARTS", 2)
    n = 2 * core._TILE_TOKENS - 1
    calls = []
    core.run_tiles(core.tiles(n), lambda lo, hi: calls.append(
        (lo, hi, threading.get_ident())))
    assert calls == [(0, n, threading.get_ident())]
