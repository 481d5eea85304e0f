"""The compiled kernels of ``_kernels.c``: each gives the bits of the numpy
expression it replaced, at any optimization level, and the loader builds
a library only when none of its key is cached."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmbench import core
from scmbench.attention import _gelu_inplace, _row_grid
from scmbench.core import _DRAW_CHUNK, softmax_last_inplace
from scmbench.denoiser import mixing
from scmbench.errors import ParameterError, ShapeError

from conftest import (assert_same_bits, box_muller_inputs_reference,
                      gather_kv_reference, gelu, pruned_rows_reference,
                      reflect_average_reference, row_topk_reference,
                      scale_queries_reference, scatter_reference,
                      softmax_reference, uniform_reference)

PACKAGE = Path(core.__file__).parent
SIDES = (1, 2, 3, 16)


def softmax_inputs() -> list[np.ndarray]:
    """Rows of every length from 1 to 300 and of 1,000 and 4,097, at two
    scales, and rows with ties, signed zeros, infinities and NaNs."""
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((3, n)) * rng.choice([1.0, 40.0], (3, 1))
          for n in [*range(1, 301), 1000, 4097]]
    xs.append(rng.standard_normal((4, 2, 16, 17)))  # attention's layout
    inf, nan = np.inf, np.nan
    for n in (2, 5, 9, 17, 40, 257):
        for pos in (0, n // 2, n - 1):
            for value in (inf, -inf, nan):
                row = rng.standard_normal(n)
                row[pos] = value
                xs.append(row)
        xs.append(np.full(n, 3.0))                    # a row of ties
        xs.append(np.repeat([1.0, 2.0], [n - n // 2, n // 2]))
        xs.append(np.full(n, -inf))
        xs.append(np.where(np.arange(n) % 2, 0.0, -0.0))
    xs.append(np.array([inf, nan, -inf, 1.0]))
    return xs


def gelu_input() -> np.ndarray:
    """Signed zeros, subnormals, arguments whose cube overflows, the
    infinities, NaN, normals over several decades, and a dense sample of
    the range where the cubic term and tanh both matter."""
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e3 * tiny, -7e5 * tiny,
               np.finfo(np.float64).tiny, 1e103, -1e103, 3e150, -1e200,
               np.finfo(np.float64).max, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(1)
    normals = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 4, 1000)
    return np.concatenate([special, normals, rng.uniform(-6.0, 6.0, 2000)])


def reflect_inputs() -> list[np.ndarray]:
    """[t, H, W, C] latents with H and W each 1, 2, 3 or 16."""
    rng = np.random.default_rng(2)
    return [rng.standard_normal((2, h, w, c))
            for h in SIDES for w in SIDES for c in (1, 5, 64)]


def reflect_with(kernels, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    assert kernels.reflect_average(y.ctypes.data, out.ctypes.data,
                                   *y.shape) == 0
    return out


def topk_inputs() -> list[tuple[np.ndarray, int]]:
    """(scores, k): random and tied rows at k = 1, 2, a fifth, n - 1 and n,
    among them n = 1 and a single row; rows with signed zeros, infinities
    and NaNs, an all-NaN row, at every k."""
    rng = np.random.default_rng(4)
    cases = []
    for rows, n in ((1, 1), (3, 1), (1, 7), (4, 64), (5, 256), (2, 1000)):
        scores = rng.standard_normal((rows, n))
        tied = rng.integers(0, 3, (rows, n)).astype(np.float64)
        for k in sorted({1, 2, -(-n // 5), n - 1, n} & set(range(1, n + 1))):
            cases += [(scores, k), (tied, k)]
    inf, nan = np.inf, np.nan
    special = np.array([[nan, -inf, inf, 0.0, -0.0, 1.0, nan, -inf, 0.0],
                        [-0.0, 0.0] * 4 + [nan],
                        [nan] * 9])
    cases += [(special, k) for k in range(1, 10)]
    return cases


def topk_with(kernels, scores: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((scores.shape[0], k), dtype=np.int64)
    assert kernels.row_topk(scores.ctypes.data, out.ctypes.data,
                            *scores.shape, k) == 0
    return out


# An attention tile at the default dims (C = 64, 2 heads): (sequences, n)
# of the spatial, camera and motion tiles.
QUERY_TILES = ((1, 256), (64, 8), (128, 5))


def scale_with(kernels, qkv: np.ndarray, t: int, n: int) -> np.ndarray:
    got = qkv.copy()
    kernels.scale_queries(got.ctypes.data, t, n, qkv.shape[1] // 3,
                          1.0 / math.sqrt(32))
    return got


def query_inputs() -> list[tuple[np.ndarray, int, int]]:
    rng = np.random.default_rng(6)
    return [(rng.standard_normal((t * (n + 1), 192)), t, n)
            for t, n in QUERY_TILES]


def pruned_cases() -> list[tuple]:
    """(axis, keep, f, v, l, c) of pruned blocks: random keep lists, one
    kept position, all H*W kept, and kept positions only in each slab's
    last half; among them one frame and one view, whose sequences are one
    row."""
    rng = np.random.default_rng(5)
    cases = []
    for f, v, l, c in ((2, 3, 10, 3), (3, 2, 16, 64), (1, 4, 6, 1),
                       (4, 1, 8, 5)):
        for axis in ("camera", "motion"):
            g = f if axis == "camera" else v
            k = int(rng.integers(2, l))
            for keep in (np.sort([rng.choice(l, k, replace=False)
                                  for _ in range(g)]),
                         np.full((g, 1), l - 1), np.tile(np.arange(l), (g, 1)),
                         np.tile(np.arange(l // 2, l), (g, 1))):
                cases.append((axis, keep.astype(np.int64), f, v, l, c))
    return cases


def pruned_arrays(case) -> tuple:
    """(z, prior, rows, att) of a pruned case: a latent, its priors, the
    row grid and the kept sequences' attention."""
    axis, keep, f, v, l, c = case
    rng = np.random.default_rng(keep.size + f)
    rows = pruned_rows_reference(axis, keep, f, v, l)
    z = rng.standard_normal((f * v * l, c))
    prior = rng.standard_normal((keep.shape[0] * l, c))
    att = rng.standard_normal((*rows.shape[:2], rows.shape[2] - 1, c))
    return z, prior, rows, att


def gather_with(kernels, z, prior, rows) -> np.ndarray:
    kv = np.full((*rows.shape[:-1], rows.shape[-1], z.shape[1]), np.nan)
    kernels.gather_kv(kv.ctypes.data, z.ctypes.data, prior.ctypes.data,
                      rows.ctypes.data, rows.size // rows.shape[-1],
                      rows.shape[-1] - 1, z.shape[1])
    return kv


def scatter_with(kernels, att, rows, out) -> np.ndarray:
    new = out.copy()
    seqs, n = rows.size // rows.shape[-1], rows.shape[-1] - 1
    # One call per outer sequence row, as the tiles of a block make them.
    for g in range(rows.shape[0]):
        kernels.scatter_rows(new.ctypes.data, att[g].ctypes.data,
                             rows[g].ctypes.data, seqs // rows.shape[0], n,
                             out.shape[1])
    return new


def pruned_kernel_outputs(kernels) -> list[np.ndarray]:
    """Every pruned case's gather, and scatter over a NaN entry."""
    got = []
    for case in pruned_cases():
        z, prior, rows, att = pruned_arrays(case)
        got.append(gather_with(kernels, z, prior, rows))
        got.append(scatter_with(kernels, att, rows, np.full_like(z, np.nan)))
    return got


# Stream states: small ones, 2^63 and past it, and the last before the
# state wraps; and counts around a normal chunk, odd ones among them.
STREAM_STATES = (0, 7919, 2 ** 63, 2 ** 63 + 12345678901234567, 2 ** 64 - 1)
STREAM_COUNTS = (1, 2, 7, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1)


def uniforms_with(kernels, state: int, n: int) -> np.ndarray:
    out = np.full(n, np.nan)
    kernels.uniform_draws(out.ctypes.data, state, n)
    return out


def box_muller_with(kernels, state: int,
                    pairs: int) -> tuple[np.ndarray, np.ndarray]:
    u1, u2 = np.full(pairs, np.nan), np.full(pairs, np.nan)
    kernels.box_muller_inputs(u1.ctypes.data, u2.ctypes.data, state, pairs)
    return u1, u2


def stream_outputs(kernels) -> list[np.ndarray]:
    """Every stream case's uniforms, and its Box-Muller inputs for as many
    pairs as a normal draw of that count makes."""
    got = []
    for state in STREAM_STATES:
        for n in STREAM_COUNTS:
            got.append(uniforms_with(kernels, state, n))
            got += box_muller_with(kernels, state, (n + 1) // 2)
    return got


def grid_with(kernels, axis: str, keep: np.ndarray, f: int, v: int,
              l: int) -> tuple[int, np.ndarray]:
    """``pruned_rows``' return value and row grid, filled with -7 first,
    so that nothing written shows."""
    n, slab_g, slab_j = (v, v, 1) if axis == "camera" else (f, 1, v)
    keep = np.ascontiguousarray(keep, dtype=np.int64)
    rows = np.full((*keep.shape, n + 1), -7, dtype=np.int64)
    code = kernels.pruned_rows(rows.ctypes.data, keep.ctypes.data,
                               *keep.shape, n, l, slab_g, slab_j)
    return code, rows


def in_range_with(kernels, rows: np.ndarray, z_rows: int,
                  prior_rows: int) -> int:
    return kernels.rows_in_range(rows.ctypes.data, rows.size // rows.shape[-1],
                                 rows.shape[-1] - 1, z_rows, prior_rows)


def grid_outputs(kernels) -> list[np.ndarray]:
    """Every pruned case's row grid, and the bound check's verdicts on it
    at its bounds and one row short of each."""
    got = []
    for axis, keep, f, v, l, _ in pruned_cases():
        code, rows = grid_with(kernels, axis, keep, f, v, l)
        z_rows, prior_rows = f * v * l, keep.shape[0] * l
        verdicts = [in_range_with(kernels, rows, *bounds)
                    for bounds in ((z_rows, prior_rows),
                                   (z_rows - 1, prior_rows),
                                   (z_rows, prior_rows - 1))]
        got += [rows, np.array([code, *verdicts], dtype=np.int64)]
    return got


# The ways a keep row can be malformed, made from a well-formed [G, K]
# keep list at L positions, each still integers of the same shape.
_MALFORMED = {
    "unsorted": lambda keep, l: keep[:, ::-1],
    "duplicate": lambda keep, l: np.concatenate(
        (keep[:, :1], keep[:, :-1]), axis=1),
    "negative": lambda keep, l: keep - keep[:, :1] - 1,
    "past-the-end": lambda keep, l: keep + (l - keep[:, -1:]),
    "uint64-2^63": lambda keep, l: keep.astype(np.uint64) + np.uint64(2 ** 63),
}


# --- bits against the numpy references -------------------------------------

def test_softmax_gives_the_numpy_bits():
    for x in softmax_inputs():
        got = x.copy()
        assert softmax_last_inplace(got) is got
        with np.errstate(invalid="ignore"):  # inf - inf, as in numpy
            assert_same_bits(got, softmax_reference(x))


def test_gelu_gives_the_numpy_bits():
    x = gelu_input()
    for n in (1, 7, 8, 9, 15, 64, len(x)):  # every tail of a vector loop
        got = x[:n].copy()
        assert _gelu_inplace(got) is got
        with np.errstate(all="ignore"):
            assert_same_bits(got, gelu(x[:n]))


def test_reflect_average_gives_the_numpy_bits():
    for y in reflect_inputs():
        assert_same_bits(reflect_with(core._kernels, y),
                         reflect_average_reference(y))


def test_row_topk_gives_the_numpy_indices():
    for scores, k in topk_inputs():
        assert np.array_equal(topk_with(core._kernels, scores, k),
                              row_topk_reference(scores, k))


def test_scale_queries_gives_the_numpy_bits():
    # Each default tile's queries scaled through their strided head view.
    for qkv, t, n in query_inputs():
        want = qkv.copy()
        scale_queries_reference(want, t, n, 2)
        assert_same_bits(scale_with(core._kernels, qkv, t, n), want)


def test_gather_kv_gives_the_numpy_rows():
    for case in pruned_cases():
        z, prior, rows, _ = pruned_arrays(case)
        assert_same_bits(gather_with(core._kernels, z, prior, rows),
                         gather_kv_reference(z, prior, rows))


def test_scatter_rows_writes_only_the_kept_rows():
    for case in pruned_cases():
        z, _, rows, att = pruned_arrays(case)
        want = np.full_like(z, np.nan)
        scatter_reference(want, att, rows)
        assert_same_bits(scatter_with(core._kernels, att, rows,
                                      np.full_like(z, np.nan)), want)


def test_uniform_draws_give_the_numpy_bits():
    for state in STREAM_STATES:
        for n in STREAM_COUNTS:
            assert_same_bits(uniforms_with(core._kernels, state, n),
                             uniform_reference(state, n))


def test_box_muller_inputs_give_the_numpy_bits():
    for state in STREAM_STATES:
        for n in STREAM_COUNTS:
            pairs = (n + 1) // 2
            got = box_muller_with(core._kernels, state, pairs)
            for g, want in zip(got, box_muller_inputs_reference(state, pairs)):
                assert_same_bits(g, want)


@pytest.mark.parametrize("axis", ["camera", "motion"])
@pytest.mark.parametrize("kept", ["one", "some", "all"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_grid_gives_the_numpy_rows(axis, kept, data):
    f, v, h, w = (data.draw(st.integers(1, 4), label=name) for name in "fvhw")
    l = h * w
    k = {"one": 1, "all": l}.get(kept) or data.draw(st.integers(1, l),
                                                    label="k")
    keep = np.array([sorted(data.draw(st.sets(st.integers(0, l - 1),
                                              min_size=k, max_size=k)))
                     for _ in range(f if axis == "camera" else v)],
                    dtype=np.int64)
    rows = _row_grid(keep, axis, f, v, l)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, pruned_rows_reference(axis, keep, f, v, l))


@pytest.mark.parametrize("bad", sorted(_MALFORMED))
@pytest.mark.parametrize("axis", ["camera", "motion"])
def test_row_grid_refuses_a_malformed_keep_list(axis, bad):
    # The check comes first: the kernel writes nothing for a bad list.
    f, v, l = 2, 3, 16
    keep = np.tile(np.array([1, 5, 15]), (f if axis == "camera" else v, 1))
    malformed = np.ascontiguousarray(_MALFORMED[bad](keep, l), dtype=np.int64)
    code, rows = grid_with(core._kernels, axis, malformed, f, v, l)
    assert code == -1
    assert (rows == -7).all()
    with pytest.raises(ParameterError, match="strictly increasing"):
        _row_grid(malformed, axis, f, v, l)


def test_rows_in_range_checks_each_bound():
    for axis, keep, f, v, l, _ in pruned_cases():
        rows = pruned_rows_reference(axis, keep, f, v, l)
        z_rows, prior_rows = f * v * l, keep.shape[0] * l
        assert in_range_with(core._kernels, rows, z_rows, prior_rows) == 0
        for bounds in ((rows[..., :-1].max(), prior_rows),
                       (z_rows, rows[..., -1].max())):
            assert in_range_with(core._kernels, rows, *bounds) == -1
        for sign in (-1, 1):
            for last in (False, True):
                bad = rows.copy()
                bad[-1, -1, -1 if last else 0] = (
                    -1 if sign < 0 else (prior_rows if last else z_rows))
                assert in_range_with(core._kernels, bad, z_rows,
                                     prior_rows) == -1


@pytest.mark.parametrize("h", SIDES)
@pytest.mark.parametrize("w", SIDES)
def test_mixing_is_the_matmul_then_the_reference_average(h, w):
    rng = np.random.default_rng(3)
    z, mix = rng.standard_normal((2, 3, h, w, 4)), rng.standard_normal((4, 4))
    y = (z.reshape(-1, 4) @ mix).reshape(6, h, w, 4)
    assert_same_bits(mixing(z, mix),
                     reflect_average_reference(y).reshape(z.shape))


def kernel_outputs(kernels) -> list[np.ndarray]:
    """What every kernel of ``kernels`` gives on the reference cases."""
    got = []
    for x in softmax_inputs():
        x = np.ascontiguousarray(x)
        a, n = x.copy(), x.shape[-1]
        kernels.softmax_sub_max(a.ctypes.data, a.size // n, n)
        b = x.copy()
        kernels.softmax_div_sum(b.ctypes.data, b.size // n, n)
        got += [a, b]
    x = gelu_input()
    t, y = np.empty_like(x), x.copy()
    kernels.gelu_tanh_arg(x.ctypes.data, t.ctypes.data, x.size, 0.79)
    got.append(t.copy())
    np.tanh(t, out=t)
    kernels.gelu_finish(y.ctypes.data, t.ctypes.data, x.size)
    got.append(y)
    got += [reflect_with(kernels, r) for r in reflect_inputs()]
    got += [topk_with(kernels, *case) for case in topk_inputs()]
    got += [scale_with(kernels, *case) for case in query_inputs()]
    got += pruned_kernel_outputs(kernels)
    got += stream_outputs(kernels)
    got += grid_outputs(kernels)
    return got


def test_unoptimized_build_gives_the_same_bits(tmp_path):
    # At -O0 gcc neither vectorizes, contracts nor reorders anything, so
    # any of those in the shipped build would show here.
    plain = core._load_kernels(tmp_path, flags=("-O0", "-fPIC", "-shared"))
    for shipped, unoptimized in zip(kernel_outputs(core._kernels),
                                    kernel_outputs(plain)):
        assert_same_bits(shipped, unoptimized)


# The kernels built with gcc's address and undefined-behaviour sanitizers,
# which end the process at the first report; -O1 and the frame pointer
# keep a report's stack readable.
SANITIZED = ("-O1", "-g", "-fno-omit-frame-pointer",
             "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
             "-ffp-contract=off", "-fPIC", "-shared")

# A process that puts the sanitized kernels in place of the shipped ones
# in every module that calls them, runs each kernel on the reference
# cases, and runs every mode at small dims keeping one position and all.
SANITIZED_RUN = """
import sys
from pathlib import Path
sys.path[:0] = [{tests!r}, {src!r}]
from scmbench import attention, core, denoiser, pruning, run_benchmark
from scmbench.scheduler import MODE_TABLE
from conftest import config_at
from test_kernels import SANITIZED, kernel_outputs

kernels = core._load_kernels(Path({cache!r}), flags=SANITIZED)
for module in (core, attention, pruning, denoiser):
    module._kernels = kernels
kernel_outputs(kernels)
for mode in MODE_TABLE:
    for ratio in (1 / 16, 1.0):
        run_benchmark(config_at(2, 2, 4, 4, 8, layers=3, steps=6, mode=mode,
                                topk_ratio=ratio))
"""


def test_the_kernels_stay_inside_their_arrays_under_a_sanitizer(tmp_path):
    found = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                           capture_output=True, text=True).stdout.strip()
    asan = Path(found)
    if not asan.is_absolute() or not asan.exists():
        pytest.skip("gcc has no libasan.so")
    code = SANITIZED_RUN.format(tests=str(Path(__file__).parent),
                                src=str(PACKAGE.parent), cache=str(tmp_path))
    # The sanitizer's runtime must load before anything else; Python
    # itself is not built with it, so its leak report would be noise.
    env = dict(os.environ, LD_PRELOAD=str(asan),
               ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "Sanitizer" not in done.stderr
    assert "runtime error" not in done.stderr


# --- the softmax contract --------------------------------------------------

@pytest.mark.parametrize("x", [
    np.ones((4, 6))[:, ::2],          # a strided view
    np.ones((3, 4)).T,                # Fortran order
    np.ones((2, 3), dtype=np.float32),
    np.ones((2, 3), dtype=np.int64),
], ids=["strided", "fortran", "float32", "int64"])
def test_softmax_rejects_what_the_kernel_cannot_read(x):
    before = x.copy()
    with pytest.raises(ShapeError, match="C-contiguous float64"):
        softmax_last_inplace(x)
    assert np.array_equal(x, before)


def test_gelu_and_mixing_reject_what_the_kernels_cannot_read():
    with pytest.raises(ShapeError, match="C-contiguous float64"):
        _gelu_inplace(np.ones((4, 6))[:, ::2])
    z, mix = np.ones((1, 2, 3, 3, 4), np.float32), np.eye(4, dtype=np.float32)
    with pytest.raises(ShapeError, match="C-contiguous float64"):
        mixing(z, mix)


# --- the loader ------------------------------------------------------------

@pytest.fixture
def compiles(monkeypatch):
    """The commands of every gcc run from now on."""
    commands = []
    run = subprocess.run

    def counted(command, *args, **kwargs):
        commands.append(command)
        return run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return commands


def test_a_changed_source_flag_or_cpu_key_rebuilds(tmp_path, compiles):
    source = tmp_path / "k.c"
    source.write_bytes(core._KERNEL_SOURCE.read_bytes())
    cache = tmp_path / "cache"
    flags = ("-O1", "-fPIC", "-shared")
    core._load_kernels(cache, source, flags, "A")
    core._load_kernels(cache, source, flags, "A")
    assert len(compiles) == 1
    core._load_kernels(cache, source, flags, "A B")
    core._load_kernels(cache, source, ("-O2", *flags[1:]), "A")
    source.write_bytes(source.read_bytes() + b"/* changed */\n")
    core._load_kernels(cache, source, flags, "A")
    assert len(compiles) == 4
    assert len(list(cache.glob("_kernels-*.so"))) == 1
    assert sorted(p.name for p in cache.iterdir()
                  if not p.name.endswith(".so")) == []


def libraries(cache: Path) -> list[str]:
    return sorted(p.name for p in cache.iterdir())


def test_building_a_second_key_leaves_one_library(tmp_path):
    # The first key's library is stale once the second is built; another
    # process's part file may still be written, so it stays.
    flags = ("-O1", "-fPIC", "-shared")
    first = Path(core._load_kernels(tmp_path, flags=flags,
                                    features="A")._name)
    part = tmp_path / "_kernels-0badc0de.so.4242"
    part.write_bytes(b"")
    second = Path(core._load_kernels(tmp_path, flags=flags,
                                     features="A B")._name)
    assert second != first
    assert libraries(tmp_path) == sorted([second.name, part.name])


def test_loading_a_current_library_neither_builds_nor_deletes(tmp_path,
                                                              compiles):
    flags = ("-O1", "-fPIC", "-shared")
    core._load_kernels(tmp_path, flags=flags, features="A")
    shutil.copy(next(tmp_path.glob("*.so")), tmp_path / "_kernels-0.so")
    before = libraries(tmp_path)
    core._load_kernels(tmp_path, flags=flags, features="A")
    assert len(compiles) == 1
    assert libraries(tmp_path) == before


def test_a_failing_build_deletes_nothing(tmp_path):
    core._load_kernels(tmp_path, flags=("-O1", "-fPIC", "-shared"),
                       features="A")
    before = libraries(tmp_path)
    with pytest.raises(ImportError, match="-fno-such-option"):
        core._load_kernels(tmp_path, flags=("-fno-such-option", "-fPIC",
                                            "-shared"), features="A")
    assert libraries(tmp_path) == before


def test_a_cache_that_cannot_be_made_ends_in_an_import_error(tmp_path):
    # A cache under a regular file cannot be made, as one in a read-only
    # site-packages cannot; the error names the directory and the cause.
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    cache = blocker / "cache"
    with pytest.raises(ImportError) as info:
        core._load_kernels(cache, flags=("-O1", "-fPIC", "-shared"),
                           features="A")
    message = str(info.value)
    assert message.startswith(f"scmbench's kernel cache {cache} cannot be "
                              f"made: ")
    assert "Not a directory" in message


def test_a_current_library_loads_without_the_compiler(monkeypatch):
    def no_compiler(*args, **kwargs):
        pytest.fail(f"the compiler ran: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    kernels = core._load_kernels()
    assert Path(kernels._name).parent == core._KERNEL_CACHE


def package_copy(tmp_path: Path) -> Path:
    """A copy of the scmbench sources, with no library built, under a
    directory to put first on ``sys.path``."""
    shutil.copytree(PACKAGE, tmp_path / "pkg" / "scmbench",
                    ignore=shutil.ignore_patterns(".kernels", "__pycache__"))
    return tmp_path / "pkg"


def importer(root: Path, env=None) -> subprocess.Popen:
    code = (f"import sys; sys.path.insert(0, {str(root)!r}); "
            f"import scmbench; print(scmbench.__file__)")
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_two_processes_importing_at_once_both_build_and_load(tmp_path):
    root = package_copy(tmp_path)
    procs = [importer(root) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip().startswith(str(root))
    built = sorted(p.name for p in (root / "scmbench" / ".kernels").iterdir())
    assert len(built) == 1 and built[0].endswith(".so")


def test_a_failing_compiler_ends_import_with_one_error(tmp_path):
    root = package_copy(tmp_path)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    gcc = bin_dir / "gcc"
    gcc.write_text("#!/bin/sh\necho 'gcc: out of order' >&2\nexit 3\n")
    gcc.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}:{os.environ['PATH']}")
    proc = importer(root, env)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert err.count("Traceback") == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith("ImportError: building scmbench's kernels failed: "
                           "gcc -O3 -march=native -ffp-contract=off")
    assert last.endswith("exit code 3: gcc: out of order")
    assert not (root / "scmbench" / ".kernels").exists() or not any(
        (root / "scmbench" / ".kernels").iterdir())
