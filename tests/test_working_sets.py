"""Traced memory of the cache-sized working sets.

Chunked inference, the HOSVD Gram pass, the streamed ``.mcld`` reader and the
nearest-neighbour screen size their blocks by bytes (``tensor._CACHE_BYTES``),
so what they hold above their input and output is a few budgets per worker
whatever the number of rows.  ``tracemalloc`` sees
numpy's buffers on every thread; allocations made before a measurement
starts, such as the input, are not counted.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mclkit import datasets, layers, models, tensor


def _traced(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hosvd_block_is_bounded_by_the_budget_not_the_rows():
    samples = np.random.default_rng(0).random((400, 32, 32, 3), dtype=np.float32)
    assert 8 * samples.size > 4 * tensor._CACHE_BYTES  # its float64 copy would not fit
    _, peak = _traced(tensor.hosvd_factors, samples, (14, 11, 2))
    assert peak < 2 * tensor._CACHE_BYTES, f"{peak / 2**20:.1f} MiB traced"


@pytest.fixture(scope="module")
def teacher():
    # paper scale: the widest activation is 32x32x16 float32, 64 KiB a row
    return models.build_prior((32, 32, 3), models.MeasurementConfig((14, 11, 2)), 10,
                              width=16, seed=0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["features", "logits"])
def test_chunked_inference_holds_a_few_budgets_per_worker(teacher, monkeypatch, workers, path):
    stacks = teacher.stacks()[:2] if path == "features" else teacher.stacks()
    x = np.random.default_rng(1).random((260, 32, 32, 3), dtype=np.float32)
    monkeypatch.setattr(layers, "_WORKERS", workers)
    out, peak = _traced(layers._forward_chunks, stacks, x)
    bound = out.nbytes + workers * 3 * tensor._CACHE_BYTES
    assert peak < bound, f"{peak / 2**20:.1f} MiB traced, bound {bound / 2**20:.1f} MiB"
    assert np.array_equal(out, layers._forward_path(stacks, x))


def _bundle_bytes(b):
    return sum(a.nbytes for a in (b.train_x, b.train_y, b.val_x, b.val_y, b.test_x,
                                  b.test_y, b.unlabeled_x))


def _write_set(directory, rows, with_val):
    """A 32x32x3 set of ``rows`` training rows, one in ten unlabeled."""
    rng = np.random.default_rng(2)
    y = rng.integers(0, 10, size=rows)
    y[::10] = -1
    datasets.write_split(directory / "train.mcld",
                         rng.random((rows, 32, 32, 3), dtype=np.float32), y)
    datasets.write_split(directory / "test.mcld",
                         rng.random((50, 32, 32, 3), dtype=np.float32), np.arange(50) % 10)
    if with_val:
        datasets.write_split(directory / "val.mcld",
                             rng.random((30, 32, 32, 3), dtype=np.float32), np.arange(30) % 10)


@pytest.mark.parametrize("with_val", [False, True], ids=["carved", "val_file"])
def test_load_dataset_holds_its_arrays_and_two_budgets(tmp_path, with_val):
    _write_set(tmp_path, 1000, with_val)
    assert (tmp_path / "train.mcld").stat().st_size > 5 * tensor._CACHE_BYTES
    bundle, peak = _traced(datasets.load_dataset, tmp_path)
    bound = _bundle_bytes(bundle) + 2 * tensor._CACHE_BYTES
    assert peak <= bound, f"{peak / 2**20:.1f} MiB traced, bound {bound / 2**20:.1f} MiB"


_RSS_PROBE = """
import sys
from mclkit import datasets

def peak():  # VmHWM: this address space's peak resident set, in kB
    with open("/proc/self/status") as fh:
        return 1024 * next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))

before = peak()
b = datasets.load_dataset(sys.argv[1])
print(peak() - before, sum(a.nbytes for a in (b.train_x, b.train_y, b.val_x, b.val_y,
                                              b.test_x, b.test_y, b.unlabeled_x)))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
def test_load_dataset_resident_rise_is_about_its_arrays(tmp_path):
    # Resident memory also counts file-backed pages, which tracemalloc misses.
    # A fresh process has freed nothing that the load could reuse; its
    # ru_maxrss would start at this process's peak, which Linux carries
    # across fork and exec, so it reads the peak of its own address space.
    _write_set(tmp_path, 3000, with_val=False)
    src = str(Path(datasets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    rise, arrays = map(int, out.split())
    assert rise <= 1.2 * arrays, f"peak resident memory rose {rise / arrays:.2f}x the arrays"


def test_nearest_screen_holds_a_few_budgets(monkeypatch):
    rng = np.random.default_rng(3)
    b = rng.random((7000, 308), dtype=np.float32)  # paper_eval's measurement size
    a = rng.random((200, 308), dtype=np.float32)
    assert 8 * b.size >= 8 * tensor._CACHE_BYTES  # its float64 copy would take 8 budgets
    got, peak = _traced(tensor._nearest, a, b, 5)
    assert peak < 4 * tensor._CACHE_BYTES, f"{peak / 2**20:.1f} MiB traced"
    monkeypatch.setattr(tensor, "_CACHE_BYTES", 2**30)  # one tile, one query block
    assert np.array_equal(got, tensor._nearest(a, b, 5))


@pytest.mark.parametrize("tile", [1, 3])
def test_nearest_on_tiles_of_a_few_rows_is_brute_force(monkeypatch, tile):
    rng = np.random.default_rng(4)
    b = rng.integers(0, 3, size=(500, 32)).astype(np.float32)  # exact ties
    a = rng.integers(0, 3, size=(3, 32)).astype(np.float32)
    monkeypatch.setattr(tensor, "_CACHE_BYTES", 16 * 32 * tile)  # float64 tiles of `tile` rows
    fb = b.astype(np.float64)
    for k in (1, 5):
        got, peak = _traced(tensor._nearest, a, b, k)
        brute = [np.lexsort((np.arange(len(b)), ((fb - q) ** 2).sum(axis=1)))[:k]
                 for q in a.astype(np.float64)]
        assert np.array_equal(got, brute)
        assert peak < fb.nbytes / 2, f"{peak} bytes traced"  # b is never converted whole
