"""Traced memory of the cache-sized working sets.

Chunked inference and the HOSVD Gram pass size their blocks by bytes
(``tensor._CACHE_BYTES``), so what they hold above their input and output is
a few budgets per worker whatever the number of rows.  ``tracemalloc`` sees
numpy's buffers on every thread; allocations made before a measurement
starts, such as the input, are not counted.
"""

import tracemalloc

import numpy as np
import pytest

from mclkit import layers, models, tensor


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
