"""Dataset container, binary on-disk format, semi-supervised splitting, and a
synthetic low-rank generator for fast end-to-end runs.

One ``.mcld`` file holds one split.  Layout (little-endian u32 integers):

    magic b"MCLD" | version | count | rank | dims[rank] | n_classes |
    count records of (float32 payload of prod(dims) values, u32 label)

The label sentinel ``0xFFFFFFFF`` marks an unlabeled sample.  A dataset
directory holds ``train.mcld`` and ``test.mcld`` plus an optional
``val.mcld``; unlabeled training samples ride inside ``train.mcld`` via the
sentinel.  Pixel payloads are stored already scaled to [0, 1].

Reading streams the records in ``tensor._CACHE_BYTES`` blocks through one
buffer: labels first, then the payloads, copied block by block into the
training, carved validation or pool array, so loading a dataset holds about
its arrays plus two budgets, whatever the file size.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor
from .errors import (
    ConfigError,
    DatasetFormatError,
    DatasetLabelError,
    DatasetTruncatedError,
)

__all__ = [
    "DatasetBundle",
    "read_split",
    "write_split",
    "load_dataset",
    "save_dataset",
    "split_semisup",
    "synth_dataset",
    "nearest_template_accuracy",
]

MAGIC = b"MCLD"
VERSION = 1
UNLABELED = 0xFFFFFFFF


@dataclass
class DatasetBundle:
    """Train/validation/test splits plus an unlabeled pool (``None``: empty)."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int
    unlabeled_x: np.ndarray | None = None

    def __post_init__(self):
        shape = self.signal_shape
        for name in ("train", "val", "test"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            if x.shape[1:] != shape:
                raise ConfigError(f"{name} samples of shape {x.shape[1:]} != {shape}")
            if len(x) != len(y):
                raise ConfigError(f"{name}: {len(x)} samples but {len(y)} labels")
            if len(y) and (y.min() < 0 or y.max() >= self.n_classes):
                raise DatasetLabelError(
                    f"{name} labels outside [0, {self.n_classes})"
                )
        if self.unlabeled_x is None:
            self.unlabeled_x = np.empty((0,) + shape, dtype=self.train_x.dtype)
        if self.unlabeled_x.shape[1:] != shape:
            raise ConfigError("unlabeled samples do not match the signal shape")

    @property
    def signal_shape(self) -> tuple:
        return self.train_x.shape[1:]

    @property
    def n_unlabeled(self) -> int:
        return len(self.unlabeled_x)


def _record_dtype(path, dims) -> np.dtype:
    try:
        return np.dtype([("x", "<f4", dims), ("y", "<u4")])
    except ValueError:
        raise DatasetFormatError(f"{path}: samples of shape {dims} are too large") from None


def _write_split(path, n_classes, *parts) -> None:
    """Write the header, then each ``(x, y)`` part as records, one
    ``tensor._CACHE_BYTES`` block at a time; label -1 becomes the sentinel."""
    dims = np.shape(parts[0][0])[1:]
    dtype = _record_dtype(path, dims)
    rows = max(1, tensor._CACHE_BYTES // dtype.itemsize)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(f"<{4 + len(dims)}I", VERSION, sum(len(x) for x, _ in parts),
                             len(dims), *dims, n_classes))
        for x, y in parts:
            x, y = np.asarray(x), np.asarray(y)
            for i in range(0, len(x), rows):
                xs, ys = x[i : i + rows], y[i : i + rows]
                records = np.empty(len(xs), dtype)
                records["x"] = xs
                records["y"] = np.where(ys < 0, UNLABELED, ys)
                records.tofile(fh)


def write_split(path, x, y=None) -> None:
    """Write one sample collection; ``y=None`` or a -1 entry marks unlabeled."""
    y = np.full(len(x), -1) if y is None else np.asarray(y)
    real = y[y >= 0]
    _write_split(path, int(real.max()) + 1 if real.size else 0, (x, y))


def _need(path, size, end) -> None:
    if size < end:
        raise DatasetTruncatedError(f"{path}: file ends at byte {size}, needed {end}")


def _read_split(path, route):
    """Stream one split's records in ``tensor._CACHE_BYTES`` blocks through one
    reused buffer; returns ``(n_classes, [(x, y), ...])``.

    The header is checked against the file size before anything is allocated,
    and every label before any payload array is.  ``route(y)`` (-1 marks an
    unlabeled row) gives one row mask per part; a second pass checks each
    block for finiteness and copies its payloads into their parts, in file
    order: a run of rows straight in, scattered rows through one gather."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        _need(path, size, 4)
        if head[:4] != MAGIC:
            raise DatasetFormatError(f"{path}: bad magic bytes; not a dataset file")
        _need(path, size, 16)
        version, count, rank = struct.unpack_from("<III", head, 4)
        if version != VERSION:
            raise DatasetFormatError(f"{path}: unsupported dataset version {version}")
        if rank > 8:
            raise DatasetFormatError(f"{path}: implausible sample rank {rank}")
        header = 20 + 4 * rank
        _need(path, size, header)
        *dims, n_classes = struct.unpack(f"<{rank + 1}I", fh.read(4 * rank + 4))
        end = header + count * 4 * (math.prod(dims) + 1)
        _need(path, size, end)
        if size > end:
            raise DatasetFormatError(f"{path}: {size - end} trailing bytes")
        dtype = _record_dtype(path, tuple(dims))
        rows = max(1, tensor._CACHE_BYTES // dtype.itemsize)
        buf = np.empty(min(rows, count), dtype)

        def blocks():
            fh.seek(header)
            for start in range(0, count, rows):
                block = buf[: min(rows, count - start)]
                if fh.readinto(block) != block.nbytes:
                    raise DatasetTruncatedError(f"{path}: file shrank while it was read")
                yield start, block

        y = np.empty(count, dtype=np.int64)
        for start, block in blocks():
            labels = block["y"]
            bad = np.flatnonzero((labels != UNLABELED) & (labels >= n_classes))
            if bad.size:
                raise DatasetLabelError(f"{path}: sample {start + bad[0]} has label "
                                        f"{labels[bad[0]]} but only {n_classes} classes "
                                        f"are declared")
            y[start : start + len(block)] = np.where(labels == UNLABELED, -1,
                                                     labels.astype(np.int64))
        masks = route(y)
        parts = [np.empty((np.count_nonzero(m),) + tuple(dims), np.float32) for m in masks]
        filled = [0] * len(parts)
        for start, block in blocks():
            x = block["x"]
            if not np.isfinite(x).all():
                raise DatasetFormatError(f"{path}: payload contains non-finite values")
            for i, (mask, part) in enumerate(zip(masks, parts)):
                rows_in = np.flatnonzero(mask[start : start + len(x)])
                if rows_in.size:  # a run of rows is copied straight in
                    first, last = rows_in[0], rows_in[-1]
                    part[filled[i] : filled[i] + rows_in.size] = (
                        x[first : last + 1] if last - first < rows_in.size else x[rows_in])
                    filled[i] += rows_in.size
    return n_classes, [(part, y[mask]) for part, mask in zip(parts, masks)]


def read_split(path):
    """Read one split: ``(x, y, n_classes)``; unlabeled rows get label -1.
    The header is checked against the file length before any allocation."""
    n_classes, [(x, y)] = _read_split(path, lambda y: [np.ones(len(y), dtype=bool)])
    return x, y, n_classes


def save_dataset(bundle: DatasetBundle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_split(directory / "train.mcld", bundle.n_classes,
                 (bundle.train_x, bundle.train_y),
                 (bundle.unlabeled_x, np.full(bundle.n_unlabeled, -1)))
    write_split(directory / "val.mcld", bundle.val_x, bundle.val_y)
    write_split(directory / "test.mcld", bundle.test_x, bundle.test_y)


def load_dataset(directory) -> DatasetBundle:
    """Load a dataset directory (train/val/test splits, pooled unlabeled rows).

    A missing ``val.mcld`` is carved from the training file: the last
    ``max(1, n_c // 10)`` of each class's ``n_c`` labeled rows, in file order.
    A file that declares more classes than the dataset's labeled rows (all
    splits together) raises :class:`~mclkit.errors.DatasetFormatError`.
    """
    directory = Path(directory)
    train_path = directory / "train.mcld"
    test_path = directory / "test.mcld"
    if not train_path.exists() or not test_path.exists():
        raise DatasetFormatError(
            f"{directory}: expected train.mcld and test.mcld"
        )
    val_path = directory / "val.mcld"
    carve = not val_path.exists()

    def route(y):  # training rows, carved validation rows, pool rows
        val = np.zeros(len(y), dtype=bool)
        if carve:
            labels = np.sort(y[y >= 0])
            for c in labels[np.diff(labels, prepend=-1) > 0]:  # each class present
                members = np.flatnonzero(y == c)
                val[members[-max(1, len(members) // 10):]] = True
        return [(y >= 0) & ~val, val, y < 0]

    n_classes, ((train_x, train_y), (val_x, val_y), (pool_x, _)) = _read_split(
        train_path, route)
    test_x, test_y, test_classes = read_split(test_path)
    declared = [(train_path, n_classes), (test_path, test_classes)]
    n_classes = max(n_classes, test_classes)
    if not carve:
        val_x, val_y, val_classes = read_split(val_path)
        declared.append((val_path, val_classes))
        if (val_y < 0).any():
            raise DatasetLabelError(f"{val_path}: validation rows must be labeled")
    labeled = len(train_y) + len(val_y) + len(test_y)
    for path, classes in declared:
        if classes > labeled:
            raise DatasetFormatError(f"{path}: declares {classes} classes, more than the "
                                     f"{labeled} labeled rows of the dataset")
    if (test_y < 0).any():
        raise DatasetLabelError(f"{test_path}: test rows must be labeled")
    for split, rows in (("validation", val_x), ("test", test_x)):
        if len(rows) == 0:
            raise DatasetFormatError(f"{directory}: the {split} split is empty")
    return DatasetBundle(train_x, train_y, val_x, val_y, test_x, test_y, n_classes, pool_x)


def split_semisup(bundle: DatasetBundle, labeled_fraction: float, seed: int) -> DatasetBundle:
    """Withhold labels from a stratified share of the training split.

    The labeled set keeps ``round(fraction * n_train)`` samples apportioned
    per class by largest remainder (so proportions stay within one sample);
    the rest join the unlabeled pool, after any rows it already holds, with
    labels dropped.
    """
    if not 0 < labeled_fraction <= 1:
        raise ConfigError("labeled_fraction must lie in (0, 1]")
    n = len(bundle.train_x)
    total = int(round(labeled_fraction * n))
    rng = np.random.default_rng(seed)
    class_members = [np.flatnonzero(bundle.train_y == c) for c in range(bundle.n_classes)]
    exact = [labeled_fraction * len(m) for m in class_members]
    counts = [int(f) for f in exact]
    remainders = sorted(
        range(bundle.n_classes), key=lambda c: (-(exact[c] - counts[c]), c)
    )
    for c in remainders:
        if sum(counts) >= total:
            break
        if counts[c] < len(class_members[c]):
            counts[c] += 1
    if any(c == 0 for c in counts):
        raise ConfigError(
            f"labeled_fraction {labeled_fraction} leaves a class with no labels"
        )
    labeled_idx = []
    for members, take_n in zip(class_members, counts):
        members = members[rng.permutation(len(members))]
        labeled_idx.extend(members[:take_n])
    labeled_idx = np.asarray(sorted(labeled_idx))
    keep = np.zeros(n, dtype=bool)
    keep[labeled_idx] = True
    return replace(
        bundle,
        train_x=bundle.train_x[keep],
        train_y=bundle.train_y[keep],
        unlabeled_x=np.concatenate([bundle.unlabeled_x, bundle.train_x[~keep]]),
    )


def nearest_template_accuracy(x, y, templates) -> float:
    """Fraction of samples closest (Euclidean, in float64) to their own class
    template, a distance tie going to the lower class.  The nearest template
    is exactly the brute-force one: :func:`mclkit.tensor._nearest` screens
    every pair with a float64 GEMM and a rounding bound, then computes the
    exact distance to the templates the screen cannot rule out."""
    return float(np.mean(tensor._nearest(x, templates, 1)[:, 0] == y))


def _low_rank_template(rng, shape):
    h, w, c = shape
    a = rng.normal(size=(h, 2))
    b = rng.normal(size=(w, 2))
    ch = rng.normal(size=(c, 1))
    core = rng.normal(size=(2, 2, 1))
    t = tensor.multi_mode_product(core, [a, b, ch])
    lo, hi = t.min(), t.max()
    return 0.15 + 0.7 * (t - lo) / (hi - lo)


def synth_dataset(seed, shape=(16, 16, 1), classes=4, n_per_class=200,
                  noise=0.05, val_per_class=None, test_per_class=None) -> DatasetBundle:
    """Deterministic synthetic classification data.

    Each class is a distinct low-rank template (multilinear rank (2, 2, 1))
    plus Gaussian noise, clipped to [0, 1].  For noise up to 0.1 the draw is
    verified at generation: a nearest-template scan must be at least 99%
    accurate, otherwise the templates are redrawn (deterministically).
    """
    if classes < 2:
        raise ConfigError("need at least two classes")
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape) or len(shape) != 3:
        raise ConfigError(f"degenerate sample shape {shape}")
    if val_per_class is None:
        val_per_class = max(2, n_per_class // 4)
    if test_per_class is None:
        test_per_class = max(2, n_per_class // 4)
    per_class = n_per_class + val_per_class + test_per_class

    def labels(rows):  # each class's label on its ``rows`` rows, classes in order
        return np.repeat(np.arange(classes, dtype=np.int64), rows)

    for attempt in range(5):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        templates = np.stack([_low_rank_template(rng, shape) for _ in range(classes)])
        x = np.empty((classes, per_class) + shape, dtype=np.float32)
        for c in range(classes):
            x[c] = np.clip(templates[c] + noise * rng.normal(size=(per_class,) + shape), 0, 1)
        if noise > 0.1 or nearest_template_accuracy(
                x.reshape((-1,) + shape), labels(per_class), templates) >= 0.99:
            break
    else:
        raise ConfigError(
            f"could not draw separable templates for shape {shape} at noise {noise}"
        )
    # Each class's rows: training, then validation, then test; the training
    # rows of all classes are then shuffled.
    train, val, test = np.split(x, [n_per_class, n_per_class + val_per_class], axis=1)
    order = rng.permutation(classes * n_per_class)
    bundle = DatasetBundle(
        train[np.divmod(order, n_per_class)], labels(n_per_class)[order],
        val.reshape((-1,) + shape), labels(val_per_class),
        test.reshape((-1,) + shape), labels(test_per_class), classes,
    )
    bundle.templates = templates  # kept for oracle checks
    return bundle
