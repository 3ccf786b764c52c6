"""Dataset container, binary on-disk format, semi-supervised splitting, and a
synthetic low-rank generator for fast end-to-end runs.

One ``.mcld`` file holds one split.  Layout (little-endian u32 integers):

    magic b"MCLD" | version | count | rank | dims[rank] | n_classes |
    count records of (float32 payload of prod(dims) values, u32 label)

The label sentinel ``0xFFFFFFFF`` marks an unlabeled sample.  A dataset
directory holds ``train.mcld`` and ``test.mcld`` plus an optional
``val.mcld``; unlabeled training samples ride inside ``train.mcld`` via the
sentinel.  Pixel payloads are stored already scaled to [0, 1].
"""

from __future__ import annotations

import math
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
    ``tensor._BLOCK_BYTES`` block at a time; label -1 becomes the sentinel."""
    dims = np.shape(parts[0][0])[1:]
    dtype = _record_dtype(path, dims)
    rows = max(1, tensor._BLOCK_BYTES // dtype.itemsize)
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


def _need(path, data, end) -> None:
    if len(data) < end:
        raise DatasetTruncatedError(f"{path}: file ends at byte {len(data)}, needed {end}")


def read_split(path):
    """Read one split: ``(x, y, n_classes)``; unlabeled rows get label -1.
    The header is checked against the file length before any allocation."""
    data = Path(path).read_bytes()
    _need(path, data, 4)
    if data[:4] != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic bytes; not a dataset file")
    _need(path, data, 16)
    version, count, rank = struct.unpack_from("<III", data, 4)
    if version != VERSION:
        raise DatasetFormatError(f"{path}: unsupported dataset version {version}")
    if rank > 8:
        raise DatasetFormatError(f"{path}: implausible sample rank {rank}")
    header = 20 + 4 * rank
    _need(path, data, header)
    *dims, n_classes = struct.unpack_from(f"<{rank + 1}I", data, 16)
    end = header + count * 4 * (math.prod(dims) + 1)
    _need(path, data, end)
    if len(data) > end:
        raise DatasetFormatError(f"{path}: {len(data) - end} trailing bytes")
    records = np.frombuffer(data, _record_dtype(path, tuple(dims)), count, header)
    labels = records["y"]
    bad = np.flatnonzero((labels != UNLABELED) & (labels >= n_classes))
    if bad.size:
        raise DatasetLabelError(f"{path}: sample {bad[0]} has label {labels[bad[0]]} "
                                f"but only {n_classes} classes are declared")
    x = records["x"].astype(np.float32)
    if not np.isfinite(x).all():
        raise DatasetFormatError(f"{path}: payload contains non-finite values")
    y = np.where(labels == UNLABELED, -1, labels.astype(np.int64))
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
    """
    directory = Path(directory)
    train_path = directory / "train.mcld"
    test_path = directory / "test.mcld"
    if not train_path.exists() or not test_path.exists():
        raise DatasetFormatError(
            f"{directory}: expected train.mcld and test.mcld"
        )
    x, y, n_classes = read_split(train_path)
    test_x, test_y, test_classes = read_split(test_path)
    n_classes = max(n_classes, test_classes)
    val = np.zeros(len(y), dtype=bool)  # training rows carved into the validation set
    val_path = directory / "val.mcld"
    if val_path.exists():
        val_x, val_y, _ = read_split(val_path)
        if (val_y < 0).any():
            raise DatasetLabelError(f"{val_path}: validation rows must be labeled")
    else:
        for c in range(n_classes):
            members = np.flatnonzero(y == c)
            val[members[-max(1, len(members) // 10):]] = True
        val_x, val_y = x[val], y[val]
    if (test_y < 0).any():
        raise DatasetLabelError(f"{test_path}: test rows must be labeled")
    for split, rows in (("validation", val_x), ("test", test_x)):
        if len(rows) == 0:
            raise DatasetFormatError(f"{directory}: the {split} split is empty")
    train = (y >= 0) & ~val
    return DatasetBundle(x[train], y[train], val_x, val_y, test_x, test_y,
                         n_classes, x[y < 0])


def split_semisup(bundle: DatasetBundle, labeled_fraction: float, seed: int) -> DatasetBundle:
    """Withhold labels from a stratified share of the training split.

    The labeled set keeps ``round(fraction * n_train)`` samples apportioned
    per class by largest remainder (so proportions stay within one sample);
    the rest move to the unlabeled pool with labels dropped.
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
        unlabeled_x=bundle.train_x[~keep],
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
    for attempt in range(5):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        templates = np.stack([_low_rank_template(rng, shape) for _ in range(classes)])
        x = np.empty((classes * per_class,) + shape, dtype=np.float32)
        y = np.empty(classes * per_class, dtype=np.int64)
        for c in range(classes):
            block = slice(c * per_class, (c + 1) * per_class)
            noisy = templates[c][None] + noise * rng.normal(size=(per_class,) + shape)
            x[block] = np.clip(noisy, 0.0, 1.0).astype(np.float32)
            y[block] = c
        if noise > 0.1 or nearest_template_accuracy(x, y, templates) >= 0.99:
            break
    else:
        raise ConfigError(
            f"could not draw separable templates for shape {shape} at noise {noise}"
        )
    train_idx, val_idx, test_idx = [], [], []
    for c in range(classes):
        base = c * per_class
        train_idx.extend(range(base, base + n_per_class))
        val_idx.extend(range(base + n_per_class, base + n_per_class + val_per_class))
        test_idx.extend(range(base + n_per_class + val_per_class, base + per_class))
    train_idx = np.asarray(train_idx)[rng.permutation(len(train_idx))]
    bundle = DatasetBundle(
        train_x=x[train_idx],
        train_y=y[train_idx],
        val_x=x[np.asarray(val_idx)],
        val_y=y[np.asarray(val_idx)],
        test_x=x[np.asarray(test_idx)],
        test_y=y[np.asarray(test_idx)],
        n_classes=classes,
    )
    bundle.templates = templates  # kept for oracle checks
    return bundle
