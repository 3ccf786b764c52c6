"""Stochastic training engine: Adam, staged learning-rate schedule, max-norm
projection, data augmentation, and an epoch loop with validation-based model
selection.

Everything here is deterministic for a fixed config and seed: shuffling and
augmentation draw from one seeded generator in a fixed order, and batch
gradients are accumulated in a fixed reduction order.
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDivergedError
from .layers import LayerStack, _forward_chunks, _forward_path
from .losses import cross_entropy, l1_loss, symmetric_kl
from .models import _is_count

__all__ = [
    "TrainConfig",
    "AdamState",
    "max_norm_project",
    "augment",
    "shift2d",
    "TrainHistory",
    "Objective",
    "SupervisedObjective",
    "OutputMatchingObjective",
    "train",
]

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam decays and denominator guard


def _is_real(v) -> bool:
    """A real number, numpy's too, but not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one stochastic optimization procedure.

    The default schedule is a desk-scale compression of the full-length one
    (:meth:`full_schedule`) so test runs finish in minutes.
    """

    epochs: int = 60
    lr_values: tuple = (1e-3, 1e-4, 1e-5)
    lr_switch_epochs: tuple = (30, 45)
    batch_size: int = 32
    max_norm: float = 6.0
    flip: bool = False
    shift_fraction: float = 0.0
    seed: int = 0
    distill_weight: float = 1.0
    confidence_threshold: float = 0.8
    epochs_per_round: int = 5
    self_label_round_cap: int = 50

    def __post_init__(self):
        for name in ("epochs", "batch_size", "epochs_per_round", "self_label_round_cap"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ConfigError(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(self.flip, (bool, np.bool_)):
            raise ConfigError(f"flip must be a bool, got {self.flip!r}")
        if not all(isinstance(v, (tuple, list)) for v in (self.lr_values, self.lr_switch_epochs)):
            raise ConfigError("lr_values and lr_switch_epochs must be tuples")
        if len(self.lr_values) != len(self.lr_switch_epochs) + 1:
            raise ConfigError("need one more lr value than switch epochs")
        switches = tuple(self.lr_switch_epochs)
        if not all(map(_is_count, switches)):
            raise ConfigError(f"lr switch epochs must be ints >= 1, got {switches}")
        if any(b <= a for a, b in zip(switches, switches[1:])):
            raise ConfigError("lr switch epochs must be strictly increasing")
        if switches and switches[-1] >= self.epochs:
            raise ConfigError("lr switch epochs must lie inside (0, epochs)")
        # Written so that NaN fails every check; a bool is not a number here.
        if not all(_is_real(lr) and 0 < lr < math.inf for lr in self.lr_values):
            raise ConfigError(f"learning rates must be finite and > 0, got {self.lr_values}")
        if not (_is_real(self.max_norm) and self.max_norm > 0):
            raise ConfigError("max_norm must be a number > 0")
        if not (_is_real(self.distill_weight) and 0 <= self.distill_weight < math.inf):
            raise ConfigError("distill_weight must be a finite number >= 0")
        if not (_is_real(self.confidence_threshold) and 0 < self.confidence_threshold < 1):
            raise ConfigError("confidence_threshold must be a number in (0, 1)")
        if not (_is_real(self.shift_fraction) and 0 <= self.shift_fraction < 1):
            raise ConfigError("shift_fraction must be a number in [0, 1)")
        if not _is_count(self.seed, least=0):
            raise ConfigError(f"seed must be an int >= 0, got {self.seed!r}")

    @classmethod
    def full_schedule(cls, **overrides) -> "TrainConfig":
        """Full-length schedule: 160 epochs, lr 1e-3/1e-4/1e-5 switching at
        epochs 80 and 120, max-norm 6.0, flip + 10% shift augmentation."""
        base = dict(
            epochs=160,
            lr_values=(1e-3, 1e-4, 1e-5),
            lr_switch_epochs=(80, 120),
            max_norm=6.0,
            flip=True,
            shift_fraction=0.1,
            distill_weight=1.0,
        )
        base.update(overrides)
        return cls(**base)

    def lr_at(self, epoch: int) -> float:
        return self.lr_values[bisect.bisect_right(self.lr_switch_epochs, epoch)]


class AdamState:
    """Bias-corrected Adam moments for a fixed parameter list."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p.value -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)


def max_norm_project(params, c: float) -> None:
    """Rescale each constrained weight vector whose l2 norm exceeds ``c``.

    Parameters without ``norm_axes`` (biases) are exempt; parameters whose
    vectors are all within the bound are left bit-identical.
    """
    if c <= 0:
        raise ConfigError("max-norm bound must be positive")
    for p in params:
        if p.norm_axes is None:
            continue
        v = p.value
        norms = np.sqrt(np.sum(v * v, axis=p.norm_axes, keepdims=True))
        over = norms > c
        if over.any():
            scale = np.where(over, c / np.maximum(norms, 1e-30), 1.0)
            v *= scale.astype(v.dtype)


def shift2d(img, dy: int, dx: int):
    """Shift one (H, W, C) image by whole pixels, filling borders with zeros."""
    h, w = img.shape[:2]
    out = np.zeros_like(img)
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h - max(dy, 0))
    xs_src = slice(max(-dx, 0), w - max(dx, 0))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def augment(batch, flip: bool, shift_fraction: float, rng):
    """Per-sample horizontal flip (p=0.5) and integer shifts within the given
    fraction of each spatial dimension. Labels are the caller's business."""
    if not flip and shift_fraction <= 0:
        return batch
    out = batch.copy()
    b, h, w = batch.shape[:3]
    if flip:
        flips = rng.random(b) < 0.5
        for i in np.flatnonzero(flips):
            out[i] = batch[i, :, ::-1, :]
    if shift_fraction > 0:
        sy = int(shift_fraction * h)
        sx = int(shift_fraction * w)
        dys = rng.integers(-sy, sy + 1, size=b) if sy > 0 else np.zeros(b, dtype=int)
        dxs = rng.integers(-sx, sx + 1, size=b) if sx > 0 else np.zeros(b, dtype=int)
        for i in range(b):
            if dys[i] or dxs[i]:
                out[i] = shift2d(out[i], int(dys[i]), int(dxs[i]))
    return out


def _csv_text(header, rows) -> str:
    """Comma-joined ``str`` cells, a line each; the owner formats floats first."""
    return "".join(",".join(map(str, cells)) + "\n" for cells in (header, *rows))


class _CsvTable:
    """A table that writes its :meth:`csv_text` to a file."""

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


@dataclass
class TrainHistory(_CsvTable):
    """Per-epoch log of one optimization procedure."""

    rows: list = field(default_factory=list)  # (epoch, lr, train_loss, val_metric)
    best_epoch: int = -1
    best_value: float = math.nan
    n_train: int = 0
    seconds: float = 0.0  # wall time of the epoch loop, set by train()

    def csv_text(self) -> str:
        return _csv_text(("epoch", "lr", "train_loss", "val_metric"),
                         ((e, f"{lr:g}", repr(loss), repr(val)) for e, lr, loss, val in self.rows))


def _check_labels(what, x, y) -> None:
    """Class labels are one 1-D entry per sample: a column would broadcast
    against the predictions."""
    if np.ndim(y) != 1:
        raise ConfigError(f"{what}: labels must be 1-D, got shape {np.shape(y)}")
    if len(x) != len(y):
        raise ConfigError(f"{what}: {len(x)} samples but {len(y)} labels")


def _backward_path(stacks, grad):
    for s in reversed(stacks):
        grad = s.backward(grad)
    return grad


class Objective:
    """One trainable optimization target: batch loss/gradients plus a
    validation score used for model selection."""

    higher_is_better = True
    trainable: tuple[LayerStack, ...] = ()

    def batch_loss(self, x, y) -> float:
        raise NotImplementedError

    def val_metric(self, x, y) -> float:
        raise NotImplementedError


class SupervisedObjective(Objective):
    """Cross-entropy over a stack pipeline, plus ``weight`` times the
    symmetric KL between a frozen teacher pipeline's predictions and the
    student's; selects on validation accuracy.

    With weight 0 the teacher is never run, so the loss is plain
    cross-entropy whether or not a teacher path is given.  The training
    targets may be :meth:`pack`'s record of the labels and the teacher's
    predictions on those rows, computed beforehand.
    """

    def __init__(self, path, teacher_path=(), weight=0.0):
        self.trainable = tuple(path)
        self.teacher_path = tuple(teacher_path)
        self.weight = float(weight)
        if self.weight != 0.0 and not self.teacher_path:
            raise ConfigError("a non-zero distillation weight needs a teacher path")

    @staticmethod
    def pack(labels, teacher_logits):
        """One record per row: its label and the teacher's logits on it."""
        logits = teacher_logits
        packed = np.empty(len(labels), [("label", labels.dtype),
                                        ("teacher_logits", logits.dtype, logits.shape[1:])])
        packed["label"], packed["teacher_logits"] = labels, logits
        return packed

    def batch_loss(self, x, y):
        teacher_logits = None
        if y.dtype.names:
            y, teacher_logits = y["label"], y["teacher_logits"]
        logits = _forward_path(self.trainable, x, training=True)
        loss, grad = cross_entropy(logits, y)
        if self.weight != 0.0:
            if teacher_logits is None:
                teacher_logits = _forward_path(self.teacher_path, x, training=False)
            kl, _, g_kl = symmetric_kl(teacher_logits, logits)
            loss += self.weight * kl
            grad = grad + self.weight * g_kl
        _backward_path(self.trainable, grad)
        return loss

    def val_metric(self, x, y):
        _check_labels("validation", x, y)
        logits = _forward_chunks(self.trainable, x)
        return float(np.mean(logits.argmax(axis=1) == y))


class OutputMatchingObjective(Objective):
    """Mean-absolute gap between a trainable pipeline and a frozen reference
    pipeline evaluated on the same inputs; selects on lowest validation gap.

    An empty reference path is the identity, so the target is the input
    itself: l1 reconstruction through an encoder + decoder pipeline.  Targets
    given as ``y`` are the reference outputs on those rows, computed
    beforehand; the reference path then does not run.
    """

    higher_is_better = False

    def __init__(self, path, teacher_path=()):
        self.trainable = tuple(path)
        self.teacher_path = tuple(teacher_path)

    def batch_loss(self, x, y):
        out = _forward_path(self.trainable, x, training=True)
        target = _forward_path(self.teacher_path, x, training=False) if y is None else y
        loss, grad, _ = l1_loss(out, target)
        _backward_path(self.trainable, grad)
        return loss

    def val_metric(self, x, y):
        out = _forward_chunks(self.trainable, x)
        target = _forward_chunks(self.teacher_path, x) if y is None else y
        return l1_loss(out, target)[0]


def _first_non_finite(params) -> str:
    for p in params:
        for what, a in (("value", p.value), ("gradient", p.grad)):
            if not np.isfinite(a).all():
                return f"first non-finite: {p.name} {what}"
    return "every parameter value and gradient is finite"


def train(objective: Objective, train_x, train_y, val_x, val_y, cfg: TrainConfig,
          epoch_end=None) -> TrainHistory:
    """Run the epoch loop and leave the trainable stacks holding the
    parameters of the best validation epoch.

    Ties keep the earliest best epoch, so the selected metric equals the
    extremum of the recorded history exactly.  ``epoch_end(epoch, objective)``
    is an optional hook called after each epoch's validation pass.
    """
    n = len(train_x)
    for what, data, labels in (("training", train_x, train_y), ("validation", val_x, val_y)):
        if len(data) == 0:
            raise ConfigError(f"{what} data is empty")
        if labels is not None and len(labels) != len(data):
            raise ConfigError(f"{what} data: {len(data)} samples but {len(labels)} labels")
    rng = np.random.default_rng(cfg.seed)
    params = [p for s in objective.trainable for p in s.params]
    adam = AdamState(params)
    hib = objective.higher_is_better
    history = TrainHistory(n_train=n)
    best_snapshot = None
    started = time.perf_counter()
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = train_x[idx]
            yb = train_y[idx] if train_y is not None else None
            xb = augment(xb, cfg.flip, cfg.shift_fraction, rng)
            for s in objective.trainable:
                s.zero_grads()
            loss = objective.batch_loss(xb, yb)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                    f" (lr={lr:g}); {_first_non_finite(params)}"
                )
            adam.step(lr)
            max_norm_project(params, cfg.max_norm)
            batch_losses.append(loss)
        train_loss = sum(batch_losses) / len(batch_losses)
        val = objective.val_metric(val_x, val_y)
        history.rows.append((epoch, lr, train_loss, val))
        better = (
            best_snapshot is None
            or (val > history.best_value if hib else val < history.best_value)
        )
        if better:
            history.best_value = val
            history.best_epoch = epoch
            best_snapshot = [p.value.copy() for p in params]
        if epoch_end is not None:
            epoch_end(epoch, objective)
    for p, snap in zip(params, best_snapshot):
        p.value[...] = snap
    history.seconds = time.perf_counter() - started
    return history
