"""Metrics and experiment harnesses: test accuracy, compressive-domain KNN,
the stage-ablation grid, and the with/without-teacher comparison.

Report CSVs share one schema:

    run_id,mask_s1,mask_s2,mask_s3,config,seed,metric,value

All harnesses are deterministic for fixed seeds, so repeated invocations
produce byte-identical CSV text.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint, tensor
from .datasets import DatasetBundle
from .distill import (
    StageMask,
    _transfer,
    train_mclwop,
    train_mclwp,
    train_prior_supervised,
)
from .errors import ConfigError
from .models import MeasurementConfig, build_mcl, build_prior
from .optimize import TrainConfig, _check_labels

__all__ = [
    "accuracy",
    "knn_compressive",
    "run_ablation",
    "compare_prior_effect",
    "AblationReport",
    "PriorEffectReport",
]

_FIELDS = ("run_id", "mask_s1", "mask_s2", "mask_s3", "config", "seed", "metric", "value")
CSV_HEADER = ",".join(_FIELDS)


def _row(run_id, config, seed, metric, value, mask=("", "", "")) -> dict:
    """One report row; the measurement ``config`` is written as ``M1xM2xM3``."""
    if not isinstance(config, MeasurementConfig):
        config = MeasurementConfig(tuple(config))
    return dict(zip(_FIELDS, (run_id, *mask, str(config), seed, metric, value)))


def _rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        *cells, value = (r[f] for f in _FIELDS)
        lines.append(",".join(map(str, cells)) + f",{value!r}")
    return "\n".join(lines) + "\n"


def accuracy(model, test_x, test_y) -> float:
    """Fraction of argmax predictions matching the labels (ties resolve to the
    lowest class index)."""
    if len(test_x) == 0:
        raise ConfigError("empty evaluation set")
    _check_labels("test", test_x, test_y)
    return float(np.mean(model.forward_logits(test_x).argmax(axis=1) == test_y))


def knn_compressive(model, train_x, train_y, test_x, test_y, k=5) -> float:
    """Majority-vote accuracy of K nearest neighbours in measurement space.

    Measurements are vectorized and compared by Euclidean distance (computed
    in float64); distance ties break toward the lower training index and vote
    ties toward the lower class index.
    """
    if not 1 <= k <= len(train_x):
        raise ConfigError(f"k={k} outside [1, {len(train_x)}], the training sample count")
    if len(test_x) == 0:
        raise ConfigError("empty evaluation set")
    _check_labels("training", train_x, train_y)
    _check_labels("test", test_x, test_y)
    if train_y.min() < 0:
        raise ConfigError("training labels must be >= 0; -1 marks an unlabeled sample")
    z_train = model.measurements(train_x)
    n_classes = int(train_y.max()) + 1
    correct = 0
    for start, d in tensor._sq_dist_blocks(model.measurements(test_x), z_train):
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        for row, neighbours in enumerate(nearest):
            votes = np.bincount(train_y[neighbours], minlength=n_classes)
            if votes.argmax() == test_y[start + row]:
                correct += 1
    return correct / len(test_x)


def _students(n, bundle, measurement, width, capacity, seed) -> list:
    """``n`` equal nonlinear-synthesis students, one architecture and seed."""
    return [build_mcl(bundle.signal_shape, measurement, bundle.n_classes, fs_kind="nonlinear",
                      width=width, capacity=capacity, seed=seed) for _ in range(n)]


@dataclass
class _CsvReport:
    """Report rows in the shared CSV schema."""

    rows: list = field(default_factory=list)

    def csv_text(self) -> str:
        return _rows_to_csv(self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


@dataclass
class AblationReport(_CsvReport):
    teacher_checksums: list = field(default_factory=list)
    results: dict = field(default_factory=dict)


def run_ablation(bundle: DatasetBundle, cfg: TrainConfig, measurement,
                 teacher=None, width=16, capacity="small") -> AblationReport:
    """Train one student per stage mask (all 8) against a single shared
    teacher and report test accuracy per mask.

    Each mask's student equals a fresh :func:`train_mclwp` run, but masks
    that share their first stages share those runs: 11 stage runs instead
    of 16.  Without augmentation the teacher's outputs are computed once for
    all 8.  The teacher is trained once (or passed in) and its serialized
    checksum is recorded after every mask, proving it was reused untouched.
    """
    if teacher is None:
        teacher = build_prior(bundle.signal_shape, measurement, bundle.n_classes,
                              width=width, capacity=capacity, seed=cfg.seed)
        train_prior_supervised(teacher, bundle, cfg)
    masks = StageMask.all_masks()
    students = _students(len(masks), bundle, measurement, width, capacity, cfg.seed)
    report = AblationReport()
    for mask, result in zip(masks, _transfer(students, masks, teacher, bundle, cfg)):
        acc = accuracy(result.model, bundle.test_x, bundle.test_y)
        report.rows.append(_row(
            f"ablate-{mask}-seed{cfg.seed}", measurement, cfg.seed, "test_accuracy", acc,
            (int(mask.sensing), int(mask.synthesis), int(mask.distill)),
        ))
        report.teacher_checksums.append(checkpoint.content_crc(teacher))
        report.results[str(mask)] = result
    return report


@dataclass
class PriorEffectReport(_CsvReport):
    medians: dict = field(default_factory=dict)
    param_counts: dict = field(default_factory=dict)


def compare_prior_effect(bundle: DatasetBundle, cfg: TrainConfig, measurement,
                         seeds=None, width=16, capacity="small") -> PriorEffectReport:
    """Paired comparison of the teacher-guided student against the identical
    architecture trained without a teacher, over several seeds.

    Reports one row per (method, seed) plus per-method medians; both methods
    share architecture, seeds, and parameter counts exactly.
    """
    if seeds is None:
        seeds = (cfg.seed, cfg.seed + 1, cfg.seed + 2)
    report = PriorEffectReport()
    accs = {"mclwp": [], "mclwop": []}
    for seed in seeds:
        seed_cfg = replace(cfg, seed=seed)
        teacher = build_prior(bundle.signal_shape, measurement, bundle.n_classes,
                              width=width, capacity=capacity, seed=seed)
        train_prior_supervised(teacher, bundle, seed_cfg)
        guided, control = _students(2, bundle, measurement, width, capacity, seed)
        train_mclwp(guided, teacher, bundle, seed_cfg, StageMask())
        train_mclwop(control, bundle, seed_cfg)
        report.param_counts = {
            "mclwp": guided.param_count(),
            "mclwop": control.param_count(),
        }
        for name, model, mask in (
            ("mclwp", guided, ("1", "1", "1")),
            ("mclwop", control, ("", "", "")),
        ):
            acc = accuracy(model, bundle.test_x, bundle.test_y)
            accs[name].append(acc)
            report.rows.append(_row(f"{name}-seed{seed}", measurement, seed,
                                    "test_accuracy", acc, mask))
    for name, values in accs.items():
        median = statistics.median(values)
        report.medians[name] = median
        report.rows.append(_row(f"{name}-median", measurement, -1,
                                "median_test_accuracy", median))
    return report
