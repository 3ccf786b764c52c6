"""Teacher training, progressive knowledge transfer, baselines, and the
semi-supervised self-labeling loop.

The teacher is trained first (head on raw signals, encoder/decoder as an
l1 autoencoder, then joint discriminative training) and frozen.  Knowledge
then flows to the multilinear student in three stages: match the teacher's
measurements (mean-absolute), match its synthesized features (mean-absolute,
after copying the synthesis weights when the architectures agree), and
finally train for inference with a symmetric-KL pull toward the teacher's
predictions.  A stage mask can skip any subset of the three transfer
activities; the final inference training always runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import DatasetBundle
from .errors import ConfigError, ShapeMismatchError, StateError
from .layers import LayerStack
from .losses import softmax
from .models import MclModel, PriorModel, hosvd_init
from .optimize import (
    OutputMatchingObjective,
    SupervisedObjective,
    TrainConfig,
    TrainHistory,
    train,
)

log = logging.getLogger(__name__)

__all__ = [
    "StageMask",
    "PipelineResult",
    "train_prior_supervised",
    "train_prior_semisup",
    "stage1_transfer",
    "stage2_transfer",
    "stage3_transfer",
    "train_mclwp",
    "train_mclwp_semisup",
    "train_mcl_baseline",
    "train_mclwop",
    "self_label_select",
    "copy_stack_params",
]


@dataclass(frozen=True)
class StageMask:
    """Which knowledge-transfer activities to perform (any subset is legal)."""

    sensing: bool = True
    synthesis: bool = True
    distill: bool = True

    @classmethod
    def parse(cls, text: str) -> "StageMask":
        if len(text) != 3 or any(ch not in "01" for ch in text):
            raise ConfigError(f"mask must be three 0/1 characters, got {text!r}")
        return cls(text[0] == "1", text[1] == "1", text[2] == "1")

    @classmethod
    def all_masks(cls):
        """All 8 masks in binary order (sensing bit most significant)."""
        return [
            cls(bool(a), bool(b), bool(c))
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        ]

    def __str__(self):
        return "".join("1" if b else "0" for b in (self.sensing, self.synthesis, self.distill))


@dataclass
class PipelineResult:
    """A trained model plus the per-stage training histories and run metadata."""

    model: object
    stages: dict[str, TrainHistory] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def report(self) -> dict:
        stages = {
            name: {
                "epochs": len(h.rows),
                "best_epoch": h.best_epoch,
                "best_value": h.best_value,
                "seconds": h.seconds,
                "n_train": h.n_train,
            }
            for name, h in self.stages.items()
        }
        return {"stages": stages, **self.info}


def copy_stack_params(src: LayerStack, dst: LayerStack) -> bool:
    """Copy parameters between structurally identical stacks.

    Returns True when the copy happened; on a mismatch the destination keeps
    its own initialisation (logged) and False is returned.
    """
    src_params, dst_params = src.params, dst.params
    shapes_match = len(src_params) == len(dst_params) and all(
        a.value.shape == b.value.shape for a, b in zip(src_params, dst_params)
    )
    if not shapes_match:
        log.info(
            "cannot copy %r -> %r: parameter shapes differ (%s vs %s); "
            "keeping destination initialisation", src.name, dst.name,
            [p.value.shape for p in src_params][:4], [p.value.shape for p in dst_params][:4],
        )
        return False
    for a, b in zip(src_params, dst_params):
        b.value[...] = a.value.astype(b.value.dtype)
    return True


def _check_measurement_match(student, teacher):
    if student.sensing.out_shape != teacher.sensing.out_shape:
        raise ShapeMismatchError(
            f"student measurement {student.sensing.out_shape} differs from "
            f"teacher measurement {teacher.sensing.out_shape}"
        )


# --------------------------------------------------------------------------
# Teacher training
# --------------------------------------------------------------------------

def train_prior_supervised(prior: PriorModel, bundle: DatasetBundle,
                           cfg: TrainConfig) -> PipelineResult:
    """Train the teacher on labeled data: head on raw signals, then the
    encoder/decoder as an l1 autoencoder, then all three parts jointly."""
    stages: dict[str, TrainHistory] = {}
    stages["head_pretrain"] = train(
        SupervisedObjective([prior.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    stages["reconstruction"] = train(
        OutputMatchingObjective([prior.sensing, prior.synthesis]),
        bundle.train_x, None, bundle.val_x, None, cfg,
    )
    stages["joint"] = train(
        SupervisedObjective([prior.sensing, prior.synthesis, prior.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    return PipelineResult(prior, stages, {"kind": "prior_supervised"})


def self_label_select(teacher, pool_x, confidence_threshold: float):
    """Indices and predicted labels of pool samples the teacher is sure about.

    A sample qualifies when its max predicted probability is at least the
    threshold; pool order is preserved.
    """
    if not 0 < confidence_threshold < 1:
        raise ConfigError("confidence threshold must lie in (0, 1)")
    probs = softmax(teacher.forward_logits(pool_x))
    confident = probs.max(axis=1) >= confidence_threshold
    idx = np.flatnonzero(confident).astype(np.int64)
    labels = probs.argmax(axis=1)[idx].astype(np.int64)
    return idx, labels


def train_prior_semisup(prior: PriorModel, bundle: DatasetBundle,
                        cfg: TrainConfig) -> PipelineResult:
    """Teacher training that feeds on unlabeled data via self-labeling.

    Initialisation uses the labeled set for the head and all samples for the
    autoencoder; discriminative training then loops in rounds of
    ``cfg.epochs_per_round`` epochs, after each of which confidently predicted
    pool samples join the labeled set with their predicted labels.  The loop
    stops when no sample qualifies (or at the safety round cap).
    """
    if len(bundle.train_x) == 0:
        raise ConfigError("semi-supervised training needs a labeled set")
    pool = bundle.unlabeled_x
    total = len(bundle.train_x) + len(pool)
    stages: dict[str, TrainHistory] = {}
    info: dict = {"kind": "prior_semisup", "rounds": []}
    stages["head_pretrain"] = train(
        SupervisedObjective([prior.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    all_x = np.concatenate([bundle.train_x, pool]) if len(pool) else bundle.train_x
    stages["reconstruction"] = train(
        OutputMatchingObjective([prior.sensing, prior.synthesis]),
        all_x, None, bundle.val_x, None, cfg,
    )
    labeled_x = bundle.train_x
    labeled_y = bundle.train_y
    rounds = 0
    objective = SupervisedObjective([prior.sensing, prior.synthesis, prior.head])
    while True:
        # Rounds are short continuations of one long optimization, so they run
        # at the schedule's first rate; the staged ladder applies to the
        # full-length procedures, not to each slice.
        round_cfg = replace(
            cfg,
            epochs=cfg.epochs_per_round,
            lr_values=(cfg.lr_values[0],),
            lr_switch_epochs=(),
            seed=cfg.seed + rounds,
        )
        stages[f"round_{rounds}"] = train(
            objective, labeled_x, labeled_y, bundle.val_x, bundle.val_y, round_cfg,
        )
        idx, labels = self_label_select(prior, pool, cfg.confidence_threshold)
        info["rounds"].append(
            {"round": rounds, "labeled": int(len(labeled_x)),
             "pool": int(len(pool)), "added": int(len(idx))}
        )
        rounds += 1
        if len(idx) == 0:
            break
        labeled_x = np.concatenate([labeled_x, pool[idx]])
        labeled_y = np.concatenate([labeled_y, labels])
        keep = np.ones(len(pool), dtype=bool)
        keep[idx] = False
        pool = pool[keep]
        if len(labeled_x) + len(pool) != total or len(labeled_y) != len(labeled_x):
            raise StateError(
                f"self-labeling lost track of samples: {len(labeled_x)} labeled "
                f"with {len(labeled_y)} labels and {len(pool)} in the pool, "
                f"{total} expected"
            )
        if rounds >= cfg.self_label_round_cap:
            log.warning(
                "self-labeling stopped at the %d-round cap with %d pool samples left",
                cfg.self_label_round_cap, len(pool),
            )
            info["capped"] = True
            break
    info["final_labeled"] = int(len(labeled_x))
    info["final_pool"] = int(len(pool))
    return PipelineResult(prior, stages, info)


# --------------------------------------------------------------------------
# Knowledge-transfer stages
# --------------------------------------------------------------------------

def stage1_transfer(student: MclModel, teacher, x, val_x, cfg: TrainConfig) -> TrainHistory:
    """Fit the student's separable sensing to the teacher's measurements
    (mean-absolute gap); only the sensing factors update."""
    _check_measurement_match(student, teacher)
    return train(
        OutputMatchingObjective([student.sensing], [teacher.sensing]),
        x, None, val_x, None, cfg,
    )


def stage2_transfer(student: MclModel, teacher, x, val_x, cfg: TrainConfig) -> TrainHistory:
    """Fit sensing + synthesis to the teacher's synthesized features.

    When the synthesis stacks are structurally identical the student's is
    first initialised from the teacher's; otherwise the student keeps its own
    initialisation.
    """
    _check_measurement_match(student, teacher)
    copy_stack_params(teacher.synthesis, student.synthesis)
    return train(
        OutputMatchingObjective(
            [student.sensing, student.synthesis],
            [teacher.sensing, teacher.synthesis],
        ),
        x, None, val_x, None, cfg,
    )


def stage3_transfer(student: MclModel, teacher, x, y, val_x, val_y,
                    cfg: TrainConfig) -> TrainHistory:
    """Discriminative training with a symmetric-KL pull toward the teacher's
    predictions (weighted by ``cfg.distill_weight``; the teacher's raw
    predictions are used directly, no temperature)."""
    if teacher.n_classes != student.n_classes:
        raise ConfigError(
            f"class counts differ: student {student.n_classes}, teacher {teacher.n_classes}"
        )
    copy_stack_params(teacher.head, student.head)
    objective = SupervisedObjective(
        [student.sensing, student.synthesis, student.head],
        [teacher.sensing, teacher.synthesis, teacher.head],
        cfg.distill_weight,
    )
    return train(objective, x, y, val_x, val_y, cfg)


def _transfer_pipeline(student, teacher, labeled_x, labeled_y, pool_x, bundle,
                       cfg, mask: StageMask) -> PipelineResult:
    _check_measurement_match(student, teacher)
    teacher_before = [p.value.copy() for p in teacher.all_params()]
    x_all, y_all = labeled_x, labeled_y
    if len(pool_x):
        # The frozen teacher's hard predictions label the pool, once.
        pool_y = teacher.forward_logits(pool_x).argmax(axis=1).astype(np.int64)
        x_all = np.concatenate([labeled_x, pool_x])
        y_all = np.concatenate([labeled_y, pool_y])
    stages: dict[str, TrainHistory] = {}
    info: dict = {"kind": "knowledge_transfer", "mask": str(mask),
                  "n_labeled": int(len(labeled_x)), "n_pool": int(len(pool_x))}
    if mask.sensing:
        stages["sensing_transfer"] = stage1_transfer(student, teacher, x_all, bundle.val_x, cfg)
    if mask.synthesis:
        stages["synthesis_transfer"] = stage2_transfer(
            student, teacher, x_all, bundle.val_x, cfg,
        )
    if mask.distill:
        stages["inference"] = stage3_transfer(
            student, teacher, x_all, y_all, bundle.val_x, bundle.val_y, cfg,
        )
    else:
        # Only the teacher-prediction pull is dropped; plain inference
        # training still runs, from whatever the earlier stages left behind.
        stages["inference"] = train(
            SupervisedObjective([student.sensing, student.synthesis, student.head]),
            x_all, y_all, bundle.val_x, bundle.val_y, cfg,
        )
    for p, before in zip(teacher.all_params(), teacher_before):
        if not np.array_equal(p.value, before):
            raise StateError(f"teacher parameter {p.name} changed during knowledge transfer")
    return PipelineResult(student, stages, info)


def train_mclwp(student: MclModel, teacher, bundle: DatasetBundle,
                cfg: TrainConfig, mask: StageMask = StageMask()) -> PipelineResult:
    """Full supervised knowledge transfer (stages per mask, inference always)."""
    return _transfer_pipeline(student, teacher, bundle.train_x, bundle.train_y,
                              bundle.unlabeled_x[:0], bundle, cfg, mask)


def train_mclwp_semisup(student: MclModel, teacher, bundle: DatasetBundle,
                        cfg: TrainConfig, mask: StageMask = StageMask()) -> PipelineResult:
    """Knowledge transfer that also runs over the unlabeled pool.

    The matching stages see every sample; inference training uses true labels
    for labeled samples and the frozen teacher's hard predictions for the
    pool (computed once).  With an empty pool this reduces exactly to
    :func:`train_mclwp`.
    """
    return _transfer_pipeline(student, teacher, bundle.train_x, bundle.train_y,
                              bundle.unlabeled_x, bundle, cfg, mask)


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------

def train_mcl_baseline(student: MclModel, bundle: DatasetBundle,
                       cfg: TrainConfig) -> PipelineResult:
    """Energy-preserving baseline: head pretrained on raw signals, separable
    factors from the training data's per-mode singular vectors, then
    end-to-end inference training."""
    if student.fs_kind != "multilinear":
        raise ConfigError("the baseline student uses multilinear feature synthesis")
    stages: dict[str, TrainHistory] = {}
    stages["head_pretrain"] = train(
        SupervisedObjective([student.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    hosvd_init(student, bundle.train_x)
    stages["end_to_end"] = train(
        SupervisedObjective([student.sensing, student.synthesis, student.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    return PipelineResult(student, stages, {"kind": "mcl_baseline"})


def train_mclwop(student: MclModel, bundle: DatasetBundle,
                 cfg: TrainConfig) -> PipelineResult:
    """No-teacher control for the nonlinear-synthesis architecture:
    l1 reconstruction pretraining of sensing + synthesis, then end-to-end
    inference training."""
    stages: dict[str, TrainHistory] = {}
    stages["reconstruction"] = train(
        OutputMatchingObjective([student.sensing, student.synthesis]),
        bundle.train_x, None, bundle.val_x, None, cfg,
    )
    stages["end_to_end"] = train(
        SupervisedObjective([student.sensing, student.synthesis, student.head]),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    return PipelineResult(student, stages, {"kind": "mclwop"})
