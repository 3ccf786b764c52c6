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
from .layers import LayerStack, _forward_chunks
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

def _pretrain_prior(prior, bundle, recon_x, cfg) -> dict[str, TrainHistory]:
    """The teacher's first two procedures: the head on the labeled raw
    signals, then the encoder/decoder as an l1 autoencoder on ``recon_x``."""
    return {
        "head_pretrain": train(
            SupervisedObjective([prior.head]),
            bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
        ),
        "reconstruction": train(
            OutputMatchingObjective(prior.stacks()[:2]),
            recon_x, None, bundle.val_x, None, cfg,
        ),
    }


def train_prior_supervised(prior: PriorModel, bundle: DatasetBundle,
                           cfg: TrainConfig) -> PipelineResult:
    """Train the teacher on labeled data: head on raw signals, then the
    encoder/decoder as an l1 autoencoder, then all three parts jointly."""
    stages = _pretrain_prior(prior, bundle, bundle.train_x, cfg)
    stages["joint"] = train(
        SupervisedObjective(prior.stacks()),
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
    info: dict = {"kind": "prior_semisup", "rounds": []}
    all_x = np.concatenate([bundle.train_x, pool]) if len(pool) else bundle.train_x
    all_y = np.concatenate([bundle.train_y, np.zeros(len(pool), np.int64)])
    stages = _pretrain_prior(prior, bundle, all_x, cfg)
    objective = SupervisedObjective(prior.stacks())
    # Rounds are short continuations of one long optimization, so they run at
    # the schedule's first rate; the staged ladder applies to the full-length
    # procedures, not to each slice.
    round_cfg = replace(cfg, epochs=cfg.epochs_per_round, lr_values=(cfg.lr_values[0],),
                        lr_switch_epochs=())
    n = len(bundle.train_x)  # all_x[:n] is labeled, in join order; all_x[n:] is the pool
    for rounds in range(cfg.self_label_round_cap):
        stages[f"round_{rounds}"] = train(
            objective, all_x[:n], all_y[:n], bundle.val_x, bundle.val_y,
            replace(round_cfg, seed=cfg.seed + rounds),
        )
        pool = all_x[n:]
        idx, labels = self_label_select(prior, pool, cfg.confidence_threshold)
        info["rounds"].append({"round": rounds, "labeled": n, "pool": len(pool),
                               "added": len(idx)})
        if len(idx) == 0:
            break
        # The selected rows move to the front of the pool; both parts keep pool order.
        pool[...] = pool[np.concatenate([idx, np.delete(np.arange(len(pool)), idx)])]
        all_y[n:n + len(idx)] = labels
        n += len(idx)
    else:
        log.warning("self-labeling stopped at the %d-round cap with %d pool samples left",
                    cfg.self_label_round_cap, len(all_x) - n)
        info["capped"] = True
    info["final_labeled"] = n
    info["final_pool"] = len(all_x) - n
    return PipelineResult(prior, stages, info)


# --------------------------------------------------------------------------
# Knowledge-transfer stages
# --------------------------------------------------------------------------

def stage1_transfer(student: MclModel, teacher, x, val_x, cfg: TrainConfig) -> TrainHistory:
    """Fit the student's separable sensing to the teacher's measurements
    (mean-absolute gap); only the sensing factors update."""
    return _match(student, teacher, 1, x, val_x, cfg)


def stage2_transfer(student: MclModel, teacher, x, val_x, cfg: TrainConfig) -> TrainHistory:
    """Fit sensing + synthesis to the teacher's synthesized features.

    When the synthesis stacks are structurally identical the student's is
    first initialised from the teacher's; otherwise the student keeps its own
    initialisation.
    """
    return _match(student, teacher, 2, x, val_x, cfg)


def _match(student, teacher, depth, x, val_x, cfg, targets=(None, None)):
    """Fit the student's first ``depth`` stacks to the teacher's first
    ``depth`` by the mean-absolute gap of their outputs.  ``targets`` are
    the teacher's (training, validation) rows when computed beforehand;
    None runs the teacher on each batch."""
    _check_measurement_match(student, teacher)
    if depth == 2:
        copy_stack_params(teacher.synthesis, student.synthesis)
    return train(
        OutputMatchingObjective(student.stacks()[:depth], teacher.stacks()[:depth]),
        x, targets[0], val_x, targets[1], cfg,
    )


def stage3_transfer(student: MclModel, teacher, x, y, val_x, val_y,
                    cfg: TrainConfig) -> TrainHistory:
    """Discriminative training with a symmetric-KL pull toward the teacher's
    predictions (weighted by ``cfg.distill_weight``; the teacher's raw
    predictions are used directly, no temperature)."""
    return _stage3(student, teacher, x, y, val_x, val_y, cfg)


def _stage3(student, teacher, x, y, val_x, val_y, cfg, labeled_logits=None):
    if teacher.n_classes != student.n_classes:
        raise ConfigError(
            f"class counts differ: student {student.n_classes}, teacher {teacher.n_classes}"
        )
    copy_stack_params(teacher.head, student.head)
    return train(
        SupervisedObjective(student.stacks(), teacher.stacks(), cfg.distill_weight),
        x, y if labeled_logits is None else labeled_logits, val_x, val_y, cfg,
    )


def _teacher_targets(teacher, x, val_x, cfg, depth) -> list:
    """The frozen teacher's (training rows, validation rows) after each of
    its first ``depth`` stacks (sensing, synthesis, head), computed once.

    They equal the per-batch teacher's bit for bit (see :mod:`mclkit.layers`).
    Training rows are None under augmentation, whose batches need the teacher
    on their own rows.  No validation metric reads the head's rows.
    """
    fixed = not (cfg.flip or cfg.shift_fraction > 0)
    rows, val_rows = (x if fixed else None), val_x
    targets = []
    for k, stack in enumerate(teacher.stacks()[:depth]):
        if fixed:
            rows = _forward_chunks([stack], rows)
        val_rows = _forward_chunks([stack], val_rows) if k < 2 else None
        targets.append((rows, val_rows))
    return targets


def _train_prefixes(students, masks, teacher, x, val_x, cfg, targets):
    """Run each mask's matching stages (depth 1 and 2, as set) on its student
    and return each student's stage histories.

    Masks whose stage flags start alike share that prefix: it runs once, and
    the parameters it leaves are copied into each later student that starts
    with it.  That is exact because every :func:`train` call reseeds from
    ``cfg.seed`` and starts fresh Adam state, and all students start equal.
    """
    reached: dict = {}  # stage flags so far -> (parameter values, histories)
    histories = []
    for mask, student in zip(masks, students):
        stages = {}
        for depth, name in enumerate(("sensing_transfer", "synthesis_transfer"), 1):
            flags = (mask.sensing, mask.synthesis)[:depth]
            if flags in reached:
                values, stages = reached[flags]
                for p, v in zip(student.all_params(), values):
                    p.value[...] = v
                continue
            if flags[-1]:
                stages = {**stages, name: _match(student, teacher, depth, x, val_x, cfg,
                                                 targets[depth - 1])}
            reached[flags] = ([p.value.copy() for p in student.all_params()], stages)
        histories.append(stages)
    return histories


def _transfer(students, masks, teacher, bundle, cfg, pool_x=()):
    """Knowledge transfer into each student by its mask, yielding the
    :class:`PipelineResult` of each in turn.

    The matching stages run first for every mask, sharing common prefixes,
    then each mask's final stage; the teacher is checked unchanged after
    every mask.
    """
    _check_measurement_match(students[0], teacher)
    teacher_before = [p.value.copy() for p in teacher.all_params()]
    x, y = bundle.train_x, bundle.train_y
    if len(pool_x):
        # The frozen teacher's hard predictions label the pool, once.
        pool_y = teacher.forward_logits(pool_x).argmax(axis=1).astype(np.int64)
        x = np.concatenate([x, pool_x])
        y = np.concatenate([y, pool_y])
    val_x, val_y = bundle.val_x, bundle.val_y
    pull = cfg.distill_weight != 0 and any(m.distill for m in masks)
    depth = 3 if pull else max(2 if m.synthesis else int(m.sensing) for m in masks)
    targets = _teacher_targets(teacher, x, val_x, cfg, depth)
    prefix_stages = _train_prefixes(students, masks, teacher, x, val_x, cfg, targets)
    logits = targets[2][0] if pull else None
    del targets  # the features are the largest rows; no final stage reads them
    labeled = None  # the labels packed with the teacher's logits, for the pull
    if logits is not None:
        labeled = np.empty(len(y), dtype=[("label", y.dtype),
                                          ("teacher_logits", logits.dtype, logits.shape[1:])])
        labeled["label"], labeled["teacher_logits"] = y, logits
    for mask, student, stages in zip(masks, students, prefix_stages):
        if mask.distill:
            final = _stage3(student, teacher, x, y, val_x, val_y, cfg, labeled)
        else:
            # Only the teacher-prediction pull is dropped; plain inference
            # training still runs, from whatever the earlier stages left behind.
            final = train(SupervisedObjective(student.stacks()), x, y, val_x, val_y, cfg)
        for p, before in zip(teacher.all_params(), teacher_before):
            if not np.array_equal(p.value, before):
                raise StateError(f"teacher parameter {p.name} changed during knowledge transfer")
        info = {"kind": "knowledge_transfer", "mask": str(mask),
                "n_labeled": int(len(bundle.train_x)), "n_pool": int(len(pool_x))}
        yield PipelineResult(student, {**stages, "inference": final}, info)


def train_mclwp(student: MclModel, teacher, bundle: DatasetBundle,
                cfg: TrainConfig, mask: StageMask = StageMask()) -> PipelineResult:
    """Full supervised knowledge transfer (stages per mask, inference always)."""
    [result] = _transfer([student], [mask], teacher, bundle, cfg)
    return result


def train_mclwp_semisup(student: MclModel, teacher, bundle: DatasetBundle,
                        cfg: TrainConfig, mask: StageMask = StageMask()) -> PipelineResult:
    """Knowledge transfer that also runs over the unlabeled pool.

    The matching stages see every sample; inference training uses true labels
    for labeled samples and the frozen teacher's hard predictions for the
    pool (computed once).  With an empty pool this reduces exactly to
    :func:`train_mclwp`.
    """
    [result] = _transfer([student], [mask], teacher, bundle, cfg, bundle.unlabeled_x)
    return result


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
        SupervisedObjective(student.stacks()),
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
        OutputMatchingObjective(student.stacks()[:2]),
        bundle.train_x, None, bundle.val_x, None, cfg,
    )
    stages["end_to_end"] = train(
        SupervisedObjective(student.stacks()),
        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg,
    )
    return PipelineResult(student, stages, {"kind": "mclwop"})
