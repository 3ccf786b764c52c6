"""The three benchmark workloads: input generation, set-up, one timed
iteration and its correctness checks.

Each workload is a closed loop driven by one client: the worker calls
``run_iteration`` again only after the previous iteration has finished.
Every top-level library call goes through ``Ops.call``, which times it;
checks go through ``Ops.check`` and run outside the timed calls.
"""

from __future__ import annotations

import json
import math
import shutil
import time
import zlib
from pathlib import Path

import numpy as np

from mclkit import checkpoint, cli, datasets, distill, evaluate, models, optimize

HERE = Path(__file__).resolve().parent

# Input sizes per size mode; "tiny" is the smoke test's.
SIZES = {
    "desk_ablation": {"bench": {"n_per_class": 20}, "tiny": {"n_per_class": 4}},
    "paper_transfer": {"bench": {"n_per_class": 12}, "tiny": {"n_per_class": 3}},
    "paper_eval": {
        "bench": {"n_per_class": 110, "test_per_class": 26},
        "tiny": {"n_per_class": 8, "test_per_class": 3},
    },
}


class Ops:
    """Times the top-level calls of one iteration and counts operations.

    ``group`` splits the timed calls into dataset I/O, teacher-side and
    student-side work.  An operation is one top-level call or one check.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = {"io": 0.0, "teacher": 0.0, "student": 0.0}
        self.cpu = 0.0
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.raised = False

    def call(self, group, name, fn, *args, **kwargs):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(name)
            self.raised = True
            raise
        finally:
            dw = time.perf_counter() - w0
            self.cpu += time.process_time() - c0
            if tracer is not None:
                tracer.active = False
            self.wall[group] += dw
            self.seconds[name] = self.seconds.get(name, 0.0) + dw

    def check(self, name, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    @property
    def wall_s(self) -> float:
        return sum(self.wall.values())


def _finite_losses(histories) -> bool:
    return all(
        math.isfinite(loss) and math.isfinite(val)
        for h in histories
        for _, _, loss, val in h.rows
    )


def _train_throughput(histories) -> tuple[float, float]:
    samples = sum(len(h.rows) * h.n_train for h in histories)
    seconds = sum(h.seconds for h in histories)
    return samples, seconds


class DeskAblation:
    """Teacher pretraining then the 8-mask ablation at 16x16x1."""

    signal = (16, 16, 1)
    measurement = (4, 4, 1)
    classes = 4
    width = 12

    @classmethod
    def generate(cls, seed, size, out):
        bundle = datasets.synth_dataset(seed, cls.signal, cls.classes,
                                        SIZES["desk_ablation"][size]["n_per_class"])
        datasets.save_dataset(bundle, out)

    def __init__(self, seed, size, inputs, run_dir):
        self.seed = seed
        self.inputs = inputs
        self.cfg = optimize.TrainConfig(epochs=1, lr_values=(1e-3,), lr_switch_epochs=(),
                                        batch_size=32, seed=seed)
        self.m = models.MeasurementConfig(self.measurement)
        # model construction belongs to set-up; iterations build fresh ones
        models.build_prior(self.signal, self.m, self.classes, width=self.width, seed=seed)
        models.build_mcl(self.signal, self.m, self.classes, fs_kind="nonlinear",
                         width=self.width, seed=seed)

    def run_iteration(self, ops: Ops) -> dict:
        bundle = ops.call("io", "load_dataset", datasets.load_dataset, self.inputs)
        teacher = ops.call("teacher", "build_prior", models.build_prior, self.signal, self.m,
                           bundle.n_classes, width=self.width, seed=self.seed)
        prior = ops.call("teacher", "train_prior_supervised", distill.train_prior_supervised,
                         teacher, bundle, self.cfg)
        crc = checkpoint.content_crc(teacher)
        report = ops.call("student", "run_ablation", evaluate.run_ablation, bundle, self.cfg,
                          self.m, teacher=teacher, width=self.width)
        ops.check("teacher_unchanged", checkpoint.content_crc(teacher) == crc)
        ops.check("ablation_checksums_equal",
                  len(report.teacher_checksums) == 8
                  and all(c == crc for c in report.teacher_checksums))
        histories = list(prior.stages.values()) + [
            h for r in report.results.values() for h in r.stages.values()]
        ops.check("losses_finite", _finite_losses(histories))
        accs = [row["value"] for row in report.rows]
        ops.check("ablation_rows", len(accs) == 8 and all(0 <= a <= 1 for a in accs))
        samples, seconds = _train_throughput(histories)
        return {"train_samples": samples, "train_seconds": seconds,
                "test_accuracy": float(np.median(accs)) if accs else 0.0}


class PaperTransfer:
    """``mclkit train-prior`` then ``train-student --method mclwp`` at 32x32x3."""

    signal = (32, 32, 3)
    classes = 10
    config = HERE / "transfer.cfg"
    outputs = ("checkpoint.mclk", "history.csv", "manifest.json")

    @classmethod
    def generate(cls, seed, size, out):
        bundle = datasets.synth_dataset(seed, cls.signal, cls.classes,
                                        SIZES["paper_transfer"][size]["n_per_class"])
        datasets.save_dataset(bundle, out)

    def __init__(self, seed, size, inputs, run_dir):
        self.seed = seed
        self.inputs = inputs
        self.teacher_dir = run_dir / "teacher"
        self.student_dir = run_dir / "student"
        values = cli.read_config_file(self.config)
        m = models.MeasurementConfig.parse(values["measurement"])
        models.build_prior(self.signal, m, self.classes, width=values["width"], seed=seed)
        models.build_mcl(self.signal, m, self.classes, fs_kind="nonlinear",
                         width=values["width"], seed=seed)

    def _command(self, ops, group, name, argv, out):
        shutil.rmtree(out, ignore_errors=True)
        code = ops.call(group, name, cli.main, argv)
        ops.check(f"{name}_outputs",
                  code == 0 and all((out / f).is_file() for f in self.outputs))
        return json.loads((out / "manifest.json").read_text())

    def run_iteration(self, ops: Ops) -> dict:
        common = ["--dataset", str(self.inputs), "--config", str(self.config),
                  "--seed", str(self.seed)]
        teacher_ckpt = self.teacher_dir / "checkpoint.mclk"
        manifests = [self._command(ops, "teacher", "train_prior",
                                   ["train-prior", *common, "--out", str(self.teacher_dir)],
                                   self.teacher_dir)]
        teacher_bytes = teacher_ckpt.read_bytes()
        manifests.append(self._command(
            ops, "student", "train_student",
            ["train-student", *common, "--out", str(self.student_dir),
             "--method", "mclwp", "--mask", "111", "--teacher", str(teacher_ckpt)],
            self.student_dir))
        ops.check("teacher_unchanged", teacher_ckpt.read_bytes() == teacher_bytes)
        student_ckpt = self.student_dir / "checkpoint.mclk"
        student = checkpoint.load_checkpoint(student_ckpt)
        ops.check("checkpoint_round_trip",
                  checkpoint.content_crc(student) == checkpoint.checkpoint_crc(student_ckpt))
        losses_ok = True
        for out in (self.teacher_dir, self.student_dir):
            lines = (out / "history.csv").read_text().splitlines()
            losses_ok &= lines[0] == "epoch,lr,train_loss,val_metric" and all(
                math.isfinite(float(v)) for line in lines[1:] for v in line.split(",")[2:])
        ops.check("losses_finite", losses_ok)
        stages = [s for m in manifests for s in m["report"]["stages"].values()]
        return {
            "train_samples": sum(s["epochs"] * s["n_train"] for s in stages),
            "train_seconds": sum(s["seconds"] for s in stages),
            "test_accuracy": manifests[-1]["test_accuracy"],
        }


def knn_oracle(z_train, y_train, z_test, y_test, k) -> float:
    """Brute-force float64 KNN accuracy: distance ties go to the lower training
    index, vote ties to the lower class."""
    index = np.arange(len(z_train))
    correct = 0
    for q, label in zip(z_test, y_test):
        d = ((z_train - q) ** 2).sum(axis=1)
        nearest = np.lexsort((index, d))[:k]
        correct += int(np.argmax(np.bincount(y_train[nearest])) == label)
    return correct / len(z_test)


def _flat_measurements(model, x):
    return model.measurements(x).reshape(len(x), -1).astype(np.float64)


class PaperEval:
    """Forward passes and I/O at 32x32x3 -> 14x11x2: HOSVD initialisation,
    a checkpoint round trip, accuracy, self-labeling and compressive KNN."""

    signal = (32, 32, 3)
    measurement = (14, 11, 2)
    classes = 10
    k = 5
    labeled_fraction = 0.75
    threshold = 0.8

    @classmethod
    def generate(cls, seed, size, out):
        s = SIZES["paper_eval"][size]
        bundle = datasets.synth_dataset(seed, cls.signal, cls.classes, s["n_per_class"],
                                        val_per_class=2, test_per_class=s["test_per_class"])
        datasets.save_dataset(datasets.split_semisup(bundle, cls.labeled_fraction, seed), out)

    def __init__(self, seed, size, inputs, run_dir):
        self.seed = seed
        self.inputs = inputs
        self.ckpt = run_dir / "teacher.mclk"
        m = models.MeasurementConfig(self.measurement)
        # The teacher keeps its seeded initial weights: forward cost does not
        # depend on the weight values, and this workload trains nothing.
        self.teacher = models.build_prior(self.signal, m, self.classes, width=16, seed=seed)
        self.student = models.build_mcl(self.signal, m, self.classes, fs_kind="multilinear",
                                        seed=seed)
        self.teacher_crc = checkpoint.content_crc(self.teacher)
        self.oracle_cache: dict[int, tuple] = {}
        self.random_label_checked = False

    def run_iteration(self, ops: Ops) -> dict:
        bundle = ops.call("io", "load_dataset", datasets.load_dataset, self.inputs)
        ops.call("student", "hosvd_init", models.hosvd_init, self.student, bundle.train_x)
        ops.call("teacher", "save_checkpoint", checkpoint.save_checkpoint, self.teacher,
                 self.ckpt)
        teacher = ops.call("teacher", "load_checkpoint", checkpoint.load_checkpoint, self.ckpt)
        acc = ops.call("teacher", "accuracy", evaluate.accuracy, teacher, bundle.test_x,
                       bundle.test_y)
        pool = bundle.unlabeled_x
        idx, labels = ops.call("teacher", "self_label_select", distill.self_label_select,
                               teacher, pool, self.threshold)
        knn = ops.call("student", "knn_compressive", evaluate.knn_compressive, self.student,
                       bundle.train_x, bundle.train_y, bundle.test_x, bundle.test_y, k=self.k)

        ops.check("checkpoint_round_trip", checkpoint.content_crc(teacher) == self.teacher_crc)
        ops.check("self_label_select",
                  0 <= acc <= 1 and len(idx) == len(labels)
                  and np.all(np.diff(idx) > 0) and np.all((idx >= 0) & (idx < len(pool)))
                  and np.all((labels >= 0) & (labels < self.classes)))
        for f in self.student.sensing_factors:
            gram = f.astype(np.float64) @ f.T.astype(np.float64)
            if not np.allclose(gram, np.eye(len(f)), atol=1e-4):
                ops.check("hosvd_orthonormal", False)
                break
        else:
            ops.check("hosvd_orthonormal", True)
        self._check_knn(ops, bundle, knn)
        return {
            "infer_samples": len(bundle.test_x) + len(pool),
            "infer_seconds": ops.seconds["accuracy"] + ops.seconds["self_label_select"],
            "knn_queries": len(bundle.test_x),
            "knn_seconds": ops.seconds["knn_compressive"],
            "test_accuracy": acc,
        }

    def _check_knn(self, ops, bundle, knn):
        # The oracle reuses measurements while the student's factors are
        # unchanged (HOSVD of the same data is deterministic).
        crc = zlib.crc32(b"".join(f.tobytes() for f in self.student.sensing_factors))
        if crc not in self.oracle_cache:
            self.oracle_cache[crc] = (_flat_measurements(self.student, bundle.train_x),
                                      _flat_measurements(self.student, bundle.test_x))
        z_train, z_test = self.oracle_cache[crc]
        ops.check("knn_oracle",
                  knn == knn_oracle(z_train, bundle.train_y, z_test, bundle.test_y, self.k))
        if self.random_label_checked:
            return
        # Once per process: random labels on a query subset make neighbour
        # order and vote ties decide the result.
        self.random_label_checked = True
        rng = np.random.default_rng(self.seed)
        sub = np.sort(rng.choice(len(z_test), size=min(64, len(z_test)), replace=False))
        y_train = rng.integers(0, self.classes, size=len(z_train))
        y_test = rng.integers(0, self.classes, size=len(sub))
        got = evaluate.knn_compressive(self.student, bundle.train_x, y_train,
                                       bundle.test_x[sub], y_test, k=self.k)
        ops.check("knn_oracle_random_labels",
                  got == knn_oracle(z_train, y_train, z_test[sub], y_test, self.k))


WORKLOADS = {
    "desk_ablation": DeskAblation,
    "paper_transfer": PaperTransfer,
    "paper_eval": PaperEval,
}
