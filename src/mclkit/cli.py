"""Command-line surface: train teachers and students, evaluate checkpoints,
and run the stage-ablation grid from a flat key=value config file plus flag
overrides.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Every
command validates its full specification before touching data, and all
outputs land under the directory given by ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import CheckpointError, ConfigError, DatasetError, MclError

_CONFIG_KEYS = {
    "epochs": int,
    "batch_size": int,
    "max_norm": float,
    "seed": int,
    "distill_weight": float,
    "confidence_threshold": float,
    "epochs_per_round": int,
    "self_label_round_cap": int,
    "shift_fraction": float,
    "flip": None,  # bool, parsed specially
    "lr_values": None,
    "lr_switch_epochs": None,
    "measurement": str,
    "width": int,
    "capacity": str,
    "labeled_fraction": float,
    "k": int,
    "method": str,
    "mask": str,
}


def _parse_bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def read_config_file(path) -> dict:
    """Flat ``key=value`` file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "flip":
            values[key] = _parse_bool(val)
        elif key == "lr_values":
            values[key] = tuple(float(v) for v in val.split(","))
        elif key == "lr_switch_epochs":
            values[key] = tuple(int(v) for v in val.split(",")) if val else ()
        else:
            values[key] = _CONFIG_KEYS[key](val)
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mclkit",
        description="Multilinear compressive learning with teacher-guided transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_dataset=True):
        if need_dataset:
            p.add_argument("--dataset", required=True, help="dataset directory")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", default="0", help="seed list, e.g. 0 or 0,1,2")
        p.add_argument("--measurement", help="measurement dims, e.g. 4x4x1")
        p.add_argument("--epochs", type=int, help="epochs per optimization procedure")
        p.add_argument("--width", type=int, help="convolution channel width")
        p.add_argument("--lambda", dest="distill_weight", type=float,
                       help="distillation loss weight")
        p.add_argument("--rho", dest="confidence_threshold", type=float,
                       help="self-labeling confidence threshold")
        p.add_argument("--labeled-fraction", type=float,
                       help="stratified labeled share for semi-supervised runs")

    p = sub.add_parser("train-prior", help="train the teacher on labeled data")
    common(p)

    p = sub.add_parser("train-prior-semisup",
                       help="train the teacher with self-labeling on unlabeled data")
    common(p)

    p = sub.add_parser("train-student", help="train a student model")
    common(p)
    p.add_argument("--method", required=True,
                   choices=["mcl", "mclwop", "mclwp", "mclwp-s"])
    p.add_argument("--teacher", help="teacher checkpoint (mclwp / mclwp-s)")
    p.add_argument("--mask", default="111", help="stage mask, e.g. 110")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint to evaluate")
    p.add_argument("--metric", default="accuracy", choices=["accuracy", "knn"])
    p.add_argument("--k", type=int, help="neighbour count for knn (default 5)")

    p = sub.add_parser("ablate", help="run the 8-mask stage ablation")
    common(p)
    p.add_argument("--teacher", help="reuse a teacher checkpoint instead of training")
    return parser


def _merged_config(args) -> dict:
    values = {}
    if args.config:
        if not Path(args.config).is_file():
            raise ConfigError(f"config file {args.config} does not exist")
        values.update(read_config_file(args.config))
    for key in ("epochs", "width", "distill_weight", "confidence_threshold",
                "labeled_fraction", "measurement"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "k", None) is not None:
        values["k"] = args.k
    return values


def _train_config(values, seed):
    from .optimize import TrainConfig

    kw = {k: v for k, v in values.items()
          if k in TrainConfig.__dataclass_fields__}
    kw["seed"] = seed
    return TrainConfig(**kw)


def _parse_seeds(text) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse seed list {text!r}")
    if not seeds:
        raise ConfigError("at least one seed is required")
    return seeds


def _validate_run(args, values):
    if getattr(args, "dataset", None) is not None and not Path(args.dataset).is_dir():
        raise ConfigError(f"dataset directory {args.dataset} does not exist")
    teacher = getattr(args, "teacher", None)
    if teacher is not None and not Path(teacher).is_file():
        raise ConfigError(f"teacher checkpoint {teacher} does not exist")
    ckpt = getattr(args, "checkpoint", None)
    if ckpt is not None and not Path(ckpt).is_file():
        raise ConfigError(f"checkpoint {ckpt} does not exist")
    if args.command == "train-student":
        from .distill import StageMask

        StageMask.parse(args.mask)
        if args.method in ("mclwp", "mclwp-s") and teacher is None:
            raise ConfigError(f"method {args.method} requires --teacher")
    if args.command in ("train-prior", "train-prior-semisup", "train-student", "ablate"):
        if "measurement" not in values:
            raise ConfigError("a measurement (e.g. --measurement 4x4x1) is required")
    from .models import MeasurementConfig

    if "measurement" in values:
        values["measurement"] = MeasurementConfig.parse(str(values["measurement"]))
    lf = values.get("labeled_fraction")
    if lf is not None and not 0 < lf <= 1:
        raise ConfigError(f"labeled fraction {lf} outside (0, 1]")


def _write_manifest(path, command, cfg, extra):
    manifest = {"command": command, "config": asdict(cfg)}
    manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_bundle(args, values):
    from .datasets import load_dataset, split_semisup

    bundle = load_dataset(args.dataset)
    lf = values.get("labeled_fraction")
    if lf is not None:
        bundle = split_semisup(bundle, lf, values.get("seed", 0))
    return bundle


def _run_training(args, values, seeds, trainer):
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        values["seed"] = seed
        bundle = _load_bundle(args, values)
        cfg = _train_config(values, seed)
        out = out_root / f"seed_{seed}" if len(seeds) > 1 else out_root
        out.mkdir(parents=True, exist_ok=True)
        model, result, extra = trainer(bundle, cfg, seed)
        from . import checkpoint
        from .evaluate import accuracy
        from .optimize import TrainHistory

        test_acc = accuracy(model, bundle.test_x, bundle.test_y)
        checkpoint.save_checkpoint(model, out / "checkpoint.mclk")
        rows = [r for h in result.stages.values() for r in h.rows]
        TrainHistory(rows=rows).write_csv(out / "history.csv")
        extra = dict(extra)
        extra.update({
            "seed": seed,
            "test_accuracy": test_acc,
            "report": result.report(),
        })
        _write_manifest(out / "manifest.json", args.command, cfg, extra)
    return 0


def _cmd_train_prior(args, values, seeds, semisup):
    from .distill import train_prior_semisup, train_prior_supervised
    from .models import build_prior

    def trainer(bundle, cfg, seed):
        teacher = build_prior(
            bundle.signal_shape, values["measurement"], bundle.n_classes,
            width=values.get("width", 16), capacity=values.get("capacity", "small"),
            seed=seed,
        )
        if semisup:
            result = train_prior_semisup(teacher, bundle, cfg)
        else:
            result = train_prior_supervised(teacher, bundle, cfg)
        return teacher, result, {"model": "prior"}

    return _run_training(args, values, seeds, trainer)


def _cmd_train_student(args, values, seeds):
    from . import checkpoint
    from .distill import (
        StageMask,
        train_mcl_baseline,
        train_mclwop,
        train_mclwp,
        train_mclwp_semisup,
    )
    from .models import build_mcl

    mask = StageMask.parse(args.mask)
    method = args.method

    def trainer(bundle, cfg, seed):
        fs_kind = "multilinear" if method == "mcl" else "nonlinear"
        student = build_mcl(
            bundle.signal_shape, values["measurement"], bundle.n_classes,
            fs_kind=fs_kind, width=values.get("width", 16),
            capacity=values.get("capacity", "small"), seed=seed,
        )
        if method == "mcl":
            result = train_mcl_baseline(student, bundle, cfg)
        elif method == "mclwop":
            result = train_mclwop(student, bundle, cfg)
        else:
            teacher = checkpoint.load_checkpoint(args.teacher)
            if method == "mclwp":
                result = train_mclwp(student, teacher, bundle, cfg, mask)
            else:
                result = train_mclwp_semisup(student, teacher, bundle, cfg, mask)
        return student, result, {"model": method, "mask": str(mask)}

    return _run_training(args, values, seeds, trainer)


def _cmd_eval(args, values, seeds):
    import time

    from . import checkpoint
    from .evaluate import _rows_to_csv, accuracy, knn_compressive

    bundle = _load_bundle(args, values)
    model = checkpoint.load_checkpoint(args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    if args.metric == "accuracy":
        value = accuracy(model, bundle.test_x, bundle.test_y)
        metric = "test_accuracy"
    else:
        k = values.get("k", 5)
        value = knn_compressive(model, bundle.train_x, bundle.train_y,
                                bundle.test_x, bundle.test_y, k=k)
        metric = f"knn{k}_accuracy"
    runtime = time.perf_counter() - started
    row = {"run_id": "eval", "mask_s1": "", "mask_s2": "", "mask_s3": "",
           "config": str(model.measurement), "seed": seeds[0], "metric": metric,
           "value": value}
    (out / "report.csv").write_text(_rows_to_csv([row]))
    print(f"{metric}: {value:.4f} ({runtime:.1f}s)")
    return 0


def _cmd_ablate(args, values, seeds):
    from . import checkpoint
    from .evaluate import run_ablation

    bundle = _load_bundle(args, values)
    cfg = _train_config(values, seeds[0])
    teacher = checkpoint.load_checkpoint(args.teacher) if args.teacher else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_ablation(bundle, cfg, values["measurement"], teacher=teacher,
                          width=values.get("width", 16),
                          capacity=values.get("capacity", "small"))
    report.write_csv(out / "ablation.csv")
    _write_manifest(out / "manifest.json", "ablate", cfg, {
        "teacher_checksums": report.teacher_checksums,
        "rows": report.rows,
    })
    return 0


def main(argv=None) -> int:
    threads = os.environ.get("MCLKIT_THREADS")
    if threads is not None:
        if not threads.isdigit() or int(threads) < 1:
            print(f"mclkit: MCLKIT_THREADS must be a positive integer, got {threads!r}",
                  file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values = _merged_config(args)
        seeds = _parse_seeds(args.seed)
        values.setdefault("seed", seeds[0])
        _validate_run(args, values)
    except (ConfigError, DatasetError) as exc:
        print(f"mclkit: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "train-prior":
            return _cmd_train_prior(args, values, seeds, semisup=False)
        if args.command == "train-prior-semisup":
            return _cmd_train_prior(args, values, seeds, semisup=True)
        if args.command == "train-student":
            return _cmd_train_student(args, values, seeds)
        if args.command == "eval":
            return _cmd_eval(args, values, seeds)
        if args.command == "ablate":
            return _cmd_ablate(args, values, seeds)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, DatasetError, CheckpointError) as exc:
        # late config-class problems (bad file contents, mismatched shapes)
        print(f"mclkit: {exc}", file=sys.stderr)
        return 2
    except MclError as exc:
        print(f"mclkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
