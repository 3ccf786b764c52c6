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
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import checkpoint
from .datasets import load_dataset, split_semisup
from .distill import (
    StageMask,
    train_mcl_baseline,
    train_mclwop,
    train_mclwp,
    train_mclwp_semisup,
    train_prior_semisup,
    train_prior_supervised,
)
from .errors import CheckpointError, ConfigError, DatasetError, MclError
from .evaluate import _row, _rows_to_csv, accuracy, knn_compressive, run_ablation
from .models import MeasurementConfig, build_mcl, build_prior
from .optimize import TrainConfig, TrainHistory

# Config-file keys and their value types, per command.  The training
# commands take every TrainConfig field but the seed (flag-only, like
# --method and --mask), typed by its default, where a tuple default reads as
# a comma-separated list of its first element's type, plus the model
# settings; eval takes only its own settings.
_TRAIN_KEYS = {
    f.name: (type(f.default[0]),) if isinstance(f.default, tuple) else type(f.default)
    for f in fields(TrainConfig) if f.name != "seed"
}
_TRAIN_KEYS.update(measurement=str, width=int, capacity=str, labeled_fraction=float)
_EVAL_KEYS = {"labeled_fraction": float, "k": int}


def _parse_value(kind, text):
    if isinstance(kind, tuple):
        return tuple(kind[0](v) for v in text.split(",")) if text else ()
    if kind is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {text!r}")
    return kind(text)


def read_config_file(path, keys=_TRAIN_KEYS) -> dict:
    """Flat ``key=value`` file of the given ``keys``; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(keys[key], val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mclkit",
        description="Multilinear compressive learning with teacher-guided transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def data_flags(p):
        p.add_argument("--dataset", required=True, help="dataset directory")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", default="0",
                       help="seed list, e.g. 0 or 0,1,2 (eval and ablate take one)")
        p.add_argument("--labeled-fraction", type=float,
                       help="stratified labeled share for semi-supervised runs")

    def train_flags(p):
        data_flags(p)
        p.set_defaults(config_keys=_TRAIN_KEYS)
        p.add_argument("--measurement", help="measurement dims, e.g. 4x4x1")
        p.add_argument("--epochs", type=int, help="epochs per optimization procedure")
        p.add_argument("--width", type=int, help="convolution channel width")
        p.add_argument("--lambda", dest="distill_weight", type=float,
                       help="distillation loss weight")
        p.add_argument("--rho", dest="confidence_threshold", type=float,
                       help="self-labeling confidence threshold")

    p = sub.add_parser("train-prior", help="train the teacher on labeled data")
    train_flags(p)
    p.set_defaults(run=partial(_cmd_train_prior, semisup=False))

    p = sub.add_parser("train-prior-semisup",
                       help="train the teacher with self-labeling on unlabeled data")
    train_flags(p)
    p.set_defaults(run=partial(_cmd_train_prior, semisup=True))

    p = sub.add_parser("train-student", help="train a student model")
    train_flags(p)
    p.add_argument("--method", required=True,
                   choices=["mcl", "mclwop", "mclwp", "mclwp-s"])
    p.add_argument("--teacher", help="teacher checkpoint (mclwp / mclwp-s)")
    p.add_argument("--mask", help="stage mask for mclwp / mclwp-s, e.g. 110 (default 111)")
    p.set_defaults(run=_cmd_train_student)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    data_flags(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint to evaluate")
    p.add_argument("--metric", default="accuracy", choices=["accuracy", "knn"])
    p.add_argument("--k", type=int, help="neighbour count for knn (default 5)")
    p.set_defaults(run=_cmd_eval, config_keys=_EVAL_KEYS)

    p = sub.add_parser("ablate", help="run the 8-mask stage ablation")
    train_flags(p)
    p.add_argument("--teacher", help="reuse a teacher checkpoint instead of training")
    p.set_defaults(run=_cmd_ablate)
    return parser


def _merged_config(args) -> dict:
    values = {}
    if args.config:
        if not Path(args.config).is_file():
            raise ConfigError(f"config file {args.config} does not exist")
        values.update(read_config_file(args.config, args.config_keys))
    for key, flag in vars(args).items():
        if key in args.config_keys and flag is not None:
            values[key] = flag
    return values


def _model_settings(values) -> dict:
    """The builder settings the user set; the builders hold the defaults."""
    return {k: values[k] for k in ("width", "capacity") if k in values}


def _train_config(values, seed):
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
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {text!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seed list {text!r} repeats a seed")
    return seeds


def _validate_run(args, values, seeds):
    if not Path(args.dataset).is_dir():
        raise ConfigError(f"dataset directory {args.dataset} does not exist")
    teacher = getattr(args, "teacher", None)
    if teacher is not None and not Path(teacher).is_file():
        raise ConfigError(f"teacher checkpoint {teacher} does not exist")
    ckpt = getattr(args, "checkpoint", None)
    if ckpt is not None and not Path(ckpt).is_file():
        raise ConfigError(f"checkpoint {ckpt} does not exist")
    method = getattr(args, "method", None)
    if method in ("mclwp", "mclwp-s") and teacher is None:
        raise ConfigError(f"method {method} requires --teacher")
    if method in ("mcl", "mclwop"):
        for flag, value in (("--teacher", teacher), ("--mask", args.mask)):
            if value is not None:
                raise ConfigError(f"method {method} takes no {flag}")
    if args.command == "eval" and args.metric != "knn" and values:
        # k, and labeled_fraction (it splits the training rows), serve only knn
        raise ConfigError(f"--metric {args.metric} takes no {' or '.join(sorted(values))}")
    if args.command in ("eval", "ablate") and len(seeds) > 1:
        raise ConfigError(f"{args.command} takes one seed, got {args.seed!r}")
    if args.command != "eval" and "measurement" not in values:
        raise ConfigError("a measurement (e.g. --measurement 4x4x1) is required")
    if "measurement" in values:
        values["measurement"] = MeasurementConfig.parse(str(values["measurement"]))
    lf = values.get("labeled_fraction")
    if lf is not None and not 0 < lf <= 1:
        raise ConfigError(f"labeled fraction {lf} outside (0, 1]")


def _write_manifest(path, command, cfg, extra):
    manifest = {"command": command, "config": asdict(cfg)}
    manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_bundle(args, values, seed):
    bundle = load_dataset(args.dataset)
    lf = values.get("labeled_fraction")
    if lf is not None:
        bundle = split_semisup(bundle, lf, seed)
    return bundle


def _run_training(args, values, seeds, build, fit, extra):
    """Per seed, build the TrainConfig and ``build(bundle, seed)``'s model,
    which checks every setting, before ``--out`` is created; then
    ``fit(model, bundle, cfg)`` trains and the three outputs are written."""
    out_root = Path(args.out)
    for seed in seeds:
        bundle = _load_bundle(args, values, seed)
        cfg = _train_config(values, seed)
        model = build(bundle, seed)
        out = out_root / f"seed_{seed}" if len(seeds) > 1 else out_root
        out.mkdir(parents=True, exist_ok=True)
        result = fit(model, bundle, cfg)
        test_acc = accuracy(model, bundle.test_x, bundle.test_y)
        checkpoint.save_checkpoint(model, out / "checkpoint.mclk")
        rows = [r for h in result.stages.values() for r in h.rows]
        TrainHistory(rows=rows).write_csv(out / "history.csv")
        _write_manifest(out / "manifest.json", args.command, cfg, {
            **extra,
            "seed": seed,
            "test_accuracy": test_acc,
            "report": result.report(),
        })
    return 0


def _cmd_train_prior(args, values, seeds, semisup):
    def build(bundle, seed):
        return build_prior(bundle.signal_shape, values["measurement"], bundle.n_classes,
                           seed=seed, **_model_settings(values))

    fit = train_prior_semisup if semisup else train_prior_supervised
    return _run_training(args, values, seeds, build, fit, {"model": "prior"})


def _cmd_train_student(args, values, seeds):
    method = args.method
    fs_kind = "multilinear" if method == "mcl" else "nonlinear"

    def build(bundle, seed):
        return build_mcl(bundle.signal_shape, values["measurement"], bundle.n_classes,
                         fs_kind=fs_kind, seed=seed, **_model_settings(values))

    extra = {"model": method}
    if method in ("mcl", "mclwop"):
        fit = train_mcl_baseline if method == "mcl" else train_mclwop
    else:
        mask = StageMask.parse(args.mask or "111")
        extra["mask"] = str(mask)
        # The teacher is frozen and checked unchanged by every run, so one
        # load serves every seed.
        teacher = checkpoint.load_checkpoint(args.teacher)
        transfer = train_mclwp if method == "mclwp" else train_mclwp_semisup

        def fit(student, bundle, cfg):
            return transfer(student, teacher, bundle, cfg, mask)

    return _run_training(args, values, seeds, build, fit, extra)


def _cmd_eval(args, values, seeds):
    bundle = _load_bundle(args, values, seeds[0])
    model = checkpoint.load_checkpoint(args.checkpoint)
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
    row = _row("eval", model.measurement, seeds[0], metric, value)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(_rows_to_csv([row]))
    print(f"{metric}: {value:.4f} ({runtime:.1f}s)")
    return 0


def _cmd_ablate(args, values, seeds):
    bundle = _load_bundle(args, values, seeds[0])
    cfg = _train_config(values, seeds[0])
    teacher = checkpoint.load_checkpoint(args.teacher) if args.teacher else None
    # The models are built (and their settings checked) inside the ablation,
    # so --out is created only once it has results to hold.
    report = run_ablation(bundle, cfg, values["measurement"], teacher=teacher,
                          **_model_settings(values))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "ablation.csv")
    _write_manifest(out / "manifest.json", "ablate", cfg, {
        "teacher_checksums": report.teacher_checksums,
        "rows": report.rows,
    })
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values = _merged_config(args)
        seeds = _parse_seeds(args.seed)
        _validate_run(args, values, seeds)
        return args.run(args, values, seeds)
    except (ConfigError, DatasetError, CheckpointError) as exc:
        print(f"mclkit: {exc}", file=sys.stderr)
        return 2
    except MclError as exc:
        print(f"mclkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
