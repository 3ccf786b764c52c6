import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mclkit
from mclkit import TrainConfig, build_mcl, save_dataset, split_semisup, synth_dataset
from mclkit.datasets import write_split
from mclkit.checkpoint import save_checkpoint
from mclkit.cli import main, read_config_file
from mclkit.errors import ConfigError


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    bundle = synth_dataset(0, (8, 8, 1), 3, n_per_class=20, noise=0.04)
    save_dataset(bundle, root / "plain")
    semi = split_semisup(bundle, 0.5, seed=0)
    save_dataset(semi, root / "semi")
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(
        "# desk-scale test configuration\n"
        "epochs=2\n"
        "lr_values=1e-3\n"
        "lr_switch_epochs=\n"
        "batch_size=16\n"
        "width=4\n"
        "epochs_per_round=2\n"
    )
    return path


def _train_prior(dataset_dir, config_file, out, seed="0"):
    return main([
        "train-prior", "--dataset", str(dataset_dir / "plain"),
        "--config", str(config_file), "--measurement", "3x3x1",
        "--seed", seed, "--out", str(out),
    ])


def _run_python(code, env, check=True, cwd=None):
    """Run ``code`` in a fresh interpreter with ``env`` in place of every
    thread variable of the caller."""
    base = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    base.update(env, PYTHONPATH=str(Path(mclkit.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=base, capture_output=True,
                          text=True, timeout=60, check=check, cwd=cwd)


class TestValidation:
    def test_missing_dataset_exits_2(self, tmp_path, config_file):
        code = main(["train-prior", "--dataset", str(tmp_path / "nope"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        assert main(["train-prior", "--frobnicate"]) == 2

    def test_student_distillation_requires_teacher(self, dataset_dir, tmp_path, config_file):
        code = main(["train-student", "--method", "mclwp",
                     "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_mask_exits_2(self, dataset_dir, tmp_path, config_file, teacher_ckpt, capsys):
        code = main(["train-student", "--method", "mclwp", "--mask", "abc",
                     "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--teacher", str(teacher_ckpt), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "mask must be three 0/1 characters" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mcl", "mclwop"])
    @pytest.mark.parametrize("flags", [["--mask", "010"], ["--teacher", None],
                                       ["--mask", "010", "--teacher", None]],
                             ids=["mask", "teacher", "both"])
    def test_unused_student_flags_exit_2(self, dataset_dir, config_file, teacher_ckpt,
                                         tmp_path, capsys, method, flags):
        flags = [str(teacher_ckpt) if f is None else f for f in flags]
        out = tmp_path / "out"
        code = main(["train-student", "--method", method, *flags,
                     "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--out", str(out)])
        assert code == 2
        assert f"method {method} takes no --" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_measurement_exits_2(self, dataset_dir, tmp_path, config_file):
        code = main(["train-prior", "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_seed_list_exits_2(self, dataset_dir, tmp_path, config_file):
        code = main(["train-prior", "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--seed", "zero", "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("command,seed", [("train-prior", "-1"), ("train-prior", "0,-2"),
                                              ("ablate", "-1")])
    def test_negative_seed_exits_2(self, dataset_dir, tmp_path, config_file, capsys,
                                   command, seed):
        out = tmp_path / "out"
        code = main([command, "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     f"--seed={seed}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mclkit: seeds must be >= 0") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0,0", "1,2,1"])
    def test_repeated_seed_exits_2(self, dataset_dir, tmp_path, config_file, capsys, seed):
        out = tmp_path / "out"
        code = main(["train-prior", "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--seed", seed, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mclkit: seed list '{seed}' repeats a seed")
        assert not out.exists()

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_empty_split_exits_2_before_training(self, dataset_dir, tmp_path, config_file,
                                                 split):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir / "plain", data)
        write_split(data / f"{split}.mcld", np.zeros((0, 8, 8, 1), np.float32),
                    np.zeros(0, np.int64))
        out = tmp_path / "out"
        code = main(["train-prior", "--dataset", str(data), "--config", str(config_file),
                     "--measurement", "3x3x1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_config_file_rejects_unknown_keys(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed=9\n")
        with pytest.raises(ConfigError):
            read_config_file(bad)

    @pytest.mark.parametrize("env,imports,expected", [
        # ahead of numpy, mclkit pins BLAS to one thread and runs a worker per core
        ({}, "import mclkit, numpy", "1 cores"),
        # after numpy, BLAS may run many threads, so inference stays serial
        ({}, "import numpy, mclkit", "None 1"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "import mclkit", "3 1"),
        # the workers follow the affinity mask, as `taskset` sets it
        ({}, "import os; os.sched_setaffinity(0, {0}); import mclkit", "1 1"),
        ({}, "import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2]); "
             "import mclkit", "1 two"),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
         "import numpy, mclkit", "1 cores"),
    ], ids=["mclkit-first", "numpy-first", "user-blas-3", "one-worker", "two-workers",
            "user-blas-1-numpy-first"])
    def test_thread_policy(self, env, imports, expected):
        # BLAS reads its thread count once, when numpy loads, so each case
        # needs a fresh interpreter.
        done = _run_python(
            f"{imports}, os; from mclkit import layers; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), layers._WORKERS)", env)
        cores = len(os.sched_getaffinity(0))
        assert done.stdout.split() == expected.replace("cores", str(cores)).replace(
            "two", str(min(2, cores))).split()

    @pytest.mark.parametrize("line", ["epochs=abc", "flip=maybe", "lr_switch_epochs=x"])
    def test_unparsable_config_value_exits_2(self, dataset_dir, config_file, tmp_path, line):
        assert _train_student_with_extra_line(dataset_dir, config_file, tmp_path, line) == 2

    @pytest.mark.parametrize("line", ["seed=3", "mask=000", "method=mcl"])
    def test_flag_only_settings_rejected_in_config_file(self, dataset_dir, config_file,
                                                        tmp_path, line):
        assert _train_student_with_extra_line(dataset_dir, config_file, tmp_path, line) == 2

    @pytest.mark.parametrize("line", ["capacity=huge", "width=0", "width=-1", "max_norm=nan"])
    def test_bad_setting_exits_2_without_checkpoint(self, dataset_dir, config_file,
                                                    tmp_path, line):
        assert _train_student_with_extra_line(dataset_dir, config_file, tmp_path, line) == 2
        assert not (tmp_path / "out" / "checkpoint.mclk").exists()

    @pytest.mark.parametrize("command,flags,line", [
        ("train-prior", [], "max_norm=nan"),
        ("train-student", ["--method", "mcl", "--width", "0"], ""),
        ("ablate", ["--width", "0"], ""),
    ], ids=["train-prior-max_norm", "train-student-width", "ablate-width"])
    def test_bad_setting_leaves_no_out_directory(self, dataset_dir, config_file, tmp_path,
                                                 command, flags, line):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(config_file.read_text() + line + "\n")
        out = tmp_path / "out"
        code = main([command, "--dataset", str(dataset_dir / "plain"), "--config", str(cfg),
                     "--measurement", "3x3x1", *flags, "--out", str(out)])
        assert code == 2
        assert not out.exists()


def _train_student_with_extra_line(dataset_dir, config_file, tmp_path, line):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(config_file.read_text() + line + "\n")
    return main(["train-student", "--method", "mcl",
                 "--dataset", str(dataset_dir / "plain"), "--config", str(cfg),
                 "--measurement", "3x3x1", "--out", str(tmp_path / "out")])


class TestTrainCommands:
    def test_train_prior_emits_exactly_three_files(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "prior"
        assert _train_prior(dataset_dir, config_file, out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["checkpoint.mclk", "history.csv", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train-prior"
        assert 0 <= manifest["test_accuracy"] <= 1
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,lr,train_loss,val_metric"

    def test_rerun_reproduces_checkpoint_and_history_bytes(self, dataset_dir, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _train_prior(dataset_dir, config_file, out1) == 0
        assert _train_prior(dataset_dir, config_file, out2) == 0
        assert (out1 / "checkpoint.mclk").read_bytes() == (out2 / "checkpoint.mclk").read_bytes()
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()

    def test_student_methods_and_masks(self, dataset_dir, config_file, tmp_path):
        teacher_out = tmp_path / "teacher"
        assert _train_prior(dataset_dir, config_file, teacher_out) == 0
        out = tmp_path / "student"
        code = main(["train-student", "--method", "mclwp", "--mask", "110",
                     "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--teacher", str(teacher_out / "checkpoint.mclk"),
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mask"] == "110"
        stages = manifest["report"]["stages"]
        assert set(stages) == {"sensing_transfer", "synthesis_transfer", "inference"}

    def test_mcl_method_needs_no_teacher(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "mcl"
        code = main(["train-student", "--method", "mcl",
                     "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.mclk").exists()
        assert "mask" not in json.loads((out / "manifest.json").read_text())

    def test_semisup_commands(self, dataset_dir, config_file, tmp_path):
        prior_out = tmp_path / "prior_s"
        code = main(["train-prior-semisup", "--dataset", str(dataset_dir / "semi"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--rho", "0.9", "--out", str(prior_out)])
        assert code == 0
        out = tmp_path / "student_s"
        code = main(["train-student", "--method", "mclwp-s",
                     "--dataset", str(dataset_dir / "semi"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--teacher", str(prior_out / "checkpoint.mclk"),
                     "--out", str(out)])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["mask"] == "111"

    def test_config_file_sets_every_train_setting(self, dataset_dir, tmp_path):
        settings = {
            "epochs": ("3", 3),
            "lr_values": ("2e-3, 5e-4", [2e-3, 5e-4]),
            "lr_switch_epochs": ("2", [2]),
            "batch_size": ("8", 8),
            "max_norm": ("4.5", 4.5),
            "flip": ("yes", True),
            "shift_fraction": ("0.125", 0.125),
            "distill_weight": ("0.5", 0.5),
            "confidence_threshold": ("0.7", 0.7),
            "epochs_per_round": ("2", 2),
            "self_label_round_cap": ("3", 3),
        }
        assert set(settings) == {f.name for f in fields(TrainConfig)} - {"seed"}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("width=4\n" + "".join(f"{k}={text}\n"
                                             for k, (text, _) in settings.items()))
        out = tmp_path / "prior"
        assert _train_prior(dataset_dir, cfg, out, seed="5") == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"seed": 5, **{k: v for k, (_, v) in settings.items()}}

    def test_multi_seed_writes_subdirectories(self, dataset_dir, config_file, tmp_path):
        out = tmp_path / "multi"
        assert _train_prior(dataset_dir, config_file, out, seed="0,1") == 0
        assert sorted(p.name for p in out.iterdir()) == ["seed_0", "seed_1"]


@pytest.fixture(scope="module")
def teacher_ckpt(dataset_dir, config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    assert _train_prior(dataset_dir, config_file, out) == 0
    return out / "checkpoint.mclk"


class TestEvalAndAblate:
    def test_eval_accuracy(self, dataset_dir, config_file, teacher_ckpt, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt),
                     "--metric", "accuracy", "--out", str(out)])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "run_id,mask_s1,mask_s2,mask_s3,config,seed,metric,value"
        assert lines[1].startswith("eval,,,,3x3x1,0,test_accuracy,")

    def test_eval_knn_default_k5_and_determinism(self, dataset_dir, config_file,
                                                 teacher_ckpt, tmp_path):
        outs = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                         "--checkpoint", str(teacher_ckpt),
                         "--metric", "knn", "--out", str(out)])
            assert code == 0
            outs.append((out / "report.csv").read_bytes())
        assert b"knn5_accuracy" in outs[0]
        assert outs[0] == outs[1]

    def test_ablate_emits_eight_rows(self, dataset_dir, config_file, teacher_ckpt, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--dataset", str(dataset_dir / "plain"),
                     "--config", str(config_file), "--measurement", "3x3x1",
                     "--teacher", str(teacher_ckpt), "--out", str(out)])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 9
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(set(manifest["teacher_checksums"])) == 1

    @pytest.mark.parametrize("flag", [("--measurement", "9x9x9"), ("--epochs", "7"),
                                      ("--width", "99"), ("--lambda", "3"),
                                      ("--rho", "0.5")],
                             ids=lambda flag: flag[0])
    def test_eval_rejects_training_flags(self, dataset_dir, config_file, teacher_ckpt,
                                         tmp_path, flag):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt), *flag, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["epochs=7", "measurement=9x9x9", "width=99"])
    def test_eval_rejects_training_keys_in_config_file(self, dataset_dir, teacher_ckpt,
                                                       tmp_path, line):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"), "--config", str(cfg),
                     "--checkpoint", str(teacher_ckpt), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_eval_reads_its_own_keys_from_config_file(self, dataset_dir, teacher_ckpt,
                                                     tmp_path):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("k=3\n")
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"), "--config", str(cfg),
                     "--checkpoint", str(teacher_ckpt), "--metric", "knn", "--out", str(out)])
        assert code == 0
        assert ",knn3_accuracy," in (out / "report.csv").read_text()

    @pytest.mark.parametrize("setting", [("--k", "0"), ("--k", "3"),
                                         ("--labeled-fraction", "0.5"),
                                         ("k=0",), ("labeled_fraction=0.5",)],
                             ids=["flag-k0", "flag-k3", "flag-labeled-fraction", "key-k0",
                                  "key-labeled-fraction"])
    def test_eval_accuracy_rejects_knn_settings(self, dataset_dir, teacher_ckpt, tmp_path,
                                                setting, capsys):
        # Only knn reads k or the training split that labeled_fraction shapes.
        args = list(setting)
        if len(setting) == 1:
            cfg = tmp_path / "eval.cfg"
            cfg.write_text(setting[0] + "\n")
            args = ["--config", str(cfg)]
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt), "--metric", "accuracy", *args,
                     "--out", str(out)])
        assert code == 2
        assert "--metric accuracy takes no" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_knn_takes_labeled_fraction(self, dataset_dir, teacher_ckpt, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt), "--metric", "knn",
                     "--labeled-fraction", "0.5", "--k", "1", "--out", str(out)])
        assert code == 0
        assert ",knn1_accuracy," in (out / "report.csv").read_text()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_single_seed_commands_reject_seed_lists(self, dataset_dir, config_file,
                                                    teacher_ckpt, tmp_path, command):
        out = tmp_path / command
        extra = (["--checkpoint", str(teacher_ckpt)] if command == "eval" else
                 ["--config", str(config_file), "--measurement", "3x3x1",
                  "--teacher", str(teacher_ckpt)])
        code = main([command, "--dataset", str(dataset_dir / "plain"),
                     "--seed", "0,1", *extra, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1", "-5"])
    def test_eval_knn_k_below_one_exits_2(self, dataset_dir, config_file, teacher_ckpt,
                                          tmp_path, k):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt),
                     "--metric", "knn", "--k", k, "--out", str(out)])
        assert code == 2
        assert not (out / "report.csv").exists()

    def test_eval_non_finite_checkpoint_exits_2(self, dataset_dir, tmp_path, capsys):
        student = build_mcl((8, 8, 1), (3, 3, 1), 3, fs_kind="multilinear", width=4, seed=0)
        student.all_params()[0].value[0, 0] = float("nan")
        ckpt = tmp_path / "student.mclk"
        save_checkpoint(student, ckpt)
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("mclkit: parameter 'sensing.0.f0' holds a non-finite value")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "999"])
    def test_eval_failure_leaves_no_out_directory(self, dataset_dir, config_file,
                                                   teacher_ckpt, tmp_path, k):
        out = tmp_path / "eval"
        code = main(["eval", "--dataset", str(dataset_dir / "plain"),
                     "--checkpoint", str(teacher_ckpt),
                     "--metric", "knn", "--k", k, "--out", str(out)])
        assert code == 2
        assert not out.exists()
