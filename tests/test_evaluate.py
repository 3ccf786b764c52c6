import math

import numpy as np
import pytest

from mclkit import (
    StageMask,
    TrainConfig,
    build_mcl,
    build_prior,
    compare_prior_effect,
    knn_compressive,
    run_ablation,
    synth_dataset,
    tensor,
    train_mclwp,
    train_prior_supervised,
)
from mclkit.errors import ConfigError, NonFiniteError
from mclkit.evaluate import AblationReport, PriorEffectReport, _row, accuracy
from mclkit.optimize import SupervisedObjective, train

SIGNAL = (8, 8, 1)


@pytest.fixture(scope="module")
def bundle():
    return synth_dataset(1, SIGNAL, 3, n_per_class=20, noise=0.04)


@pytest.fixture(scope="module")
def model(bundle):
    m = build_mcl(SIGNAL, (3, 3, 1), 3, fs_kind="nonlinear", width=6, seed=0)
    cfg = TrainConfig(epochs=10, lr_switch_epochs=(), lr_values=(1e-3,),
                      batch_size=16, seed=0)
    train(SupervisedObjective([m.sensing, m.synthesis, m.head]),
          bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg)
    return m


class TestAccuracy:
    def test_perfect_on_memorised_labels(self, bundle, model):
        preds = np.array([int(np.argmax(model.predict(s))) for s in bundle.test_x])
        assert accuracy(model, bundle.test_x, preds) == 1.0

    def test_constant_model_is_chance_level(self, bundle):
        m = build_mcl(SIGNAL, (3, 3, 1), 3, fs_kind="nonlinear", width=6, seed=1)
        m.head.params[-2].value[...] = 0  # zero final dense weights -> constant logits
        m.head.params[-1].value[...] = [1.0, 0.0, 0.0]
        acc = accuracy(m, bundle.test_x, bundle.test_y)
        assert abs(acc - 1 / 3) < 0.15

    def test_matches_per_sample_oracle(self, bundle, model):
        acc = accuracy(model, bundle.test_x, bundle.test_y)
        oracle = np.mean([
            int(np.argmax(model.predict(s))) == y
            for s, y in zip(bundle.test_x, bundle.test_y)
        ])
        assert acc == oracle

    def test_permutation_invariant(self, bundle, model):
        perm = np.random.default_rng(0).permutation(len(bundle.test_x))
        a = accuracy(model, bundle.test_x, bundle.test_y)
        b = accuracy(model, bundle.test_x[perm], bundle.test_y[perm])
        assert a == b

    def test_empty_set_rejected(self, model):
        with pytest.raises(ConfigError):
            accuracy(model, np.zeros((0,) + SIGNAL, dtype=np.float32), np.zeros(0))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_label_count_mismatch_rejected(self, bundle, model, extra):
        y = np.resize(bundle.test_y, len(bundle.test_y) + extra)
        with pytest.raises(ConfigError, match="test: .* samples but .* labels"):
            accuracy(model, bundle.test_x, y)

    def test_label_column_rejected(self, bundle):
        # a column of labels would broadcast against the predictions to n x n
        class Oracle:
            def forward_logits(self, x):
                return np.eye(3)[np.arange(len(x)) % 3]

        x, y = bundle.test_x[:9], np.arange(9) % 3
        assert accuracy(Oracle(), x, y) == 1.0
        with pytest.raises(ConfigError, match="test: labels must be 1-D"):
            accuracy(Oracle(), x, y[:, None])


def _brute_force_knn(z_train, train_y, z_test, k, n_classes):
    preds = []
    for i in range(len(z_test)):
        d = [(float(np.sum((z_test[i] - z_train[j]) ** 2)), j) for j in range(len(z_train))]
        d.sort()
        votes = np.zeros(n_classes, dtype=int)
        for _, j in d[:k]:
            votes[train_y[j]] += 1
        preds.append(int(votes.argmax()))
    return np.asarray(preds)


class TestKnn:
    def test_k1_recovers_training_point(self, bundle, model):
        acc = knn_compressive(model, bundle.train_x, bundle.train_y,
                              bundle.train_x[:10], bundle.train_y[:10], k=1)
        assert acc == 1.0

    def test_separated_clusters(self):
        m = build_mcl((4, 4, 1), (2, 2, 1), 2, seed=0)
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.01, size=(20, 4, 4, 1)).astype(np.float32)
        b = rng.normal(loc=5.0, scale=0.01, size=(20, 4, 4, 1)).astype(np.float32)
        x = np.concatenate([a, b])
        y = np.array([0] * 20 + [1] * 20)
        assert knn_compressive(m, x, y, x, y, k=5) == 1.0

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force_oracle_exactly(self, bundle, model, k):
        z_train = model.measurements(bundle.train_x).reshape(len(bundle.train_x), -1)
        z_test = model.measurements(bundle.test_x).reshape(len(bundle.test_x), -1)
        oracle = _brute_force_knn(z_train.astype(np.float64), bundle.train_y,
                                  z_test.astype(np.float64), k, 3)
        acc = knn_compressive(model, bundle.train_x, bundle.train_y,
                              bundle.test_x, bundle.test_y, k=k)
        assert acc == float(np.mean(oracle == bundle.test_y))

    @pytest.mark.parametrize("k", [1, 5])
    def test_block_budget_does_not_change_result(self, bundle, model, monkeypatch, k):
        # Random training labels make neighbour order and vote ties decide.
        y_train = np.random.default_rng(4).integers(0, 3, size=len(bundle.train_x))
        args = (model, bundle.train_x, y_train, bundle.test_x, bundle.test_y)
        expected = knn_compressive(*args, k=k)
        monkeypatch.setattr(tensor, "_CACHE_BYTES", 1)
        assert knn_compressive(*args, k=k) == expected

    def test_k_too_large_rejected(self, bundle, model):
        with pytest.raises(ConfigError):
            knn_compressive(model, bundle.train_x[:3], bundle.train_y[:3],
                            bundle.test_x, bundle.test_y, k=10)

    @pytest.mark.parametrize("split", ["training", "test"])
    @pytest.mark.parametrize("extra", [-5, 5])
    def test_label_count_mismatch_rejected(self, bundle, model, split, extra):
        ys = {"training": bundle.train_y, "test": bundle.test_y}
        ys[split] = np.resize(ys[split], len(ys[split]) + extra)
        with pytest.raises(ConfigError, match=f"{split}: .* samples but .* labels"):
            knn_compressive(model, bundle.train_x, ys["training"],
                            bundle.test_x, ys["test"], k=3)

    def test_unlabeled_training_marker_rejected(self, bundle, monkeypatch):
        # -1 marks an unlabeled sample; it has no class to vote for
        m = build_mcl(SIGNAL, (3, 3, 1), 3, seed=0)
        monkeypatch.setattr(m, "measurements", None)  # no work before the check
        train_y = bundle.train_y.copy()
        train_y[::4] = -1
        with pytest.raises(ConfigError, match="unlabeled"):
            knn_compressive(m, bundle.train_x, train_y, bundle.test_x, bundle.test_y, k=3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_integer_training_labels_rejected(self, bundle, monkeypatch, dtype):
        m = build_mcl(SIGNAL, (3, 3, 1), 3, seed=0)
        monkeypatch.setattr(m, "measurements", None)  # no work before the check
        with pytest.raises(ConfigError, match="integers"):
            knn_compressive(m, bundle.train_x, bundle.train_y.astype(dtype),
                            bundle.test_x, bundle.test_y, k=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("split", ["training", "test"])
    def test_non_finite_measurements_rejected(self, bundle, split):
        # 3e38 is a finite float32 input, but its measurements overflow
        m = build_mcl(SIGNAL, (3, 3, 1), 3, fs_kind="multilinear", seed=0)
        xs = {"training": bundle.train_x.copy(), "test": bundle.test_x.copy()}
        xs[split][1] = 3e38
        with pytest.raises(NonFiniteError, match="non-finite"):
            knn_compressive(m, xs["training"], bundle.train_y, xs["test"], bundle.test_y, k=3)

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_k_below_one_rejected(self, bundle, model, k):
        with pytest.raises(ConfigError, match=f"k={k}"):
            knn_compressive(model, bundle.train_x, bundle.train_y,
                            bundle.test_x, bundle.test_y, k=k)


@pytest.fixture(scope="module")
def report(bundle):
    cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                      batch_size=16, seed=3)
    return run_ablation(bundle, cfg, (3, 3, 1), width=4), cfg


class TestAblation:
    def test_eight_distinct_rows(self, report):
        rep, _ = report
        assert len(rep.rows) == 8
        masks = {(r["mask_s1"], r["mask_s2"], r["mask_s3"]) for r in rep.rows}
        assert len(masks) == 8

    def test_shared_teacher_checksums_identical(self, report):
        rep, _ = report
        assert len(set(rep.teacher_checksums)) == 1

    def test_all_false_row_equals_fresh_plain_run(self, bundle, report):
        rep, cfg = report
        plain = build_mcl(SIGNAL, (3, 3, 1), 3, fs_kind="nonlinear", width=4,
                          seed=cfg.seed)
        history = train(SupervisedObjective([plain.sensing, plain.synthesis, plain.head]),
                        bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg)
        ablated = rep.results["000"]
        assert ablated.stages["inference"].rows == history.rows
        for pa, pb in zip(ablated.model.all_params(), plain.all_params()):
            assert np.array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("flip", [False, True], ids=["plain", "flip"])
    def test_every_mask_equals_an_independent_run(self, bundle, flip):
        # Shared stage prefixes and, without augmentation, teacher outputs
        # computed once must not change a single bit of any mask's run.
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=6, flip=flip)
        teacher = build_prior(SIGNAL, (3, 3, 1), 3, width=4, seed=6)
        train_prior_supervised(teacher, bundle, cfg)
        rep = run_ablation(bundle, cfg, (3, 3, 1), teacher=teacher, width=4)
        for row, mask in zip(rep.rows, StageMask.all_masks()):
            student = build_mcl(SIGNAL, (3, 3, 1), 3, fs_kind="nonlinear", width=4,
                                seed=cfg.seed)
            alone = train_mclwp(student, teacher, bundle, cfg, mask)
            shared = rep.results[str(mask)]
            assert row["value"] == accuracy(student, bundle.test_x, bundle.test_y)
            assert list(shared.stages) == list(alone.stages)
            for name, history in alone.stages.items():
                assert shared.stages[name].rows == history.rows, (str(mask), name)
            for pa, pb in zip(shared.model.all_params(), student.all_params()):
                assert np.array_equal(pa.value, pb.value), (str(mask), pa.name)

    def test_csv_layout_and_determinism(self, report, bundle):
        rep, cfg = report
        lines = rep.csv_text().strip().split("\n")
        assert lines[0] == "run_id,mask_s1,mask_s2,mask_s3,config,seed,metric,value"
        assert len(lines) == 9
        assert all(len(line.split(",")) == 8 for line in lines)
        assert {line.split(",")[4] for line in lines[1:]} == {"3x3x1"}
        rerun = run_ablation(bundle, cfg, (3, 3, 1), width=4)
        assert rerun.csv_text() == rep.csv_text()


def test_report_csv_bytes(tmp_path):
    # config as M1xM2xM3, the value by repr, mask and seed cells by str
    report = AblationReport(rows=[
        _row("ablate-101-seed0", (4, 4, 1), 0, "test_accuracy", 0.1 + 0.2, (1, 0, 1)),
        _row("eval", (14, 11, 2), 3, "knn5_accuracy", 1.5e-05, (1, "", "")),
        _row("mclwop-median", (4, 4, 1), -1, "median_test_accuracy", math.nan),
    ])
    text = ("run_id,mask_s1,mask_s2,mask_s3,config,seed,metric,value\n"
            "ablate-101-seed0,1,0,1,4x4x1,0,test_accuracy,0.30000000000000004\n"
            "eval,1,,,14x11x2,3,knn5_accuracy,1.5e-05\n"
            "mclwop-median,,,,4x4x1,-1,median_test_accuracy,nan\n")
    assert report.csv_text() == text
    report.write_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == text.encode()
    assert PriorEffectReport().csv_text() == text.split("\n")[0] + "\n"


class TestPriorEffect:
    def test_paired_rows_and_param_counts(self, bundle):
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=5)
        rep = compare_prior_effect(bundle, cfg, (3, 3, 1), width=4)
        per_seed = [r for r in rep.rows if r["metric"] == "test_accuracy"]
        assert len(per_seed) == 6  # 3 seeds x 2 methods
        assert rep.param_counts["mclwp"] == rep.param_counts["mclwop"]
        assert set(rep.medians) == {"mclwp", "mclwop"}
        medians = [r for r in rep.rows if r["metric"] == "median_test_accuracy"]
        assert len(medians) == 2
