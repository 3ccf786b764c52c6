from dataclasses import replace

import numpy as np
import pytest

from mclkit import (
    StageMask,
    TrainConfig,
    accuracy,
    build_mcl,
    build_prior,
    run_ablation,
    self_label_select,
    split_semisup,
    stage1_transfer,
    stage2_transfer,
    stage3_transfer,
    synth_dataset,
    train_mcl_baseline,
    train_mclwop,
    train_mclwp,
    train_mclwp_semisup,
    train_prior_semisup,
    train_prior_supervised,
)
from mclkit import distill
from mclkit.checkpoint import content_crc
from mclkit.distill import copy_stack_params
from mclkit.errors import ConfigError, MclError, NonFiniteError, StateError
from mclkit.layers import LayerStack, ModeProjection, _forward_chunks
from mclkit.models import PriorModel
from mclkit.optimize import SupervisedObjective, train

SIGNAL = (8, 8, 1)
MEAS = (3, 3, 1)


@pytest.fixture(scope="module")
def bundle():
    return synth_dataset(0, SIGNAL, 3, n_per_class=40, noise=0.05)


@pytest.fixture(scope="module")
def quick_cfg():
    return TrainConfig(epochs=4, lr_switch_epochs=(), lr_values=(1e-3,),
                       batch_size=16, seed=0)


@pytest.fixture(scope="module")
def trained_teacher(bundle):
    teacher = build_prior(SIGNAL, MEAS, 3, width=8, seed=0)
    cfg = TrainConfig(epochs=15, lr_switch_epochs=(10, 13), batch_size=16, seed=0)
    result = train_prior_supervised(teacher, bundle, cfg)
    return teacher, result


def _student(seed=1, fs="nonlinear", width=8):
    return build_mcl(SIGNAL, MEAS, 3, fs_kind=fs, width=width, seed=seed)


def _linear_teacher(student, factors, width=4):
    # a teacher whose sensing is an exact separable map (realizable by the student)
    scaffold = build_prior(SIGNAL, student.measurement.dims, 3, width=width, seed=0)
    proj = ModeProjection(SIGNAL, student.measurement.dims, np.random.default_rng(0))
    for param, factor in zip(proj.params, factors):
        param.value[...] = factor
    return PriorModel(LayerStack([proj], SIGNAL, name="sensing"), scaffold.synthesis,
                      scaffold.head, SIGNAL, student.measurement, 3, width, "small")


class TestTeacherTraining:
    def test_phases_and_toy_accuracy(self, bundle, trained_teacher):
        teacher, result = trained_teacher
        assert list(result.stages) == ["head_pretrain", "reconstruction", "joint"]
        rec = result.stages["reconstruction"]
        assert rec.rows[-1][2] < rec.rows[0][2]  # descent sanity
        assert accuracy(teacher, bundle.test_x, bundle.test_y) >= 0.9

    def test_head_pretrain_leaves_encoder_decoder_at_init(self, bundle, quick_cfg):
        teacher = build_prior(SIGNAL, MEAS, 3, width=4, seed=5)
        before = [p.value.copy() for p in teacher.sensing.params + teacher.synthesis.params]
        train(SupervisedObjective([teacher.head]),
              bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, quick_cfg)
        after = [p.value for p in teacher.sensing.params + teacher.synthesis.params]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)


class TestStage1:
    def test_realizable_target_reaches_near_zero(self):
        # inputs are isotropic so every direction of the separable map is
        # exercised; the matching loss must then approach zero
        rng = np.random.default_rng(0)
        x = rng.normal(size=(96,) + SIGNAL).astype(np.float32)
        val = rng.normal(size=(24,) + SIGNAL).astype(np.float32)
        student = build_mcl((8, 8, 1), (2, 2, 1), 3, seed=1)
        factors = [rng.normal(size=(2, 8)).astype(np.float32) * 0.3,
                   rng.normal(size=(2, 8)).astype(np.float32) * 0.3,
                   np.ones((1, 1), np.float32)]
        teacher = _linear_teacher(student, factors)
        cfg = TrainConfig(epochs=150, lr_switch_epochs=(80, 120),
                          lr_values=(1e-2, 1e-3, 1e-4), batch_size=16, seed=0)
        history = stage1_transfer(student, teacher, x, val, cfg)
        assert history.rows[-1][2] < 1e-3

    def test_descent_statistics(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        student = _student(seed=2)
        cfg = TrainConfig(epochs=20, lr_switch_epochs=(12, 16), batch_size=16, seed=0)
        history = stage1_transfer(student, teacher, bundle.train_x, bundle.val_x, cfg)
        losses = [r[2] for r in history.rows]
        drops = sum(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))
        assert drops / (len(losses) - 1) >= 0.9

    def test_only_sensing_updates(self, bundle, trained_teacher, quick_cfg):
        teacher, _ = trained_teacher
        student = _student(seed=2)
        before_synth = [p.value.copy() for p in student.synthesis.params]
        before_head = [p.value.copy() for p in student.head.params]
        stage1_transfer(student, teacher, bundle.train_x, bundle.val_x, quick_cfg)
        for p, b in zip(student.synthesis.params, before_synth):
            assert np.array_equal(p.value, b)
        for p, b in zip(student.head.params, before_head):
            assert np.array_equal(p.value, b)

    def test_measurement_mismatch_rejected(self, bundle, trained_teacher, quick_cfg):
        teacher, _ = trained_teacher
        student = build_mcl(SIGNAL, (2, 2, 1), 3, seed=0)
        with pytest.raises(ConfigError, match="measurement"):
            stage1_transfer(student, teacher, bundle.train_x, bundle.val_x, quick_cfg)


class TestStage2:
    def test_identical_architectures_start_at_zero_loss(self, bundle, quick_cfg):
        student = _student(seed=3)
        teacher = _linear_teacher(
            student, [f.copy() for f in student.sensing.layers[0].factors], width=8
        )
        history = stage2_transfer(student, teacher, bundle.train_x, bundle.val_x,
                                  quick_cfg)
        assert history.rows[0][2] == 0.0
        assert all(r[2] == 0.0 for r in history.rows)

    def test_copy_is_bit_exact_when_architectures_match(self, trained_teacher):
        teacher, _ = trained_teacher
        student = _student(seed=4)
        assert copy_stack_params(teacher.synthesis, student.synthesis)
        for a, b in zip(teacher.synthesis.params, student.synthesis.params):
            assert np.array_equal(a.value, b.value)

    def test_mismatched_copy_falls_back(self, trained_teacher):
        teacher, _ = trained_teacher
        student = _student(seed=4, fs="multilinear")  # single projection synthesis
        before = [p.value.copy() for p in student.synthesis.params]
        assert not copy_stack_params(teacher.synthesis, student.synthesis)
        for p, b in zip(student.synthesis.params, before):
            assert np.array_equal(p.value, b)

    def test_feature_gap_shrinks_and_shape_is_signal(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        student = _student(seed=5)
        cfg = TrainConfig(epochs=8, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=0)
        history = stage2_transfer(student, teacher, bundle.train_x, bundle.val_x, cfg)
        assert history.rows[-1][2] < history.rows[0][2]
        feats = student.features(bundle.test_x[:4])
        assert feats.shape == (4,) + SIGNAL


class TestStage3:
    def test_zero_weight_equals_pure_inference_bitwise(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        cfg = TrainConfig(epochs=4, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=7, distill_weight=0.0)
        a = _student(seed=6)
        ha = stage3_transfer(a, teacher, bundle.train_x, bundle.train_y,
                             bundle.val_x, bundle.val_y, cfg)
        b = _student(seed=6)
        copy_stack_params(teacher.head, b.head)
        hb = train(SupervisedObjective([b.sensing, b.synthesis, b.head]),
                   bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg)
        assert ha.rows == hb.rows
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.value, pb.value)

    def test_packed_teacher_logits_equal_per_batch_teacher(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        cfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=8, distill_weight=1.0)
        packed = SupervisedObjective.pack(bundle.train_y, teacher.forward_logits(bundle.train_x))
        runs = []
        for y in (bundle.train_y, packed):
            student = _student(seed=9)
            history = stage3_transfer(student, teacher, bundle.train_x, y,
                                      bundle.val_x, bundle.val_y, cfg)
            runs.append((history.rows, [p.value for p in student.all_params()]))
        (rows_a, params_a), (rows_b, params_b) = runs
        assert rows_a == rows_b
        for pa, pb in zip(params_a, params_b):
            assert pa.tobytes() == pb.tobytes()

    def test_matching_predictions_zero_distillation_term(self, bundle, trained_teacher):
        from mclkit.optimize import _forward_path
        from mclkit.losses import cross_entropy

        teacher, _ = trained_teacher
        path = (teacher.sensing, teacher.synthesis, teacher.head)
        objective = SupervisedObjective(path, path, weight=1.0)
        x, y = bundle.train_x[:8], bundle.train_y[:8]
        for s in path:
            s.zero_grads()
        total = objective.batch_loss(x, y)
        ce = cross_entropy(_forward_path(path, x), y)[0]
        assert total == ce  # symmetric-KL term is exactly zero

    def test_class_count_mismatch_rejected(self, bundle, trained_teacher, quick_cfg):
        teacher, _ = trained_teacher
        student = build_mcl(SIGNAL, MEAS, 5, fs_kind="nonlinear", width=8, seed=0)
        with pytest.raises(ConfigError):
            stage3_transfer(student, teacher, bundle.train_x, bundle.train_y,
                            bundle.val_x, bundle.val_y, quick_cfg)


def _per_batch_rows(stacks, x, order, batch_size):
    """Each stack's output rows as train() meets them: one batch at a time."""
    outs = [None] * len(stacks)
    for start in range(0, len(x), batch_size):
        idx = order[start : start + batch_size]
        h = x[idx]
        for k, s in enumerate(stacks):
            h = s.forward(h)
            if outs[k] is None:
                outs[k] = np.empty((len(x),) + h.shape[1:], h.dtype)
            outs[k][idx] = h
    return outs


def _chunked_rows(stacks, x):
    outs = []
    for s in stacks:
        x = _forward_chunks([s], x)
        outs.append(x)
    return outs


class TestPrecomputedTeacherTargets:
    @pytest.mark.parametrize("signal,meas,width,classes,n", [
        ((16, 16, 1), (4, 4, 1), 12, 4, 300),
        ((16, 16, 1), (4, 4, 1), 8, 4, 300),
        ((32, 32, 3), (6, 6, 1), 16, 10, 90),
        ((32, 32, 3), (14, 11, 2), 16, 10, 90),
        ((32, 32, 3), (6, 6, 1), 32, 10, 90),
    ])
    def test_chunked_rows_equal_per_batch_rows(self, signal, meas, width, classes, n):
        # Sensing, sensing + synthesis and the full path, in one pass over
        # all rows against shuffled batches with a short last batch
        # (n % 32 != 0).  At width 8 the decoder's one-channel output conv
        # is a matrix-vector product per sample; at width 32 the head's
        # dense layer has 32 inputs.
        teacher = build_prior(signal, meas, classes, width=width, seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((n,) + signal, dtype=np.float32)
        stacks = [teacher.sensing, teacher.synthesis, teacher.head]
        chunked = _chunked_rows(stacks, x)
        for batched, ref, name in zip(_per_batch_rows(stacks, x, rng.permutation(n), 32),
                                      chunked, ("sensing", "synthesis", "head")):
            assert np.array_equal(batched, ref), name

    @pytest.mark.parametrize("n_train,flip", [(120, False), (113, False), (120, True)],
                             ids=["precomputed", "one-row-batch", "flip"])
    def test_pipeline_equals_per_batch_stages(self, bundle, trained_teacher, n_train, flip):
        # 113 rows in batches of 16 leave a one-row batch, which the targets
        # computed once must match too; flipped batches need the teacher on
        # their own rows, so the training targets then come from each batch.
        # The validation targets are computed once either way.
        teacher, _ = trained_teacher
        data = replace(bundle, train_x=bundle.train_x[:n_train],
                       train_y=bundle.train_y[:n_train])
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=4, flip=flip)
        targets = distill._teacher_targets(teacher, data.train_x, data.val_x, cfg, 3)
        assert [rows is not None for rows, _ in targets] == [not flip] * 3
        assert [val is not None for _, val in targets] == [True, True, False]
        a = _student(seed=19)
        result = train_mclwp(a, teacher, data, cfg, StageMask())
        b = _student(seed=19)
        expected = [
            stage1_transfer(b, teacher, data.train_x, data.val_x, cfg),
            stage2_transfer(b, teacher, data.train_x, data.val_x, cfg),
            stage3_transfer(b, teacher, data.train_x, data.train_y,
                            data.val_x, data.val_y, cfg),
        ]
        assert [h.rows for h in result.stages.values()] == [h.rows for h in expected]
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.value, pb.value)

    def test_only_validation_rows_under_augmentation(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        val_rows = _chunked_rows([teacher.sensing, teacher.synthesis], bundle.val_x)
        for aug in ({"flip": True}, {"shift_fraction": 0.25}):
            cfg = TrainConfig(batch_size=16, **aug)
            targets = distill._teacher_targets(teacher, bundle.train_x, bundle.val_x, cfg, 3)
            assert [rows for rows, _ in targets] == [None] * 3
            assert targets[2][1] is None
            for (_, val), ref in zip(targets, val_rows):
                assert np.array_equal(val, ref)


class TestMclwpPipeline:
    def test_mask_all_false_equals_plain_training_bitwise(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        cfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=9)
        a = _student(seed=8)
        result = train_mclwp(a, teacher, bundle, cfg, StageMask(False, False, False))
        assert list(result.stages) == ["inference"]
        b = _student(seed=8)
        hb = train(SupervisedObjective([b.sensing, b.synthesis, b.head]),
                   bundle.train_x, bundle.train_y, bundle.val_x, bundle.val_y, cfg)
        assert result.stages["inference"].rows == hb.rows
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.value, pb.value)

    def test_teacher_frozen_through_pipeline(self, bundle, trained_teacher, quick_cfg):
        teacher, _ = trained_teacher
        before = [p.value.copy() for p in teacher.all_params()]
        train_mclwp(_student(seed=10), teacher, bundle, quick_cfg, StageMask())
        for p, b in zip(teacher.all_params(), before):
            assert np.array_equal(p.value, b)

    def test_teacher_change_during_a_stage_raises(self, bundle, quick_cfg, monkeypatch):
        teacher = build_prior(SIGNAL, MEAS, 3, width=8, seed=0)
        real_match = distill._match

        def match_that_touches_the_teacher(student, teacher, *args):
            teacher.head.params[0].value[...] += 1
            return real_match(student, teacher, *args)

        monkeypatch.setattr(distill, "_match", match_that_touches_the_teacher)
        with pytest.raises(StateError, match="teacher parameter"):
            train_mclwp(_student(seed=10), teacher, bundle, quick_cfg, StageMask())

    @pytest.mark.parametrize("run", ["mclwp", "mclwp-semisup", "ablation"])
    @pytest.mark.parametrize("what,signal,meas,classes", [
        ("signal shape", (16, 16, 1), MEAS, 3),
        ("measurement", SIGNAL, (2, 2, 1), 3),
        ("class count", SIGNAL, MEAS, 4),
    ], ids=["signal-shape", "measurement", "class-count"])
    def test_unfit_teacher_raises_before_any_training(self, bundle, quick_cfg, monkeypatch,
                                                      run, what, signal, meas, classes):
        calls = []

        def counted_train(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(distill, "train", counted_train)
        teacher = build_prior(signal, meas, classes, width=4, seed=0)
        runs = {
            "mclwp": lambda: train_mclwp(_student(width=4), teacher, bundle, quick_cfg),
            "mclwp-semisup": lambda: train_mclwp_semisup(
                _student(width=4), teacher, split_semisup(bundle, 0.5, seed=0), quick_cfg),
            "ablation": lambda: run_ablation(bundle, quick_cfg, MEAS, teacher=teacher, width=4),
        }
        with pytest.raises(ConfigError, match=f"student {what} .* differs from teacher {what}"):
            runs[run]()
        assert calls == []

    def test_non_finite_teacher_is_a_typed_error(self, bundle, quick_cfg):
        # A NaN encoder weight reaches the encoder's mode projection, both in
        # the targets computed once and in a per-batch teacher run.
        teacher = build_prior(SIGNAL, MEAS, 3, width=4, seed=0)
        teacher.sensing.layers[0].w.value[0, 0, 0, 0] = np.nan
        for run in (lambda: train_mclwp(_student(), teacher, bundle, quick_cfg),
                    lambda: stage1_transfer(_student(), teacher, bundle.train_x,
                                            bundle.val_x, quick_cfg)):
            with pytest.raises(NonFiniteError, match="non-finite") as info:
                run()
            assert isinstance(info.value, MclError) and isinstance(info.value, ValueError)

    def test_masks_enumerate_eight_distinct(self):
        masks = StageMask.all_masks()
        assert len(masks) == 8
        assert len({str(m) for m in masks}) == 8
        assert StageMask.parse("110") == StageMask(True, True, False)
        with pytest.raises(ConfigError):
            StageMask.parse("2x1")

    def test_stage_order_and_histories(self, bundle, trained_teacher, quick_cfg):
        teacher, _ = trained_teacher
        result = train_mclwp(_student(seed=11), teacher, bundle, quick_cfg, StageMask())
        assert list(result.stages) == ["sensing_transfer", "synthesis_transfer", "inference"]


class TestStageTiming:
    def test_every_stage_is_timed(self, bundle, trained_teacher):
        teacher, prior_result = trained_teacher
        cfg = TrainConfig(epochs=1, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=32, seed=0, epochs_per_round=1)
        semi = split_semisup(bundle, 0.5, seed=0)
        results = [
            prior_result,
            train_prior_semisup(build_prior(SIGNAL, MEAS, 3, width=4, seed=0), semi, cfg),
            train_mclwp(_student(seed=18), teacher, bundle, cfg, StageMask()),
        ]
        for result in results:
            stages = result.report()["stages"]
            assert stages
            for name, stage in stages.items():
                assert stage["seconds"] > 0, name


class TestBaselines:
    def test_mcl_baseline_toy_accuracy(self, bundle):
        cfg = TrainConfig(epochs=15, lr_switch_epochs=(10, 13), batch_size=16, seed=0)
        student = _student(seed=0, fs="multilinear", width=16)
        result = train_mcl_baseline(student, bundle, cfg)
        assert list(result.stages) == ["head_pretrain", "end_to_end"]
        assert accuracy(student, bundle.test_x, bundle.test_y) >= 0.9
        factors = student.sensing.layers[0].factors
        assert [f.shape for f in factors] == [(3, 8), (3, 8), (1, 1)]

    def test_mcl_baseline_requires_multilinear(self, bundle, quick_cfg):
        with pytest.raises(ConfigError):
            train_mcl_baseline(_student(seed=0, fs="nonlinear"), bundle, quick_cfg)

    def test_mclwop_needs_no_teacher_and_descends(self, bundle):
        cfg = TrainConfig(epochs=6, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=0)
        student = _student(seed=12)
        result = train_mclwop(student, bundle, cfg)
        rec = result.stages["reconstruction"]
        assert rec.rows[-1][2] < rec.rows[0][2]

    def test_mclwop_and_mclwp_share_architecture(self):
        a = _student(seed=13)
        b = _student(seed=14)
        assert a.param_count() == b.param_count()


class TestSelfLabeling:
    def test_selection_definition(self, trained_teacher, bundle):
        teacher, _ = trained_teacher
        idx, labels = self_label_select(teacher, bundle.test_x, 0.7)
        # oracle: brute-force scan in pool order
        expect_idx, expect_labels = [], []
        for i, sample in enumerate(bundle.test_x):
            probs = teacher.predict(sample)
            if probs.max() >= 0.7:
                expect_idx.append(i)
                expect_labels.append(int(probs.argmax()))
        assert list(idx) == expect_idx
        assert list(labels) == expect_labels

    def test_empty_results(self, trained_teacher, bundle):
        teacher, _ = trained_teacher
        idx, labels = self_label_select(teacher, bundle.test_x[:0], 0.7)
        assert len(idx) == 0 and len(labels) == 0
        idx, _ = self_label_select(teacher, bundle.test_x, 0.999999)
        assert np.all(
            np.max([teacher.predict(s) for s in bundle.test_x[idx]], initial=0, axis=None)
            >= 0.999999
        ) or len(idx) == 0

    def test_threshold_validation(self, trained_teacher, bundle):
        teacher, _ = trained_teacher
        with pytest.raises(ConfigError):
            self_label_select(teacher, bundle.test_x, 1.5)


class TestSemiSupervised:
    def test_loop_grows_and_conserves(self):
        data = synth_dataset(3, SIGNAL, 3, n_per_class=30, noise=0.04)
        semi = split_semisup(data, 0.3, seed=1)
        n_labeled, n_pool = len(semi.train_x), semi.n_unlabeled
        teacher = build_prior(SIGNAL, (2, 2, 1), 3, width=6, seed=0)
        cfg = TrainConfig(epochs=10, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=0, confidence_threshold=0.7,
                          epochs_per_round=80)
        result = train_prior_semisup(teacher, semi, cfg)
        rounds = result.info["rounds"]
        assert len(rounds) <= cfg.self_label_round_cap
        labeled_counts = [r["labeled"] for r in rounds]
        assert labeled_counts == sorted(labeled_counts)  # non-decreasing
        for r in rounds:
            assert r["labeled"] + r["pool"] == n_labeled + n_pool
        assert result.info["final_labeled"] > n_labeled  # strictly enlarged
        assert rounds[-1]["added"] == 0 or result.info.get("capped")

    @staticmethod
    def _run_with_selections(bundle, selections, monkeypatch, **cfg_kw):
        """Run the loop with self_label_select answering ``selections`` in
        turn (then nothing); return the result, each round's (rows, labels)
        and the pool each selection saw."""
        trained, pools, answers = [], [], iter(selections)

        def record_train(objective, x, y, *args, _real=distill.train):
            trained.append((x.copy(), None if y is None else y.copy()))
            return _real(objective, x, y, *args)

        def select(teacher, pool_x, threshold):
            pools.append(pool_x.copy())
            idx, labels = next(answers, ([], []))
            return np.asarray(idx, np.int64), np.asarray(labels, np.int64)

        monkeypatch.setattr(distill, "train", record_train)
        monkeypatch.setattr(distill, "self_label_select", select)
        cfg = TrainConfig(epochs=1, lr_switch_epochs=(), lr_values=(1e-3,), batch_size=32,
                          seed=0, epochs_per_round=1, **cfg_kw)
        result = train_prior_semisup(build_prior(SIGNAL, MEAS, 3, width=4, seed=0), bundle, cfg)
        return result, trained[2:], pools  # the first two are the pretraining procedures

    def test_rounds_train_on_rows_in_join_order(self, bundle, monkeypatch):
        semi = split_semisup(bundle, 0.3, seed=0)
        pool = semi.unlabeled_x
        selections = [([1, 4, 5], [2, 0, 1]), ([0, len(pool) - 4], [1, 1])]
        result, trained, pools = self._run_with_selections(semi, selections, monkeypatch)
        assert [r["added"] for r in result.info["rounds"]] == [3, 2, 0]
        x, y = semi.train_x, semi.train_y
        expected_pool = pool
        assert len(trained) == len(pools) == 3
        for (rows, labels), seen, (idx, new) in zip(trained, pools, selections + [([], [])]):
            assert np.array_equal(rows, x) and np.array_equal(labels, y)
            assert np.array_equal(seen, expected_pool)
            x = np.concatenate([x, expected_pool[idx]])
            y = np.concatenate([y, new])
            expected_pool = np.delete(expected_pool, idx, axis=0)
        assert result.info["final_labeled"] == len(x)
        assert result.info["final_pool"] == len(expected_pool)

    def test_bundle_arrays_unchanged(self, bundle, monkeypatch):
        semi = split_semisup(bundle, 0.3, seed=0)
        before = [a.copy() for a in (semi.train_x, semi.train_y, semi.unlabeled_x)]
        result, _, _ = self._run_with_selections(semi, [([2, 3], [0, 2]), ([0], [1])],
                                                 monkeypatch)
        assert result.info["final_labeled"] == len(semi.train_x) + 3
        for after, copy in zip((semi.train_x, semi.train_y, semi.unlabeled_x), before):
            assert np.array_equal(after, copy)

    def test_round_cap_stops_with_rows_joining(self, bundle, monkeypatch, caplog):
        semi = split_semisup(bundle, 0.3, seed=0)
        with caplog.at_level("WARNING", logger="mclkit.distill"):
            result, trained, _ = self._run_with_selections(
                semi, [([0, 2], [1, 0])], monkeypatch, self_label_round_cap=1)
        info = result.info
        assert len(info["rounds"]) == len(trained) == 1 and info["capped"] is True
        assert info["final_labeled"] == len(semi.train_x) + 2
        assert info["final_labeled"] + info["final_pool"] == len(semi.train_x) + semi.n_unlabeled
        left = info["final_pool"]
        assert f"stopped at the 1-round cap with {left} pool samples left" in caplog.text

    def test_empty_pool_runs_one_round(self, bundle):
        teacher = build_prior(SIGNAL, MEAS, 3, width=4, seed=0)
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=32, seed=0, epochs_per_round=2)
        result = train_prior_semisup(teacher, bundle, cfg)
        assert len(result.info["rounds"]) == 1
        assert result.info["rounds"][0]["added"] == 0

    def test_degenerate_pool_reduces_to_supervised_transfer(self, bundle, trained_teacher):
        teacher, _ = trained_teacher
        cfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=15)
        a = _student(seed=16)
        ra = train_mclwp_semisup(a, teacher, bundle, cfg, StageMask())
        b = _student(seed=16)
        rb = train_mclwp(b, teacher, bundle, cfg, StageMask())
        for name in ra.stages:
            assert ra.stages[name].rows == rb.stages[name].rows
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.value, pb.value)
        assert content_crc(a) == content_crc(b)

    def test_empty_pool_trains_on_the_labeled_arrays_uncopied(self, bundle, trained_teacher,
                                                             quick_cfg, monkeypatch):
        teacher, _ = trained_teacher
        seen = []
        for name in ("_match", "stage3_transfer"):
            def record(student, teacher, *args, _real=getattr(distill, name)):
                seen.append(args)
                return _real(student, teacher, *args)

            monkeypatch.setattr(distill, name, record)
        train_mclwp_semisup(_student(seed=18), teacher, bundle, quick_cfg, StageMask())
        # _match takes (depth, x, ...), stage 3 takes (x, y, ...), its y the
        # labels packed with the teacher's logits
        assert len(seen) == 3 and [args[0] for args in seen[:2]] == [1, 2]
        assert all(args[1] is bundle.train_x for args in seen[:2])
        assert seen[2][0] is bundle.train_x
        assert np.array_equal(seen[2][1]["label"], bundle.train_y)

    def test_transfer_stages_see_all_samples(self, trained_teacher):
        teacher, _ = trained_teacher
        data = synth_dataset(0, SIGNAL, 3, n_per_class=40, noise=0.05)
        semi = split_semisup(data, 0.5, seed=2)
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,),
                          batch_size=16, seed=0)
        result = train_mclwp_semisup(_student(seed=17), teacher, semi, cfg, StageMask())
        total = len(semi.train_x) + semi.n_unlabeled
        assert result.stages["sensing_transfer"].n_train == total
        assert result.stages["synthesis_transfer"].n_train == total
        assert result.stages["inference"].n_train == total
        assert result.info["n_labeled"] == len(semi.train_x)
