import math

import numpy as np
import pytest

from mclkit.errors import ConfigError, TrainingDivergedError
from mclkit.layers import Dense, LayerStack, Param
from mclkit.losses import l1_loss
from mclkit.optimize import (
    AdamState,
    OutputMatchingObjective,
    SupervisedObjective,
    TrainConfig,
    augment,
    max_norm_project,
    shift2d,
    train,
)


class TestTrainConfig:
    def test_full_schedule_values(self):
        cfg = TrainConfig.full_schedule()
        assert cfg.epochs == 160
        assert cfg.lr_values == (1e-3, 1e-4, 1e-5)
        assert cfg.lr_switch_epochs == (80, 120)
        assert cfg.max_norm == 6.0
        lrs = [cfg.lr_at(e) for e in range(160)]
        assert lrs[:80] == [1e-3] * 80
        assert lrs[80:120] == [1e-4] * 40
        assert lrs[120:] == [1e-5] * 40

    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.distill_weight == 1.0
        assert cfg.max_norm == 6.0
        assert cfg.batch_size == 32
        assert 0 < cfg.confidence_threshold < 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=10, lr_switch_epochs=(12,), lr_values=(1e-3, 1e-4))
        with pytest.raises(ConfigError):
            TrainConfig(lr_switch_epochs=(40, 30), lr_values=(1, 2, 3))
        with pytest.raises(ConfigError):
            TrainConfig(confidence_threshold=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(distill_weight=-0.5)
        with pytest.raises(ConfigError):
            TrainConfig(max_norm=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs_per_round=0)
        for bad in (dict(max_norm=math.nan), dict(max_norm=-1.0),
                    dict(distill_weight=math.nan), dict(distill_weight=math.inf),
                    dict(lr_values=(math.nan, 1e-4, 1e-5)), dict(lr_values=(-1.0, 1e-4, 1e-5)),
                    dict(lr_values=(1e-3, math.inf, 1e-5)), dict(lr_values=(1e-3, 1e-4, 0.0)),
                    dict(self_label_round_cap=0), dict(self_label_round_cap=-3),
                    dict(seed=-1), dict(seed=1.5), dict(seed=True), dict(batch_size=2.5),
                    dict(epochs_per_round=1.5), dict(self_label_round_cap=2.5),
                    dict(epochs="3"),
                    dict(epochs=True, lr_switch_epochs=(), lr_values=(1e-3,))):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Param("p", np.ones((3, 2), dtype=np.float32), norm_axes=(1,))
        before = p.value.copy()
        adam = AdamState([p])
        adam.step(1e-3)
        assert np.array_equal(p.value, before)

    def test_first_step_closed_form(self):
        g = 0.37
        p = Param("p", np.zeros(4))
        p.grad[...] = g
        adam = AdamState([p])
        adam.step(1e-3)
        expected = -1e-3 * g / (abs(g) + 1e-8)
        assert np.max(np.abs(p.value - expected)) < 1e-6

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            p = Param("p", rng.normal(size=(4, 3)).astype(np.float32))
            adam = AdamState([p])
            for t in range(10):
                p.grad[...] = rng.normal(size=(4, 3)).astype(np.float32)
                adam.step(1e-3)
            return p.value

        assert np.array_equal(run(), run())


class TestMaxNorm:
    def test_violating_row_rescaled_exactly(self):
        p = Param("w", np.array([[12.0, 0.0], [1.0, 1.0]], dtype=np.float32),
                  norm_axes=(1,))
        max_norm_project([p], 6.0)
        assert p.value[0, 0] == 6.0
        assert np.array_equal(p.value[1], [1.0, 1.0])

    def test_within_bound_is_bit_identical_noop(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(5, 4)).astype(np.float32)
        p = Param("w", v.copy(), norm_axes=(1,))
        max_norm_project([p], 1e6)
        assert np.array_equal(p.value, v)

    def test_unconstrained_param_untouched(self):
        p = Param("b", np.full(3, 99.0, dtype=np.float32))
        max_norm_project([p], 1.0)
        assert np.array_equal(p.value, [99.0] * 3)

    def test_conv_filters_norm_axes(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(3, 3, 2, 4)).astype(np.float32) * 10
        p = Param("w", w.copy(), norm_axes=(0, 1, 2))
        max_norm_project([p], 2.0)
        norms = np.sqrt((p.value**2).sum(axis=(0, 1, 2)))
        assert np.all(norms <= 2.0 + 1e-5)


class TestAugment:
    def test_flags_off_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6, 6, 2)).astype(np.float32)
        assert augment(x, False, 0.0, rng) is x

    def test_double_flip_restores(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 7, 1)).astype(np.float32)
        flipped = x[:, :, ::-1, :]
        assert np.array_equal(flipped[:, :, ::-1, :], x)

    def test_shift_composition_on_interior(self):
        rng = np.random.default_rng(10)
        img = rng.normal(size=(10, 10, 2)).astype(np.float32)
        there = shift2d(img, 2, -2)
        back = shift2d(there, -2, 2)
        assert np.array_equal(back[2:-2, 2:-2], img[2:-2, 2:-2])

    def test_zero_fill_borders(self):
        img = np.ones((4, 4, 1), dtype=np.float32)
        out = shift2d(img, 1, 0)
        assert np.all(out[0] == 0)
        assert np.all(out[1:] == 1)

    def test_labels_never_touched_and_deterministic(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        x = np.random.default_rng(12).normal(size=(6, 10, 10, 1)).astype(np.float32)
        a = augment(x, True, 0.1, rng1)
        b = augment(x, True, 0.1, rng2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, x)  # seed 11 flips/shifts something


def _toy_problem(n=60, seed=0):
    # two linearly separable clusters in 6 dims
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([
        rng.normal(loc=+2.0, size=(half, 6)),
        rng.normal(loc=-2.0, size=(half, 6)),
    ]).astype(np.float32)
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    order = rng.permutation(n)
    return x[order], y[order]


def _toy_stack(seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return LayerStack([Dense(6, 8, rng, dtype=dtype), Dense(8, 2, rng, dtype=dtype)],
                      (6,), name="toy")


class TestTrainLoop:
    def test_separable_toy_reaches_full_accuracy(self):
        x, y = _toy_problem()
        stack = _toy_stack()
        cfg = TrainConfig(epochs=50, lr_switch_epochs=(30, 40), batch_size=16, seed=0)
        history = train(SupervisedObjective([stack]), x, y, x, y, cfg)
        assert history.best_value == 1.0
        assert len(history.rows) == 50

    def test_frozen_stack_untouched(self):
        x, y = _toy_problem()
        trained = _toy_stack(seed=1)
        frozen = _toy_stack(seed=2)
        before = [p.value.copy() for p in frozen.params]
        cfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,), seed=0)
        train(SupervisedObjective([trained]), x, y, x, y, cfg)
        for p, b in zip(frozen.params, before):
            assert np.array_equal(p.value, b)

    def test_lr_sequence_recorded_matches_schedule(self):
        x, y = _toy_problem(20)
        cfg = TrainConfig(epochs=8, lr_values=(1e-3, 1e-4, 1e-5),
                          lr_switch_epochs=(4, 6), seed=0)
        history = train(SupervisedObjective([_toy_stack()]), x, y, x, y, cfg)
        assert history.lr_sequence() == [1e-3] * 4 + [1e-4] * 2 + [1e-5] * 2

    def test_determinism_bitwise(self):
        def run():
            x, y = _toy_problem()
            stack = _toy_stack(seed=3)
            cfg = TrainConfig(epochs=6, lr_switch_epochs=(), lr_values=(1e-3,),
                              seed=4, flip=False)
            history = train(SupervisedObjective([stack]), x, y, x, y, cfg)
            return [p.value.copy() for p in stack.params], history.csv_text()

        params1, csv1 = run()
        params2, csv2 = run()
        assert csv1 == csv2
        for a, b in zip(params1, params2):
            assert np.array_equal(a, b)

    def test_best_epoch_selection_is_extremum(self):
        x, y = _toy_problem()
        stack = _toy_stack(seed=5)
        cfg = TrainConfig(epochs=12, lr_switch_epochs=(), lr_values=(1e-3,), seed=0)
        objective = SupervisedObjective([stack])
        history = train(objective, x, y, x, y, cfg)
        assert history.best_value == max(history.val_metrics())
        assert history.rows[history.best_epoch][3] == history.best_value
        # restored parameters actually reproduce the recorded best metric
        assert objective.val_metric(x, y) == history.best_value

    def test_empty_data_rejected(self):
        for what, n_train, n_val in (("training", 0, 1), ("validation", 1, 0)):
            with pytest.raises(ConfigError, match=f"{what} data is empty"):
                train(SupervisedObjective([_toy_stack()]),
                      np.zeros((n_train, 6), dtype=np.float32), np.zeros(n_train, dtype=np.int64),
                      np.zeros((n_val, 6), dtype=np.float32), np.zeros(n_val, dtype=np.int64),
                      TrainConfig(epochs=1, lr_switch_epochs=(), lr_values=(1e-3,)))

    @pytest.mark.parametrize("what,n_train_y,n_val_y", [
        ("training", 25, 4), ("training", 15, 4), ("validation", 20, 3), ("validation", 20, 5),
    ])
    def test_label_count_mismatch_rejected(self, what, n_train_y, n_val_y):
        stack = _toy_stack()
        before = [p.value.copy() for p in stack.params]
        with pytest.raises(ConfigError, match=f"{what} data: .* samples but .* labels"):
            train(SupervisedObjective([stack]),
                  np.zeros((20, 6), dtype=np.float32), np.zeros(n_train_y, dtype=np.int64),
                  np.zeros((4, 6), dtype=np.float32), np.zeros(n_val_y, dtype=np.int64),
                  TrainConfig(epochs=1, lr_switch_epochs=(), lr_values=(1e-3,)))
        assert all(np.array_equal(p.value, b) for p, b in zip(stack.params, before))

    def test_validation_label_column_rejected(self):
        x, y = _toy_problem(20)
        objective = SupervisedObjective([_toy_stack()])
        assert 0.0 <= objective.val_metric(x, y) <= 1.0
        with pytest.raises(ConfigError, match="validation: labels must be 1-D"):
            objective.val_metric(x, y[:, None])

    def test_divergence_raises_with_diagnostics(self):
        x, y = _toy_problem(20)
        stack = _toy_stack(seed=6)
        stack.params[0].value[...] = np.nan  # poisoned weights -> non-finite loss
        cfg = TrainConfig(epochs=2, lr_switch_epochs=(), lr_values=(1e-3,), seed=0)
        with pytest.raises(TrainingDivergedError,
                           match=r"epoch 0, batch 0 .*first non-finite: toy\.0\.w value"):
            train(SupervisedObjective([stack]), x, y, x, y, cfg)

    def test_max_norm_bound_after_every_epoch(self):
        x, y = _toy_problem()
        stack = _toy_stack(seed=7)
        cfg = TrainConfig(epochs=5, lr_switch_epochs=(), lr_values=(1e-3,),
                          max_norm=0.5, seed=0)
        seen = []

        def check(epoch, objective):
            for s in objective.trainable:
                for p in s.params:
                    if p.norm_axes is not None:
                        norms = np.sqrt((p.value.astype(np.float64) ** 2).sum(axis=p.norm_axes))
                        seen.append(float(norms.max()))

        train(SupervisedObjective([stack]), x, y, x, y, cfg, epoch_end=check)
        assert seen and max(seen) <= 0.5 + 1e-5

    def test_history_csv_shape(self, tmp_path):
        x, y = _toy_problem(20)
        cfg = TrainConfig(epochs=3, lr_switch_epochs=(), lr_values=(1e-3,), seed=0)
        history = train(SupervisedObjective([_toy_stack()]), x, y, x, y, cfg)
        path = tmp_path / "history.csv"
        history.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,val_metric"
        assert len(lines) == 4


class _ExplodingStack:
    def forward(self, x, training=False):
        raise AssertionError("the teacher must not run at weight 0")


class TestObjectives:
    def test_empty_reference_reconstructs_the_input(self):
        x, _ = _toy_problem(20)
        rng = np.random.default_rng(0)
        stack = LayerStack([Dense(6, 6, rng)], (6,), name="autoencoder")
        objective = OutputMatchingObjective([stack])
        stack.zero_grads()
        expected_loss = l1_loss(stack.forward(x, training=True), x)[0]
        assert objective.batch_loss(x, None) == expected_loss
        assert objective.val_metric(x, None) == l1_loss(stack.forward(x), x)[0]

    def test_zero_weight_never_runs_the_teacher(self):
        x, y = _toy_problem()
        cfg = TrainConfig(epochs=4, lr_switch_epochs=(), lr_values=(1e-3,), seed=2)
        plain, with_teacher = _toy_stack(seed=8), _toy_stack(seed=8)
        ha = train(SupervisedObjective([plain]), x, y, x, y, cfg)
        hb = train(SupervisedObjective([with_teacher], [_ExplodingStack()], weight=0.0),
                   x, y, x, y, cfg)
        assert ha.rows == hb.rows
        for a, b in zip(plain.params, with_teacher.params):
            assert np.array_equal(a.value, b.value)

    def test_nonzero_weight_needs_a_teacher(self):
        with pytest.raises(ConfigError):
            SupervisedObjective([_toy_stack()], weight=0.5)
