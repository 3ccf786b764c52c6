from functools import partial

import numpy as np
import pytest

from mclkit import layers, tensor
from mclkit.checkpoint import content_crc
from mclkit.distill import self_label_select
from mclkit.errors import ConfigError, ShapeMismatchError
from mclkit.layers import MaxPool2, ModeProjection
from mclkit.models import MeasurementConfig, build_mcl, build_prior, hosvd_init

REFERENCE_CONFIGS = [(6, 6, 1), (9, 7, 1), (13, 12, 1), (14, 11, 2)]


class TestMeasurementConfig:
    def test_parse_and_str(self):
        cfg = MeasurementConfig.parse("4x4x1")
        assert cfg.dims == (4, 4, 1)
        assert str(cfg) == "4x4x1"

    def test_rate_arithmetic(self):
        assert MeasurementConfig((4, 4, 1)).rate((8, 8, 1)) == 0.25

    @pytest.mark.parametrize("dims,rate", [
        ((6, 6, 1), 0.01), ((9, 7, 1), 0.02), ((13, 12, 1), 0.05), ((14, 11, 2), 0.10),
    ])
    def test_reference_rates(self, dims, rate):
        assert abs(MeasurementConfig(dims).rate((32, 32, 3)) - rate) < 0.006

    def test_rejects_oversized(self):
        with pytest.raises(ConfigError, match="mode 0"):
            MeasurementConfig((40, 4, 1)).validate_for((32, 32, 3))

    def test_parse_garbage(self):
        with pytest.raises(ConfigError):
            MeasurementConfig.parse("6by6")

    @pytest.mark.parametrize("dims", [(3.5, 3, 1), (True, 2, 1), ("3", 3, 1)],
                             ids=["float", "bool", "str"])
    def test_rejects_dims_that_are_not_ints(self, dims):
        with pytest.raises(ConfigError, match="3 positive ints"):
            MeasurementConfig(dims)
        with pytest.raises(ConfigError, match="3 positive ints"):
            build_mcl((8, 8, 1), dims, 3)

    def test_numpy_ints_are_stored_as_int(self):
        cfg = MeasurementConfig((np.int64(4), np.int32(3), 1))
        assert cfg.dims == (4, 3, 1) and {type(d) for d in cfg.dims} == {int}
        assert str(cfg) == "4x3x1"


@pytest.mark.parametrize("build", [
    partial(build_mcl, fs_kind="multilinear"), partial(build_mcl, fs_kind="nonlinear"), build_prior,
], ids=["multilinear", "nonlinear", "prior"])
def test_logits_do_not_depend_on_the_batch(build):
    # At width 32 the head's dense layer, as a matrix product, rounded a
    # row by the row count; a sample's logits must not depend on its batch.
    m = build((32, 32, 3), (6, 6, 1), 10, width=32, seed=0)
    x = np.random.default_rng(3).random((40, 32, 32, 3), dtype=np.float32)
    whole = m.forward_logits(x)
    for block in (1, 5, 32):
        parts = [m.forward_logits(x[i : i + block]) for i in range(0, len(x), block)]
        assert np.array_equal(np.concatenate(parts), whole), f"blocks of {block}"


@pytest.mark.parametrize("build", [
    partial(build_mcl, fs_kind="multilinear"), partial(build_mcl, fs_kind="nonlinear"), build_prior,
], ids=["multilinear", "nonlinear", "prior"])
def test_worker_count_does_not_change_output_bytes(build, monkeypatch):
    # 32x32x2 signals: from 64 rows an input holds 2**17 values and runs on
    # the pool, in chunks whose widest activation holds at most 2 MiB: 128
    # rows at a 32x32x4 float32 layer.
    m = build((32, 32, 2), (6, 6, 1), 3, width=4, seed=0)
    x = np.random.default_rng(4).random((257, 32, 32, 2), dtype=np.float32)

    def outputs(n):
        idx, labels = self_label_select(m, x[:n], 0.34)
        return [a.tobytes() for a in (m.measurements(x[:n]), m.features(x[:n]),
                                      m.forward_logits(x[:n]), idx, labels)]

    for n in (0, 1, 5, 63, 65, 130, 257):
        monkeypatch.setattr(layers, "_WORKERS", 1)
        serial = outputs(n)
        monkeypatch.setattr(layers, "_WORKERS", 2)
        assert outputs(n) == serial, f"{n} rows"


class TestBuildMcl:
    def test_multilinear_factor_shapes(self):
        m = build_mcl((32, 32, 3), (6, 6, 1), 10, fs_kind="multilinear", seed=0)
        sense = m.sensing.layers[0]
        assert [f.shape for f in sense.factors] == [(6, 32), (6, 32), (1, 3)]
        synth = m.synthesis.layers[0]
        assert [f.shape for f in synth.factors] == [(32, 6), (32, 6), (3, 1)]

    def test_nonlinear_synthesis_output_is_signal_shaped(self):
        m = build_mcl((16, 16, 1), (4, 4, 1), 4, fs_kind="nonlinear", seed=1)
        x = np.random.default_rng(0).normal(size=(3, 16, 16, 1)).astype(np.float32)
        assert m.features(x).shape == (3, 16, 16, 1)

    def test_oversized_measurement_rejected(self):
        with pytest.raises(ConfigError):
            build_mcl((8, 8, 1), (9, 4, 1), 4)

    def test_rate_quarter(self):
        m = build_mcl((8, 8, 1), (4, 4, 1), 4)
        assert m.measurement.rate(m.signal_shape) == 0.25


@pytest.mark.parametrize("build", [
    partial(build_mcl, fs_kind="multilinear"), partial(build_mcl, fs_kind="nonlinear"), build_prior,
], ids=["multilinear", "nonlinear", "prior"])
@pytest.mark.parametrize("setting", [
    dict(width=0), dict(width=-1), dict(width=2.5), dict(width=True), dict(capacity="huge"),
    dict(n_classes=0), dict(n_classes=1), dict(n_classes=2.5), dict(signal=(8.5, 8, 1)),
    dict(signal=(8, 8)), dict(signal=(8, 0, 1)),
], ids=["width0", "width-1", "width-float", "width-bool", "capacity-huge", "classes0",
        "classes1", "classes-float", "signal-float", "signal-rank2", "signal-zero"])
def test_bad_model_settings_rejected_by_every_builder(build, setting):
    args = {"signal": (8, 8, 1), "n_classes": 4, **setting}
    with pytest.raises(ConfigError):
        build(args.pop("signal"), (4, 4, 1), args.pop("n_classes"), **args)


def test_numpy_int_settings_build_the_same_model():
    a = build_prior((8, 8, 1), (4, 4, 1), 2, width=4, seed=0)
    b = build_prior(tuple(np.int64(d) for d in (8, 8, 1)), (4, 4, 1), np.int64(2),
                    width=np.int32(4), seed=0)
    assert b.signal_shape == (8, 8, 1) and b.n_classes == 2 and b.width == 4
    assert all(np.array_equal(p.value, q.value) for p, q in zip(a.all_params(), b.all_params()))


@pytest.mark.parametrize("build", [
    partial(build_mcl, fs_kind="multilinear"), partial(build_mcl, fs_kind="nonlinear"), build_prior,
], ids=["multilinear", "nonlinear", "prior"])
def test_stacks_is_the_chain(build):
    m = build((8, 8, 1), (4, 4, 1), 3, width=4, seed=0)
    chain = m.stacks()
    assert chain == (m.sensing, m.synthesis, m.head)
    assert [s.name for s in chain] == ["sensing", "synthesis", "head"]
    assert m.all_params() == [p for s in chain for p in s.params]
    x = np.random.default_rng(0).random((3, 8, 8, 1)).astype(np.float32)
    z = m.sensing.forward(x)
    f = m.synthesis.forward(z)
    for got, want in ((m.measurements(x), z), (m.features(x), f),
                      (m.forward_logits(x), m.head.forward(f))):
        assert np.array_equal(got, want)


# The payload CRC of a freshly built model at each benchmark shape (seed 0)
# pins every initial value, and with it the builders' rng draw order.
@pytest.mark.parametrize("build,signal,dims,classes,settings,crc", [
    (build_prior, (16, 16, 1), (4, 4, 1), 4, dict(width=12), 0x002891C1),
    (build_mcl, (16, 16, 1), (4, 4, 1), 4, dict(fs_kind="nonlinear", width=12), 0x66CA8AEB),
    (build_prior, (32, 32, 3), (6, 6, 1), 10, dict(width=16), 0x8A1DAF3C),
    (build_prior, (32, 32, 3), (14, 11, 2), 10, dict(width=16), 0x8F062C44),
    (build_mcl, (32, 32, 3), (14, 11, 2), 10, dict(fs_kind="multilinear"), 0xCA4C547D),
], ids=["desk-teacher", "desk-student", "paper-teacher-6x6x1", "paper-teacher-14x11x2",
        "paper-multilinear-student"])
def test_fresh_model_bytes_are_pinned(build, signal, dims, classes, settings, crc):
    assert content_crc(build(signal, dims, classes, seed=0, **settings)) == crc


@pytest.mark.parametrize("fs_kind", ["multilinear", "nonlinear"])
def test_fs_kind_is_read_from_the_synthesis_stack(fs_kind):
    assert build_mcl((8, 8, 1), (4, 4, 1), 3, fs_kind=fs_kind, width=4, seed=0).fs_kind == fs_kind


class TestBuildPrior:
    def test_two_pool_stages_for_lowest_rate(self):
        p = build_prior((32, 32, 3), (6, 6, 1), 10, seed=0)
        pools = [l for l in p.sensing.layers if isinstance(l, MaxPool2)]
        assert len(pools) == 2 and p.pool_stages == 2
        proj = p.sensing.layers[-1]
        assert isinstance(proj, ModeProjection)
        assert proj.in_shape[:2] == (8, 8) and proj.target_dims == (6, 6, 1)

    def test_one_pool_stage_for_next_rate(self):
        p = build_prior((32, 32, 3), (9, 7, 1), 10, seed=0)
        pools = [l for l in p.sensing.layers if isinstance(l, MaxPool2)]
        assert len(pools) == 1 and p.pool_stages == 1

    def test_large_capacity_has_strictly_more_params(self):
        small = build_prior((16, 16, 1), (4, 4, 1), 4, capacity="small", seed=0)
        large = build_prior((16, 16, 1), (4, 4, 1), 4, capacity="large", seed=0)
        assert large.param_count() > small.param_count()

    def test_unreachable_measurement(self):
        with pytest.raises(ConfigError):
            build_prior((8, 8, 1), (12, 2, 1), 4)

    @pytest.mark.parametrize("dims", REFERENCE_CONFIGS)
    def test_measurement_shapes_match_student(self, dims):
        p = build_prior((32, 32, 3), dims, 10, width=4, seed=0)
        s = build_mcl((32, 32, 3), dims, 10, seed=0)
        assert p.sensing.out_shape == s.sensing.out_shape == dims
        x = np.random.default_rng(1).normal(size=(2, 32, 32, 3)).astype(np.float32)
        assert p.measurements(x).shape == s.measurements(x).shape

    def test_random_small_configs_share_measurement_shape(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dims = (int(rng.integers(1, 9)), int(rng.integers(1, 9)), 1)
            p = build_prior((16, 16, 2), dims, 3, width=4, seed=0)
            s = build_mcl((16, 16, 2), dims, 3, seed=0)
            assert p.sensing.out_shape == s.sensing.out_shape == dims

    def test_decoder_mirrors_encoder_widths(self):
        p = build_prior((16, 16, 1), (4, 4, 1), 4, seed=0)
        s = build_mcl((16, 16, 1), (4, 4, 1), 4, fs_kind="nonlinear", seed=1)
        assert [type(a) for a in p.synthesis.layers] == [type(a) for a in s.synthesis.layers]
        assert p.synthesis.param_count() == s.synthesis.param_count()


class TestHosvdInit:
    def test_factor_rows_orthonormal(self):
        rng = np.random.default_rng(3)
        m = build_mcl((8, 8, 3), (4, 4, 1), 4, seed=0)
        hosvd_init(m, rng.normal(size=(12, 8, 8, 3)))
        for f in m.sensing.layers[0].factors:
            gram = f.astype(np.float64) @ f.astype(np.float64).T
            assert np.max(np.abs(gram - np.eye(f.shape[0]))) < 1e-6

    def test_full_rank_config_reconstructs(self):
        rng = np.random.default_rng(4)
        m = build_mcl((6, 5, 2), (6, 5, 2), 3, seed=0)
        samples = rng.normal(size=(9, 6, 5, 2)).astype(np.float32)
        hosvd_init(m, samples)
        feats = m.features(samples)
        assert np.max(np.abs(feats - samples)) < 1e-5

    def test_beats_random_orthonormal_inits(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(20, 8, 8, 3)).astype(np.float64)
        m = build_mcl((8, 8, 3), (4, 4, 1), 4, seed=0)
        hosvd_init(m, samples)
        factors = [f.astype(np.float64) for f in m.sensing.layers[0].factors]

        def err(fs):
            total = 0.0
            for s in samples:
                z = tensor.multi_mode_product(s, fs)
                total += float(np.sum((tensor.multi_mode_product(z, [f.T for f in fs]) - s) ** 2))
            return total

        base = err(factors)
        for _ in range(10):
            rand_fs = []
            for t, d in zip((4, 4, 1), (8, 8, 3)):
                q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                rand_fs.append(q[:, :t].T)
            assert base <= err(rand_fs) + 1e-9

    def test_synthesis_factors_are_transposes(self):
        rng = np.random.default_rng(6)
        m = build_mcl((8, 8, 1), (3, 3, 1), 4, seed=0)
        hosvd_init(m, rng.normal(size=(10, 8, 8, 1)))
        for fs, fd in zip(m.sensing.layers[0].factors, m.synthesis.layers[0].factors):
            assert np.array_equal(fd, fs.T)

    def test_errors(self):
        m = build_mcl((8, 8, 1), (3, 3, 1), 4, seed=0)
        with pytest.raises(ShapeMismatchError):
            hosvd_init(m, np.zeros((0, 8, 8, 1)))
        with pytest.raises(ShapeMismatchError):
            hosvd_init(m, np.zeros((4, 8, 7, 1)))
        nonlinear = build_mcl((8, 8, 1), (3, 3, 1), 4, fs_kind="nonlinear", seed=0)
        with pytest.raises(ConfigError):
            hosvd_init(nonlinear, np.zeros((4, 8, 8, 1)))


class TestEntryPoints:
    def test_sense_equals_tensor_oracle_bitwise(self):
        rng = np.random.default_rng(7)
        m = build_mcl((8, 8, 2), (3, 4, 1), 4, seed=0)
        y = rng.normal(size=(8, 8, 2)).astype(np.float32)
        direct = tensor.multi_mode_product(y, m.sensing.layers[0].factors)
        assert np.array_equal(m.sense(y), direct)

    def test_identity_full_rank_features_equal_signal(self):
        m = build_mcl((4, 4, 2), (4, 4, 2), 3, seed=0)
        eye = [np.eye(4, dtype=np.float32), np.eye(4, dtype=np.float32),
               np.eye(2, dtype=np.float32)]
        for proj in (m.sensing.layers[0], m.synthesis.layers[0]):
            for p, f in zip(proj.params, eye):
                p.value[...] = f
        y = np.random.default_rng(8).normal(size=(4, 4, 2)).astype(np.float32)
        assert np.array_equal(m.synthesize(m.sense(y)), y)

    def test_predict_probabilities_sum_to_one(self):
        m = build_mcl((8, 8, 1), (3, 3, 1), 5, fs_kind="nonlinear", seed=0)
        probs = m.predict(np.random.default_rng(9).normal(size=(8, 8, 1)).astype(np.float32))
        assert probs.shape == (5,)
        assert abs(probs.sum() - 1) < 1e-6

    def test_predict_argmax_invariant_to_logit_shift(self):
        m = build_mcl((8, 8, 1), (3, 3, 1), 5, fs_kind="nonlinear", seed=0)
        y = np.random.default_rng(10).normal(size=(8, 8, 1)).astype(np.float32)
        before = int(np.argmax(m.predict(y)))
        m.head.params[-1].value[...] += 3.5  # constant shift on final bias
        assert int(np.argmax(m.predict(y))) == before

    def test_shape_mismatch_on_bad_input(self):
        m = build_mcl((8, 8, 1), (3, 3, 1), 4, seed=0)
        with pytest.raises(ShapeMismatchError):
            m.sense(np.zeros((5, 5, 1)))
