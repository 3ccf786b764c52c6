import re
import struct
import zlib

import numpy as np
import pytest

from mclkit import checkpoint
from mclkit.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    MclError,
)
from mclkit.models import build_mcl, build_prior


@pytest.fixture
def model():
    return build_mcl((8, 8, 1), (3, 3, 1), 4, fs_kind="nonlinear", width=4, seed=7)


def test_save_load_save_is_byte_identical(tmp_path, model):
    p1, p2 = tmp_path / "a.mclk", tmp_path / "b.mclk"
    checkpoint.save_checkpoint(model, p1)
    restored = checkpoint.load_checkpoint(p1)
    checkpoint.save_checkpoint(restored, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_restores_parameters_exactly(tmp_path, model):
    path = tmp_path / "m.mclk"
    checkpoint.save_checkpoint(model, path)
    restored = checkpoint.load_checkpoint(path)
    assert type(restored) is type(model)
    assert restored.measurement.dims == model.measurement.dims
    assert restored.fs_kind == model.fs_kind
    for a, b in zip(model.all_params(), restored.all_params()):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value)


def test_prior_roundtrip(tmp_path):
    teacher = build_prior((8, 8, 1), (3, 3, 1), 4, width=4, seed=3)
    path = tmp_path / "t.mclk"
    checkpoint.save_checkpoint(teacher, path)
    restored = checkpoint.load_checkpoint(path)
    assert restored.pool_stages == teacher.pool_stages
    x = np.random.default_rng(0).normal(size=(2, 8, 8, 1)).astype(np.float32)
    assert np.array_equal(restored.forward_logits(x), teacher.forward_logits(x))


def test_corrupted_byte_fails_checksum(tmp_path, model):
    path = tmp_path / "m.mclk"
    checkpoint.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointChecksumError):
        checkpoint.load_checkpoint(path)


def test_bad_magic(tmp_path, model):
    path = tmp_path / "m.mclk"
    data = checkpoint.dumps(model)
    body = b"NOPE" + data[4:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointFormatError):
        checkpoint.load_checkpoint(path)


def test_version_mismatch(tmp_path, model):
    data = checkpoint.dumps(model)
    body = data[:4] + struct.pack("<I", 99) + data[8:-4]
    path = tmp_path / "m.mclk"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointVersionError):
        checkpoint.load_checkpoint(path)


def test_non_utf8_record_name(tmp_path):
    # A well-formed record whose name is not UTF-8, under a matching CRC.
    record = (struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<II", 1, 1)
              + struct.pack("<f", 0.0))
    body = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + record
    path = tmp_path / "m.mclk"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointFormatError, match="not UTF-8"):
        checkpoint.load_checkpoint(path)


def test_overflowing_dims_are_truncation(tmp_path):
    # dims whose element count wraps a 64-bit product, under a matching CRC.
    record = struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, 0xFFFFFFFF, 0xFFFFFFFF)
    body = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + record
    path = tmp_path / "m.mclk"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointTruncatedError):
        checkpoint.load_checkpoint(path)


def test_truncated_file(tmp_path, model):
    path = tmp_path / "m.mclk"
    checkpoint.save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:5])
    with pytest.raises(CheckpointTruncatedError):
        checkpoint.load_checkpoint(path)


def test_restore_into_other_config_names_field(tmp_path, model):
    path = tmp_path / "m.mclk"
    checkpoint.save_checkpoint(model, path)
    other = build_mcl((8, 8, 1), (2, 2, 1), 4, fs_kind="nonlinear", width=4, seed=7)
    with pytest.raises(CheckpointShapeError, match=r"sensing\.0\.f0"):
        checkpoint.restore_parameters(other, path)


def test_checkpoint_crc_changes_with_content(tmp_path, model):
    p1, p2 = tmp_path / "a.mclk", tmp_path / "b.mclk"
    checkpoint.save_checkpoint(model, p1)
    before = checkpoint.content_crc(model)
    model.all_params()[0].value[...] += 1
    checkpoint.save_checkpoint(model, p2)
    assert checkpoint.checkpoint_crc(p1) == before
    assert checkpoint.checkpoint_crc(p1) != checkpoint.checkpoint_crc(p2)
    assert checkpoint.content_crc(model) == checkpoint.checkpoint_crc(p2)


def _record(name, value):
    value = np.asarray(value, dtype="<f4")
    return (struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", value.ndim)
            + struct.pack(f"<{value.ndim}I", *value.shape) + value.tobytes())


def _write_checkpoint(path, *records):
    """A checkpoint of the given records under a matching CRC."""
    body = checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + b"".join(records)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


# kind, fs, capacity, width, n_classes, h, w, c, m1, m2, m3 of the model fixture
_META = [0, 1, 0, 4, 4, 8, 8, 1, 3, 3, 1]


@pytest.mark.parametrize("index,value", [
    (3, float("nan")), (3, float("inf")), (3, -3), (1, 5), (2, 7), (0, 0.4), (0, 2),
])
def test_invalid_meta_is_format_error(tmp_path, model, index, value):
    params = [_record(p.name, p.value) for p in model.all_params()]
    path = tmp_path / "m.mclk"
    _write_checkpoint(path, _record("__meta__", _META), *params)
    assert checkpoint.content_crc(checkpoint.load_checkpoint(path)) == checkpoint.content_crc(model)
    meta = list(_META)
    meta[index] = value
    _write_checkpoint(path, _record("__meta__", meta), *params)
    with pytest.raises(CheckpointFormatError):
        checkpoint.load_checkpoint(path)


def test_restore_names_missing_and_unknown_parameters(tmp_path, model):
    params = model.all_params()
    path = tmp_path / "m.mclk"
    _write_checkpoint(path, *(_record(p.name, p.value) for p in params[1:]))
    with pytest.raises(CheckpointShapeError, match=f"missing parameter '{re.escape(params[0].name)}'"):
        checkpoint.restore_parameters(model, path)
    _write_checkpoint(path, *(_record(p.name, p.value) for p in params),
                      _record("extra.0.w", np.zeros(2)))
    with pytest.raises(CheckpointShapeError, match=r"unknown parameters: \['extra\.0\.w'\]"):
        checkpoint.restore_parameters(model, path)


def test_repeated_record_is_format_error(tmp_path, model):
    params = model.all_params()
    path = tmp_path / "m.mclk"
    _write_checkpoint(path, _record("__meta__", _META), *(_record(p.name, p.value) for p in params),
                      _record(params[0].name, params[0].value + 1))
    with pytest.raises(CheckpointFormatError,
                       match=f"record '{re.escape(params[0].name)}' appears twice"):
        checkpoint.load_checkpoint(path)


def test_failed_serialisation_leaves_no_file(tmp_path, model, monkeypatch):
    def failing_dumps(m):
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(checkpoint, "dumps", failing_dumps)
    path = tmp_path / "m.mclk"
    with pytest.raises(RuntimeError, match="serialisation failed"):
        checkpoint.save_checkpoint(model, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameter_is_format_error(tmp_path, model, bad):
    params = model.all_params()
    path = tmp_path / "m.mclk"
    params[2].value.flat[-1] = bad
    checkpoint.save_checkpoint(model, path)
    match = f"parameter '{re.escape(params[2].name)}' holds a non-finite value"
    with pytest.raises(CheckpointFormatError, match=match):
        checkpoint.load_checkpoint(path)
    with pytest.raises(CheckpointFormatError, match=match):
        checkpoint.restore_parameters(model, path)


_PRIOR_META = [1, 0, 0, 4, 4, 8, 8, 1, 3, 3, 1]


class _Built(Exception):
    """Raised by a builder patched in to prove that nothing was built."""


@pytest.fixture
def builders_raise(monkeypatch):
    def built(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(checkpoint, "build_mcl", built)
    monkeypatch.setattr(checkpoint, "build_prior", built)


@pytest.mark.parametrize("kind", ["mcl", "prior"])
@pytest.mark.parametrize("index,value", [
    (3, 100_000), (3, 5), (3, 3),              # width
    (4, 100_000), (4, 3),                      # class count
    (5, 2**20), (5, 16), (6, 9), (7, 3),       # signal dims
    (8, 2), (9, 1), (10, 2),                   # measurement dims
], ids=lambda v: str(v))
def test_crafted_meta_raises_before_building(tmp_path, builders_raise, kind, index, value):
    m = build_mcl((8, 8, 1), (3, 3, 1), 4, fs_kind="nonlinear", width=4, seed=7) \
        if kind == "mcl" else build_prior((8, 8, 1), (3, 3, 1), 4, width=4, seed=3)
    meta = list(_META if kind == "mcl" else _PRIOR_META)
    params = [_record(p.name, p.value) for p in m.all_params()]
    path = tmp_path / "m.mclk"
    _write_checkpoint(path, _record("__meta__", meta), *params)
    with pytest.raises(_Built):  # the true metadata reaches the builder
        checkpoint.load_checkpoint(path)
    meta[index] = value
    _write_checkpoint(path, _record("__meta__", meta), *params)
    with pytest.raises((CheckpointShapeError, CheckpointFormatError)):
        checkpoint.load_checkpoint(path)


def test_one_record_crafted_to_a_large_width_is_not_enough(tmp_path, builders_raise, model):
    # head.0.w and __meta__ agree on a width of 5000, but no stored record
    # holds the width x width convolutions the builder would allocate.
    meta = list(_META)
    meta[3] = 5000
    params = [_record(p.name, np.zeros((3, 3, 1, 5000)) if p.name == "head.0.w" else p.value)
              for p in model.all_params()]
    _write_checkpoint(tmp_path / "m.mclk", _record("__meta__", meta), *params)
    with pytest.raises(CheckpointShapeError, match="width"):
        checkpoint.load_checkpoint(tmp_path / "m.mclk")


def test_empty_record_with_overflowing_dims_is_format_error(tmp_path):
    _write_checkpoint(tmp_path / "m.mclk", struct.pack("<I", 1) + b"w"
                      + struct.pack("<IIII", 3, 0, 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(CheckpointFormatError, match="declares dims"):
        checkpoint.load_checkpoint(tmp_path / "m.mclk")


def test_mutated_payloads_raise_only_typed_errors(tmp_path):
    # Seeded mutations of valid checkpoints, CRC fixed up: random bytes,
    # random u32 fields and crafted __meta__ counts.  Loading either succeeds
    # or raises an MclError subclass, never an untyped error.
    rng = np.random.default_rng(2603)
    models = [build_mcl((8, 8, 1), (3, 3, 1), 4, fs_kind="nonlinear", width=4, seed=7),
              build_mcl((8, 6, 2), (2, 3, 1), 3, width=2, seed=1),
              build_prior((8, 8, 1), (3, 3, 1), 4, width=4, seed=3)]
    bodies = [checkpoint.dumps(m)[:-4] for m in models]
    meta_at = 8 + 4 + len("__meta__") + 8  # first meta value: after magic, version, header
    path = tmp_path / "m.mclk"
    for case in range(300):
        body = bytearray(bodies[case % len(bodies)])
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(3)
            if kind == 0:
                body[int(rng.integers(8, len(body)))] = int(rng.integers(256))
            elif kind == 1:  # a u32 field: a small count, a large one or an extreme one
                at = int(rng.integers(8, len(body) - 3))
                word = int(rng.choice([rng.integers(0, 16), rng.integers(0, 2**20),
                                       2**32 - 1, 2**31]))
                body[at : at + 4] = struct.pack("<I", word)
            else:  # a metadata count: small, or far beyond memory
                at = meta_at + 4 * int(rng.integers(11))
                count = float(rng.choice([rng.integers(0, 20), 2.0**30, 2.0**40]))
                body[at : at + 4] = struct.pack("<f", count)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        try:
            checkpoint.load_checkpoint(path)
        except MclError:
            pass
