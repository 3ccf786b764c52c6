"""Binary checkpoint container for model parameters.

Layout (all integers little-endian u32):

    magic b"MCLK" | version | records... | crc32

Each record is ``name_len | name bytes (utf-8) | rank | dims[rank] |
float32 payload``.  The CRC covers every byte before it.  Model-rebuilding
metadata travels as an ordinary record named ``__meta__`` so the wire format
stays uniform.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .models import MclModel, MeasurementConfig, _pool_stage_count, build_mcl, build_prior

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "restore_parameters",
    "dumps",
    "loads",
    "checkpoint_crc",
]

MAGIC = b"MCLK"
VERSION = 1

# Each name's index is its code in the metadata record.
_FS_KINDS = ("multilinear", "nonlinear")
_CAPACITIES = ("small", "large")


def _decode(names, code, what) -> str:
    if code >= len(names):
        raise CheckpointFormatError(f"unknown {what} code {code}")
    return names[code]


def _meta_array(model) -> np.ndarray:
    kind = 0 if isinstance(model, MclModel) else 1
    fs = _FS_KINDS.index(model.fs_kind) if isinstance(model, MclModel) else 0
    cap = _CAPACITIES.index(model.capacity)
    h, w, c = model.signal_shape
    m1, m2, m3 = model.measurement.dims
    vals = [kind, fs, cap, model.width, model.n_classes, h, w, c, m1, m2, m3]
    return np.asarray(vals, dtype=np.float32)


def _pack_record(name: str, value: np.ndarray) -> bytes:
    data = np.ascontiguousarray(value, dtype="<f4")
    name_b = name.encode("utf-8")
    parts = [struct.pack("<I", len(name_b)), name_b, struct.pack("<I", data.ndim)]
    parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
    parts.append(data.tobytes())
    return b"".join(parts)


def dumps(model) -> bytes:
    """Serialize a model to checkpoint bytes."""
    body = [MAGIC, struct.pack("<I", VERSION)]
    body.append(_pack_record("__meta__", _meta_array(model)))
    for p in model.all_params():
        body.append(_pack_record(p.name, p.value))
    payload = b"".join(body)
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def save_checkpoint(model, path) -> None:
    data = dumps(model)  # serialise first: a failure leaves no file behind
    with open(path, "wb") as fh:
        fh.write(data)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointTruncatedError(
                f"checkpoint ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos


def loads(data: bytes) -> dict[str, np.ndarray]:
    """Parse checkpoint bytes into an ordered name -> float32 array mapping."""
    if len(data) < 12:
        raise CheckpointTruncatedError(f"checkpoint of {len(data)} bytes is too short")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    payload = data[:-4]
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise CheckpointChecksumError("stored CRC32 does not match file contents")
    r = _Reader(payload)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError("bad magic bytes; not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    records: dict[str, np.ndarray] = {}
    while r.remaining:
        raw_name = r.take(r.u32())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError(f"record name {raw_name[:32]!r} is not UTF-8") from None
        if name in records:
            raise CheckpointFormatError(f"record {name!r} appears twice")
        rank = r.u32()
        if rank > 8:
            raise CheckpointFormatError(f"record {name!r} declares rank {rank}")
        dims = tuple(r.u32() for _ in range(rank))
        raw = r.take(4 * math.prod(dims))
        try:
            records[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError:  # no values, but the other dims overflow numpy's sizes
            raise CheckpointFormatError(f"record {name!r} declares dims {dims}") from None
    return records


def _read_file(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return loads(fh.read())


def load_checkpoint(path):
    """Rebuild the stored model (architecture from metadata, then parameters)."""
    records = _read_file(path)
    if "__meta__" not in records:
        raise CheckpointFormatError("checkpoint has no __meta__ record")
    meta = records["__meta__"]
    if meta.shape != (11,):
        raise CheckpointFormatError(f"__meta__ has shape {meta.shape}, expected (11,)")
    if not (np.isfinite(meta).all() and (meta >= 0).all() and (meta == np.round(meta)).all()):
        raise CheckpointFormatError(f"__meta__ holds a value that is not a count: {meta.tolist()}")
    kind, fs, cap, width, n_classes, h, w, c, m1, m2, m3 = (int(v) for v in meta)
    if kind not in (0, 1):
        raise CheckpointFormatError(f"unknown model kind code {kind}")
    fs_kind = _decode(_FS_KINDS, fs, "feature-synthesis")
    capacity = _decode(_CAPACITIES, cap, "capacity")
    measurement = MeasurementConfig((m1, m2, m3))
    _check_meta(records, kind, width, n_classes, (h, w, c), measurement.dims)
    if kind == 0:
        model = build_mcl((h, w, c), measurement, n_classes, fs_kind=fs_kind,
                          width=width, capacity=capacity, seed=0)
    else:
        model = build_prior((h, w, c), measurement, n_classes, width=width,
                            capacity=capacity, seed=0)
    _apply_records(model, records)
    return model


def _check_meta(records, kind, width, n_classes, signal, m_dims) -> None:
    """Tie every size in ``__meta__`` to the stored records before anything is
    built, so no parameter the builders allocate outgrows what the file holds.
    Every model's head starts with a (3, 3, channels, width) convolution,
    holds a (3, 3, width, width) one and ends in a (classes, width) dense
    weight; the sensing factors map the signal (the teacher's, its pooled
    grid) onto the measurement dims."""
    h, w, c = signal
    if kind == 0:
        sensed = signal
    else:
        p = _pool_stage_count(signal, m_dims)
        sensed = (h >> p, w >> p, width)

    def shapes(stack, rank):
        return [records[name].shape for name in sorted(records)
                if name.startswith(stack + ".") and records[name].ndim == rank]

    first = records.get("head.0.w")
    for what, ok in (
        ("channels and width", first is not None and first.shape == (3, 3, c, width)),
        ("width", (3, 3, width, width) in shapes("head", 4)),
        ("class count", shapes("head", 2) == [(n_classes, width)]),
        ("signal and measurement dims",
         shapes("sensing", 2) == [(m, d) for m, d in zip(m_dims, sensed)]),
    ):
        if not ok:
            raise CheckpointShapeError(f"__meta__ {what} do not match the stored records")


def restore_parameters(model, path) -> None:
    """Load stored parameters into an existing model of matching architecture."""
    _apply_records(model, _read_file(path))


def _apply_records(model, records):
    for p in model.all_params():
        if p.name not in records:
            raise CheckpointShapeError(f"checkpoint is missing parameter {p.name!r}")
        stored = records[p.name]
        if stored.shape != p.value.shape:
            raise CheckpointShapeError(
                f"parameter {p.name!r}: stored shape {stored.shape} does not "
                f"match model shape {p.value.shape}"
            )
        if not np.isfinite(stored).all():
            raise CheckpointFormatError(f"parameter {p.name!r} holds a non-finite value")
        p.value[...] = stored.astype(p.value.dtype)
    extra = set(records) - {"__meta__"} - {p.name for p in model.all_params()}
    if extra:
        raise CheckpointShapeError(
            f"checkpoint carries unknown parameters: {sorted(extra)[:3]}"
        )


def content_crc(model) -> int:
    """The payload CRC32 that :func:`dumps` appends (identity check without
    I/O); it equals :func:`checkpoint_crc` of the saved file.

    The whole-file CRC would be the same constant for every valid checkpoint
    (a file ending in its own CRC has a fixed residue), so the payload CRC is
    the meaningful fingerprint.
    """
    return struct.unpack("<I", dumps(model)[-4:])[0]


def checkpoint_crc(path) -> int:
    """The payload CRC32 stored in a checkpoint file (cheap identity check)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise CheckpointTruncatedError(f"{path}: too short to carry a CRC")
    return struct.unpack("<I", data[-4:])[0]
