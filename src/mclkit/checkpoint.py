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
from .models import MclModel, MeasurementConfig, build_mcl, build_prior

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

_FS_CODES = {"multilinear": 0, "nonlinear": 1}
_CAP_CODES = {"small": 0, "large": 1}


def _decode(codes, code, what) -> str:
    for name, c in codes.items():
        if c == code:
            return name
    raise CheckpointFormatError(f"unknown {what} code {code}")


def _meta_array(model) -> np.ndarray:
    kind = 0 if isinstance(model, MclModel) else 1
    fs = _FS_CODES[model.fs_kind] if isinstance(model, MclModel) else 0
    cap = _CAP_CODES[model.capacity]
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
        rank = r.u32()
        if rank > 8:
            raise CheckpointFormatError(f"record {name!r} declares rank {rank}")
        dims = tuple(r.u32() for _ in range(rank))
        raw = r.take(4 * math.prod(dims))
        records[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
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
    fs_kind = _decode(_FS_CODES, fs, "feature-synthesis")
    capacity = _decode(_CAP_CODES, cap, "capacity")
    measurement = MeasurementConfig((m1, m2, m3))
    if kind == 0:
        model = build_mcl((h, w, c), measurement, n_classes, fs_kind=fs_kind,
                          width=width, capacity=capacity, seed=0)
    elif kind == 1:
        model = build_prior((h, w, c), measurement, n_classes, width=width,
                            capacity=capacity, seed=0)
    else:
        raise CheckpointFormatError(f"unknown model kind code {kind}")
    _apply_records(model, records)
    return model


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
        p.value[...] = stored.astype(p.value.dtype)
    extra = set(records) - {"__meta__"} - {p.name for p in model.all_params()}
    if extra:
        raise CheckpointShapeError(
            f"checkpoint carries unknown parameters: {sorted(extra)[:3]}"
        )


def content_crc(model) -> int:
    """CRC32 of a model's serialized payload (identity check without I/O).

    The whole-file CRC would be the same constant for every valid checkpoint
    (a file ending in its own CRC has a fixed residue), so the payload CRC is
    the meaningful fingerprint.
    """
    return zlib.crc32(dumps(model)[:-4]) & 0xFFFFFFFF


def checkpoint_crc(path) -> int:
    """The payload CRC32 stored in a checkpoint file (cheap identity check)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise CheckpointTruncatedError(f"{path}: too short to carry a CRC")
    return struct.unpack("<I", data[-4:])[0]
