"""Model assembly: the multilinear student, the nonlinear teacher, HOSVD
initialisation, and the sense / synthesize / predict entry points.

Both model kinds are triples of stacks: ``sensing`` maps a signal to the
measurement tensor, ``synthesis`` maps measurements to a feature tensor of
signal shape, and ``head`` maps features to class logits.  The student's
sensing stack is a single separable mode projection; the teacher's is a
convolutional encoder that downsamples and then projects onto the exact
measurement shape.  Teacher and student share the synthesis and head
architecture so parameters can be copied across during knowledge transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ConfigError, ShapeMismatchError
from .layers import (
    Conv2d,
    Dense,
    GlobalAvgPool,
    LayerStack,
    MaxPool2,
    ModeProjection,
    ReLU,
    Upsample2,
    _forward_chunks,
)
from .losses import softmax

__all__ = [
    "MeasurementConfig",
    "MclModel",
    "PriorModel",
    "build_mcl",
    "build_prior",
    "hosvd_init",
]


def _is_count(d) -> bool:
    """The rule for every size setting: an int (numpy's too, not a bool), at least 1."""
    return isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1


@dataclass(frozen=True)
class MeasurementConfig:
    """Target measurement dimensions (M1, M2, M3)."""

    dims: tuple[int, int, int]

    def __post_init__(self):
        if len(self.dims) != 3 or not all(map(_is_count, self.dims)):
            raise ConfigError(f"measurement dims must be 3 positive ints, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @classmethod
    def parse(cls, text: str) -> "MeasurementConfig":
        try:
            dims = tuple(int(p) for p in text.lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse measurement {text!r}; expected e.g. 4x4x1")
        if len(dims) != 3:
            raise ConfigError(f"measurement needs 3 dims, got {text!r}")
        return cls(dims)

    def rate(self, signal_shape) -> float:
        """Measurement rate: measurement elements over signal elements."""
        r = float(np.prod(self.dims) / np.prod(signal_shape))
        if not 0 < r <= 1:
            raise ConfigError(f"measurement rate {r} outside (0, 1]")
        return r

    def validate_for(self, signal_shape):
        for k, (m, i) in enumerate(zip(self.dims, signal_shape)):
            if m > i:
                raise ConfigError(
                    f"mode {k}: measurement dim {m} exceeds signal dim {i}"
                )
        self.rate(signal_shape)

    def __str__(self):
        return "x".join(str(d) for d in self.dims)


class _CompressiveModel:
    """Shared behaviour of the student and teacher triples."""

    def __init__(self, sensing, synthesis, head, signal_shape, measurement, n_classes,
                 width, capacity):
        self.sensing, self.synthesis, self.head = sensing, synthesis, head
        for a, b in zip(self.stacks(), self.stacks()[1:]):
            if a.out_shape != b.in_shape:
                raise ShapeMismatchError(
                    f"{a.name} output {a.out_shape} does not feed {b.name} input {b.in_shape}"
                )
        self.signal_shape = tuple(signal_shape)
        self.measurement = measurement
        self.n_classes = int(n_classes)
        self.width = int(width)
        self.capacity = capacity

    def stacks(self) -> tuple[LayerStack, LayerStack, LayerStack]:
        """The chain ``(sensing, synthesis, head)``; ``stacks()[:d]`` is its
        first ``d`` stacks."""
        return self.sensing, self.synthesis, self.head

    def all_params(self):
        return [p for s in self.stacks() for p in s.params]

    def param_count(self) -> int:
        return int(sum(p.value.size for p in self.all_params()))

    # --- batched entry points -------------------------------------------------
    def measurements(self, x):
        return _forward_chunks(self.stacks()[:1], x)

    def features(self, x):
        return _forward_chunks(self.stacks()[:2], x)

    def forward_logits(self, x):
        return _forward_chunks(self.stacks(), x)

    # --- single-sample entry points --------------------------------------------
    def sense(self, signal):
        return self.measurements(np.asarray(signal)[None])[0]

    def synthesize(self, measurement):
        return _forward_chunks([self.synthesis], np.asarray(measurement)[None])[0]

    def predict(self, signal):
        """Class probabilities for one signal (softmax over the head logits)."""
        return softmax(self.forward_logits(np.asarray(signal)[None])[0])


class MclModel(_CompressiveModel):
    """Multilinear-sensing student: separable sensing factors plus a feature
    synthesis stack that is either purely multilinear or convolutional."""

    def __init__(self, sensing, synthesis, head, signal_shape, measurement,
                 n_classes, fs_kind, width, capacity):
        super().__init__(sensing, synthesis, head, signal_shape, measurement, n_classes,
                         width, capacity)
        self.fs_kind = fs_kind

    @property
    def sensing_factors(self):
        return self.sensing.layers[0].factors


class PriorModel(_CompressiveModel):
    """Nonlinear teacher whose measurement tensor matches the student's shape."""

    def __init__(self, sensing, synthesis, head, signal_shape, measurement,
                 n_classes, width, capacity, pool_stages):
        super().__init__(sensing, synthesis, head, signal_shape, measurement, n_classes,
                         width, capacity)
        self.pool_stages = int(pool_stages)


def _prologue(signal_shape, measurement, n_classes, width, capacity):
    """Coerce and check the settings both builders share; returns the signal
    shape, the measurement config and the convolutions per block."""
    signal_shape = tuple(signal_shape)
    if len(signal_shape) != 3 or not all(map(_is_count, signal_shape)):
        raise ConfigError(f"signal shape must be 3 positive ints, got {signal_shape}")
    signal_shape = tuple(int(d) for d in signal_shape)
    if isinstance(measurement, (tuple, list)):
        measurement = MeasurementConfig(tuple(measurement))
    measurement.validate_for(signal_shape)
    if not _is_count(width):
        raise ConfigError(f"width must be a positive int, got {width!r}")
    if not (_is_count(n_classes) and n_classes >= 2):
        raise ConfigError(f"n_classes must be an int >= 2, got {n_classes!r}")
    if capacity not in ("small", "large"):
        raise ConfigError(f"capacity must be 'small' or 'large', got {capacity!r}")
    return signal_shape, measurement, 1 if capacity == "small" else 2


def _pool_stage_count(signal_shape, m_dims) -> int:
    """Largest number of 2x2 pooling stages that keeps the pooled grid at or
    above the spatial measurement dims and divides the signal evenly."""
    h, w, _ = signal_shape
    m1, m2, _ = m_dims
    p = 0
    while (
        p < 4
        and h % (2 ** (p + 1)) == 0
        and w % (2 ** (p + 1)) == 0
        and h // (2 ** (p + 1)) >= m1
        and w // (2 ** (p + 1)) >= m2
    ):
        p += 1
    return p


def _conv_block(in_ch, out_ch, per_block, rng):
    layers = [Conv2d(in_ch, out_ch, rng=rng), ReLU()]
    for _ in range(per_block - 1):
        layers += [Conv2d(out_ch, out_ch, rng=rng), ReLU()]
    return layers


def _head_layers(in_shape, width, n_classes, rng):
    # Two pooled conv stages (where the grid allows) grow the receptive field
    # enough for the global average to separate spatial patterns.
    h, w, c = in_shape
    layers = [Conv2d(c, width, rng=rng), ReLU()]
    for _ in range(2):
        if h >= 4 and w >= 4:
            layers.append(MaxPool2())
            h, w = h // 2, w // 2
        layers += [Conv2d(width, width, rng=rng), ReLU()]
    layers += [GlobalAvgPool(), Dense(width, n_classes, rng=rng)]
    return layers


def _encoder_layers(signal_shape, m_dims, width, per_block, rng):
    h, w, c = signal_shape
    p = _pool_stage_count(signal_shape, m_dims)
    layers = []
    ch = c
    for _ in range(p):
        layers += _conv_block(ch, width, per_block, rng)
        layers.append(MaxPool2())
        ch = width
    layers += _conv_block(ch, width, per_block, rng)
    pooled = (h >> p, w >> p, width)
    layers.append(ModeProjection(pooled, m_dims, rng=rng))
    return layers, p


def _decoder_layers(signal_shape, m_dims, width, per_block, rng):
    h, w, c = signal_shape
    p = _pool_stage_count(signal_shape, m_dims)
    pooled = (h >> p, w >> p, width)
    layers = [ModeProjection(m_dims, pooled, rng=rng)]
    for _ in range(p):
        layers += _conv_block(width, width, per_block, rng)
        layers.append(Upsample2())
    layers += _conv_block(width, width, per_block, rng)
    layers.append(Conv2d(width, c, rng=rng))  # linear output
    return layers


def _assemble(cls, signal_shape, measurement, n_classes, width, capacity, rng,
              sensing, synthesis, **kind):
    """The model of class ``cls`` from its sensing and synthesis layers and
    a head whose layers are drawn from ``rng`` last."""
    return cls(LayerStack(sensing, signal_shape, name="sensing"),
               LayerStack(synthesis, measurement.dims, name="synthesis"),
               LayerStack(_head_layers(signal_shape, width, n_classes, rng), signal_shape,
                          name="head"),
               signal_shape, measurement, n_classes, width=width, capacity=capacity, **kind)


def build_mcl(signal_shape, measurement, n_classes, fs_kind="multilinear",
              width=16, capacity="small", seed=0) -> MclModel:
    """Assemble the multilinear-sensing student.

    ``fs_kind='multilinear'`` gives a single separable back-projection as the
    feature synthesis; ``'nonlinear'`` mirrors the teacher's convolutional
    decoder so its weights can be copied across.
    """
    signal_shape, measurement, per_block = _prologue(
        signal_shape, measurement, n_classes, width, capacity)
    if fs_kind not in ("multilinear", "nonlinear"):
        raise ConfigError(f"fs_kind must be 'multilinear' or 'nonlinear', got {fs_kind!r}")
    rng = np.random.default_rng(seed)
    m_dims = measurement.dims
    sensing = [ModeProjection(signal_shape, m_dims, rng=rng)]
    if fs_kind == "multilinear":
        synthesis = [ModeProjection(m_dims, signal_shape, rng=rng)]
    else:
        synthesis = _decoder_layers(signal_shape, m_dims, width, per_block, rng)
    return _assemble(MclModel, signal_shape, measurement, n_classes, width, capacity, rng,
                     sensing, synthesis, fs_kind=fs_kind)


def build_prior(signal_shape, measurement, n_classes, width=16, capacity="small",
                seed=0) -> PriorModel:
    """Assemble the nonlinear teacher.

    The encoder stacks 2x2 max-pool stages until the grid reaches the spatial
    measurement dims, then projects exactly onto the measurement shape; the
    decoder mirrors it with nearest-neighbour upsampling.  ``capacity='large'``
    doubles the convolution count per block in both.
    """
    signal_shape, measurement, per_block = _prologue(
        signal_shape, measurement, n_classes, width, capacity)
    rng = np.random.default_rng(seed)
    m_dims = measurement.dims
    sensing, p = _encoder_layers(signal_shape, m_dims, width, per_block, rng)
    synthesis = _decoder_layers(signal_shape, m_dims, width, per_block, rng)
    return _assemble(PriorModel, signal_shape, measurement, n_classes, width, capacity, rng,
                     sensing, synthesis, pool_stages=p)


def hosvd_init(model: MclModel, train_samples) -> None:
    """Energy-preserving initialisation of the student's separable factors.

    The sensing factors become the top per-mode singular vectors of the
    training data; the multilinear synthesis factors become their transposes.
    Other layers are untouched.
    """
    samples = np.asarray(train_samples)
    if samples.ndim != len(model.signal_shape) + 1 or samples.shape[0] == 0:
        raise ShapeMismatchError("hosvd_init needs a non-empty batch of signal-shaped samples")
    if samples.shape[1:] != model.signal_shape:
        raise ShapeMismatchError(
            f"samples of shape {samples.shape[1:]} do not match signal "
            f"{model.signal_shape}"
        )
    if model.fs_kind != "multilinear":
        raise ConfigError(
            "hosvd_init applies to multilinear feature synthesis; nonlinear "
            "students are initialised by reconstruction pretraining"
        )
    factors = tensor.hosvd_factors(samples, model.measurement.dims)
    sensing_proj = model.sensing.layers[0]
    for param, f in zip(sensing_proj.params, factors):
        param.value[...] = f.astype(param.value.dtype)
    synth_proj = model.synthesis.layers[0]
    for param, f in zip(synth_proj.params, factors):
        param.value[...] = f.T.astype(param.value.dtype)
