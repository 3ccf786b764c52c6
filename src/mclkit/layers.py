"""Sequential differentiable layer stacks with explicit forward/backward passes.

Layers operate on batched arrays shaped ``(batch,) + sample_shape`` with
channels last.  Each layer caches whatever its backward pass needs when
``training=True``; calling backward without such a cached forward raises
:class:`~mclkit.errors.StateError`.  A stack instance is single-writer during
training; read-only clones may serve inference from multiple threads.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .errors import ShapeMismatchError, StateError

__all__ = [
    "Param",
    "Layer",
    "Dense",
    "Conv2d",
    "ReLU",
    "MaxPool2",
    "Upsample2",
    "ModeProjection",
    "GlobalAvgPool",
    "Flatten",
    "LayerStack",
    "glorot_uniform",
]


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Param:
    """A trainable array with a paired gradient buffer.

    ``norm_axes`` names the axes whose slices are treated as single weight
    vectors by the max-norm constraint (``None`` exempts the parameter).
    """

    __slots__ = ("name", "value", "grad", "norm_axes")

    def __init__(self, name, value, norm_axes=None):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)
        self.norm_axes = norm_axes

    def zero_grad(self):
        self.grad[...] = 0

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class Layer:
    kind = "layer"

    def __init__(self):
        self.params: list[Param] = []
        self._cache = None

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x, training=False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise StateError(
                f"{self.kind}: backward called without a preceding training forward"
            )
        cache, self._cache = self._cache, None
        return cache


class Dense(Layer):
    """Affine map on flat samples; weight rows are per-output-unit vectors."""

    kind = "dense"

    def __init__(self, in_features, out_features, rng, dtype=np.float32):
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        w = glorot_uniform(rng, (out_features, in_features), in_features, out_features, dtype)
        self.w = Param("w", w, norm_axes=(1,))
        self.b = Param("b", np.zeros(out_features, dtype=dtype))
        self.params = [self.w, self.b]

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise ShapeMismatchError(
                f"dense expects flat input of {self.in_features}, got {in_shape}"
            )
        return (self.out_features,)

    def forward(self, x, training=False):
        if training:
            self._cache = x
        return x @ self.w.value.T + self.b.value

    def backward(self, grad):
        x = self._take_cache()
        self.w.grad += grad.T @ x
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.value


class Conv2d(Layer):
    """3×3 convolution, stride 1, zero 'same' padding."""

    kind = "conv2d"
    kernel_size = 3

    def __init__(self, in_channels, out_channels, rng=None, dtype=np.float32):
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        k = self.kernel_size
        fan_in = k * k * in_channels
        fan_out = k * k * out_channels
        w = glorot_uniform(rng, (k, k, in_channels, out_channels), fan_in, fan_out, dtype)
        self.w = Param("w", w, norm_axes=(0, 1, 2))
        self.b = Param("b", np.zeros(out_channels, dtype=dtype))
        self.params = [self.w, self.b]

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.in_channels:
            raise ShapeMismatchError(
                f"conv2d expects (H, W, {self.in_channels}), got {in_shape}"
            )
        return (in_shape[0], in_shape[1], self.out_channels)

    def forward(self, x, training=False):
        k = self.kernel_size
        pad = k // 2
        b, h, w, _ = x.shape
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        out = np.zeros((b, h, w, self.out_channels), dtype=x.dtype)
        wt = self.w.value
        for u in range(k):
            for v in range(k):
                patch = xp[:, u : u + h, v : v + w, :].reshape(-1, self.in_channels)
                out += (patch @ wt[u, v]).reshape(b, h, w, self.out_channels)
        out += self.b.value
        if training:
            self._cache = xp
        return out

    def backward(self, grad):
        xp = self._take_cache()
        k = self.kernel_size
        pad = k // 2
        b, h, w, _ = grad.shape
        gflat = grad.reshape(-1, self.out_channels)
        gxp = np.zeros_like(xp)
        wt = self.w.value
        for u in range(k):
            for v in range(k):
                patch = xp[:, u : u + h, v : v + w, :].reshape(-1, self.in_channels)
                self.w.grad[u, v] += patch.T @ gflat
                gxp[:, u : u + h, v : v + w, :] += (gflat @ wt[u, v].T).reshape(
                    b, h, w, self.in_channels
                )
        self.b.grad += grad.sum(axis=(0, 1, 2))
        return gxp[:, pad : pad + h, pad : pad + w, :].copy()


class ReLU(Layer):
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, training=False):
        if training:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, grad):
        mask = self._take_cache()
        return grad * mask


class MaxPool2(Layer):
    """2x2 max pooling with stride 2; odd trailing rows/columns are dropped."""

    kind = "maxpool2"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"maxpool2 expects (H, W, C), got {in_shape}")
        return (in_shape[0] // 2, in_shape[1] // 2, in_shape[2])

    def forward(self, x, training=False):
        b, h, w, c = x.shape
        h2, w2 = h // 2, w // 2
        xc = x[:, : h2 * 2, : w2 * 2, :]
        tiles = xc.reshape(b, h2, 2, w2, 2, c).transpose(0, 1, 3, 5, 2, 4).reshape(
            b, h2, w2, c, 4
        )
        idx = tiles.argmax(axis=4)
        out = np.take_along_axis(tiles, idx[..., None], axis=4)[..., 0]
        if training:
            self._cache = (x.shape, idx)
        return out

    def backward(self, grad):
        (b, h, w, c), idx = self._take_cache()
        h2, w2 = h // 2, w // 2
        tiles = np.zeros((b, h2, w2, c, 4), dtype=grad.dtype)
        np.put_along_axis(tiles, idx[..., None], grad[..., None], axis=4)
        gx = tiles.reshape(b, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(
            b, h2 * 2, w2 * 2, c
        )
        if (h2 * 2, w2 * 2) != (h, w):
            gx = np.pad(gx, ((0, 0), (0, h - h2 * 2), (0, w - w2 * 2), (0, 0)))
        return gx


class Upsample2(Layer):
    """Nearest-neighbour 2x upsampling of both spatial axes."""

    kind = "upsample2"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"upsample2 expects (H, W, C), got {in_shape}")
        return (in_shape[0] * 2, in_shape[1] * 2, in_shape[2])

    def forward(self, x, training=False):
        if training:
            self._cache = x.shape
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)

    def backward(self, grad):
        b, h, w, c = self._take_cache()
        return grad.reshape(b, h, 2, w, 2, c).sum(axis=(2, 4))


class ModeProjection(Layer):
    """Separable linear map: one factor matrix per sample mode.

    Forward and backward run the whole batch through the batched mode-product
    kernel that :func:`mclkit.tensor.multi_mode_product` also uses.  That
    kernel's per-sample results do not depend on the batch size, so
    ``forward(x)[i]`` is bit-for-bit ``multi_mode_product(x[i], factors)``.
    """

    kind = "mode_projection"

    def __init__(self, in_shape, target_dims, rng=None, factors=None, dtype=np.float32):
        super().__init__()
        self.in_shape = tuple(int(d) for d in in_shape)
        self.target_dims = tuple(int(d) for d in target_dims)
        if len(self.in_shape) != len(self.target_dims):
            raise ShapeMismatchError("in_shape and target_dims must have equal rank")
        if factors is None:
            factors = [
                glorot_uniform(rng, (m, i), i, m, dtype)
                for m, i in zip(self.target_dims, self.in_shape)
            ]
        self.params = []
        for k, f in enumerate(factors):
            f = np.asarray(f, dtype=dtype)
            if f.shape != (self.target_dims[k], self.in_shape[k]):
                raise ShapeMismatchError(
                    f"mode {k}: factor shape {f.shape} does not match "
                    f"({self.target_dims[k]}, {self.in_shape[k]})"
                )
            self.params.append(Param(f"f{k}", f, norm_axes=(1,)))

    @property
    def factors(self):
        return [p.value for p in self.params]

    def out_shape(self, in_shape):
        if tuple(in_shape) != self.in_shape:
            raise ShapeMismatchError(
                f"mode projection expects {self.in_shape}, got {tuple(in_shape)}"
            )
        return self.target_dims

    def forward(self, x, training=False):
        if not np.isfinite(x).all():
            raise ValueError("mode projection input contains non-finite values")
        out = tensor._batched_mode_product(x, self.factors)
        if training:
            self._cache = x
        return out

    def backward(self, grad):
        x = self._take_cache()
        ws = self.factors
        for k, p in enumerate(self.params):
            # x through every factor but the k-th, contracted with grad over
            # the batch and the other modes
            partial = tensor._batched_mode_product(x, ws[:k] + [None] + ws[k + 1 :])
            axes = [a for a in range(grad.ndim) if a != k + 1]
            p.grad += np.tensordot(grad, partial, axes=(axes, axes))
        return tensor._batched_mode_product(grad, [w.T for w in ws])


class GlobalAvgPool(Layer):
    """Mean over both spatial axes, keeping channels."""

    kind = "global_avg_pool"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"global-avg-pool expects (H, W, C), got {in_shape}")
        return (in_shape[2],)

    def forward(self, x, training=False):
        if training:
            self._cache = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad):
        b, h, w, c = self._take_cache()
        scale = np.asarray(1.0 / (h * w), dtype=grad.dtype)
        return np.broadcast_to(grad[:, None, None, :] * scale, (b, h, w, c)).copy()


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, training=False):
        if training:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        shape = self._take_cache()
        return grad.reshape(shape)


class LayerStack:
    """An ordered list of layers with validated shape chaining."""

    def __init__(self, layers, in_shape, name=""):
        self.layers = list(layers)
        self.in_shape = tuple(int(d) for d in in_shape)
        self.name = name
        self._layer_in_shapes = []
        shape = self.in_shape
        for layer in self.layers:
            self._layer_in_shapes.append(shape)
            shape = layer.out_shape(shape)
        self.out_shape = shape
        for i, layer in enumerate(self.layers):
            for p in layer.params:
                p.name = f"{name}.{i}.{p.name}" if name else f"{i}.{p.name}"

    @property
    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params]

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def param_count(self) -> int:
        return int(sum(p.value.size for p in self.params))

    def forward(self, x, training=False):
        x = np.asarray(x)
        if x.ndim != len(self.in_shape) + 1 or x.shape[1:] != self.in_shape:
            raise ShapeMismatchError(
                f"stack {self.name or '<anonymous>'}: expected batched input of "
                f"sample shape {self.in_shape}, got array of shape {x.shape}"
            )
        for i, layer in enumerate(self.layers):
            expected = self._layer_in_shapes[i]
            if x.shape[1:] != expected:
                raise ShapeMismatchError(
                    f"layer {i} ({layer.kind}): expected {expected}, got {x.shape[1:]}"
                )
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad):
        grad = np.asarray(grad)
        if grad.shape[1:] != self.out_shape:
            raise ShapeMismatchError(
                f"stack {self.name or '<anonymous>'}: output grad of sample shape "
                f"{grad.shape[1:]} does not match {self.out_shape}"
            )
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def _forward_path(stacks, x, training=False):
    for s in stacks:
        x = s.forward(x, training=training)
    return x


def _forward_chunks(stacks, x, chunk=256):
    """Inference through a stack pipeline in fixed chunks of rows; an empty
    input makes one zero-row pass, so the result keeps its sample shape."""
    outs = [_forward_path(stacks, x[i : i + chunk])
            for i in range(0, len(x), chunk) or [0]]
    return np.concatenate(outs, axis=0)
