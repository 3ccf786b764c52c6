"""Sequential differentiable layer stacks with explicit forward/backward passes.

Layers operate on batched arrays shaped ``(batch,) + sample_shape`` with
channels last.  Each layer caches whatever its backward pass needs when
``training=True``; calling backward without such a cached forward raises
:class:`~mclkit.errors.StateError`.  A stack instance is single-writer during
training; inference (``training=False``) writes no layer state.

Every layer's forward pass computes each sample apart from the other rows of
its batch, so a sample's output bits do not depend on its batch: how many rows
it runs with, or which.  Inference may therefore chunk rows freely, and
outputs computed once equal those of per-batch runs bit for bit.  A chunk
holds as many rows as keep its widest activation within about one core's L2
(``tensor._CACHE_BYTES``).  Because inference writes no layer state, an input
of more than one chunk runs on a pool of worker threads that the call makes
and shuts down: one per core in the process's affinity mask (``taskset`` caps
it), so one on one core, and one whenever BLAS is not pinned to one thread
(see ``mclkit/__init__.py``); an input of one chunk runs on the calling
thread.  No pool outlives its call, so a forked child inherits none.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _BLAS_THREADS, tensor
from .errors import NonFiniteError, ShapeMismatchError, StateError

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
        # a broadcast product summed per row, not `x @ w.T`: BLAS rounds a
        # row of a matrix product by the product's row count
        return (x[:, None, :] * self.w.value).sum(axis=2) + self.b.value

    def backward(self, grad):
        x = self._take_cache()
        self.w.grad += grad.T @ x
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.value


# Column rows per Conv2d GEMM block: a block is whole samples, at least one.
# Bigger blocks raise peak memory; smaller ones add Python iterations.
_BLOCK_ROWS = 1024


def _columns(x):
    """Yield ``(start, stop, cols)`` over blocks of whole samples of the
    unpadded batch ``x``: ``cols[s, y * W + x]`` is the zero-padded 3×3 patch
    at output pixel ``(y, x)`` of sample ``start + s``, tap-major then
    channel, so it multiplies a kernel of shape ``(3, 3, C, O)`` reshaped to
    ``(9C, O)``.  Padding happens per block: each block's samples are copied
    into one zero-bordered buffer, and one column buffer is shared by all
    blocks, so each ``cols`` is valid until the next one is made.  Both
    buffers belong to the call, since pooled inference runs one layer on
    several threads at once."""
    n, h, w, c = x.shape
    step = max(1, _BLOCK_ROWS // (h * w))
    m = min(step, n)
    xp = np.zeros((m, h + 2, w + 2, c), dtype=x.dtype)
    buf = np.empty((m, h, w, 3, 3, c), dtype=x.dtype)
    # taps[s, y, x, dy, dx] is xp[s, y + dy, x + dx]: a read-only view
    s0, s1, s2, s3 = xp.strides
    taps = np.lib.stride_tricks.as_strided(
        xp, buf.shape, (s0, s1, s2, s1, s2, s3), writeable=False)
    for i in range(0, n, step):
        j = min(i + step, n)
        xp[: j - i, 1:-1, 1:-1] = x[i:j]
        np.copyto(buf[: j - i], taps[: j - i])
        yield i, j, buf[: j - i].reshape(j - i, h * w, 9 * c)


def _correlate(x, wmat):
    """3×3 'same' correlation of the unpadded batch ``x`` with ``wmat``, a
    ``(9C, O)`` kernel matrix, zero padded per block (see :func:`_columns`):
    one stacked product per block, one GEMM per sample."""
    n, h, w, _ = x.shape
    o = wmat.shape[1]
    out = np.empty((n, h, w, o), dtype=x.dtype)
    for i, j, cols in _columns(x):
        np.matmul(cols, wmat, out=out[i:j].reshape(j - i, -1, o))
    return out


class Conv2d(Layer):
    """3×3 convolution, stride 1, zero 'same' padding."""

    kind = "conv2d"
    kernel_size = 3

    def __init__(self, in_channels, out_channels, rng, dtype=np.float32):
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
        out = _correlate(x, self.w.value.reshape(-1, self.out_channels))
        out += self.b.value
        if training:
            self._cache = x
        return out

    def backward(self, grad):
        x = self._take_cache()
        n, h, w, o = grad.shape
        g = grad.reshape(n, h * w, o)
        for i, j, cols in _columns(x):
            gw = cols.reshape(-1, cols.shape[2]).T @ g[i:j].reshape(-1, o)
            self.w.grad += gw.reshape(self.w.grad.shape)
        self.b.grad += grad.sum(axis=(0, 1, 2))
        # the input gradient is the 'same' correlation of the output gradient
        # with the kernel turned 180° and its channel axes swapped
        flipped = self.w.value[::-1, ::-1].transpose(0, 1, 3, 2)
        return _correlate(grad, flipped.reshape(-1, self.in_channels))


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
    """2x2 max pooling, stride 2; odd edges drop out and a tie goes to the first maximum.

    The maximum is copied bit for bit, through unsigned integer views of the
    same item size, so signed zeros and NaN payloads pass through unchanged;
    the backward pass routes the gradient's bits the same way.
    """

    kind = "maxpool2"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"maxpool2 expects (H, W, C), got {in_shape}")
        return (in_shape[0] // 2, in_shape[1] // 2, in_shape[2])

    @staticmethod
    def _views(a):
        h, w = a.shape[1] // 2 * 2, a.shape[2] // 2 * 2
        return [a[:, i:h:2, j:w:2] for i in (0, 1) for j in (0, 1)]

    def forward(self, x, training=False):
        u = np.dtype(f"u{x.dtype.itemsize}")
        head, *rest = self._views(x)
        out = head.copy()
        bits = out.view(u)
        first = np.zeros(out.shape, dtype=np.uint8) if training else None  # view of the maximum
        for k, t in enumerate(rest, 1):
            # argmax order: t wins if strictly larger, or if it is the tile's first NaN
            later = ~(t <= out) & (out == out)
            # select by masks of all-ones where t wins: three-operand
            # np.where costs several times as much
            m = np.negative(later, dtype=u)
            bits &= ~m
            bits |= t.view(u) & m
            if training:
                m = np.negative(later, dtype=np.uint8)
                first &= ~m
                first |= m & np.uint8(k)
        if training:
            self._cache = (x.shape, first)
        return out

    def backward(self, grad):
        shape, first = self._take_cache()
        gx = np.zeros(shape, dtype=grad.dtype)
        u = np.dtype(f"u{grad.dtype.itemsize}")
        bits = grad.view(u)
        for k, view in enumerate(self._views(gx)):
            np.bitwise_and(bits, np.negative(first == k, dtype=u), out=view.view(u))
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
    kernel that :func:`mclkit.tensor.multi_mode_product` also uses, so
    ``forward(x)[i]`` is bit-for-bit ``multi_mode_product(x[i], factors)``.
    """

    kind = "mode_projection"

    def __init__(self, in_shape, target_dims, rng, dtype=np.float32):
        super().__init__()
        self.in_shape = tuple(int(d) for d in in_shape)
        self.target_dims = tuple(int(d) for d in target_dims)
        if len(self.in_shape) != len(self.target_dims):
            raise ShapeMismatchError("in_shape and target_dims must have equal rank")
        self.params = [
            Param(f"f{k}", glorot_uniform(rng, (m, i), i, m, dtype), norm_axes=(1,))
            for k, (m, i) in enumerate(zip(self.target_dims, self.in_shape))
        ]

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
            raise NonFiniteError("mode projection input contains non-finite values")
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


def _inference_workers():
    """Workers per inference pool: the cores in this process's affinity mask,
    which ``taskset`` or a cpuset caps; 1 unless BLAS runs one thread (see
    ``mclkit/__init__.py``), since more beside a multithreaded BLAS are slower."""
    if any(os.environ.get(var) != "1" for var in _BLAS_THREADS):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKERS = _inference_workers()


def _forward_chunks(stacks, x):
    """Inference through a stack pipeline in chunks of rows, written into
    one output array.

    A chunk holds as many rows as keep the path's widest activation (its
    input, or any layer's output) within ``tensor._CACHE_BYTES``, at least
    one, so memory above the input and output grows with the workers, not
    with the rows.  An input of one chunk runs on the calling thread.  A
    longer one gets every worker and equal chunks, their count a multiple of
    the worker count, on a pool made for this call; the first failing chunk
    in row order raises.  An empty input makes one zero-row pass, so the
    result keeps its sample shape; an empty path returns ``x`` itself.
    """
    x = np.asarray(x)
    if not stacks:
        return x
    n = len(x)
    widest = max(math.prod(shape) for s in stacks
                 for shape in (*s._layer_in_shapes, s.out_shape))
    rows = max(1, tensor._CACHE_BYTES // (widest * x.itemsize))
    if n <= rows:
        return _forward_path(stacks, x)
    workers = min(_WORKERS, n)
    k = workers * -(-n // (rows * workers))
    bounds = [n * i // k for i in range(k + 1)]
    first = _forward_path(stacks, x[:0])  # gives the output's sample shape and dtype
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)

    def run(lo, hi):
        out[lo:hi] = _forward_path(stacks, x[lo:hi])

    # map raises the first failing chunk in row order and drops the chunks
    # not yet started; leaving the block waits for the running ones, so none
    # still writes to `out` once this returns
    with ThreadPoolExecutor(workers, thread_name_prefix="mclkit") as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))
    return out
