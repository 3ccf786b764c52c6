import multiprocessing
import threading

import numpy as np
import pytest

from mclkit import layers, tensor
from mclkit.errors import ConfigError, NonFiniteError, ShapeMismatchError, StateError
from mclkit.layers import (
    Conv2d,
    Dense,
    GlobalAvgPool,
    Layer,
    LayerStack,
    MaxPool2,
    ModeProjection,
    ReLU,
    Upsample2,
)
from mclkit.losses import grad_check


def test_empty_stack_is_identity():
    stack = LayerStack([], (3, 3, 1))
    x = np.random.default_rng(0).normal(size=(2, 3, 3, 1))
    assert np.array_equal(stack.forward(x), x)


def test_relu_definition():
    stack = LayerStack([ReLU()], (2,))
    out = stack.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_relu_zero_gradient_at_negative_input():
    stack = LayerStack([ReLU()], (3,))
    x = np.array([[-1.0, 0.5, -2.0]])
    stack.forward(x, training=True)
    gin = stack.backward(np.ones((1, 3)))
    assert np.array_equal(gin, [[0.0, 1.0, 0.0]])


def test_layers_without_rng_or_factors_raise():
    with pytest.raises(TypeError):
        Conv2d(2, 3)
    with pytest.raises(ConfigError):
        ModeProjection((4, 4, 1), (2, 2, 1))


def test_mode_projection_identity_factors():
    proj = ModeProjection((3, 4, 2), (3, 4, 2),
                          factors=[np.eye(3), np.eye(4), np.eye(2)],
                          dtype=np.float64)
    stack = LayerStack([proj], (3, 4, 2))
    x = np.random.default_rng(1).normal(size=(2, 3, 4, 2))
    assert np.array_equal(stack.forward(x), x)


# (signal or pooled shape, measurement shape) of every ModeProjection that
# build_prior / build_mcl create at desk and paper scale
MODEL_PROJECTIONS = [
    ((16, 16, 1), (4, 4, 1)),
    ((32, 32, 3), (6, 6, 1)),
    ((32, 32, 3), (14, 11, 2)),
    ((4, 4, 12), (4, 4, 1)),
    ((8, 8, 16), (6, 6, 1)),
    ((16, 16, 16), (14, 11, 2)),
]


def test_mode_projection_matches_tensor_op_bitwise():
    rng = np.random.default_rng(2)
    proj = ModeProjection((4, 5, 2), (2, 3, 1), rng=rng, dtype=np.float64)
    stack = LayerStack([proj], (4, 5, 2))
    x = rng.normal(size=(5, 4, 5, 2))
    out = stack.forward(x)
    for i in range(len(x)):
        direct = tensor.multi_mode_product(x[i], proj.factors)
        assert np.array_equal(out[i], direct)
    # float32 at the model shapes, sensing and synthesis direction: every
    # sample's result is independent of the batch it travels in
    for signal, measured in MODEL_PROJECTIONS:
        for src, dst in ((signal, measured), (measured, signal)):
            proj = ModeProjection(src, dst, rng=rng, dtype=np.float32)
            for batch in (1, 32, 256):
                x = rng.normal(size=(batch,) + src).astype(np.float32)
                out = proj.forward(x)
                for i in range(batch):
                    where = f"{src}->{dst}, batch {batch}, sample {i}"
                    direct = tensor.multi_mode_product(x[i], proj.factors)
                    assert np.array_equal(out[i], direct), where
                    assert np.array_equal(out[i], proj.forward(x[i : i + 1])[0]), where


def test_mode_projection_backward_matches_per_sample_loop():
    # reference: the per-sample, per-mode loop, in float64; the batched
    # factor gradients sum in another order, so float32 gets a tolerance
    rng = np.random.default_rng(11)
    for src, dst in [((16, 16, 1), (4, 4, 1)), ((4, 4, 1), (4, 4, 12)),
                     ((32, 32, 3), (14, 11, 2))]:
        proj = ModeProjection(src, dst, rng=rng, dtype=np.float32)
        x = rng.normal(size=(32,) + src).astype(np.float32)
        g = rng.normal(size=(32,) + dst).astype(np.float32)
        proj.forward(x, training=True)
        gin = proj.backward(g)
        ws = proj.factors
        for k, p in enumerate(proj.params):
            axes = [a for a in range(len(src)) if a != k]
            ref = 0.0
            for s, gs in zip(x.astype(np.float64), g.astype(np.float64)):
                for j, w in enumerate(ws):
                    if j != k:
                        s = tensor.mode_k_product(s, w, j)
                ref = ref + np.tensordot(gs, s, axes=(axes, axes))
            np.testing.assert_allclose(p.grad, ref, rtol=1e-4, atol=1e-4 * np.abs(ref).max())
        for i in range(len(g)):
            assert np.array_equal(gin[i], tensor.multi_mode_product(g[i], [w.T for w in ws]))


def test_mode_projection_rejects_non_finite_input():
    proj = ModeProjection((4, 5, 2), (2, 3, 1), rng=np.random.default_rng(6))
    x = np.zeros((3, 4, 5, 2), dtype=np.float32)
    x[1, 2, 3, 0] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite"):
        proj.forward(x)


def test_linear_stack_input_gradient_is_transpose():
    rng = np.random.default_rng(3)
    dense = Dense(5, 3, rng, dtype=np.float64)
    stack = LayerStack([dense], (5,))
    x = rng.normal(size=(2, 5))
    stack.forward(x, training=True)
    g = rng.normal(size=(2, 3))
    gin = stack.backward(g)
    assert np.array_equal(gin, g @ dense.w.value)


def test_backward_without_forward_raises():
    stack = LayerStack([ReLU()], (2,))
    with pytest.raises(StateError):
        stack.backward(np.ones((1, 2)))


def test_forward_shape_error_names_layer():
    rng = np.random.default_rng(4)
    stack = LayerStack([Dense(4, 2, rng)], (4,), name="head")
    with pytest.raises(ShapeMismatchError, match="head"):
        stack.forward(np.zeros((1, 5)))


def test_forward_rerun_is_idempotent():
    rng = np.random.default_rng(5)
    stack = LayerStack(
        [Conv2d(1, 3, rng=rng, dtype=np.float64), ReLU(), MaxPool2()], (8, 8, 1)
    )
    x = rng.normal(size=(2, 8, 8, 1))
    first = stack.forward(x, training=True)
    stack.backward(np.ones_like(first))
    second = stack.forward(x, training=True)
    stack.backward(np.ones_like(second))
    assert np.array_equal(first, second)


def test_maxpool_odd_dims_drop_edge():
    stack = LayerStack([MaxPool2()], (5, 5, 1))
    x = np.arange(25.0).reshape(1, 5, 5, 1)
    out = stack.forward(x, training=True)
    assert out.shape == (1, 2, 2, 1)
    gin = stack.backward(np.ones_like(out))
    assert gin.shape == x.shape
    assert np.all(gin[:, 4, :, :] == 0) and np.all(gin[:, :, 4, :] == 0)


def _maxpool_reference(x, grad):
    """Per-tile loops: each tile's argmax in row-major order (first maximum, or first NaN)
    gets the gradient."""
    b, h, w, c = x.shape
    out = np.empty((b, h // 2, w // 2, c), dtype=x.dtype)
    gx = np.zeros_like(x)
    for n, i, j, k in np.ndindex(out.shape):
        cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
        best = cells[int(np.argmax([x[n, r, s, k] for r, s in cells]))]
        out[n, i, j, k] = x[n, best[0], best[1], k]
        gx[n, best[0], best[1], k] = grad[n, i, j, k]
    return out, gx


def _maxpool_bytes(x, grad):
    layer = MaxPool2()
    out = layer.forward(x, training=True)
    gx = layer.backward(grad)
    assert out.dtype == x.dtype and gx.dtype == grad.dtype
    return out.tobytes(), gx.tobytes()


@pytest.mark.parametrize("shape", [(32, 32, 16), (16, 16, 12), (31, 31, 5)])
def test_maxpool_matches_per_tile_reference(shape):
    # float32 and float64 pin both unsigned view widths of the bit select
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(sum(shape))
        # Post-ReLU values on a coarse grid, so tiles tie at zero and elsewhere,
        # with scattered ±inf, NaN and -0.0 in the input and the gradient.
        x = np.maximum(np.round(rng.normal(size=(2, *shape)) * 2) / 2, 0)
        x[0, 0, 0] = -0.0
        grad = rng.normal(size=(2, shape[0] // 2, shape[1] // 2, shape[2]))
        for a in (x, grad):
            hit = rng.random(a.shape) < 0.05
            a[hit] = rng.choice([np.inf, -np.inf, np.nan, -0.0], size=hit.sum())
        x, grad = x.astype(dtype), grad.astype(dtype)
        out, gx = _maxpool_reference(x, grad)
        assert _maxpool_bytes(x, grad) == (out.tobytes(), gx.tobytes()), dtype
        assert MaxPool2().forward(x).tobytes() == out.tobytes(), dtype


def test_maxpool_ties_route_to_first_maximum():
    # Three 2x2 tiles side by side: all equal, a two-way tie, and (-0.0, +0.0).
    x = np.array([[1.5, 1.5, 0.0, 2.0, -0.0, 0.0],
                  [1.5, 1.5, 1.0, 2.0, -0.0, 0.0]], dtype=np.float32).reshape(1, 2, 6, 1)
    grad = np.array([3.0, 5.0, 7.0], dtype=np.float32).reshape(1, 1, 3, 1)
    out, gx = _maxpool_reference(x, grad)
    assert out.ravel().tolist() == [1.5, 2.0, 0.0] and np.signbit(out.ravel()[2])
    assert np.array_equal(gx.reshape(2, 6), [[3, 0, 0, 5, 7, 0], [0, 0, 0, 0, 0, 0]])
    assert _maxpool_bytes(x, grad) == (out.tobytes(), gx.tobytes())


def test_maxpool_first_nan_wins_as_argmax():
    # Tiles (1, NaN, 0, 2) and (NaN, 1, NaN, 2): the first NaN is pooled and gets the gradient.
    nan = np.nan
    x = np.array([[1.0, nan, nan, 1.0],
                  [0.0, 2.0, nan, 2.0]], dtype=np.float32).reshape(1, 2, 4, 1)
    grad = np.array([3.0, 5.0], dtype=np.float32).reshape(1, 1, 2, 1)
    layer = MaxPool2()
    out = layer.forward(x, training=True)
    assert np.isnan(out).all()
    assert np.array_equal(layer.backward(grad).reshape(2, 4), [[0, 3, 5, 0], [0, 0, 0, 0]])
    assert np.isnan(MaxPool2().forward(x)).all()


def test_upsample_then_pool_identity_shape():
    stack = LayerStack([Upsample2(), MaxPool2()], (3, 3, 2))
    x = np.random.default_rng(6).normal(size=(2, 3, 3, 2))
    assert np.array_equal(stack.forward(x), x)  # nearest blocks are constant


def _fd_cases(rng):
    dt = np.float64
    return [
        ("dense", LayerStack([Dense(6, 4, rng, dtype=dt)], (6,)),
         (2, 6), ("l1", (2, 4)), 1e-6),
        ("conv2d", LayerStack([Conv2d(2, 3, rng=rng, dtype=dt)], (6, 6, 2)),
         (2, 6, 6, 2), ("l1", (2, 6, 6, 3)), 1e-4),
        ("relu", LayerStack([Dense(5, 5, rng, dtype=dt), ReLU()], (5,)),
         (2, 5), ("l1", (2, 5)), 1e-4),
        ("maxpool2", LayerStack([MaxPool2()], (6, 6, 2)),
         (2, 6, 6, 2), ("l1", (2, 3, 3, 2)), 1e-4),
        ("upsample2", LayerStack([Upsample2()], (3, 4, 2)),
         (2, 3, 4, 2), ("l1", (2, 6, 8, 2)), 1e-6),
        ("mode_projection", LayerStack(
            [ModeProjection((4, 5, 2), (2, 3, 1), rng=rng, dtype=dt)], (4, 5, 2)),
         (2, 4, 5, 2), ("l1", (2, 2, 3, 1)), 1e-6),
        ("mode_projection_expanding", LayerStack(
            [ModeProjection((2, 3, 1), (4, 5, 2), rng=rng, dtype=dt)], (2, 3, 1)),
         (3, 2, 3, 1), ("l1", (3, 4, 5, 2)), 1e-6),
        ("global_avg_pool", LayerStack([GlobalAvgPool()], (4, 4, 3)),
         (2, 4, 4, 3), ("l1", (2, 3)), 1e-6),
        ("head_tail", LayerStack([GlobalAvgPool(), Dense(12, 3, rng, dtype=dt)], (1, 2, 12)),
         (2, 1, 2, 12), ("cross_entropy", None), 1e-6),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_every_layer_kind_passes_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    for name, stack, x_shape, (loss_kind, t_shape), tol in _fd_cases(rng):
        x = rng.normal(size=x_shape)
        if loss_kind == "cross_entropy":
            target = rng.integers(0, stack.out_shape[0], size=x_shape[0])
        else:
            target = rng.normal(size=t_shape)
        err = grad_check(stack, loss_kind, x, target)
        assert err < tol, f"{name}: finite-difference error {err}"


def test_conv_stack_cross_entropy_finite_differences():
    rng = np.random.default_rng(7)
    stack = LayerStack(
        [Conv2d(2, 3, rng=rng, dtype=np.float64), ReLU(), MaxPool2(),
         GlobalAvgPool(), Dense(3, 4, rng, dtype=np.float64)],
        (8, 8, 2),
    )
    x = rng.normal(size=(2, 8, 8, 2))
    assert grad_check(stack, "cross_entropy", x, np.array([0, 3])) < 1e-4
    with pytest.raises(ConfigError, match="unknown loss kind 'hinge'"):
        grad_check(stack, "hinge", x, np.array([0, 3]))


def _conv_reference(x, w, b, g):
    """Per-pixel float64 3x3 'same' convolution: output, kernel, bias and
    input gradients for the output gradient ``g``."""
    n, h, wd, c = x.shape
    xp = np.zeros((n, h + 2, wd + 2, c))
    xp[:, 1:-1, 1:-1] = x
    out = np.empty((n, h, wd, w.shape[3]))
    gw, gxp = np.zeros(w.shape), np.zeros(xp.shape)
    for s, i, j in np.ndindex(n, h, wd):
        patch = xp[s, i : i + 3, j : j + 3]
        out[s, i, j] = np.einsum("uvc,uvco->o", patch, w) + b
        gw += patch[..., None] * g[s, i, j]
        gxp[s, i : i + 3, j : j + 3] += w @ g[s, i, j]
    return out, gw, g.sum(axis=(0, 1, 2)), gxp[:, 1:-1, 1:-1]


@pytest.mark.parametrize("n,h,w,c,o", [
    (2, 5, 7, 3, 4), (3, 5, 7, 1, 2), (2, 7, 5, 2, 1), (1, 5, 7, 3, 4), (0, 5, 7, 3, 4),
    (1, 1, 1, 1, 1), (40, 5, 7, 2, 3),  # 40 samples of 35 rows span two blocks
])
def test_conv2d_matches_per_pixel_reference(n, h, w, c, o):
    rng = np.random.default_rng(11)
    conv = Conv2d(c, o, rng=rng, dtype=np.float64)
    conv.b.value[...] = rng.normal(size=o)
    x = rng.normal(size=(n, h, w, c))
    g = rng.normal(size=(n, h, w, o))
    out, gw, gb, gx = _conv_reference(x, conv.w.value, conv.b.value, g)
    np.testing.assert_allclose(conv.forward(x, training=True), out, rtol=1e-12, atol=1e-12)
    gin = conv.backward(g)
    assert gin.shape == x.shape
    np.testing.assert_allclose(gin, gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.w.grad, gw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.b.grad, gb, rtol=1e-12, atol=1e-12)


def _conv_padded_batch(conv, x, g):
    """Conv2d padding the whole batch once: ``np.pad``, then one
    ``sliding_window_view`` column copy and one stacked matmul per
    ``_BLOCK_ROWS`` block.  Returns output, input, kernel and bias gradients."""
    def correlate(xp, wmat):
        n, hp, wp, c = xp.shape
        h, w, o = hp - 2, wp - 2, wmat.shape[1]
        step = max(1, layers._BLOCK_ROWS // (h * w))
        taps = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
        taps = taps.transpose(0, 1, 2, 4, 5, 3)
        out = np.empty((n, h, w, o), dtype=xp.dtype)
        blocks = []
        for i in range(0, n, step):
            j = min(i + step, n)
            cols = np.ascontiguousarray(taps[i:j]).reshape(j - i, h * w, 9 * c)
            out[i:j] = np.matmul(cols, wmat).reshape(j - i, h, w, o)
            blocks.append((i, j, cols))
        return out, blocks

    def pad(a):
        return np.pad(a, ((0, 0), (1, 1), (1, 1), (0, 0)))

    w, b = conv.w.value, conv.b.value
    out, blocks = correlate(pad(x), w.reshape(-1, w.shape[3]))
    out += b
    gw, gb = np.zeros_like(w), np.zeros_like(b)
    n, h, wd, o = g.shape
    for i, j, cols in blocks:
        gw += (cols.reshape(-1, cols.shape[2]).T @ g[i:j].reshape(-1, o)).reshape(w.shape)
    gb += g.sum(axis=(0, 1, 2))
    flipped = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, w.shape[2])
    return out, correlate(pad(g), flipped)[0], gw, gb


@pytest.mark.parametrize("n,h,w,c,o", [
    (3, 32, 32, 3, 16), (3, 32, 32, 16, 16), (5, 16, 16, 1, 12),
    (40, 7, 5, 2, 3),  # 40 samples of 35 rows span two blocks
    (1, 7, 5, 2, 3), (0, 7, 5, 2, 3),
])
def test_conv2d_bits_match_whole_batch_padding(n, h, w, c, o):
    # Padding per block must not change a bit of any output or gradient.
    rng = np.random.default_rng(13)
    conv = Conv2d(c, o, rng=rng)
    conv.b.value[...] = rng.normal(size=o)
    x = rng.normal(size=(n, h, w, c)).astype(np.float32)
    g = rng.normal(size=(n, h, w, o)).astype(np.float32)
    expected = _conv_padded_batch(conv, x, g)
    out = conv.forward(x, training=True)
    gx = conv.backward(g)
    got = (out, gx, conv.w.grad, conv.b.grad)
    for name, a, e in zip(("output", "input grad", "w.grad", "b.grad"), got, expected):
        assert a.dtype == e.dtype and a.shape == e.shape, name
        assert a.tobytes() == e.tobytes(), name


@pytest.mark.parametrize("make,sample_shape", [
    (lambda rng: Conv2d(16, 3, rng=rng), (32, 32, 16)),
    (lambda rng: Conv2d(12, 1, rng=rng), (16, 16, 12)),
    (lambda rng: Dense(32, 3, rng), (32,)),
    (lambda rng: Dense(16, 10, rng), (16,)),
], ids=["conv2d-16-3", "conv2d-12-1", "dense-32-3", "dense-16-10"])
def test_sample_bits_do_not_depend_on_the_batch(make, sample_shape):
    # A matrix product over the whole batch rounds a row by the product's
    # row count, and a one-row product is a matrix-vector product: each
    # sample must be computed apart from the others.  Conv 12->1 is the
    # decoder's one-channel output conv; the dense shapes are heads.
    rng = np.random.default_rng(12)
    layer = make(rng)
    x = rng.normal(size=(9,) + sample_shape).astype(np.float32)
    out = layer.forward(x)
    p = rng.permutation(len(x))
    assert np.array_equal(layer.forward(x[p]), out[p])
    for i in range(len(x)):
        assert np.array_equal(layer.forward(x[i : i + 1])[0], out[i]), f"sample {i}"


def test_param_names_are_stable_and_prefixed():
    rng = np.random.default_rng(8)
    stack = LayerStack([Conv2d(1, 2, rng=rng), ReLU(), GlobalAvgPool(),
                        Dense(2, 3, rng)], (2, 2, 1), name="head")
    assert [p.name for p in stack.params] == [
        "head.0.w", "head.0.b", "head.3.w", "head.3.b",
    ]


class _FailNegative(Layer):
    """Identity that raises, naming the first row whose first value is negative."""

    kind = "fail_negative"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, training=False):
        bad = np.flatnonzero(x[:, 0] < 0)
        if len(bad):
            raise ValueError(f"row value {x[bad[0], 0]:g}")
        return x


def test_pool_raises_the_first_failing_chunk(monkeypatch):
    monkeypatch.setattr(layers, "_WORKERS", 2)
    monkeypatch.setattr(tensor, "_CACHE_BYTES", 64 * 512 * 4)  # 64 rows a chunk
    stack = LayerStack([_FailNegative()], (512,))
    x = np.ones((257, 512), dtype=np.float32)  # six 42- or 43-row chunks
    x[:, 0] = np.arange(257)
    x[[100, 200], 0] *= -1  # fail chunks 2 and 4
    for _ in range(3):
        with pytest.raises(ValueError, match="row value -100$"):
            layers._forward_chunks([stack], x)
    x[[100, 200], 0] *= -1
    assert np.array_equal(layers._forward_chunks([stack], x), x)


def test_pool_raises_non_finite_from_a_later_chunk(monkeypatch):
    monkeypatch.setattr(layers, "_WORKERS", 2)
    stack = LayerStack([ModeProjection((16, 16, 2), (4, 4, 1), rng=np.random.default_rng(0))],
                       (16, 16, 2))
    x = np.random.default_rng(1).random((257, 16, 16, 2), dtype=np.float32)
    x[250, 3, 4, 1] = np.nan
    with pytest.raises(NonFiniteError):
        layers._forward_chunks([stack], x)


def _forward_in_child(stack, x, expected):
    got = layers._forward_chunks([stack], x)
    if not np.array_equal(got, expected):
        raise SystemExit(1)


def test_forked_child_builds_its_own_pool(monkeypatch):
    # A forked child has none of the parent's threads; a pool it inherited
    # would take its chunks and never run them.
    monkeypatch.setattr(layers, "_WORKERS", 2)
    stack = LayerStack([Conv2d(2, 3, rng=np.random.default_rng(0)), ReLU()], (16, 16, 2))
    x = np.random.default_rng(1).random((300, 16, 16, 2), dtype=np.float32)
    expected = layers._forward_chunks([stack], x)
    child = multiprocessing.get_context("fork").Process(
        target=_forward_in_child, args=(stack, x, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's forward pass did not return within 60 s")
    assert child.exitcode == 0


def test_pooled_chunks_run_on_the_pool(monkeypatch):
    ran_on = set()
    forward_path = layers._forward_path

    def spy(stacks, x, training=False):
        ran_on.add(threading.current_thread().name.startswith("mclkit"))
        return forward_path(stacks, x, training)

    monkeypatch.setattr(layers, "_forward_path", spy)
    monkeypatch.setattr(tensor, "_CACHE_BYTES", 256 * 512 * 4)  # 256 rows a chunk
    stack = LayerStack([ReLU()], (512,))
    monkeypatch.setattr(layers, "_WORKERS", 2)
    layers._forward_chunks([stack], np.ones((255, 512), dtype=np.float32))
    assert ran_on == {False}, "below 2**17 values a pass stays on the calling thread"
    layers._forward_chunks([stack], np.ones((257, 512), dtype=np.float32))
    assert True in ran_on
    ran_on.clear()
    monkeypatch.setattr(layers, "_WORKERS", 1)
    layers._forward_chunks([stack], np.ones((1000, 512), dtype=np.float32))
    assert ran_on == {False, True}, "the shape pass runs on the caller, the chunks on the pool"


def test_empty_path_returns_its_input():
    x = np.ones((300, 512), dtype=np.float32)  # enough rows and values to chunk or pool
    assert layers._forward_chunks((), x) is x
