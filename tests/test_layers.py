import numpy as np
import pytest

from mclkit import tensor
from mclkit.errors import ShapeMismatchError, StateError
from mclkit.layers import (
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool,
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
    with pytest.raises(ValueError, match="non-finite"):
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
        ("flatten", LayerStack([Flatten(), Dense(12, 3, rng, dtype=dt)], (3, 4, 1)),
         (2, 3, 4, 1), ("cross_entropy", None), 1e-6),
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


def test_param_names_are_stable_and_prefixed():
    rng = np.random.default_rng(8)
    stack = LayerStack([Conv2d(1, 2, rng=rng), ReLU(), GlobalAvgPool(),
                        Dense(2, 3, rng)], (2, 2, 1), name="head")
    assert [p.name for p in stack.params] == [
        "head.0.w", "head.0.b", "head.3.w", "head.3.b",
    ]
