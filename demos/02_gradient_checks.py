"""Finite-difference verification of every layer kind's backward pass.

Run:  python3 demos/02_gradient_checks.py
"""

import numpy as np

from mclkit.layers import (
    Conv2d,
    Dense,
    GlobalAvgPool,
    LayerStack,
    MaxPool2,
    ModeProjection,
    ReLU,
    Upsample2,
)
from mclkit.losses import grad_check

rng = np.random.default_rng(7)
dt = np.float64  # gradient checks run in 64-bit

cases = [
    ("dense + l1", LayerStack([Dense(6, 4, rng, dtype=dt)], (6,)),
     rng.normal(size=(2, 6)), "l1", rng.normal(size=(2, 4))),
    ("conv2d + l1", LayerStack([Conv2d(2, 3, rng=rng, dtype=dt)], (6, 6, 2)),
     rng.normal(size=(2, 6, 6, 2)), "l1", rng.normal(size=(2, 6, 6, 3))),
    ("mode projection + l1",
     LayerStack([ModeProjection((4, 5, 2), (2, 3, 1), rng=rng, dtype=dt)], (4, 5, 2)),
     rng.normal(size=(2, 4, 5, 2)), "l1", rng.normal(size=(2, 2, 3, 1))),
    ("conv/relu/pool/gap/dense + cross-entropy",
     LayerStack([Conv2d(1, 4, rng=rng, dtype=dt), ReLU(), MaxPool2(),
                 GlobalAvgPool(), Dense(4, 3, rng, dtype=dt)], (8, 8, 1)),
     rng.normal(size=(2, 8, 8, 1)), "cross_entropy", np.array([0, 2])),
    ("upsample/gap/dense + symmetric-KL",
     LayerStack([Upsample2(), GlobalAvgPool(), Dense(2, 5, rng, dtype=dt)], (2, 3, 2)),
     rng.normal(size=(2, 2, 3, 2)), "symmetric_kl", rng.normal(size=(2, 5))),
]

print(f"{'stack':48s} worst relative error")
for name, stack, x, loss_kind, target in cases:
    err = grad_check(stack, loss_kind, x, target)
    print(f"{name:48s} {err:.3e}")
