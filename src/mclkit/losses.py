"""Loss functions (cross-entropy, symmetric KL, mean-absolute) and a
finite-difference gradient checker.

Every function accepts either a single sample (1-D logits / one tensor) or a
batch (leading batch axis); batched losses are means over the batch so the
returned gradients already carry the ``1/B`` factor.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeMismatchError

__all__ = [
    "softmax",
    "cross_entropy",
    "symmetric_kl",
    "l1_loss",
    "grad_check",
]

_PROB_FLOOR = 1e-7  # probabilities are clipped here before any log


def softmax(logits):
    """Row-wise softmax with max-shift stabilisation."""
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits, label):
    """Negative log-likelihood of ``label`` under softmax(logits).

    1-D logits take a single integer label; 2-D logits take a label per row
    and the loss is the batch mean.  Returns ``(loss, grad)`` where ``grad``
    matches the logits' shape.
    """
    z = np.asarray(logits)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
        labels = np.asarray([label])
    else:
        labels = np.asarray(label)
    n, c = z.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeMismatchError(f"label out of range for {c} classes")
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    per_sample = logsumexp - shifted[np.arange(n), labels]
    loss = float(per_sample.mean())
    grad = softmax(z)
    grad[np.arange(n), labels] -= 1
    grad /= n
    return loss, (grad[0] if squeeze else grad)


def symmetric_kl(p_logits, q_logits):
    """Summed two-way KL divergence between softmax distributions.

    Computed as ``sum_i (p_i - q_i) * (log p_i - log q_i)`` with probabilities
    clipped to ``[1e-7, 1]`` inside the logs; the expression is elementwise
    non-negative and bitwise symmetric under argument swap.  Returns
    ``(loss, grad_p, grad_q)``; batched inputs give the batch mean.
    """
    a = np.asarray(p_logits)
    b = np.asarray(q_logits)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"logit shapes differ: {a.shape} vs {b.shape}")
    squeeze = a.ndim == 1
    if squeeze:
        a, b = a[None, :], b[None, :]
    n = a.shape[0]
    p = softmax(a)
    q = softmax(b)
    log_p = np.log(np.clip(p, _PROB_FLOOR, 1.0))
    log_q = np.log(np.clip(q, _PROB_FLOOR, 1.0))
    delta = log_p - log_q
    loss = float(((p - q) * delta).sum() / n)
    # d/da of KL(p||q) + KL(q||p); exact when no probability is clipped.
    ga = (p * (delta - (p * delta).sum(axis=1, keepdims=True)) + (p - q)) / n
    gb = (q * (-delta + (q * delta).sum(axis=1, keepdims=True)) + (q - p)) / n
    if squeeze:
        ga, gb = ga[0], gb[0]
    return loss, ga, gb


def l1_loss(a, b):
    """Mean absolute difference over all elements.

    Returns ``(loss, grad_a, grad_b)`` using the subgradient convention
    ``sign(0) = 0``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    loss = float(np.abs(diff).mean())
    g = np.sign(diff) / diff.size
    return loss, g.astype(a.dtype, copy=False), (-g).astype(b.dtype, copy=False)


def _loss_for_check(kind, out, target):
    if kind == "l1":
        loss, g, _ = l1_loss(out, target)
    elif kind == "cross_entropy":
        loss, g = cross_entropy(out, target)
    elif kind == "symmetric_kl":
        loss, _, g = symmetric_kl(target, out)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return loss, g


def grad_check(stack, loss_kind, x, target, step=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    Run in 64-bit: both the stack parameters and ``x`` should be float64.
    All parameters and the input itself are perturbed element by element.
    Gradient pairs whose magnitudes both fall below 1e-7 are skipped (they
    carry only round-off).
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))

    def loss_only():
        out = stack.forward(x, training=False)
        return _loss_for_check(loss_kind, out, target)[0]

    stack.zero_grads()
    out = stack.forward(x, training=True)
    _, g = _loss_for_check(loss_kind, out, target)
    gin = stack.backward(g)

    worst = 0.0
    arrays = [(p.value, p.grad) for p in stack.params] + [(x, gin)]
    for value, grad in arrays:
        flat_v = value.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_v.size):
            keep = flat_v[i]
            flat_v[i] = keep + step
            lp = loss_only()
            flat_v[i] = keep - step
            lm = loss_only()
            flat_v[i] = keep
            numeric = (lp - lm) / (2 * step)
            analytic = flat_g[i]
            scale = max(abs(numeric), abs(analytic))
            if scale < 1e-7:
                continue
            worst = max(worst, abs(analytic - numeric) / scale)
    return worst
