"""Dense tensor algebra: mode products, unfoldings, Kronecker products, HOSVD.

Tensors are plain ``numpy.ndarray`` objects in row-major (C) order, so the
last index varies fastest.  All functions are pure: inputs are never mutated
and every returned array is freshly allocated.  Mode indices are 0-based,
matching numpy axis conventions.

Every mode product, here and in :class:`mclkit.layers.ModeProjection`, runs
through one batched kernel.  Its result for a sample does not depend on the
batch size, so a batched pass is bit-for-bit equal to :func:`multi_mode_product`
applied to each sample alone.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, NonFiniteError, ShapeMismatchError

__all__ = [
    "mode_k_product",
    "multi_mode_product",
    "vectorize",
    "kron",
    "kron_chain",
    "mode_k_unfold",
    "mode_k_fold",
    "hosvd_factors",
]

_SIGN_TOL = 1e-12
# Working set per block: float64 in _sq_dist_blocks and hosvd_factors, records
# in the .mcld writer (datasets._write_split).
_BLOCK_BYTES = 16 * 2**20


def _as_tensor(t, name="tensor"):
    a = np.asarray(t)
    if a.ndim == 0:
        raise ShapeMismatchError(f"{name} must have at least one mode")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite values")
    return a


def _as_matrix(m, name="matrix"):
    a = np.asarray(m)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite values")
    return a


def _batched_mode_product(x, ws) -> np.ndarray:
    """Multiply mode ``k + 1`` of ``x`` by ``ws[k]`` (axis 0 is the batch); a
    ``None`` factor skips its mode.  Each product is one stacked matmul of the
    contiguous ``(batch, rows, I_k)`` array by ``w.T``, so every sample gets
    the same GEMM call whatever the batch size.  Callers do the checks."""
    out = x
    for k, w in enumerate(ws):
        if w is None:
            continue
        moved = np.moveaxis(out, k + 1, -1)
        rows = int(np.prod(moved.shape[1:-1]))
        flat = np.ascontiguousarray(moved).reshape(len(out), rows, w.shape[1])
        out = np.moveaxis((flat @ w.T).reshape(moved.shape[:-1] + (w.shape[0],)), -1, k + 1)
    return out


def _sq_dist_blocks(a, b):
    """Yield ``(start, d)`` with ``d[i, j]`` the float64 squared distance from
    ``a[start + i]`` to ``b[j]`` (samples flattened), in row blocks whose
    differences fit ``_BLOCK_BYTES``; results do not depend on the budget."""
    b = b.reshape(len(b), -1).astype(np.float64)
    a = a.reshape(len(a), -1)
    rows = max(1, _BLOCK_BYTES // (8 * b.size))
    for start in range(0, len(a), rows):
        block = a[start : start + rows].astype(np.float64)
        yield start, ((block[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _as_factor(w, t, k):
    w = _as_matrix(w)
    if w.shape[1] != t.shape[k]:
        raise ShapeMismatchError(
            f"mode {k}: factor has {w.shape[1]} columns but tensor mode has "
            f"size {t.shape[k]}"
        )
    return w


def mode_k_product(t, w, k: int) -> np.ndarray:
    """Contract mode ``k`` of tensor ``t`` with matrix ``w``.

    ``w`` has shape ``(J, I_k)`` where ``I_k == t.shape[k]``; the result has
    ``t``'s shape with mode ``k`` replaced by ``J``.
    """
    t = _as_tensor(t)
    if not 0 <= k < t.ndim:
        raise ShapeMismatchError(f"mode {k} out of range for a {t.ndim}-mode tensor")
    return _batched_mode_product(t[None], [None] * k + [_as_factor(w, t, k)])[0]


def multi_mode_product(t, ws: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one factor matrix per mode, in mode order.

    Equivalent to chaining :func:`mode_k_product` over all modes; products on
    distinct modes commute, so the order is a convention, not a constraint.
    """
    t = _as_tensor(t)
    if len(ws) != t.ndim:
        raise ShapeMismatchError(
            f"expected {t.ndim} factor matrices, got {len(ws)}"
        )
    return _batched_mode_product(t[None], [_as_factor(w, t, k) for k, w in enumerate(ws)])[0]


def vectorize(t) -> np.ndarray:
    """Flatten a tensor to a vector in row-major order (last index fastest).

    With this ordering, ``vectorize(multi_mode_product(t, ws)) ==
    kron_chain(ws) @ vectorize(t)``: the Kronecker chain multiplies the
    factors in mode order, first mode leftmost.
    """
    return np.asarray(t).reshape(-1).copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product with the usual block structure ``a[i, j] * b``."""
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def kron_chain(ws: Sequence[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    if not ws:
        raise ShapeMismatchError("kron_chain needs at least one matrix")
    return reduce(kron, ws)


def mode_k_unfold(t, k: int) -> np.ndarray:
    """Matricize ``t`` so that rows index mode ``k``.

    Columns run over the remaining modes in row-major order, which makes
    ``mode_k_unfold(mode_k_product(t, w, k), k) == w @ mode_k_unfold(t, k)``.
    """
    t = _as_tensor(t)
    if not 0 <= k < t.ndim:
        raise ShapeMismatchError(f"mode {k} out of range for a {t.ndim}-mode tensor")
    return np.moveaxis(t, k, 0).reshape(t.shape[k], -1).copy()


def mode_k_fold(m, k: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`mode_k_unfold` for the given full tensor shape."""
    m = _as_matrix(m)
    shape = tuple(int(s) for s in shape)
    if not 0 <= k < len(shape):
        raise ShapeMismatchError(f"mode {k} out of range for shape {shape}")
    lead = (shape[k],) + shape[:k] + shape[k + 1 :]
    if m.shape != (shape[k], int(np.prod(lead[1:]))):
        raise ShapeMismatchError(
            f"matrix of shape {m.shape} cannot fold to {shape} at mode {k}"
        )
    return np.moveaxis(m.reshape(lead), 0, k).copy()


def _fix_signs(u):
    # Deterministic sign convention: first entry of each column whose
    # magnitude exceeds _SIGN_TOL is made non-negative.
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        big = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if big.size and col[big[0]] < 0:
            u[:, j] = -col
    return u


def hosvd_factors(samples, target_dims: Sequence[int]) -> list[np.ndarray]:
    """Per-mode truncated factor matrices from a collection of same-shape tensors.

    For each mode ``k`` the per-sample mode-``k`` unfoldings are concatenated
    column-wise and the top ``target_dims[k]`` left singular vectors form the
    rows of factor ``k`` (shape ``target_dims[k] x I_k``, orthonormal rows).
    These equal the top eigenvectors of the unfolding's Gram matrix
    ``U_k U_k^T`` (``I_k x I_k``), which one pass over the samples sums in
    float64, in blocks of at most 16 MiB, so memory above the input stays
    bounded whatever the number of samples.  Factors are float32 for float32
    samples and float64 otherwise.  Projecting with these factors captures at
    least as much energy as any random orthonormal projection of the same
    size.
    """
    stack = np.asarray(samples)
    if stack.ndim < 2 or stack.shape[0] == 0:
        raise ShapeMismatchError("hosvd_factors needs a non-empty list of tensors")
    shape = stack.shape[1:]
    target_dims = tuple(int(d) for d in target_dims)
    if len(target_dims) != len(shape):
        raise ShapeMismatchError(
            f"expected {len(shape)} target dims, got {len(target_dims)}"
        )
    for k, (dim, want) in enumerate(zip(shape, target_dims)):
        if not 1 <= want <= dim:
            raise ShapeMismatchError(
                f"mode {k}: target dim {want} outside [1, {dim}]"
            )
    size = math.prod(shape)
    rows = max(1, _BLOCK_BYTES // (8 * size))
    # One float64 buffer takes each block's mode-k unfolding in turn: the cast
    # and the transpose happen in one copy, and no other block-sized array lives.
    buf = np.empty(min(rows, len(stack)) * size)
    grams = [np.zeros((dim, dim)) for dim in shape]
    for start in range(0, len(stack), rows):
        block = stack[start : start + rows]
        if not np.isfinite(block).all():
            raise NonFiniteError("samples contain non-finite values")
        for k, gram in enumerate(grams):
            # axis 0 of `block` is the sample axis; sample mode k is axis k+1.
            moved = np.moveaxis(block, k + 1, 0)
            np.copyto(buf[: moved.size].reshape(moved.shape), moved)
            unfolded = buf[: moved.size].reshape(shape[k], -1)
            gram += unfolded @ unfolded.T
    dtype = np.float32 if stack.dtype == np.float32 else np.float64
    factors = []
    for k, (gram, want) in enumerate(zip(grams, target_dims)):
        if not np.isfinite(gram).all():
            raise NonFiniteError(
                f"mode {k}: samples too large, the Gram matrix overflows float64")
        try:
            _, vecs = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
        # eigh sorts eigenvalues ascending; the factor wants the largest first.
        u = _fix_signs(vecs[:, ::-1])
        factors.append(u[:, :want].T.astype(dtype, order="C"))
    return factors
