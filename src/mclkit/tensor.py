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
# Working set per block: float64 queries and screen rows in _nearest, the
# float64 unfolding in hosvd_factors, records in the .mcld writer
# (datasets._write_split).
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


def _nearest(a, b, k) -> np.ndarray:
    """Indices of the ``k`` rows of ``b`` nearest to each row of ``a``, nearest
    first, a distance tie going to the lower index (``1 <= k <= len(b)``).

    Samples are flattened and compared by squared Euclidean distance in
    float64, ``((b - q) ** 2).sum(axis=1)`` for a query ``q``; the result is
    exactly a brute-force sort of those distances, then of the indices.  A
    float64 GEMM screens every pair first, ``|q|^2 + |b|^2 - 2 q.b``, and only
    the rows the screen cannot rule out get the exact distance.  Query blocks
    keep their float64 working set near ``_BLOCK_BYTES``; the result depends
    neither on the budget nor on BLAS's summation order or thread count."""
    b = np.asarray(b, dtype=np.float64).reshape(len(b), -1)
    n, size = b.shape
    a = np.asarray(a).reshape(len(a), size)
    # The screen and the exact distance differ by less than the bound.  With
    # u = eps / 2 and g = (D + 2) u / (1 - (D + 2) u), a sum of D products in
    # any order, fused or not, is within (D u / (1 - D u)) times the sum of
    # their magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
    # section 3.1).  So the screen (2 q.b, then |q|^2 and |b|^2 added) is within
    # g (|q|^2 + 2 |q||b| + |b|^2) of the true distance, and so is the exact
    # form (D rounded differences squared, then D - 1 additions).  Their gap is
    # under 2 g (|q| + |b|)^2, about (D + 2) eps (|q| + |b|)^2; the bound
    # doubles that, which also covers the rounded norms and the bound's own
    # arithmetic.  A product that underflows is off by at most half the
    # smallest subnormal; the two forms make 4 D products, the screen's D
    # cross products doubled, so underflow costs at most 2.5 D subnormals, and
    # the 2^-1021 term adds 4 (D + 8) of them.
    scale = 2 * (size + 8) * np.finfo(np.float64).eps
    sq_b = np.einsum("ij,ij->i", b, b)
    norm_b = np.sqrt(sq_b)
    # Per query: its float64 row, three screen rows, about k gathered rows.
    rows = max(1, _BLOCK_BYTES // (8 * (3 * n + (k + 1) * size)))
    screen, bound, upper = np.empty((3, min(rows, len(a)), n))
    out = np.empty((len(a), k), dtype=np.intp)
    for start in range(0, len(a), rows):
        q = a[start : start + rows].astype(np.float64)
        r = len(q)
        sq_q = np.einsum("ij,ij->i", q, q)
        norm_q = np.sqrt(sq_q)
        if not np.isfinite((norm_q.max() + norm_b.max()) ** 2):
            raise NonFiniteError(
                "non-finite values, or squared distances beyond float64")
        approx, err, hi = screen[:r], bound[:r], upper[:r]
        np.matmul(q, b.T, out=approx)
        approx *= -2
        approx += sq_q[:, None]
        approx += sq_b
        np.add(norm_q[:, None], norm_b, out=err)
        np.square(err, out=err)
        err += 2.0**-1021
        err *= scale
        # At least k rows have an exact distance <= the k-th smallest upper
        # bound, so a row whose lower bound exceeds it is beaten by k others.
        np.add(approx, err, out=hi)
        hi.partition(k - 1, axis=1)
        approx -= err
        rows_of, cols = np.nonzero(approx <= hi[:, k - 1 : k])
        d = ((b[cols] - q[rows_of]) ** 2).sum(axis=1)
        order = np.lexsort((cols, d, rows_of))
        first = np.searchsorted(rows_of, np.arange(r))
        out[start : start + r] = cols[order[first[:, None] + np.arange(k)]]
    return out


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
