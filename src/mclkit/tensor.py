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
# Working set that fits one core's L2, the one budget for every pass over
# rows: the float64 unfolding in hosvd_factors, the widest activation of an
# inference chunk (layers._forward_chunks), the float64 tiles and query blocks
# of the nearest-neighbour screen (_nearest), and the record blocks that the
# .mcld reader and writer stream (datasets).  What a pass holds above its
# input and output grows with this, not with the rows.
_CACHE_BYTES = 2 * 2**20


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
    # axes[i] is the axis of x that axis i of out holds: each product leaves
    # its mode last, and one transpose per mode takes out to the next order
    axes = tuple(range(x.ndim))
    for k, w in enumerate(ws):
        if w is None:
            continue
        order = tuple(a for a in range(x.ndim) if a != k + 1) + (k + 1,)
        moved = out.transpose(tuple(axes.index(a) for a in order))
        rows = math.prod(moved.shape[1:-1])
        flat = np.ascontiguousarray(moved).reshape(len(out), rows, w.shape[1])
        out = (flat @ w.T).reshape(moved.shape[:-1] + (w.shape[0],))
        axes = order
    return out.transpose(tuple(axes.index(a) for a in range(x.ndim)))


def _nearest(a, b, k) -> np.ndarray:
    """Indices of the ``k`` rows of ``b`` nearest to each row of ``a``, nearest
    first, a distance tie going to the lower index (``1 <= k <= len(b)``).

    Samples are flattened and compared by squared Euclidean distance in
    float64, ``((b - q) ** 2).sum(axis=1)`` for a query ``q``; the result is
    exactly a brute-force sort of those distances, then of the indices.  A
    float64 GEMM screens every pair first, ``|q|^2 + |b|^2 - 2 q.b``, within a
    rounding bound.  Neither side is converted to float64 whole: the screen
    runs over float64 tiles of rows of ``b`` and blocks of queries, each about
    half of ``_CACHE_BYTES``.  Each query keeps its ``k`` smallest upper
    bounds so far and the rows whose lower bound reaches the largest of them;
    only the rows left after the last tile get the exact distance, a budget of
    rows at a time.  The result depends neither on the budget nor on BLAS's
    summation order or thread count."""
    b = np.asarray(b).reshape(len(b), -1)
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
    # Half the budget holds a float64 tile of rows of b, the other half a block
    # of float64 queries and their three screen rows.
    width = min(n, max(1, _CACHE_BYTES // (16 * size)))
    rows = max(1, min(len(a), _CACHE_BYTES // (16 * (size + 3 * width + k))))
    screen, bound = np.empty((2, rows * width))
    merged = np.empty(rows * (k + width))
    best = np.full((len(a), k), np.inf)  # each query's k smallest upper bounds so far
    kept = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    # Tiles outside, so each tile is converted once.
    for t in range(0, n, width):
        tile = b[t : t + width].astype(np.float64, copy=False)
        sq_t = np.einsum("ij,ij->i", tile, tile)
        norm_t = np.sqrt(sq_t)
        for s in range(0, len(a), rows):
            q = a[s : s + rows].astype(np.float64, copy=False)
            sq_q = np.einsum("ij,ij->i", q, q)
            norm_q = np.sqrt(sq_q)
            if not np.isfinite((norm_q.max() + norm_t.max()) ** 2):
                raise NonFiniteError(
                    "non-finite values, or squared distances beyond float64")
            r, w = len(q), len(tile)
            approx = screen[: r * w].reshape(r, w)
            err = bound[: r * w].reshape(r, w)
            np.matmul(q, tile.T, out=approx)
            approx *= -2
            approx += sq_q[:, None]
            approx += sq_t
            np.add(norm_q[:, None], norm_t, out=err)
            np.square(err, out=err)
            err += 2.0**-1021
            err *= scale
            hi = merged[: r * (k + w)].reshape(r, k + w)
            hi[:, :k] = best[s : s + r]
            np.add(approx, err, out=hi[:, k:])
            hi.partition(k - 1, axis=1)
            best[s : s + r] = hi[:, :k]
            approx -= err
            rows_of, cols = np.nonzero(approx <= hi[:, k - 1 : k])
            kept.append((rows_of + s, cols + t, approx[rows_of, cols]))
        # At least k rows have an exact distance <= a query's k-th smallest
        # upper bound so far, so a row whose lower bound exceeds it is beaten
        # by k others, wherever either lies.  The bound only falls as tiles
        # pass, so dropping such rows after each tile keeps the k nearest.
        rows_of, cols, lower = (np.concatenate(part) for part in zip(*kept))
        near = lower <= best.max(axis=1)[rows_of]
        kept = [(rows_of[near], cols[near], lower[near])]
    rows_of, cols, _ = kept[0]
    d = np.empty(len(cols))
    step = max(1, _CACHE_BYTES // (16 * size))
    for i in range(0, len(cols), step):
        gathered = b[cols[i : i + step]].astype(np.float64, copy=False)
        queries = a[rows_of[i : i + step]].astype(np.float64, copy=False)
        d[i : i + step] = ((gathered - queries) ** 2).sum(axis=1)
    order = np.lexsort((cols, d, rows_of))
    first = np.searchsorted(rows_of[order], np.arange(len(a)))
    return cols[order[first[:, None] + np.arange(k)]]


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
    float64, in blocks that fit a core's L2 (``_CACHE_BYTES``, 2 MiB), so
    memory above the input stays bounded whatever the number of samples.
    Factors are float32 for float32 samples and float64 otherwise.  Projecting
    with these factors captures at least as much energy as any random
    orthonormal projection of the same size.
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
    rows = max(1, _CACHE_BYTES // (8 * size))
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
