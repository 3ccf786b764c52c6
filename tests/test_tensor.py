import numpy as np
import pytest

from mclkit import tensor
from mclkit.errors import ConvergenceError, NonFiniteError, ShapeMismatchError


def rand(rng, *shape):
    return rng.normal(size=shape)


class TestModeKProduct:
    def test_identity_factor_is_identity(self):
        rng = np.random.default_rng(0)
        t = rand(rng, 3, 4, 5)
        out = tensor.mode_k_product(t, np.eye(3), 0)
        assert np.array_equal(out, t)

    def test_hand_computed_contraction(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = np.array([[1.0, 1.0]])
        out = tensor.mode_k_product(t, w, 0)
        # brute-force sum over the contracted mode
        expected = np.zeros((1, 2))
        for j in range(1):
            for i2 in range(2):
                expected[j, i2] = sum(t[i1, i2] * w[j, i1] for i1 in range(2))
        assert np.array_equal(out, expected)
        assert np.array_equal(out, np.array([[4.0, 6.0]]))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        t = rand(rng, 4, 3, 2)
        ws = [rand(rng, 2, 4), rand(rng, 3, 3), rand(rng, 2, 2)]
        out = t
        for k, w in enumerate(ws):
            out = tensor.mode_k_product(out, w, k)
        oracle = tensor.kron_chain(ws) @ tensor.vectorize(t)
        assert np.max(np.abs(tensor.vectorize(out) - oracle)) < 1e-6

    def test_shape_mismatch_names_mode(self):
        t = np.zeros((3, 4))
        with pytest.raises(ShapeMismatchError, match="mode 1"):
            tensor.mode_k_product(t, np.zeros((2, 3)), 1)

    def test_mode_out_of_range(self):
        with pytest.raises(ShapeMismatchError, match="mode 5"):
            tensor.mode_k_product(np.zeros((2, 2)), np.eye(2), 5)

    def test_rejects_non_finite(self):
        t = np.array([[1.0, np.nan]])
        with pytest.raises(NonFiniteError, match="non-finite"):
            tensor.mode_k_product(t, np.eye(1), 0)
        with pytest.raises(NonFiniteError, match="non-finite"):
            tensor.mode_k_product(np.ones((1, 2)), np.array([[np.inf]]), 0)


class TestMultiModeProduct:
    def test_all_identity(self):
        rng = np.random.default_rng(2)
        t = rand(rng, 4, 3, 2)
        out = tensor.multi_mode_product(t, [np.eye(4), np.eye(3), np.eye(2)])
        assert np.array_equal(out, t)

    def test_reference_configuration_shapes(self):
        rng = np.random.default_rng(3)
        t = rand(rng, 32, 32, 3)
        ws = [rand(rng, 6, 32), rand(rng, 6, 32), rand(rng, 1, 3)]
        assert tensor.multi_mode_product(t, ws).shape == (6, 6, 1)

    def test_mode_order_commutes(self):
        rng = np.random.default_rng(4)
        t = rand(rng, 5, 4, 3)
        ws = [rand(rng, 2, 5), rand(rng, 3, 4), rand(rng, 2, 3)]
        seq = tensor.multi_mode_product(t, ws)
        permuted = t
        for k in (2, 0, 1):
            permuted = tensor.mode_k_product(permuted, ws[k], k)
        assert np.max(np.abs(seq - permuted)) < 1e-10

    def test_per_mode_mismatch_rejected(self):
        t = np.zeros((3, 4, 5))
        ws = [np.zeros((2, 3)), np.zeros((2, 9)), np.zeros((1, 5))]
        with pytest.raises(ShapeMismatchError, match="mode 1"):
            tensor.multi_mode_product(t, ws)

    def test_kron_equivalence_invariant(self):
        # quantified version of the vectorization identity on random shapes
        rng = np.random.default_rng(5)
        for _ in range(25):
            shape = tuple(rng.integers(1, 7, size=rng.integers(2, 4)))
            t = rand(rng, *shape)
            ws = [rand(rng, int(rng.integers(1, 7)), d) for d in shape]
            lhs = tensor.vectorize(tensor.multi_mode_product(t, ws))
            rhs = tensor.kron_chain(ws) @ tensor.vectorize(t)
            scale = max(np.max(np.abs(rhs)), 1e-12)
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-6


class TestVectorize:
    def test_row_major_order(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = tensor.vectorize(t)
        assert v.shape == (4,)
        assert np.array_equal(v, [1.0, 2.0, 3.0, 4.0])  # last index fastest

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        t = rand(rng, 3, 4, 2)
        assert np.array_equal(tensor.vectorize(t).reshape(t.shape), t)

    def test_kron_identity_on_3x3x2(self):
        rng = np.random.default_rng(7)
        t = rand(rng, 3, 3, 2)
        ws = [rand(rng, 2, 3), rand(rng, 2, 3), rand(rng, 1, 2)]
        lhs = tensor.vectorize(tensor.multi_mode_product(t, ws))
        rhs = tensor.kron_chain(ws) @ tensor.vectorize(t)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestKron:
    def test_identity_blocks(self):
        assert np.array_equal(tensor.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_hand_expansion(self):
        out = tensor.kron(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]]))
        assert np.array_equal(out, np.array([[0.0, 1.0, 0.0, 2.0]]))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(8)
        a, b = rand(rng, 3, 4), rand(rng, 2, 5)
        x, y = rand(rng, 4), rand(rng, 5)
        lhs = tensor.kron(a, b) @ np.kron(x, y)
        rhs = np.kron(a @ x, b @ y)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestUnfold:
    def test_matrix_unfolds_to_itself(self):
        t = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(tensor.mode_k_unfold(t, 0), t)

    def test_fold_roundtrip(self):
        rng = np.random.default_rng(9)
        t = rand(rng, 3, 4, 2)
        for k in range(3):
            m = tensor.mode_k_unfold(t, k)
            assert np.array_equal(tensor.mode_k_fold(m, k, t.shape), t)

    def test_commutes_with_mode_product(self):
        rng = np.random.default_rng(10)
        t = rand(rng, 3, 4, 2)
        w = rand(rng, 5, 4)
        lhs = tensor.mode_k_unfold(tensor.mode_k_product(t, w, 1), 1)
        rhs = w @ tensor.mode_k_unfold(t, 1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_mode_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            tensor.mode_k_unfold(np.zeros((2, 2)), 4)


class TestHosvdFactors:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(15)
        a, b, c = rand(rng, 6), rand(rng, 5), rand(rng, 3)
        t = np.einsum("i,j,k->ijk", a, b, c)
        factors = tensor.hosvd_factors([t] * 4, (1, 1, 1))
        for f, vec in zip(factors, (a, b, c)):
            unit = vec / np.linalg.norm(vec)
            assert min(np.linalg.norm(f[0] - unit), np.linalg.norm(f[0] + unit)) < 1e-8

    def test_full_dims_reconstruct(self):
        rng = np.random.default_rng(16)
        samples = rand(rng, 5, 4, 3, 2)
        factors = tensor.hosvd_factors(samples, (4, 3, 2))
        for s in samples:
            z = tensor.multi_mode_product(s, factors)
            back = tensor.multi_mode_product(z, [f.T for f in factors])
            assert np.max(np.abs(back - s)) < 1e-6

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(14)
        samples = rand(rng, 6, 5, 4, 2)
        first = tensor.hosvd_factors(samples, (3, 2, 2))
        for f, again in zip(first, tensor.hosvd_factors(samples.copy(), (3, 2, 2))):
            assert np.array_equal(f, again)
            for row in f:
                lead = row[np.abs(row) > 1e-12]
                assert lead.size == 0 or lead[0] >= 0

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(17)
        samples = rand(rng, 10, 8, 8, 3)
        for f in tensor.hosvd_factors(samples, (4, 4, 1)):
            gram = f @ f.T
            assert np.max(np.abs(gram - np.eye(f.shape[0]))) < 1e-8

    def test_beats_random_orthonormal_projections(self):
        rng = np.random.default_rng(18)
        samples = rand(rng, 20, 8, 8, 3)
        factors = tensor.hosvd_factors(samples, (4, 4, 1))

        def recon_err(fs):
            err = 0.0
            for s in samples:
                z = tensor.multi_mode_product(s, fs)
                back = tensor.multi_mode_product(z, [f.T for f in fs])
                err += float(np.sum((back - s) ** 2))
            return err

        hosvd_err = recon_err(factors)
        for _ in range(10):
            randoms = []
            for target, dim in zip((4, 4, 1), (8, 8, 3)):
                q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                randoms.append(q[:, :target].T)
            assert hosvd_err <= recon_err(randoms) + 1e-9

    def test_errors(self):
        with pytest.raises(ShapeMismatchError):
            tensor.hosvd_factors(np.zeros((0, 2, 2)), (1, 1))
        with pytest.raises(ShapeMismatchError, match="mode 0"):
            tensor.hosvd_factors(np.zeros((3, 2, 2)), (5, 1))

    def test_matches_svd_of_unfoldings(self):
        # Each mode gets distinct scales under a random rotation, so every
        # spectrum is well separated and the singular vectors are well defined.
        rng = np.random.default_rng(21)
        shape = (6, 5, 4)
        samples = rng.normal(size=(40,) + shape)
        for k, dim in enumerate(shape):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            samples = np.moveaxis(
                np.moveaxis(samples, k + 1, -1) * np.arange(dim, 0, -1.0) @ q.T, -1, k + 1
            )
        factors = tensor.hosvd_factors(samples, (3, 2, 2))
        for k, f in enumerate(factors):
            u, _, _ = np.linalg.svd(np.moveaxis(samples, k + 1, 0).reshape(shape[k], -1))
            for row, ref in zip(f, u.T):
                assert min(np.max(np.abs(row - ref)), np.max(np.abs(row + ref))) < 1e-8

    def test_rank_deficient_input(self):
        # Rank 1 with two rows per factor: the second eigenvalue is a repeated
        # zero, so the second row may differ from the SVD's, but any choice is
        # orthonormal and loses no energy.
        rng = np.random.default_rng(22)
        a, b, c = rand(rng, 6), rand(rng, 5), rand(rng, 3)
        samples = np.einsum("n,i,j,k->nijk", rand(rng, 4), a, b, c)
        factors = tensor.hosvd_factors(samples, (2, 2, 2))
        refs = []
        for k, f in enumerate(factors):
            u, _, _ = np.linalg.svd(np.moveaxis(samples, k + 1, 0).reshape(f.shape[1], -1))
            refs.append(u[:, :2].T)
            assert np.max(np.abs(f @ f.T - np.eye(2))) < 1e-9
            assert min(np.max(np.abs(f[0] - u[:, 0])), np.max(np.abs(f[0] + u[:, 0]))) < 1e-9

        def recon_err(fs):
            back = (tensor.multi_mode_product(tensor.multi_mode_product(s, fs), [f.T for f in fs])
                    for s in samples)
            return sum(float(np.sum((b - s) ** 2)) for b, s in zip(back, samples))

        assert abs(recon_err(factors) - recon_err(refs)) < 1e-9

    def test_block_budget_does_not_change_result(self, monkeypatch):
        samples = rand(np.random.default_rng(23), 30, 6, 5, 4)
        results = []
        for budget in (1, 2**30):  # one sample per block, then all in one
            monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
            results.append(tensor.hosvd_factors(samples, (3, 2, 2)))
        for small, whole in zip(*results):
            assert np.max(np.abs(small - whole)) < 1e-12

    def test_non_finite_in_later_block(self, monkeypatch):
        samples = rand(np.random.default_rng(24), 5, 4, 3, 2)
        samples[-1, 0, 0, 0] = np.nan
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 1)
        with pytest.raises(NonFiniteError, match="non-finite"):
            tensor.hosvd_factors(samples, (2, 2, 1))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_gram_overflow_is_value_error(self):
        with pytest.raises(NonFiniteError, match="overflows"):
            tensor.hosvd_factors(np.full((2, 3, 3), 1e200), (1, 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_dtype_follows_samples(self, dtype):
        samples = rand(np.random.default_rng(25), 5, 4, 3, 2).astype(dtype)
        for f in tensor.hosvd_factors(samples, (2, 2, 1)):
            assert f.dtype == dtype and f.flags.c_contiguous


def test_hosvd_svd_failure_is_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    samples = rand(np.random.default_rng(19), 3, 4, 3, 2)
    with pytest.raises(ConvergenceError):
        tensor.hosvd_factors(samples, (2, 2, 1))


def _brute_nearest(a, b, k):
    """Every query against every row: sort the float64 distances, then the
    indices, and keep the first ``k``."""
    fb = b.reshape(len(b), -1).astype(np.float64)
    index = np.arange(len(b))
    return np.array([np.lexsort((index, ((fb - q) ** 2).sum(axis=1)))[:k]
                     for q in a.reshape(len(a), -1).astype(np.float64)],
                    dtype=np.intp).reshape(len(a), k)


@pytest.mark.parametrize("budget", [1, 8 * 7 * 12 * 3, 2**30])
def test_distance_blocks_match_whole_array_bitwise(monkeypatch, budget):
    rng = np.random.default_rng(20)
    a = rng.random((23, 4, 3)).astype(np.float32)
    b = rng.random((7, 4, 3)).astype(np.float32)
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
    for k in (1, 3, 7):
        got = tensor._nearest(a, b, k)
        assert got.dtype == np.intp
        assert np.array_equal(got, _brute_nearest(a, b, k))


def _nearest_cases():
    rng = np.random.default_rng(21)
    grid = rng.integers(0, 3, size=(60, 5)).astype(np.float32)
    rows = rng.random((30, 5))
    repeated = np.concatenate([rows, rows[::-1], rows[:7]])
    # Integers plus an offset in [600, 1000): the sums and all their
    # differences are exact, so the distances tie exactly as on the grid, while
    # |q|^2 and |b|^2 are 1e6 times larger and round.
    far = rng.uniform(600, 1000, size=5) + grid.astype(np.float64)
    # The same scaled by 2^-530: the distances are exact subnormals, and the
    # relative part of the screen's bound underflows to 0.
    tiny = 2.0**-530 * far
    return {
        # few distinct distances, so most neighbour ranks are exact ties
        "quantised": (grid[:20], grid[20:]),
        "duplicated": (rng.random((20, 5)), repeated),
        "queries_are_rows": (repeated[::3], repeated),
        "far_from_origin": (far[:20], far[20:]),
        "near_underflow": (tiny[:20], tiny[20:]),
    }


@pytest.mark.parametrize("case", sorted(_nearest_cases()))
def test_nearest_matches_brute_force_on_ties_and_cancellation(monkeypatch, case):
    a, b = _nearest_cases()[case]
    for budget in (1, 2**30):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", budget)
        for k in (1, 4, len(b)):
            assert np.array_equal(tensor._nearest(a, b, k), _brute_nearest(a, b, k))


def test_nearest_of_no_queries_is_empty():
    got = tensor._nearest(np.empty((0, 4, 3)), np.ones((5, 4, 3)), 2)
    assert got.shape == (0, 2) and got.dtype == np.intp


@pytest.mark.parametrize("side", ["queries", "rows"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nearest_rejects_non_finite(side, value):
    a, b = np.ones((4, 3)), np.zeros((6, 3))
    {"queries": a, "rows": b}[side][-1, 1] = value
    with pytest.raises(NonFiniteError, match="non-finite"):
        tensor._nearest(a, b, 2)
