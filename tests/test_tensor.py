import numpy as np
import pytest

from mclkit import tensor
from mclkit.errors import ConvergenceError, ShapeMismatchError


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
        with pytest.raises(ValueError, match="non-finite"):
            tensor.mode_k_product(t, np.eye(1), 0)


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


class TestSvd:
    def test_diagonal(self):
        u, s, v = tensor.svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 5), rand(rng, 4)
        m = np.outer(a, b)
        _, s, _ = tensor.svd(m)
        assert abs(s[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-10
        assert np.all(s[1:] < 1e-10)

    def test_self_consistency_random(self):
        rng = np.random.default_rng(12)
        m = rand(rng, 5, 3)
        u, s, v = tensor.svd(m)
        assert np.max(np.abs(u @ np.diag(s) @ v.T - m)) < 1e-8
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-8
        assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-8
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(13)
        m = rand(rng, 64, 64)
        u, s, v = tensor.svd(m)
        rel = np.max(np.abs(u @ np.diag(s) @ v.T - m)) / np.max(np.abs(m))
        assert rel < 1e-8

    def test_sign_convention_reproducible(self):
        rng = np.random.default_rng(14)
        m = rand(rng, 6, 4)
        u1, _, v1 = tensor.svd(m)
        u2, _, v2 = tensor.svd(m.copy())
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        for j in range(u1.shape[1]):
            first = u1[np.abs(u1[:, j]) > 1e-12, j]
            assert first.size == 0 or first[0] >= 0


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
        with pytest.raises(ValueError):
            tensor.hosvd_factors(np.zeros((0, 2, 2)), (1, 1))
        with pytest.raises(ShapeMismatchError, match="mode 0"):
            tensor.hosvd_factors(np.zeros((3, 2, 2)), (5, 1))


def test_hosvd_svd_failure_is_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    samples = rand(np.random.default_rng(19), 3, 4, 3, 2)
    with pytest.raises(ConvergenceError):
        tensor.hosvd_factors(samples, (2, 2, 1))


@pytest.mark.parametrize("budget", [1, 8 * 7 * 12 * 3, 2**30])
def test_distance_blocks_match_whole_array_bitwise(monkeypatch, budget):
    rng = np.random.default_rng(20)
    a = rng.random((23, 4, 3)).astype(np.float32)
    b = rng.random((7, 4, 3)).astype(np.float32)
    fa, fb = a.reshape(23, -1).astype(np.float64), b.reshape(7, -1).astype(np.float64)
    whole = ((fa[:, None, :] - fb[None, :, :]) ** 2).sum(axis=2)
    monkeypatch.setattr(tensor, "_DIST_BLOCK_BYTES", budget)
    blocks = list(tensor._sq_dist_blocks(a, b))
    assert [start for start, _ in blocks] == list(range(0, 23, len(blocks[0][1])))
    assert all(d.dtype == np.float64 for _, d in blocks)
    assert np.concatenate([d for _, d in blocks]).tobytes() == whole.tobytes()
