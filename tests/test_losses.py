import math

import numpy as np
import pytest

from mclkit.errors import ShapeMismatchError
from mclkit.losses import cross_entropy, l1_loss, softmax, symmetric_kl


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = cross_entropy(np.zeros(10), 3)
        assert abs(loss - math.log(10)) < 1e-12
        assert abs(loss - 2.302585093) < 1e-6
        expected = np.full(10, 0.1)
        expected[3] -= 1
        assert np.max(np.abs(grad - expected)) < 1e-12

    def test_saturated_margin(self):
        logits = np.zeros(5)
        logits[2] = 30.0
        loss, _ = cross_entropy(logits, 2)
        assert loss < 1e-9

    def test_matches_direct_softmax_log_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=7)
        label = 4
        loss, grad = cross_entropy(logits, label)
        probs = np.exp(logits) / np.exp(logits).sum()
        assert abs(loss - (-np.log(probs[label]))) < 1e-8
        onehot = np.eye(7)[label]
        assert np.max(np.abs(grad - (probs - onehot))) < 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=9)
        base, _ = cross_entropy(logits, 2)
        shifted, _ = cross_entropy(logits + 123.456, 2)
        assert abs(base - shifted) < 1e-9

    def test_batched_mean_and_grad_scale(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 1, 2, 3])
        loss, grad = cross_entropy(logits, labels)
        singles = [cross_entropy(logits[i], labels[i]) for i in range(4)]
        assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
        for i in range(4):
            assert np.max(np.abs(grad[i] * 4 - singles[i][1])) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            cross_entropy(np.zeros(3), 7)


class TestSymmetricKl:
    def test_identical_logits_zero(self):
        z = np.array([0.3, -1.0, 2.0])
        loss, ga, gb = symmetric_kl(z, z.copy())
        assert loss <= 1e-10
        assert np.max(np.abs(ga)) < 1e-12 and np.max(np.abs(gb)) < 1e-12

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        l1, _, _ = symmetric_kl(a, b)
        l2, _, _ = symmetric_kl(b, a)
        assert l1 == l2  # bitwise, by construction

    def test_two_term_oracle(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        loss, _, _ = symmetric_kl(np.log(p), np.log(q))
        oracle = float(
            np.sum(p * (np.log(p) - np.log(q))) + np.sum(q * (np.log(q) - np.log(p)))
        )
        assert abs(loss - oracle) < 1e-8

    def test_non_negative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            loss, _, _ = symmetric_kl(rng.normal(size=5), rng.normal(size=5))
            assert loss >= 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            symmetric_kl(np.zeros(3), np.zeros(4))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=5), rng.normal(size=5)
        _, ga, gb = symmetric_kl(a, b)
        step = 1e-6
        for i in range(5):
            for vec, grad in ((a, ga), (b, gb)):
                keep = vec[i]
                vec[i] = keep + step
                lp = symmetric_kl(a, b)[0]
                vec[i] = keep - step
                lm = symmetric_kl(a, b)[0]
                vec[i] = keep
                num = (lp - lm) / (2 * step)
                assert abs(num - grad[i]) < 1e-6


class TestL1Loss:
    def test_identical_inputs(self):
        x = np.arange(6.0).reshape(2, 3)
        loss, ga, gb = l1_loss(x, x.copy())
        assert loss == 0
        assert np.all(ga == 0) and np.all(gb == 0)  # sign(0) := 0

    def test_direct_definition(self):
        loss, _, _ = l1_loss(np.array([1.0, 1.0]), np.array([0.0, 3.0]))
        assert loss == 1.5

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        loss, ga, gb = l1_loss(a, b)
        assert abs(loss - np.abs(a - b).mean()) < 1e-8
        assert np.max(np.abs(ga - np.sign(a - b) / a.size)) < 1e-12
        assert np.array_equal(gb, -ga)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            l1_loss(np.zeros(3), np.zeros(4))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    p = softmax(rng.normal(size=(5, 8)) * 10)
    assert np.max(np.abs(p.sum(axis=1) - 1)) < 1e-6
    assert np.all(p >= 0)
