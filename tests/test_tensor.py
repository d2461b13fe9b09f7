import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import tensor
from graded_transformer.errors import DimensionMismatch, ZeroMatrix
from graded_transformer.tensor import Rng

from conftest import assert_close, out_of_place_softmax, same_bits


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_close(tensor.matmul(np.eye(2), a), a)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        assert_close(tensor.matmul(a, b), [[2.0], [4.0]])

    def test_ones_inner(self):
        k = 7
        out = tensor.matmul(np.ones((1, k)), np.ones((k, 1)))
        assert_close(out, [[float(k)]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tensor.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_random(self, rng):
        for _ in range(30):
            a = tensor.randn_matrix(rng, 4, 5)
            b = tensor.randn_matrix(rng, 5, 3)
            c = tensor.randn_matrix(rng, 3, 6)
            left = tensor.matmul(tensor.matmul(a, b), c)
            right = tensor.matmul(a, tensor.matmul(b, c))
            rel = np.linalg.norm(left - right) / np.linalg.norm(right)
            assert rel <= 1e-9


class TestSoftmaxRows:
    def test_symmetric_row(self):
        assert_close(tensor.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_log_prob_row_is_identity(self):
        row = np.log(np.array([[0.2, 0.3, 0.5]]))
        assert_close(tensor.softmax_rows(row), [[0.2, 0.3, 0.5]], tol=1e-15)

    def test_large_values_stable(self):
        assert_close(tensor.softmax_rows(np.array([[1000.0, 1000.0]])), [[0.5, 0.5]])

    def test_one_buffer_bitwise_and_input_untouched(self):
        m = np.random.default_rng(8).normal(0.0, 5.0, (3, 4, 7))
        m[0, 0] = -1e30  # a masked row
        before = m.copy()
        assert same_bits(tensor.softmax_rows(m), out_of_place_softmax(m))
        assert same_bits(m, before)

    @given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        p = tensor.softmax_rows(np.array(rows))
        assert np.all(p >= 0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


class TestSpectralNorm:
    def test_diag(self):
        assert abs(tensor.spectral_norm(np.diag([2.0, 1.0])) - 2.0) <= 1e-6

    def test_identity(self):
        assert abs(tensor.spectral_norm(np.eye(3)) - 1.0) <= 1e-6

    def test_grading_weights_diag(self):
        # abs-plus-one weights: top singular value is the largest weight
        q = np.array([0.3, 1.4, 0.9, 2.2])
        w = np.abs(q) + 1.0
        assert abs(tensor.spectral_norm(np.diag(w)) - w.max()) <= 1e-6

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            tensor.spectral_norm(np.zeros((3, 3)))

    def test_against_svd_oracle(self, rng):
        for i in range(20):
            m = tensor.randn_matrix(rng, 5, 4)
            est = tensor.spectral_norm(m, iters=300, seed=i)
            want = float(np.linalg.norm(m, 2))
            assert abs(est - want) / want <= 1e-6


class TestRandn:
    def test_seed_determinism(self):
        a = tensor.randn_matrix(Rng(99), 8, 8)
        b = tensor.randn_matrix(Rng(99), 8, 8)
        assert np.array_equal(a, b)

    def test_moments(self):
        # Monte-Carlo oracle: mean near 0, variance near 1
        samples = tensor.randn_matrix(Rng(7), 1000, 100)
        assert abs(samples.mean()) <= 0.02
        assert abs(samples.var() - 1.0) <= 0.02

    def test_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            tensor.randn_matrix(Rng(0), 0, 3)
