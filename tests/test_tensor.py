import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import autodiff as ad
from graded_transformer import tensor
from graded_transformer.errors import DimensionMismatch, ZeroMatrix
from graded_transformer.tensor import Rng

from conftest import assert_close, assert_peak_close, blas_softmax, out_of_place_softmax, same_bits


class TestMatmul:
    """The package's one matrix product, ad.matmul: its values and shape
    check (tests/test_autodiff.py covers its gradients)."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_close(ad.matmul(np.eye(2), a).value, a)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0], [1.0]])
        assert_close(ad.matmul(a, b).value, [[2.0], [4.0]])

    def test_ones_inner(self):
        k = 7
        out = ad.matmul(np.ones((1, k)), np.ones((k, 1))).value
        assert_close(out, [[float(k)]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_random(self, rng):
        for _ in range(30):
            a = tensor.randn_matrix(rng, 4, 5)
            b = tensor.randn_matrix(rng, 5, 3)
            c = tensor.randn_matrix(rng, 3, 6)
            left = ad.matmul(ad.matmul(a, b), c).value
            right = ad.matmul(a, ad.matmul(b, c)).value
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
        # in place equals the out-of-place BLAS normaliser bit for bit, and
        # the np.add.reduce order to 1e-13 of its peak, along either axis
        m = np.random.default_rng(8).normal(0.0, 5.0, (3, 4, 7))
        m[0, 0] = -1e30  # a masked row
        m[1, :, 2] = -1e30  # a masked column
        before = m.copy()
        for axis in (-1, -2):
            p = tensor.softmax_rows(m, axis)
            assert same_bits(p, blas_softmax(m, axis))
            assert_peak_close(p, out_of_place_softmax(m, axis), 1e-13)
        assert same_bits(m, before)

    def test_columns_are_rows_of_the_transpose(self):
        m = np.random.default_rng(9).normal(0.0, 5.0, (2, 6, 5))
        cols = tensor.softmax_rows(m, axis=-2)
        assert_close(cols, tensor.softmax_rows(m.swapaxes(-1, -2)).swapaxes(-1, -2), tol=1e-15)
        assert_close(cols.sum(axis=-2), np.ones((2, 5)), tol=1e-15)

    def test_other_axes_rejected(self):
        with pytest.raises(ValueError):
            tensor.softmax_rows(np.zeros((2, 3, 4)), axis=0)

    @given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        p = tensor.softmax_rows(np.array(rows))
        assert np.all(p >= 0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12


class TestRowColSums:
    # the model's shapes: a LayerNorm input, one decode row, a score block
    # and an FFN hidden block
    SHAPES = [(512, 32), (1, 32), (16, 4, 32, 32), (32, 128), (3, 1)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_match_add_reduce(self, shape):
        x = np.random.default_rng(len(shape) + shape[-1]).normal(0.0, 1.0, shape)
        for got, axis in ((tensor.row_sums(x), -1), (tensor.col_sums(x), -2)):
            want = np.add.reduce(x, axis=axis, keepdims=True)
            scale = np.add.reduce(np.abs(x), axis=axis, keepdims=True)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-15 * scale), axis

    def test_ones_cached_and_read_only(self):
        ones = tensor._ones(7)
        assert ones is tensor._ones(7) and ones.shape == (7, 1)
        assert not ones.flags.writeable
        with pytest.raises(ValueError):
            ones[0, 0] = 2.0
        tensor.row_sums(np.ones((3, 7)))
        tensor.col_sums(np.ones((7, 3)))
        assert np.array_equal(ones, np.ones((7, 1)))


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
    def test_needs_a_matrix(self, shape):
        with pytest.raises(DimensionMismatch):
            tensor.spectral_norm(np.ones(shape))

    def test_against_svd_oracle(self, rng):
        # the largest eigenvalue of m^T m is sigma_max^2, and no unit vector
        # v has |m v| above sigma_max: the norm is no underestimate
        g = rng.generator
        for _ in range(20):
            m = tensor.randn_matrix(rng, 5, 4)
            est = tensor.spectral_norm(m)
            assert abs(est - np.sqrt(np.linalg.eigvalsh(m.T @ m)[-1])) <= 1e-12 * est
            v = g.normal(size=(4, 100))
            assert np.all(np.linalg.norm(m @ (v / np.linalg.norm(v, axis=0)), axis=0)
                          <= est * (1 + 1e-12))


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
