import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import autodiff as ad
from graded_transformer import gnn
from graded_transformer import graded_space as gs
from graded_transformer import props
from graded_transformer import training
from graded_transformer.errors import NonPositiveGrade, ProbabilityDomain

from conftest import assert_close


class TestGradedLosses:
    def test_multiplier_examples(self):
        q = [0.0, 0.5, 1.0, 2.0]
        lgt = gs.GradingSpec(gs.LINEAR).weights(q)
        egt = gs.GradingSpec(gs.EXPONENTIAL, base=2.0).weights(q)
        assert_close(lgt, [1.0, 1.5, 2.0, 3.0], tol=1e-12)
        assert_close(egt, [1.0, np.sqrt(2.0), 2.0, 4.0], tol=1e-12)

    def test_zero_at_equal(self):
        q = [0.5, 1.0, 2.0]
        y = np.array([0.1, -0.7, 2.0])
        for kind in (gnn.MSE, gnn.NORM, gnn.HOMOGENEOUS, gnn.MAX_GRADED):
            assert gnn.graded_loss(kind, q, y, y) == 0.0

    def test_mse_star_scaling_identity(self):
        # L(lam*y, lam*yhat) = (1/n) sum q_i lam^(2 q_i) (y_i - yhat_i)^2
        g = np.random.default_rng(4)
        q = g.uniform(0.3, 2.0, 4)
        y, yh = g.normal(size=4), g.normal(size=4)
        lam = 1.3
        left = gnn.graded_loss(gnn.MSE, q, gs.star_action(lam, q, y),
                               gs.star_action(lam, q, yh))
        right = float(np.sum(q * lam ** (2 * q) * (y - yh) ** 2) / 4)
        assert abs(left - right) <= 1e-12

    def test_cross_entropy_domain(self):
        with pytest.raises(ProbabilityDomain):
            gnn.graded_loss(gnn.CROSS_ENTROPY, [1.0, 1.0], [1.0, 0.0], [1.2, -0.2])

    def test_mse_requires_positive_grades(self):
        with pytest.raises(NonPositiveGrade):
            gnn.graded_loss(gnn.MSE, [0.0, 1.0], [1.0, 0.0], [0.0, 0.0])

    @given(st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    def test_max_dominated_by_norm(self, q, y, yh):
        assert gnn.graded_loss(gnn.MAX_GRADED, q, y, yh) <= \
            gnn.graded_loss(gnn.NORM, q, y, yh) * (1 + 1e-12)

    def test_unit_grade_reduction(self):
        assert props.unit_grade_reduction_error(np.random.default_rng(9), 1) <= 1e-12

    def test_sequence_loss_binary_ce(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.8, 0.3]])
        w = np.array([[1.0, 2.0]])  # plus_one weights of grades (0, 1)
        with ad.recording(ad.Tape()):  # logits log(p / (1 - p)) give sigmoid p
            got = training.sequence_loss_node(ad.wrap(np.log(p / (1 - p))), y, ad.wrap(w),
                                              "sigmoid_ce").value[0, 0]
        want = -np.log(0.8) * 1.0 + -np.log(0.7) * 2.0
        assert abs(got - want) <= 1e-12
