import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import autodiff as ad
from graded_transformer import gnn
from graded_transformer import graded_space as gs
from graded_transformer import props
from graded_transformer import training
from graded_transformer.errors import (
    DimensionMismatch,
    DomainError,
    NegativeWeightFractionalGrade,
    NonPositiveGrade,
    ProbabilityDomain,
)

from conftest import assert_close


class TestAdditiveNeuron:
    def test_unit_grades_is_affine(self):
        w, x = [0.5, -1.0, 2.0], [1.0, 2.0, 3.0]
        got = gnn.additive_neuron(w, [1.0, 1.0, 1.0], 0.25, x)
        assert abs(got - (np.dot(w, x) + 0.25)) <= 1e-12

    def test_fractional_grade_case(self):
        assert gnn.additive_neuron([4.0], [0.5], 1.0, [3.0]) == pytest.approx(7.0)

    def test_zero_input_gives_bias(self):
        assert gnn.additive_neuron([2.0, 3.0], [1.0, 2.0], -0.5, [0.0, 0.0]) == -0.5

    def test_fractional_negative_weight_raises(self):
        with pytest.raises(NegativeWeightFractionalGrade):
            gnn.additive_neuron([-1.0], [0.5], 0.0, [1.0])


class TestMultiplicativeNeuron:
    def test_zero_grades(self):
        assert gnn.multiplicative_neuron([2.0, 5.0], [0.0, 0.0], 0.5, [1.0, 9.0]) == 1.5

    def test_hand_case(self):
        got = gnn.multiplicative_neuron([2.0, 3.0], [1.0, 2.0], 0.0, [1.0, 1.0])
        assert got == pytest.approx(18.0)

    @given(st.floats(0.5, 2.0),
           st.lists(st.floats(0.25, 2.0), min_size=3, max_size=3),
           st.lists(st.floats(0.2, 2.0), min_size=3, max_size=3))
    def test_scaling_law(self, lam, q, x):
        # beta(lam * x) = lam**(sum q_i^2) * beta(x) for zero bias
        w = [1.3, 0.7, 1.1]
        scaled = gs.star_action(lam, q, np.array(x))
        left = gnn.multiplicative_neuron(w, q, 0.0, scaled)
        right = lam ** np.sum(np.square(q)) * gnn.multiplicative_neuron(w, q, 0.0, x)
        assert abs(left - right) <= 1e-8 * max(1.0, abs(right))

    def test_negative_factor_integer_grades(self):
        # (-2)**1 * 3**2 = -18, through the sign branch
        got = gnn.multiplicative_neuron([-2.0, 3.0], [1.0, 2.0], 0.25, [1.0, 1.0])
        assert got == pytest.approx(-18.0 + 0.25, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gnn.multiplicative_neuron([1.0, 1.0], [0.5, 1.5], 0.0, [-1.0, 1.0])
        with pytest.raises(DomainError):  # the negative factor sits under the fractional grade
            gnn.multiplicative_neuron([1.0, -1.0], [2.0, 0.5], 0.0, [1.0, 1.0])


class TestGradedLayer:
    def test_identity_activation_unit_grades(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = gnn.GradedLayerParams(w, [0.1, -0.2], [1.0, 1.0])
        assert_close(gnn.graded_layer_forward(params, [1.0, 1.0]),
                     w @ [1.0, 1.0] + [0.1, -0.2])

    def test_single_neuron_matches_additive(self):
        w = np.array([[2.0, 3.0]])
        q = [1.0, 2.0]
        # layer grading applies per input column, like the standalone neuron
        got = gnn.graded_layer_forward(
            gnn.GradedLayerParams(w, [0.5], q), np.array([1.0, 1.5]))[0]
        want = gnn.additive_neuron(w[0], q, 0.5, [1.0, 1.5])
        assert abs(got - want) <= 1e-12

    def test_two_layer_composition(self):
        g = np.random.default_rng(0)
        q = [1.0, 2.0]
        l1 = gnn.GradedLayerParams(g.uniform(0.5, 1.5, (2, 2)), g.normal(size=2), q,
                                   activation="exp_graded")
        l2 = gnn.GradedLayerParams(g.uniform(0.5, 1.5, (2, 2)), g.normal(size=2), q)
        x = np.array([0.3, -0.4])
        composed = gnn.graded_layer_forward(l2, gnn.graded_layer_forward(l1, x))
        hidden = gs.exp_activation(q, l1.effective_weights() @ x + l1.bias)
        want = l2.effective_weights() @ hidden + l2.bias
        assert_close(composed, want, tol=1e-12)

    def test_fractional_grades_need_reparam(self):
        with pytest.raises(NegativeWeightFractionalGrade):
            gnn.GradedLayerParams(np.ones((2, 2)), np.zeros(2), [0.5, 1.0],
                                  positive_reparam=False)

    def test_positive_reparam_is_softplus_power(self):
        w = np.array([[-30.0, -1.0, 0.0], [0.5, 2.0, 40.0]])
        q = np.array([0.5, 1.0, 1.5])
        params = gnn.GradedLayerParams(w, np.zeros(2), q)
        assert params.positive_reparam
        assert_close(params.effective_weights(), np.log1p(np.exp(w)) ** q, tol=1e-12)

    def test_layer_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch):
            gnn.GradedLayerParams(np.ones((2, 3)), np.zeros(2), [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            gnn.GradedLayerParams(np.ones((2, 2)), np.zeros(3), [1.0, 2.0])

    def test_graded_relu_activation_dispatch(self):
        q = [2.0, 2.0]
        params = gnn.GradedLayerParams(np.eye(2), np.zeros(2), q,
                                       activation="graded_relu")
        out = gnn.graded_layer_forward(params, [4.0, -9.0])
        assert_close(out, gs.graded_relu(q, [4.0, -9.0]))


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
