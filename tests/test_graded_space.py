import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import autodiff as ad
from graded_transformer import graded_space as gs
from graded_transformer.errors import (
    InvalidSpec,
    NegativeBaseFractionalGrade,
    NonPositiveGrade,
)

from conftest import assert_close

grades3 = st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3)
vec3 = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)


class TestStarAction:
    def test_identity_base(self):
        x = np.array([3.0, -1.0, 2.0])
        assert_close(gs.star_action(1.0, [0.5, 1.0, 2.0], x), x)

    def test_hand_case(self):
        assert_close(gs.star_action(2.0, [1.0, 2.0], [3.0, 4.0]), [6.0, 16.0])

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), grades3, vec3)
    def test_group_law(self, lam, mu, q, x):
        left = gs.star_action(lam * mu, q, np.array(x))
        right = gs.star_action(lam, q, gs.star_action(mu, q, np.array(x)))
        assert_close(left, right, tol=1e-10)

    def test_negative_base_integer_grades_ok(self):
        out = gs.star_action(-2.0, [1.0, 3.0], [1.0, 1.0])
        assert_close(out, [-2.0, -8.0])

    def test_negative_base_fractional_raises(self):
        with pytest.raises(NegativeBaseFractionalGrade):
            gs.star_action(-2.0, [0.5], [1.0])


class TestGradingMatrix:
    def test_abs_plus_one_example(self):
        spec = gs.GradingSpec(gs.LINEAR, gs.WeightMap("abs_plus_one"))
        m = gs.grading_matrix([1.0, 0.5, 0.0, 0.0], spec)
        assert_close(m, np.diag([2.0, 1.5, 1.0, 1.0]))

    def test_exponential(self):
        m = gs.grading_matrix([0.0, 1.0, 2.0], gs.GradingSpec(gs.EXPONENTIAL, base=2.0))
        assert_close(m, np.diag([1.0, 2.0, 4.0]), tol=1e-12)

    def test_zero_grades_exponential_identity(self):
        m = gs.grading_matrix(np.zeros(3), gs.GradingSpec(gs.EXPONENTIAL, base=7.0))
        assert np.array_equal(m, np.eye(3))

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            gs.GradingSpec(gs.EXPONENTIAL, base=1.0).weights([1.0])
        with pytest.raises(InvalidSpec):
            gs.GradingSpec(gs.LINEAR, gs.WeightMap("identity")).weights([0.0, 1.0])
        with pytest.raises(InvalidSpec):
            gs.GradingSpec(gs.LINEAR, gs.affine_map(1.0, -1.0)).weights([0.5, 1.0])
        with pytest.raises(InvalidSpec):
            gs.GradingSpec("cubic").weights([1.0])
        with pytest.raises(InvalidSpec):
            gs.WeightMap("bogus")

    @given(grades3, st.floats(0.2, 3.0), vec3)
    def test_grading_commutes_with_star(self, q, lam, x):
        spec = gs.GradingSpec(gs.LINEAR, gs.WeightMap("plus_one"))
        m = gs.grading_matrix(q, spec)
        assert_close(m @ gs.star_action(lam, q, np.array(x)),
                     gs.star_action(lam, q, m @ np.array(x)), tol=1e-10)


class TestNorms:
    def test_two_grade_homogeneous_form(self):
        # grades (2, 3): ( ||e_2||^4 + ||e_3||^2 )^(1/2)
        q = [2.0, 2.0, 3.0]
        x = np.array([0.3, 0.4, 0.7])
        want = (np.hypot(0.3, 0.4) ** 4 + 0.7**2) ** 0.5
        assert abs(gs.homogeneous_norm(q, x) - want) <= 1e-12

    def test_zero_vector(self):
        assert gs.homogeneous_norm([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_unit_grades(self):
        x = np.array([3.0, 4.0])
        # r = 1: (||x||^2)^(1/1)
        assert abs(gs.homogeneous_norm([1.0, 1.0], x) - 25.0) <= 1e-12


class TestGradedRelu:
    def test_square_root_case(self):
        assert_close(gs.graded_relu([2.0], [4.0]), [2.0])

    def test_zero_input(self):
        assert_close(gs.graded_relu([1.7, 0.4], [0.0, 0.0]), [0.0, 0.0])

    @given(st.floats(0.25, 4.0), st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
           vec3)
    def test_homogeneity(self, lam, q, x):
        scaled = gs.star_action(lam, q, np.array(x))
        assert_close(gs.graded_relu(q, scaled), abs(lam) * gs.graded_relu(q, np.array(x)),
                     tol=1e-10)

    def test_homogeneity_negative_base_integer_grades(self):
        q = [1.0, 2.0]
        x = np.array([0.7, -1.3])
        lam = -1.5
        scaled = gs.star_action(lam, q, x)
        assert_close(gs.graded_relu(q, scaled), abs(lam) * gs.graded_relu(q, x), tol=1e-10)

    def test_requires_positive_grades(self):
        with pytest.raises(NonPositiveGrade):
            gs.graded_relu([0.0], [1.0])


def test_effective_dimension():
    q = [0.0, 0.5, 1.0, 2.0]
    assert gs.effective_dimension(q, 0.25) == 1
    assert gs.effective_dimension(q, 1.0) == 2
    assert gs.effective_dimension(q, 2.0) == 4


ALL_SPECS = [gs.GradingSpec(gs.LINEAR, gs.WeightMap("plus_one")),
             gs.GradingSpec(gs.LINEAR, gs.WeightMap("abs_plus_one")),
             gs.GradingSpec(gs.LINEAR, gs.WeightMap("identity")),
             gs.GradingSpec(gs.LINEAR, gs.affine_map(1.0, 0.1)),
             gs.GradingSpec(gs.EXPONENTIAL, base=1.3),
             gs.GradingSpec(gs.EXPONENTIAL, base=2.0),
             gs.GradingSpec(gs.EXPONENTIAL, base=3.7)]


def spec_id(spec):
    return spec.weight_map.name if spec.mode == gs.LINEAR else f"exp{spec.base}"


def closed_form(spec, q):
    if spec.mode == gs.EXPONENTIAL:
        return np.exp(q * np.log(spec.base))
    wm = spec.weight_map
    return {"plus_one": q + 1.0, "abs_plus_one": np.abs(q) + 1.0, "identity": q,
            "affine": wm.a + wm.b * q}[wm.name]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_weights_match_closed_form(spec):
    q = np.array([0.25, 0.7, 1.5, 2.0, 3.25])  # positive, as identity needs
    assert np.array_equal(spec.weights(q), closed_form(spec, q))
    tape = ad.Tape()
    with ad.recording(tape):  # a learnable row gives the same values
        node = spec.node(tape.param("q", q.reshape(1, -1)))
    assert np.array_equal(node.value[0], closed_form(spec, q))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=spec_id)
def test_weights_are_a_new_array(spec):
    q = np.array([0.5, 1.0, 2.0])
    w = spec.weights(q)
    w[:] = -7.0
    assert np.array_equal(q, [0.5, 1.0, 2.0])
