"""Graded neurons, graded layers, and the graded loss family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NegativeWeightFractionalGrade,
    NonPositiveGrade,
    ProbabilityDomain,
)
from .graded_space import (
    as_grades,
    exp_activation,
    graded_relu,
    homogeneous_norm,
    signed_power,
)

CE_CLAMP = 1e-12


def _fractional(q: np.ndarray) -> bool:
    return bool(np.any(q != np.round(q)))


def additive_neuron(w, grades, b: float, x) -> float:
    """sum_i w_i**q_i * x_i + b; fractional grades demand positive weights."""
    q = as_grades(grades)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not (w.size == q.size == x.size):
        raise DimensionMismatch("additive_neuron: w, q, x lengths differ")
    if _fractional(q) and np.any(w[q != np.round(q)] <= 0):
        raise NegativeWeightFractionalGrade("w_i must be > 0 under fractional q_i")
    return float(np.sum(signed_power(w, q) * x) + b)


def multiplicative_neuron(w, grades, b: float, x) -> float:
    """prod_i (w_i * x_i)**q_i + b, computed in the log domain."""
    q = as_grades(grades)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not (w.size == q.size == x.size):
        raise DimensionMismatch("multiplicative_neuron: w, q, x lengths differ")
    factors = w * x
    active = q != 0  # zero grades contribute a factor of 1
    if np.any(factors[active] <= 0):
        if _fractional(q):
            raise DomainError("factors w_i*x_i must be > 0 under fractional grades")
        signs = np.prod(np.sign(factors[active]) ** np.round(q[active]).astype(np.int64))
        mags = np.exp(np.sum(q[active] * np.log(np.abs(factors[active]))))
        return float(signs * mags + b)
    if not np.any(active):
        return float(1.0 + b)
    return float(np.exp(np.sum(q[active] * np.log(factors[active]))) + b)


def _softplus(u: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(u))) + np.maximum(u, 0.0)


@dataclass
class GradedLayerParams:
    """One graded layer: y = g(W_eff x + b) with W_eff[j, i] = w[j, i]**q_i.

    Fractional grades require positive bases, enforced by a softplus
    reparameterization of the stored pre-weights.
    """

    weights: np.ndarray
    bias: np.ndarray
    grades: np.ndarray
    activation: str = "identity"  # identity | graded_relu | exp_graded
    positive_reparam: bool | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
        self.grades = as_grades(self.grades)
        n = self.grades.size
        if self.weights.shape != (self.bias.size, n):
            raise DimensionMismatch(
                f"layer weights {self.weights.shape} vs bias {self.bias.size}, grades {n}"
            )
        if self.positive_reparam is None:
            self.positive_reparam = _fractional(self.grades)
        if _fractional(self.grades) and not self.positive_reparam:
            raise NegativeWeightFractionalGrade(
                "fractional grades need the positive reparameterization"
            )

    def effective_weights(self) -> np.ndarray:
        base = _softplus(self.weights) if self.positive_reparam else self.weights
        return signed_power(base, self.grades)


def graded_layer_forward(params: GradedLayerParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != params.grades.size:
        raise DimensionMismatch(f"layer input {x.size} vs {params.grades.size}")
    pre = params.effective_weights() @ x + params.bias
    if params.activation == "identity":
        return pre
    if params.activation == "graded_relu":
        return graded_relu(params.grades, pre)
    if params.activation == "exp_graded":
        return exp_activation(params.grades, pre)
    raise ValueError(f"unknown activation {params.activation!r}")


# ---------------------------------------------------------------------------
# graded losses

MSE = "mse"
NORM = "norm"
HOMOGENEOUS = "homogeneous"
CROSS_ENTROPY = "cross_entropy"
MAX_GRADED = "max_graded"


def graded_loss(kind: str, grades, y, y_hat) -> float:
    """Grade-weighted loss between targets y and predictions y_hat."""
    q = as_grades(grades)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if not (y.size == y_hat.size == q.size):
        raise DimensionMismatch("graded_loss: y, y_hat, q lengths differ")
    err = y - y_hat
    if kind == MSE:
        if np.any(q <= 0):
            raise NonPositiveGrade("graded MSE requires q_i > 0")
        return float(np.sum(q * err * err) / q.size)
    if kind == NORM:
        if np.any(q <= 0):
            raise NonPositiveGrade("graded norm loss requires q_i > 0")
        return float(np.sum(q * err * err))
    if kind == HOMOGENEOUS:
        return homogeneous_norm(q, err)
    if kind == CROSS_ENTROPY:
        if np.any(y_hat <= 0) or np.any(y_hat > 1):
            raise ProbabilityDomain("predictions must lie in (0, 1]")
        return float(-np.sum(q * y * np.log(np.clip(y_hat, CE_CLAMP, 1.0))))
    if kind == MAX_GRADED:
        return float(np.max(np.sqrt(q) * np.abs(err)) ** 2)
    raise ValueError(f"unknown loss kind {kind!r}")
