"""The graded loss family of one output vector."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonPositiveGrade, ProbabilityDomain
from .graded_space import as_grades, homogeneous_norm

CE_CLAMP = 1e-12

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
