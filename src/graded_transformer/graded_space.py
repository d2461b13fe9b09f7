"""Graded vector-space algebra: star action, grading matrices, the
homogeneous norm and the graded ReLU.

A grading tuple assigns a non-negative grade q_i to each feature dimension.
Linear grading scales dimension i by a + b*q_i, a positive weight;
exponential grading scales it by base**q_i with base > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NegativeBaseFractionalGrade,
    NonPositiveGrade,
)

LINEAR = "linear"
EXPONENTIAL = "exponential"
# names a config may give a weight map, as aliases of (a, b); abs_plus_one,
# |q| + 1, is plus_one on every grade as_grades admits (q >= 0)
NAMED_MAPS = {"plus_one": (1.0, 1.0), "abs_plus_one": (1.0, 1.0), "identity": (0.0, 1.0)}


@dataclass(frozen=True)
class WeightMap:
    """The map q -> a + b*q applied to grades in linear mode; the default
    (1, 1) is q + 1."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        for name in ("a", "b"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidSpec(f"weight_map.{name} must be finite, not {getattr(self, name)!r}")

    def node(self, q: ad.Node) -> ad.Node:
        """The map applied to a (1, d) grade node."""
        return ad.affine(q, self.a, self.b)

    @classmethod
    def from_json(cls, raw) -> "WeightMap":
        """A config's weight_map: {"affine": [a, b]} or a name of NAMED_MAPS."""
        if isinstance(raw, dict):
            return cls(*map(float, raw["affine"]))
        if raw not in NAMED_MAPS:
            raise InvalidSpec(f"unknown weight_map {raw!r}: not {{'affine': [a, b]}} "
                              f"nor one of {tuple(NAMED_MAPS)}")
        return cls(*NAMED_MAPS[raw])


@dataclass(frozen=True)
class GradingSpec:
    """How grades become diagonal scale factors.

    mode "linear": weights a + b*q_i of the weight map, requiring them > 0.
    mode "exponential": weights base**q_i, requiring a finite base > 1.
    """

    mode: str = LINEAR
    weight_map: WeightMap = field(default_factory=WeightMap)
    base: float = 2.0

    def node(self, q) -> ad.Node:
        """Weights for a (1, d) grade row q: an array or a node, fixed or
        learnable.  base**q is written exp(q ln base), so the grade
        derivative is exactly base**q ln base."""
        q = ad.wrap(q)
        if self.mode == LINEAR:
            return self.weight_map.node(q)
        if self.mode != EXPONENTIAL:
            raise InvalidSpec(f"unknown grading mode {self.mode!r}")
        if not 1.0 < self.base < np.inf:
            raise InvalidSpec(f"exponential base must be finite and exceed 1, got {self.base}")
        return ad.exp(ad.scale(q, float(np.log(self.base))))

    def weights(self, grades) -> np.ndarray:
        """Diagonal scale factors for the given grades, as a new 1-D array."""
        w = self.node(as_grades(grades).reshape(1, -1)).value[0]
        if not np.all(w > 0):  # a NaN weight fails too
            raise InvalidSpec("linear grading weights must be positive")
        return w


def as_grades(grades) -> np.ndarray:
    """Validate and return a grading tuple as a 1-D float64 array."""
    q = np.asarray(grades, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(q)):
        raise InvalidSpec("grades must be finite")
    if np.any(q < 0):
        raise InvalidSpec("grades must be non-negative")
    return q


def star_action(lam: float, grades, x) -> np.ndarray:
    """Scalar action: component i of x scaled by lam**q_i."""
    q = as_grades(grades)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != q.size:
        raise DimensionMismatch(f"star_action: x dim {x.shape[-1]} vs {q.size} grades")
    fractional = np.any(q != np.round(q))
    if lam <= 0 and fractional:
        raise NegativeBaseFractionalGrade(
            f"base {lam} with fractional grades is undefined"
        )
    if lam < 0:  # integral grades: sign(lam)**q_i * |lam|**q_i
        return np.sign(lam) ** np.round(q).astype(np.int64) * np.abs(lam) ** q * x
    return np.float_power(lam, q) * x


def grading_matrix(grades, spec: GradingSpec) -> np.ndarray:
    """Diagonal d x d matrix of grading weights."""
    return np.diag(spec.weights(grades))


def homogeneous_norm(grades, x) -> float:
    """Block norm (sum_j ||x_{d_j}||**(2(r-j+1)))**(1/r) over the r distinct
    grade values d_1 < ... < d_r; zero-norm blocks contribute 0."""
    q = as_grades(grades)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != q.size:
        raise DimensionMismatch(f"homogeneous_norm: {x.size} vs {q.size}")
    distinct = np.unique(q)  # ascending
    r = distinct.size
    total = 0.0
    for j, d in enumerate(distinct, start=1):
        block = x[q == d]
        nb = float(np.linalg.norm(block))
        if nb > 0.0:
            total += nb ** (2 * (r - j + 1))
    return float(total ** (1.0 / r))


def graded_relu(grades, x) -> np.ndarray:
    """Componentwise max{0, |x_i|**(1/q_i)}."""
    q = as_grades(grades)
    if np.any(q <= 0):
        raise NonPositiveGrade("graded_relu requires q_i > 0")
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    nonzero = ax > 0
    safe = np.where(nonzero, ax, 1.0)
    return np.where(nonzero, safe ** (1.0 / q), 0.0)


def effective_dimension(grades, delta: float) -> int:
    """Count of dimensions with grades within delta of the maximum."""
    q = as_grades(grades)
    return int(np.sum(q >= q.max() - delta))
