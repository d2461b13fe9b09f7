"""Graded transformers: hierarchical feature priorities via diagonal
grading of features, attention, and losses, with linear or exponential
scaling, trained by grade-aware optimization."""

from . import autodiff, graded, graded_space, tasks, tensor, training
from . import transformer
from .graded import GradedModelConfig, forward
from .graded_space import EXPONENTIAL, LINEAR, GradingSpec, WeightMap
from .tensor import Matrix, Rng
from .training import TrainConfig, train
from .transformer import ModelConfig

__version__ = "0.1.0"

__all__ = [
    "autodiff", "graded", "graded_space", "tasks", "tensor",
    "training", "transformer",
    "GradedModelConfig", "GradingSpec", "WeightMap", "ModelConfig",
    "TrainConfig", "Matrix", "Rng",
    "LINEAR", "EXPONENTIAL",
    "forward", "train",
]
