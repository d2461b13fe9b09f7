"""Exception types shared across the package."""


class GradedTransformerError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GradedTransformerError, ValueError):
    """Operand shapes are incompatible."""


class ZeroMatrix(GradedTransformerError, ValueError):
    """Operation requires a nonzero matrix."""


class NotScalarRoot(GradedTransformerError, ValueError):
    """Backward pass requires a 1x1 root node."""


class NonFinite(GradedTransformerError, FloatingPointError):
    """A probed function value was NaN or infinite."""


class NegativeBaseFractionalGrade(GradedTransformerError, ValueError):
    """Scalar action base must be positive under fractional grades."""


class InvalidSpec(GradedTransformerError, ValueError):
    """Grading specification violates its invariants."""


class NonPositiveGrade(GradedTransformerError, ValueError):
    """Operation requires strictly positive grades."""


class TokenOutOfRange(GradedTransformerError, ValueError):
    """Token id outside the vocabulary."""


class SequenceTooLong(GradedTransformerError, ValueError):
    """Sequence exceeds the configured maximum length."""


class PositionOutOfRange(GradedTransformerError, ValueError):
    """Position index outside the valid range."""


class NotRowStochastic(GradedTransformerError, ValueError):
    """Matrix rows must be non-negative and sum to one."""


class ZeroAfterGrading(GradedTransformerError, ValueError):
    """Cannot normalize a vector that is zero after grading."""


class StepOutOfRange(GradedTransformerError, ValueError):
    """Training step outside [0, T]."""


class InvalidLambda(GradedTransformerError, ValueError):
    """Exponential base must exceed 1 for this operation."""


class DivergenceDetected(GradedTransformerError, RuntimeError):
    """Training produced a non-finite loss or parameter."""


class ConfigError(GradedTransformerError, ValueError):
    """Experiment configuration is invalid."""
