"""Numeric substrate: seeded randomness, BLAS sums, softmax, spectral norm.

All numeric state is carried by 2-D float64 numpy arrays.  Operations here
are pure; randomness is always drawn from an explicitly seeded `Rng`, never
from a global generator.

Sums over a short axis are BLAS products with a cached column of ones
(`row_sums`, `col_sums`), and row means products with a cached column of
1/n (`mean_column`): several times faster than `np.add.reduce` on the
model's shapes, and equal to it up to summation order and, for a mean,
the rounding of 1/n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ZeroMatrix

Matrix = np.ndarray  # 2-D float64, row-major

_F64 = np.dtype(np.float64)


class Rng:
    """Deterministic random stream, fully specified by its seed (PCG64)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.default_rng(self.seed)


@lru_cache(maxsize=256)
def _ones(n: int) -> np.ndarray:
    """A read-only (n, 1) column of ones, shared by every call with the same n."""
    ones = np.ones((n, 1))
    ones.flags.writeable = False
    return ones


@lru_cache(maxsize=256)
def mean_column(n: int) -> np.ndarray:
    """A read-only (n, 1) column of 1/n: x @ mean_column(n) holds the row
    means of an (.., n) array x."""
    col = np.full((n, 1), 1.0 / n)
    col.flags.writeable = False
    return col


def row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as an axis of length 1: x @ ones."""
    return x @ _ones(x.shape[-1])


def col_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the second-to-last axis, kept as an axis of length 1: ones^T @ x."""
    return _ones(x.shape[-2]).T @ x


def softmax_rows(m, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along `axis`, -1 (rows) or -2 (columns), stabilized by max
    subtraction.

    The one softmax of the package; the tape's attention node
    (`autodiff.attention_rows`) calls it too, on key-major scores, along
    -2, normalised in place: out is the score buffer itself.  For a
    stacked batch that buffer is a transposed view whose axis -2 is
    outermost in memory, so each pass runs along contiguous rows of all
    the other axes; the reduction and ufuncs follow the memory order
    whatever the view's axis order.  One buffer,
    out or a new array, holds shift, exponential and normalisation; the
    max is a ufunc reduction, the normaliser `row_sums` or `col_sums`.
    m is modified only when it is out.
    """
    if axis not in (-1, -2):
        raise ValueError(f"softmax_rows normalises along axis -1 or -2, not {axis}")
    if type(m) is not np.ndarray or m.dtype is not _F64:
        m = np.asarray(m, dtype=np.float64)
    e = np.subtract(m, np.maximum.reduce(m, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= row_sums(e) if axis == -1 else col_sums(e)
    return e


def spectral_norm(m: Matrix) -> float:
    """Largest singular value of m (np.linalg.norm(m, 2)); raises
    DimensionMismatch unless m is 2-D and ZeroMatrix for an all-zero input."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"spectral_norm needs a 2-D matrix, got ndim={m.ndim}")
    if not np.any(m):
        raise ZeroMatrix("spectral_norm of a zero matrix")
    return float(np.linalg.norm(m, 2))


def randn_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    """i.i.d. standard-normal matrix; bit-reproducible per seed."""
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"randn_matrix: rows={rows}, cols={cols}")
    return rng.generator.standard_normal((rows, cols))
