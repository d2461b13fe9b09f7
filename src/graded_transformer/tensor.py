"""Dense linear-algebra and randomness substrate.

All numeric state is carried by 2-D float64 numpy arrays.  Operations here
are pure; randomness is always drawn from an explicitly seeded `Rng`, never
from a global generator.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroMatrix

Matrix = np.ndarray  # 2-D float64, row-major


def as_matrix(data) -> Matrix:
    """Coerce input to a 2-D float64 array (1-D input becomes a row)."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D data, got ndim={m.ndim}")
    return m


class Rng:
    """Deterministic random stream, fully specified by its seed (PCG64)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.default_rng(self.seed)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product; raises DimensionMismatch on bad inner dims."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matmul: {a.shape} x {b.shape}")
    return a @ b


def softmax_rows(m) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction.

    The one softmax of the package; the tape's softmax and attention nodes
    call it too.  One buffer holds shift, exponential and normalisation,
    with direct ufunc reductions for the max and the sum; m is not modified.
    """
    m = np.asarray(m, dtype=np.float64)
    e = m - np.maximum.reduce(m, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def spectral_norm(m: Matrix, iters: int = 200, seed: int = 0) -> float:
    """Largest singular value via power iteration on m^T m.

    Accurate to ~1e-6 relative error on well-separated spectra for
    iters >= 200; raises ZeroMatrix for an all-zero input.
    """
    m = as_matrix(m)
    if not np.any(m):
        raise ZeroMatrix("spectral_norm of a zero matrix")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    gram = m.T @ m
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:  # v landed in the null space; restart
            v = rng.standard_normal(m.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / nw
    return float(np.linalg.norm(m @ v))


def randn_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    """i.i.d. standard-normal matrix; bit-reproducible per seed."""
    if rows < 1 or cols < 1:
        raise DimensionMismatch(f"randn_matrix: rows={rows}, cols={cols}")
    return rng.generator.standard_normal((rows, cols))


def frobenius(m: Matrix) -> float:
    return float(np.linalg.norm(np.asarray(m)))
