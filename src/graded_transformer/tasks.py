"""Synthetic tasks exercising hierarchical feature priorities.

poly_degree: sequences of monomial-coefficient vectors (d = 4, degrees
0..3).  The two high-grade target dimensions indicate the presence of the
matching degree (sign of the coefficient) and are learnable; the two
low-grade dimensions are i.i.d. coin flips carrying no signal, so a
trained model's error concentrates there.  Default grading (0, 0.5, 1, 2).

hier_copy: token copy task whose first token selects the output
transformation (plain copy vs. shifted copy), making position 1 carry the
information every other position needs.

TASKS holds every per-task fact: generator, grading and training defaults,
signal and noise output dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import container
from .tensor import Rng

POLY_GRADES = (0.0, 0.5, 1.0, 2.0)
POLY_DIM = 4
POLY_SIGNAL_DIMS = (2, 3)
POLY_NOISE_DIMS = (0, 1)

HIER_HEAD_TOKENS = (3, 4)  # after start=1 and eos=2
HIER_BODY_MIN = 5


@dataclass(frozen=True)
class Dataset:
    task: str
    x: np.ndarray  # float sequences (num, n, d) or int tokens (num, n)
    y: np.ndarray  # targets (num, n, out_dim)
    grades: np.ndarray

    @property
    def size(self) -> int:
        return self.x.shape[0]


def gen_poly_degree(size: int, seq_len: int, seed: int) -> Dataset:
    """Coefficient sequences with presence targets per degree dimension."""
    if size < 1 or seq_len < 1:
        raise ValueError("size and seq_len must be >= 1")
    rng = Rng(seed)
    g = rng.generator
    x = g.normal(0.0, 1.0, (size, seq_len, POLY_DIM))
    y = np.empty((size, seq_len, POLY_DIM))
    for k in POLY_SIGNAL_DIMS:
        y[:, :, k] = (x[:, :, k] > 0).astype(np.float64)
    for k in POLY_NOISE_DIMS:
        y[:, :, k] = g.integers(0, 2, (size, seq_len)).astype(np.float64)
    return Dataset("poly_degree", x, y, np.array(POLY_GRADES))


def gen_hier_copy(size: int, seq_len: int, seed: int, vocab: int = 16) -> Dataset:
    """First token picks the transformation: 3 = copy, 4 = shift by one
    (wrapping within the body alphabet).  Targets are one-hot rows."""
    if size < 1 or seq_len < 2:
        raise ValueError("size >= 1 and seq_len >= 2 required")
    if vocab <= HIER_BODY_MIN:
        raise ValueError(f"vocab must exceed {HIER_BODY_MIN}")
    rng = Rng(seed)
    g = rng.generator
    body_span = vocab - HIER_BODY_MIN + 1
    tokens = np.empty((size, seq_len), dtype=np.int64)
    tokens[:, 0] = g.choice(HIER_HEAD_TOKENS, size)
    tokens[:, 1:] = g.integers(HIER_BODY_MIN, vocab + 1, (size, seq_len - 1))
    targets = tokens.copy()
    shifted = HIER_BODY_MIN + (tokens[:, 1:] - HIER_BODY_MIN + 1) % body_span
    shift_rows = tokens[:, 0] == HIER_HEAD_TOKENS[1]
    targets[shift_rows, 1:] = shifted[shift_rows]
    y = np.zeros((size, seq_len, vocab))
    rows = np.arange(size)[:, None]
    cols = np.arange(seq_len)[None, :]
    y[rows, cols, targets - 1] = 1.0
    return Dataset("hier_copy", tokens, y, np.zeros(vocab))


@dataclass(frozen=True)
class Task:
    generate: Callable[[int, int, int], Dataset]  # (size, seq_len, seed)
    grading: dict = field(default_factory=dict)   # GradedModelConfig defaults
    train: dict = field(default_factory=dict)     # TrainConfig defaults
    signal_dims: tuple = ()  # learnable output dimensions; () = no split
    noise_dims: tuple = ()   # output dimensions without signal


TASKS = {
    "poly_degree": Task(gen_poly_degree, grading=dict(attention_variant="scores"),
                        signal_dims=POLY_SIGNAL_DIMS, noise_dims=POLY_NOISE_DIMS),
    "hier_copy": Task(gen_hier_copy,
                      grading=dict(positional="exp_decay", alpha=0.25, grade_inputs=False),
                      train=dict(base_loss="sigmoid_ce", lr=2e-3)),
}


def generate(task: str, size: int, seq_len: int, seed: int) -> Dataset:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; known: {sorted(TASKS)}")
    return TASKS[task].generate(size, seq_len, seed)


def save_dataset(path, ds: Dataset) -> None:
    container.save_arrays(
        path,
        {"x": ds.x, "y": ds.y, "grades": ds.grades},
        meta={"kind": "dataset", "task": ds.task},
    )


def load_dataset(path) -> Dataset:
    arrays, meta = container.load_arrays(path)
    if meta.get("kind") != "dataset":
        raise ValueError(f"{path}: not a dataset container")
    for key, part in (("task", meta), ("x", arrays), ("y", arrays), ("grades", arrays)):
        if key not in part:
            kind = "meta key" if part is meta else "array"
            raise ValueError(f"{path}: dataset container has no {key!r} {kind}")
    return Dataset(meta["task"], arrays["x"], arrays["y"], arrays["grades"])


def per_dim_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mean squared error per output dimension."""
    diff = pred - target
    return (diff * diff).mean(axis=tuple(range(diff.ndim - 1)))
