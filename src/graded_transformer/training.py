"""Optimization machinery: composite graded losses with regularizers,
global-norm gradient clipping, base annealing, grade learning-rate bounds,
Adam, and one training loop for both grading modes.

The loop runs on a private copy of the grading, whose grade tuples are
views of its flat buffer.  In exponential mode it anneals that copy's base
from 1 to the grading's base, one plain write per step, so the copy is the
grading each step runs at; it recomputes the maximum learned grade every
step and caps the grade learning rate at 0.9x the stability bound before
updating.  The copy is returned as the trained grading.  Parameters and grades
share one flat buffer, gradient and pair of Adam moments, so clipping, one
Adam step (rate lr on parameters, the grade rate on learned grades, 0 on
fixed ones), the finiteness check and the rollback each run once per step
over the whole buffer.  Learned grades are then projected back to >= 0.
"""

from __future__ import annotations

import csv
from functools import reduce
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import graded
from . import transformer as tf
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidLambda,
    InvalidSpec,
    StepOutOfRange,
)
from .graded_space import EXPONENTIAL, LINEAR
from .tensor import Rng, col_sums


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 3e-3
    lr_grades: float = 1e-2
    gamma: float = 1e-3          # penalty on ||q||^2
    gamma_heads: float = 0.0     # penalty on sum_i ||q_i||^2
    gamma_coord: float = 1e-3    # penalty on head-tuple variance
    clip_threshold: float = 5.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    seed: int = 42
    batch_size: int = 16
    learn_grades: bool = True
    base_loss: str = "squared"   # squared | sigmoid_ce
    checkpoint_every: int = 0    # 0 = final checkpoint only

    def __post_init__(self):
        tf.check_integer_fields(self, ValueError)
        if self.steps < 1:
            raise StepOutOfRange("steps must be >= 1")
        if not 0 < self.clip_threshold < np.inf:
            raise ValueError(f"clip_threshold must be finite and > 0, not {self.clip_threshold!r}")
        for key in ("gamma", "gamma_heads", "gamma_coord"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and >= 0, not {getattr(self, key)!r}")
        for key in ("seed", "checkpoint_every"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, not {getattr(self, key)!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, not {self.batch_size!r}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, not {self.lr!r}")
        if not self.lr_grades >= 0:
            raise ValueError(f"lr_grades must be >= 0, not {self.lr_grades!r}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"{key} must lie in [0, 1), not {getattr(self, key)!r}")
        if not self.eps_adam > 0:
            raise ValueError(f"eps_adam must be > 0, not {self.eps_adam!r}")
        if self.base_loss not in ("squared", "sigmoid_ce"):
            raise ValueError(
                f"base_loss must be 'squared' or 'sigmoid_ce', not {self.base_loss!r}")


def anneal_lambda(t: int, total: int, base: float) -> float:
    """Linear schedule from 1 at t=0 to base at t=total."""
    if t < 0 or t > total:
        raise StepOutOfRange(f"step {t} outside [0, {total}]")
    return 1.0 + (base - 1.0) * t / total


def grade_lr_bound(mode: str, lam: float, largest: float) -> float:
    """Stability bound on the grade learning rate.

    Linear: 1 / w_max, with `largest` the largest weight w_max (lam unused);
    exponential: 1 / (lam**q_max * ln lam), with `largest` the largest grade q_max.
    """
    if mode == LINEAR:
        if largest <= 0:
            return np.inf
        return 1.0 / largest
    if mode == EXPONENTIAL:
        if lam <= 1.0:
            raise InvalidLambda(f"bound undefined for lam={lam}")
        return float(1.0 / (lam**largest * np.log(lam)))
    raise ValueError(f"unknown mode {mode!r}")


class FlatLayout:
    """Named arrays laid end to end in one flat float64 buffer, in dict order."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.shapes = {k: np.shape(v) for k, v in arrays.items()}
        self.offsets = np.cumsum([0] + [int(np.prod(s)) for s in self.shapes.values()])
        self.size = int(self.offsets[-1])

    def pack(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """A new buffer holding copies of the arrays."""
        return np.concatenate([np.ravel(arrays[k]) for k in self.shapes], dtype=np.float64)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Same-shaped views of each array's part of flat."""
        return {k: flat[a:b].reshape(shape) for k, shape, a, b
                in zip(self.shapes, self.shapes.values(), self.offsets, self.offsets[1:])}

    def name_at(self, index: int) -> str:
        return list(self.shapes)[int(np.searchsorted(self.offsets, index, side="right")) - 1]


def clip_gradient(grads: np.ndarray, threshold: float):
    """Global-norm clipping of a flat gradient buffer, in place.

    Returns (pre-clip norm, post-clip norm, fired flag).
    """
    total = float(np.sqrt(np.dot(grads, grads)))
    if total <= threshold or total == 0.0:
        return total, total, False
    grads *= threshold / total
    return total, threshold, True


class AdamState:
    """First and second moments of a flat buffer, its step count, and two
    work buffers of the same size for the update."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.work = (np.empty(size), np.empty(size))
        self.t = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float | np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """In-place Adam update of a flat buffer from its gradient.

    Elementwise m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    params -= (lr mhat) / (sqrt(vhat) + eps), all into preallocated buffers;
    lr is a scalar or per-entry row, and an entry at rate 0 keeps its bits.
    """
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    m, v = state.m, state.v
    a, b = state.work
    np.multiply(grads, 1.0 - beta1, out=a)
    np.multiply(m, beta1, out=m)
    np.add(m, a, out=m)
    np.multiply(grads, 1.0 - beta2, out=a)
    np.multiply(a, grads, out=a)
    np.multiply(v, beta2, out=v)
    np.add(v, a, out=v)
    np.divide(m, bc1, out=a)
    np.multiply(a, lr, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    np.add(b, eps, out=b)
    np.divide(a, b, out=a)
    np.subtract(params, a, out=params)


# ---------------------------------------------------------------------------
# composite loss


def sequence_loss_node(logits: ad.Node, targets: np.ndarray, weights: ad.Node,
                       base_loss: str) -> ad.Node:
    """sum_i sum_k w_k l(z_ik, y_ik) as one node: l is (z - y)^2, or for
    sigmoid_ce -(y log p + (1 - y) log(1 - p)) with p = sigmoid(z), where p
    and 1 - p are clamped below at 1e-12; a clamped entry passes no gradient.
    Value and VJPs (to z, w) equal the elementwise chain's bit for bit."""
    z, w, y = logits.value, weights.value, np.asarray(targets, dtype=np.float64)
    if base_loss == "squared":
        diff = z - y
        cell = diff * diff

        def d_cell(gc):  # the logits' adjoint from the cells' adjoint gc
            return 2 * (gc * diff)
    elif base_loss == "sigmoid_ce":
        s = 1.0 / (1.0 + np.exp(-z))
        p = np.maximum(s, 1e-12)
        one_minus = np.maximum(1.0 - p, 1e-12)
        cell = (y * np.log(p) + (1.0 - y) * np.log(one_minus)) * -1.0

        def d_cell(gc):
            gp = -gc * y / p + gc * (1.0 - y) / one_minus * (1.0 - p >= 1e-12)
            return gp * (s >= 1e-12) * s * (1.0 - s)
    else:
        raise ValueError(f"unknown base loss {base_loss!r}")
    out = np.array([[(cell * w).sum()]])
    if not (logits.live or weights.live):
        return ad.Node(out)
    return ad.record(out, (logits, weights), (lambda g: d_cell(g[0, 0] * w),
                                              lambda g: col_sums(g[0, 0] * cell)))


def regularizer_node(grade_nodes: dict, cfg: TrainConfig, n_heads: int) -> ad.Node:
    """gamma ||q||^2 + gamma' sum_i ||q_i||^2 + gamma_coord sum_i ||q_i - mean_j q_j||^2
    as one node, with q_i the rows of the (1, h d_k) head row "q_heads" read
    as an (h, d_k) array; a term whose gamma is 0 is left out, the last also
    below two heads.  Value and VJPs take the steps of the elementwise chain
    on one leaf per head, in its order, so they equal it bit for bit: sums
    over heads fold row by row, where numpy would sum 8 or more pairwise.
    Fixed grades record nothing."""
    q, heads = grade_nodes.get("q"), grade_nodes.get("q_heads")
    gamma_q = cfg.gamma if q is not None else 0.0
    gamma_h = cfg.gamma_heads if heads is not None else 0.0
    gamma_c = cfg.gamma_coord if heads is not None and n_heads > 1 else 0.0
    qv = q.value if gamma_q else None
    hv = heads.value.reshape(n_heads, -1) if gamma_h or gamma_c else None
    total = (qv * qv).sum() * gamma_q if gamma_q else 0.0
    if gamma_h:
        total += reduce(np.add, (hv * hv).sum(axis=1)) * gamma_h
    if gamma_c:
        dev = hv - reduce(np.add, hv) * (1.0 / n_heads)
        total += reduce(np.add, (dev * dev).sum(axis=1)) * gamma_c
    out = np.array([[total]])
    parents = ((q,) if gamma_q else ()) + ((heads,) if hv is not None else ())
    if not any(p.live for p in parents):
        return ad.Node(out)

    def heads_adjoint(g):  # summed in the order the chain's backward sums
        g0, adj = g[0, 0], None
        if gamma_c:
            e = 2 * (g0 * gamma_c * dev)
            adj = e + reduce(np.subtract, e[-2::-1], -e[-1]) * (1.0 / n_heads)
        if gamma_h:
            a = g0 * gamma_h * hv
            adj = 2 * a if adj is None else adj + a + a
        return adj.reshape(1, -1)

    vjps = ((lambda g: 2 * (g[0, 0] * gamma_q * qv),) if gamma_q else ()) \
        + ((heads_adjoint,) if hv is not None else ())
    return ad.record(out, parents, vjps)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    grading: graded.GradedModelConfig  # the grading the last completed step ran at
    metrics: list[dict]
    diverged: bool = False

    @property
    def grades(self) -> np.ndarray:
        return self.grading.grades

    @property
    def head_grades(self) -> np.ndarray:  # (h, d_k)
        return self.grading.head_grades


METRIC_FIELDS = [
    "step", "lambda", "loss", "loss_main", "loss_reg",
    "grad_norm_pre", "grad_norm_post", "clipped",
    "grade_norm", "head_grade_norm", "eta_q", "eta_q_bound",
]


def write_metrics_csv(path, metrics: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_FIELDS)
        writer.writeheader()
        for row in metrics:
            writer.writerow({k: row[k] for k in METRIC_FIELDS})


def data_widths(x: np.ndarray, y: np.ndarray) -> dict[str, int]:
    """The vocab_size, d_model and out_dim of the one model that fits x and y.
    The loss weighs output k by the model tuple's weight k, so d_model, the
    output width and a matrix input's width are all the targets' width."""
    width = np.shape(y)[-1]
    if np.ndim(x) == 2:
        return {"vocab_size": width, "d_model": width, "out_dim": 0}
    if np.shape(x)[-1] != width:
        raise DimensionMismatch(f"inputs {np.shape(x)} vs targets {np.shape(y)}: widths differ")
    return {"vocab_size": 0, "d_model": width, "out_dim": width}


def check_widths(x: np.ndarray, y: np.ndarray, m: tf.ModelConfig) -> None:
    """Raise DimensionMismatch unless y holds one (n, width) target block per
    input sequence of x, and m has the widths data_widths(x, y) gives."""
    xs, ys = np.shape(x), np.shape(y)
    if len(xs) not in (2, 3) or len(ys) != 3 or xs[:2] != ys[:2]:
        raise DimensionMismatch(f"inputs {xs} and targets {ys} need the same number "
                                "of sequences and positions, each target 3-D")
    want = data_widths(x, y)
    if want != {"vocab_size": m.vocab_size, "d_model": m.d_model,
                "out_dim": 0 if m.vocab_size else m.output_dim}:
        raise DimensionMismatch(f"inputs {np.shape(x)} and targets {np.shape(y)} "
                                f"need a model with {want}, not {m}")


def record_step(params: dict[str, np.ndarray], gcfg: graded.GradedModelConfig,
                x: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Record one step's loss at the grading gcfg on a fresh tape, with one
    grade leaf per row of gcfg.grade_arrays(); returns (tape, total, main, reg).

    x: (B, n, d) float sequences or (B, n) token ids; y: (B, n, out_dim).
    The B sequences run as one stacked forward, and the main loss is the
    per-sequence mean.
    """
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=True)
        grade_nodes = tf.as_nodes(gcfg.grade_arrays(), tape, trainable=cfg.learn_grades)
        weights = graded.weight_nodes(gcfg, grade_nodes)
        _, logits = graded.forward_nodes(p, gcfg, x, weights=weights)
        y_rows = np.reshape(y, (-1, np.shape(y)[-1]))
        # the model tuple's weights also weigh the loss's output dimensions
        main = ad.scale(sequence_loss_node(logits, y_rows, weights[0], cfg.base_loss),
                        1.0 / len(x))
        reg = regularizer_node(grade_nodes, cfg, gcfg.model.n_heads)
        total = ad.add(main, reg)
    return tape, total, main, reg


def train(params: dict[str, np.ndarray], gcfg: graded.GradedModelConfig,
          data_x: np.ndarray, data_y: np.ndarray, cfg: TrainConfig,
          checkpoint_dir: str | None = None) -> TrainResult:
    """Run the grade-aware training loop for the config's grading mode.

    data_x: (num, n, d) float input sequences or (num, n) int token ids;
    data_y: (num, n, out_dim) targets.  Loss weights come from the model
    grade tuple each step, so learned grades reshape the loss as they move.

    The parameters and then the grade tuples live in one flat buffer, and
    the gradient and both Adam moments in flat buffers of the same layout;
    the returned arrays keep their shapes and are views of that buffer.
    The returned grading is a copy of gcfg, which is left as it is: its
    grade tuples are those views, and its base, in exponential mode, is the
    annealed base the last completed step ran at.
    A non-finite loss, parameter or grade, or in linear mode a grade whose
    weight the update took to <= 0, restores the state after the last good
    step and raises DivergenceDetected naming the step and the first such
    array, with the restored result attached.
    """
    exponential = gcfg.mode == EXPONENTIAL
    base = gcfg.base
    gcfg = replace(gcfg, head_grades=gcfg.head_grades.copy())
    check_widths(data_x, data_y, gcfg.model)
    num = data_x.shape[0]

    # head tuples that no stage reads get no leaf and come back unchanged
    arrays = {**params, **gcfg.grade_arrays()}
    layout = FlatLayout(arrays)
    flat = layout.pack(arrays)
    views = layout.views(flat)
    params = {k: views[k] for k in params}
    gcfg.grades = views["q"].reshape(-1)
    if "q_heads" in views:
        gcfg.head_grades = views["q_heads"].reshape(gcfg.head_grades.shape)
    n_theta = int(layout.offsets[len(params)])
    grades = flat[n_theta:]
    grad = np.zeros(layout.size)
    grad_views = layout.views(grad)
    state = AdamState(layout.size)
    rate = np.full(layout.size, cfg.lr)  # the grade part is set each step

    rng = Rng(cfg.seed)
    metrics: list[dict] = []
    last_good = flat.copy()
    failure = None
    # largest linear weight of the current grades; positive, as the config checked
    w_max = None if exponential else float(gcfg.weights(grades).max())

    for t in range(1, cfg.steps + 1):
        lam_t = anneal_lambda(t, cfg.steps, base) if exponential else 1.0
        if exponential:
            gcfg.base = lam_t  # the grading this step runs at
        batch_ids = rng.generator.integers(0, num, size=min(cfg.batch_size, num))

        tape, total, main, reg = record_step(
            params, gcfg, data_x[batch_ids], data_y[batch_ids], cfg)
        loss_val = float(total.value[0, 0])
        if not np.isfinite(loss_val):
            failure = "loss"
            break

        grad.fill(0.0)
        tape.backward(total, out=grad_views)
        loss_main, loss_reg = float(main.value[0, 0]), float(reg.value[0, 0])
        del tape, total, main, reg  # step t's nodes go before step t + 1 records
        pre, post, fired = clip_gradient(grad, cfg.clip_threshold)

        if exponential:
            bound = grade_lr_bound(EXPONENTIAL, lam_t, float(grades.max()))
        else:
            bound = grade_lr_bound(LINEAR, 1.0, w_max)
        eta_q = min(cfg.lr_grades, 0.9 * bound)

        rate[n_theta:] = eta_q if cfg.learn_grades else 0.0
        adam_step(flat, grad, state, rate, cfg.beta1, cfg.beta2, cfg.eps_adam)
        if cfg.learn_grades:  # not fixed grades: it would turn -0.0 into +0.0
            np.maximum(grades, 0.0, out=grades)

        if not np.isfinite(flat).all():
            failure = "update"
            break
        if not exponential:
            try:  # weights() rejects a weight <= 0
                w_max = float(gcfg.weights(grades).max())
            except InvalidSpec:
                failure = "weight"
                break
        np.copyto(last_good, flat)

        metrics.append({
            "step": t,
            "lambda": lam_t,
            "loss": loss_val,
            "loss_main": loss_main,
            "loss_reg": loss_reg,
            "grad_norm_pre": pre,
            "grad_norm_post": post,
            "clipped": int(fired),
            "grade_norm": float(np.linalg.norm(gcfg.grades)),
            "head_grade_norm": float(np.linalg.norm(gcfg.head_grades)),
            "eta_q": eta_q,
            "eta_q_bound": bound,
        })

        if checkpoint_dir and cfg.checkpoint_every and t % cfg.checkpoint_every == 0:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            tf.save_checkpoint(
                Path(checkpoint_dir) / f"step{t:06d}.gtc", params, gcfg.model,
                extra={**gcfg.to_dict(), "step": t},
            )

    if failure:
        if failure == "weight":
            bad = n_theta + np.flatnonzero(gcfg.spec().node(grades[None]).value[0] <= 0)
        else:
            bad = np.flatnonzero(~np.isfinite(flat))
        message = _divergence_message(t, failure, layout.name_at(bad[0]) if bad.size else None)
        np.copyto(flat, last_good)
        if exponential:
            gcfg.base = metrics[-1]["lambda"] if metrics else base
    result = TrainResult(params, gcfg, metrics, diverged=failure is not None)
    if failure:
        exc = DivergenceDetected(message)
        exc.result = result
        raise exc
    return result


def _divergence_message(t: int, failure: str, culprit: str | None) -> str:
    """culprit: the first array holding a non-finite value, or with failure
    "weight" the first grade array with a weight <= 0."""
    if failure == "weight":
        what = f"grading weight <= 0 in {culprit!r} after the update at step {t}"
    else:
        what = "loss" if failure == "loss" else "parameter or grade after the update"
        found = f"first non-finite array {culprit!r}" if culprit \
            else "every parameter and grade finite"
        what = f"non-finite {what} at step {t} ({found})"
    return f"{what}; parameters and grades restored to step {t - 1}"
