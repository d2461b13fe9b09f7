"""Linearly and exponentially graded transformer assembly.

Grading enters at up to four places, each independently switchable:
inputs (diagonal scaling, optionally followed by row normalization),
positional encodings (linear 1 - alpha*t or exponential base**(-alpha*t)
decay), attention (four variants of diagonal scaling inside each head),
and the feed-forward/output projections.

With unit weights (linear mode, identity-like map, or zero grades in
exponential mode), every graded path reproduces the baseline transformer
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import tensor
from . import transformer as tf
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NotRowStochastic,
    PositionOutOfRange,
    ZeroAfterGrading,
)
from .graded_space import (
    EXPONENTIAL,
    LINEAR,
    GradingSpec,
    WeightMap,
    as_grades,
    effective_dimension,
)

VARIANTS = ("none", "scores", "queries_keys", "multi_head", "values")
POSITIONAL_MODES = ("off", "linear_decay", "exp_decay")


@dataclass
class GradedModelConfig:
    model: tf.ModelConfig
    mode: str = LINEAR
    grades: np.ndarray = None
    head_grades: list | None = None  # per head, length d_k; default: slices of grades
    weight_map: WeightMap = field(default_factory=WeightMap)
    base: float = 2.0  # exponential base; training anneals it per step
    attention_variant: str = "none"
    positional: str = "off"
    alpha: float = 0.0
    grade_inputs: bool = True
    normalize_inputs: bool = True
    grade_ffn: bool = False
    normalize_ffn: bool = True
    grade_output: bool = False
    add_positional: bool = False  # matrix-input models only
    position_grades: np.ndarray | None = None  # optional per-position tuples (n, d)

    def __post_init__(self):
        d = self.model.d_model
        self.grades = as_grades(self.grades if self.grades is not None else np.zeros(d))
        if self.grades.size != d:
            raise InvalidSpec(f"model grades length {self.grades.size} != d {d}")
        if self.head_grades is None:
            dk = self.model.d_k
            self.head_grades = [self.grades[i * dk:(i + 1) * dk].copy()
                                for i in range(self.model.n_heads)]
        self.head_grades = [as_grades(q) for q in self.head_grades]
        if len(self.head_grades) != self.model.n_heads or any(
            q.size != self.model.d_k for q in self.head_grades
        ):
            raise InvalidSpec("need one grade tuple of length d_k per head")
        if self.mode not in (LINEAR, EXPONENTIAL):
            raise InvalidSpec(f"unknown grading mode {self.mode!r}")
        if self.mode == EXPONENTIAL and not self.base > 1.0:
            raise InvalidSpec("exponential mode requires base > 1")
        if self.attention_variant not in VARIANTS:
            raise InvalidSpec(f"unknown attention variant {self.attention_variant!r}")
        if self.positional not in POSITIONAL_MODES:
            raise InvalidSpec(f"unknown positional mode {self.positional!r}")
        if self.positional == "linear_decay" and self.alpha * self.model.n_max >= 1.0:
            raise InvalidSpec("linear decay needs alpha * n_max < 1")
        if self.position_grades is not None:
            self.position_grades = np.asarray(self.position_grades, dtype=np.float64)

    def spec(self) -> GradingSpec:
        return GradingSpec(self.mode, self.weight_map, self.base)

    def weights(self, grades=None, lam: float | None = None) -> np.ndarray:
        """Diagonal scale factors for a grade tuple under this config."""
        q = self.grades if grades is None else as_grades(grades)
        if self.mode == LINEAR:
            return self.weight_map.values(q)
        b = self.base if lam is None else lam
        if not b > 1.0:
            raise InvalidSpec("exponential weights need base > 1")
        return np.exp(q * np.log(b))

    def max_weight(self, lam: float | None = None) -> float:
        """Largest diagonal factor over the model and all head tuples."""
        tuples = [self.grades, *self.head_grades]
        return max(float(self.weights(q, lam).max()) for q in tuples)

    def max_grade(self) -> float:
        return max(float(q.max()) for q in [self.grades, *self.head_grades])

    def effective_dim(self, delta: float = 0.5) -> int:
        return effective_dimension(self.grades, delta)


def unit_config(model: tf.ModelConfig) -> GradedModelConfig:
    """Ungraded twin: all-unit weights, every graded feature off."""
    return GradedModelConfig(
        model=model,
        mode=LINEAR,
        grades=np.zeros(model.d_model),
        weight_map=WeightMap("plus_one"),
        attention_variant="none",
        positional="off",
        grade_inputs=True,
        normalize_inputs=False,
    )


# ---------------------------------------------------------------------------
# plain (numpy) operation surface


def graded_input(x, gcfg: GradedModelConfig, lam: float | None = None) -> np.ndarray:
    """Scale features by the grading weights; optionally normalize each
    vector (row) to unit norm afterwards."""
    x = np.asarray(x, dtype=np.float64)
    w = gcfg.weights(lam=lam)
    vec = x.ndim == 1
    rows = x.reshape(1, -1) if vec else x
    if rows.shape[1] != w.size:
        raise DimensionMismatch(f"graded_input: {rows.shape[1]} vs {w.size}")
    if gcfg.position_grades is not None and gcfg.mode == EXPONENTIAL:
        b = gcfg.base if lam is None else lam
        pw = np.exp(gcfg.position_grades[: rows.shape[0]] * np.log(b))
        out = rows * pw
    else:
        out = rows * w
    if gcfg.normalize_inputs:
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ZeroAfterGrading("cannot normalize a zero row after grading")
        out = out / norms
    return out[0] if vec else out


def positional_scale(t: int, gcfg: GradedModelConfig, lam: float | None = None) -> float:
    """Decay factor applied to the positional encoding of 1-based position t."""
    if t < 1 or t > gcfg.model.n_max:
        raise PositionOutOfRange(f"position {t} outside [1, {gcfg.model.n_max}]")
    if gcfg.positional == "off":
        return 1.0
    if gcfg.positional == "linear_decay":
        return 1.0 - gcfg.alpha * t
    b = gcfg.base if lam is None else lam
    return float(b ** (-gcfg.alpha * t))


def graded_positional(t: int, gcfg: GradedModelConfig, lam: float | None = None) -> np.ndarray:
    return positional_scale(t, gcfg, lam) * tf.positional_encoding(
        t, gcfg.model.d_model, gcfg.model.n_max
    )


def graded_positional_matrix(n: int, gcfg: GradedModelConfig, lam: float | None = None) -> np.ndarray:
    return np.stack([graded_positional(t, gcfg, lam) for t in range(1, n + 1)])


def graded_attention(q, k, v, head_weights, variant: str,
                     mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One attention head with grading weights placed per the variant.

    Returns (output, attention matrix).  Weights are the diagonal factors
    (already mapped from grades), length d_k.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(head_weights, dtype=np.float64).reshape(-1)
    if q.shape[1] != w.size or k.shape[1] != w.size:
        raise DimensionMismatch("graded_attention: weight length must equal d_k")
    dk = q.shape[1]
    if variant in ("none", "values"):
        scores = q @ k.T
    elif variant == "scores":
        scores = (q * w) @ k.T
    elif variant in ("queries_keys", "multi_head"):
        scores = (q * w) @ (k * w).T
    else:
        raise InvalidSpec(f"unknown attention variant {variant!r}")
    scores = scores / np.sqrt(dk)
    if mask is not None:
        scores = scores + mask
    attn = tensor.softmax_rows(scores)
    out = attn @ (v * w if variant == "values" else v)
    return out, attn


def graded_ffn_vector(x, w1, b1, w2, b2, gcfg: GradedModelConfig,
                      lam: float | None = None) -> np.ndarray:
    """M * Fnn(x) for one row vector, optionally normalized."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    hidden = np.maximum(x @ w1 + np.asarray(b1).reshape(-1), 0.0)
    out = hidden @ w2 + np.asarray(b2).reshape(-1)
    out = out * gcfg.weights(lam=lam)
    if gcfg.normalize_ffn:
        n = np.linalg.norm(out)
        if n == 0:
            raise ZeroAfterGrading("cannot normalize a zero feed-forward output")
        out = out / n
    return out


def graded_output_vector(h, w_out, b_out, gcfg: GradedModelConfig,
                         lam: float | None = None) -> np.ndarray:
    """Logits z = W_out (M h) + b_out followed by softmax."""
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    z = (h * gcfg.weights(lam=lam)) @ w_out + np.asarray(b_out).reshape(-1)
    return tensor.softmax_rows(z.reshape(1, -1))[0]


# ---------------------------------------------------------------------------
# attention-grading hook for the shared encoder


class AttentionGrading:
    """Carries per-head weight rows (nodes or arrays) into the encoder."""

    def __init__(self, variant: str, head_weights: list, ffn_weights=None,
                 normalize_ffn: bool = True):
        self.variant = variant
        self.head_weights = head_weights
        self.ffn_weights = ffn_weights
        self.normalize_ffn = normalize_ffn

    def apply(self, i: int, q, k, v):
        if self.variant == "none":
            return q, k, v
        w = self.head_weights[i]
        if self.variant == "scores":
            return ad.scale_cols(q, w), k, v
        if self.variant in ("queries_keys", "multi_head"):
            return ad.scale_cols(q, w), ad.scale_cols(k, w), v
        if self.variant == "values":
            return q, k, ad.scale_cols(v, w)
        raise InvalidSpec(f"unknown attention variant {self.variant!r}")

    def graded_ffn(self, ff):
        if self.ffn_weights is None:
            return ff
        out = ad.scale_cols(ff, self.ffn_weights)
        if self.normalize_ffn:
            out = ad.normalize_rows(out)
        return out


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(1, -1)


def weight_nodes(gcfg: GradedModelConfig, lam: float | None,
                 grade_nodes: dict | None):
    """Weight rows for the model tuple and each head tuple.

    grade_nodes may carry learnable leaves under keys "q" and "q_head_{i}";
    anything missing falls back to the config's fixed tuples (wrapped as
    constants on the active tape).
    """
    grade_nodes = grade_nodes or {}

    def weights_for(q_value, key):
        q = grade_nodes.get(key)
        if q is None:
            q = ad.wrap(_row(q_value))
        if gcfg.mode == LINEAR:
            return gcfg.weight_map.node(q)
        b = gcfg.base if lam is None else lam
        if not b > 1.0:
            raise InvalidSpec("exponential weights need base > 1")
        return ad.exp(ad.scale(q, float(np.log(b))))

    w_model = weights_for(gcfg.grades, "q")
    w_heads = [weights_for(gcfg.head_grades[i], f"q_head_{i}")
               for i in range(gcfg.model.n_heads)]
    return w_model, w_heads


def _holds_ids(inputs) -> bool:
    """Integer token ids; a ragged batch counts, so check_tokens reports it."""
    if isinstance(inputs, ad.Node):
        return False
    try:
        return np.asarray(inputs).dtype.kind in "iu"
    except ValueError:
        return True


def forward_nodes(p: dict[str, ad.Node], gcfg: GradedModelConfig, inputs,
                  lam: float | None = None, grade_nodes: dict | None = None,
                  collect: list | None = None) -> tuple[ad.Node, ad.Node]:
    """Graded forward pass on the active tape.

    inputs: token ids, (n,) or a batch (B, n), for vocab models; an (n, d)
    or (B, n, d) array, or an (n, d) Node, otherwise.  The B sequences run
    as one (B n)-row block; attention stays within each sequence.
    Returns (encoder representations, output logits), each B n rows.
    """
    cfg = gcfg.model
    w_model, w_heads = weight_nodes(gcfg, lam, grade_nodes)

    token_path = cfg.vocab_size > 0 and _holds_ids(inputs)
    if token_path:
        ids = tf.check_tokens(inputs, cfg)
        n = ids.shape[-1]
        x = ad.embedding_rows(p["embed"], ids.reshape(-1) - 1)
    else:
        batch = not isinstance(inputs, ad.Node) and np.ndim(inputs) == 3
        x = ad.wrap(np.reshape(inputs, (-1, np.shape(inputs)[-1])) if batch else inputs)
        n = np.shape(inputs)[1] if batch else x.shape[0]

    if gcfg.grade_inputs:
        x = ad.scale_cols(x, w_model)
        if gcfg.normalize_inputs:
            x = ad.normalize_rows(x)
    if token_path or gcfg.add_positional:
        positions = graded_positional_matrix(n, gcfg, lam)
        x = ad.add(x, np.tile(positions, (x.shape[0] // n, 1)))

    grading = None
    if gcfg.attention_variant != "none" or gcfg.grade_ffn:
        grading = AttentionGrading(
            gcfg.attention_variant,
            w_heads,
            ffn_weights=w_model if gcfg.grade_ffn else None,
            normalize_ffn=gcfg.normalize_ffn,
        )
    z = tf.encoder(p, x, cfg, grading, collect, n)

    h = ad.scale_cols(z, w_model) if gcfg.grade_output else z
    if cfg.vocab_size:
        logits = ad.matmul(h, ad.transpose(p["embed"]))
    else:
        logits = ad.add_rowvec(ad.matmul(h, p["w_out"]), p["b_out"])
    return z, logits


def _run(params, gcfg, inputs, lam, collect_attention):
    collect = [[] for _ in range(gcfg.model.n_layers)] if collect_attention else None
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        z, logits = forward_nodes(p, gcfg, inputs, lam=lam, collect=collect)
    return z.value, logits.value, collect


def lgt_forward(params, gcfg: GradedModelConfig, inputs,
                collect_attention: bool = False):
    """Linear-mode forward; returns (representations, logits[, attention])."""
    if gcfg.mode != LINEAR:
        raise InvalidSpec("lgt_forward requires linear mode")
    z, logits, collect = _run(params, gcfg, inputs, None, collect_attention)
    return (z, logits, collect) if collect_attention else (z, logits)


def egt_forward(params, gcfg: GradedModelConfig, inputs, lam: float | None = None,
                collect_attention: bool = False):
    """Exponential-mode forward; lam overrides the config base (annealing)."""
    if gcfg.mode != EXPONENTIAL:
        raise InvalidSpec("egt_forward requires exponential mode")
    b = gcfg.base if lam is None else lam
    if not b > 1.0:
        raise InvalidSpec("egt_forward requires base > 1")
    z, logits, collect = _run(params, gcfg, inputs, lam, collect_attention)
    return (z, logits, collect) if collect_attention else (z, logits)


def graded_generate(params, gcfg: GradedModelConfig, tokens,
                    m_max: int | None = None, lam: float | None = None) -> list[int]:
    """Greedy generation with the graded encoder and the standard decoder."""
    cfg = gcfg.model
    cap = cfg.m_max if m_max is None else m_max
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        z, _ = forward_nodes(p, gcfg, np.asarray(tokens, dtype=np.int64), lam=lam)
        z = tape.constant(z.value)
        out: list[int] = []
        generated = [tf.START_TOKEN]
        while len(out) < cap:
            ids = tf.check_tokens(generated, cfg, limit=cfg.m_max + 1)
            emb = ad.add(
                ad.embedding_rows(p["embed"], ids - 1),
                tf.positional_matrix(ids.size, cfg.d_model, cfg.m_max + 1),
            )
            dec = tf.decoder(p, emb, z, cfg)
            logits = dec.value[-1] @ params["embed"].T
            token = int(np.argmax(logits)) + 1
            out.append(token)
            generated.append(token)
            if token == tf.EOS_TOKEN:
                break
    return out


# ---------------------------------------------------------------------------
# expressivity construction


def construct_attention_target(a0: np.ndarray, delta: float,
                               row_tol: float = 1e-9):
    """Build (Q, K, V) whose attention output approximates a row-stochastic
    target within delta in Frobenius norm.

    Near-zero entries are floored at eps = delta / (2 sqrt(n d_k)) and rows
    renormalized; Q = sqrt(d_k) log A0', K = V = I, so the softmax recovers
    A0' exactly (softmax of log of a probability row is that row).
    Requires a square target (n = d_k for this construction).
    """
    a0 = np.asarray(a0, dtype=np.float64)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise DimensionMismatch("construct_attention_target needs a square target")
    if np.any(a0 < 0) or np.any(np.abs(a0.sum(axis=1) - 1.0) > row_tol):
        raise NotRowStochastic("target rows must be non-negative and sum to 1")
    n = a0.shape[0]
    eps = delta / (2.0 * np.sqrt(n * n))
    floored = np.maximum(a0, eps)
    smoothed = floored / floored.sum(axis=1, keepdims=True)
    q = np.sqrt(n) * np.log(smoothed)
    k = np.eye(n)
    v = np.eye(n)
    achieved = float(np.linalg.norm(tensor.softmax_rows(q @ k.T / np.sqrt(n)) @ v - a0))
    return q, k, v, achieved
