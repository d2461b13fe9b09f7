"""Linearly and exponentially graded transformer assembly.

Grading enters at up to four places, each independently switchable:
inputs (diagonal scaling, optionally followed by row normalization),
positional encodings (linear 1 - alpha*t or exponential base**(-alpha*t)
decay), attention (three variants of diagonal scaling inside each head),
and the feed-forward/output projections.

With unit weights (unit grades under the (0, 1) map in linear mode, or
zero grades in exponential mode), every graded path reproduces the baseline transformer
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import transformer as tf
from .errors import (
    DimensionMismatch,
    InvalidLambda,
    InvalidSpec,
    NotRowStochastic,
    PositionOutOfRange,
)
from .graded_space import (
    EXPONENTIAL,
    LINEAR,
    GradingSpec,
    WeightMap,
    as_grades,
)

VARIANTS = ("none", "scores", "queries_keys", "values")
POSITIONAL_MODES = ("off", "linear_decay", "exp_decay")


@dataclass
class GradedModelConfig:
    model: tf.ModelConfig
    mode: str = LINEAR
    grades: np.ndarray = None
    head_grades: np.ndarray | None = None  # (h, d_k), row i head i's; default: grades split
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

    def __post_init__(self):
        d = self.model.d_model
        self.grades = as_grades(self.grades if self.grades is not None else np.zeros(d))
        if self.grades.size != d:
            raise InvalidSpec(f"model grades length {self.grades.size} != d {d}")
        shape = (self.model.n_heads, self.model.d_k)
        if self.head_grades is None:
            self.head_grades = self.grades.reshape(shape).copy()
        try:
            ragged = np.shape(self.head_grades) != shape
        except ValueError:  # rows of unequal lengths
            ragged = True
        if ragged:
            raise InvalidSpec("head_grades: need one grade tuple of length d_k per head")
        self.head_grades = as_grades(self.head_grades).reshape(shape)
        if self.attention_variant not in VARIANTS:
            raise InvalidSpec(f"unknown attention variant {self.attention_variant!r}")
        if self.positional not in POSITIONAL_MODES:
            raise InvalidSpec(f"unknown positional mode {self.positional!r}")
        if not self.alpha >= 0:
            raise InvalidSpec(f"positional decay alpha must be >= 0, not {self.alpha!r}")
        if self.positional == "linear_decay" and self.alpha * self.model.n_max >= 1.0:
            raise InvalidSpec("linear decay needs alpha * n_max < 1")
        if (self.mode == EXPONENTIAL or self.positional == "exp_decay") and not self.base > 1:
            raise InvalidSpec(f"base must exceed 1, not {self.base!r}")
        self.max_weight()  # weights() rejects a bad mode, base or weight map

    def to_dict(self) -> dict:
        """Every field but the model in the JSON form of a config's grading
        section: grades as lists, the weight map as {"affine": [a, b]}."""
        wm = self.weight_map
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"},
                "grades": self.grades.tolist(), "head_grades": self.head_grades.tolist(),
                "weight_map": {"affine": [wm.a, wm.b]}}

    @classmethod
    def from_dict(cls, model: tf.ModelConfig, raw: dict) -> "GradedModelConfig":
        """The config to_dict wrote; absent fields take the defaults above,
        and a weight map may also be given by name (WeightMap.from_json)."""
        wm = raw.get("weight_map")
        if isinstance(wm, (str, dict)):
            raw = {**raw, "weight_map": WeightMap.from_json(wm)}
        return cls(model=model, **raw)

    def spec(self, lam: float | None = None) -> GradingSpec:
        """The grading spec; lam, a training step's annealed base, overrides base."""
        return GradingSpec(self.mode, self.weight_map, self.base if lam is None else lam)

    def weights(self, grades=None) -> np.ndarray:
        """Diagonal scale factors for a grade tuple under this config."""
        return self.spec().weights(self.grades if grades is None else grades)

    def max_weight(self) -> float:
        """Largest diagonal factor over the model tuple and any head tuple attention reads."""
        heads = () if self.attention_variant == "none" else (self.head_grades,)
        return max(float(self.weights(q).max()) for q in (self.grades, *heads))


def unit_config(model: tf.ModelConfig) -> GradedModelConfig:
    """Ungraded twin: the defaults above (linear, zero grades under q + 1,
    so all-unit weights, every graded feature off), unnormalised inputs."""
    return GradedModelConfig(model=model, normalize_inputs=False)


# ---------------------------------------------------------------------------
# model stages on the active tape


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(1, -1)


def weight_nodes(gcfg: GradedModelConfig, lam: float | None,
                 grade_nodes: dict | None):
    """Weight rows for the model tuple and for all head tuples (None when
    attention is ungraded).

    The head tuples are one (1, h d_k) grade row, the (h, d_k) head_grades
    read row by row, so head i's weights fill columns i d_k .. (i + 1) d_k.
    grade_nodes holds a (1, d) grade node under "q" and, for graded
    attention, that (1, h d_k) one under "q_heads", learnable or constant.
    Without grade_nodes (evaluation and generation) both rows are
    constants, read-only and shared by every call with the same grading
    (see _fixed_weight_rows).
    """
    if grade_nodes is None:
        w_model, w_heads = _fixed_weight_rows(
            gcfg.mode, gcfg.weight_map,
            (gcfg.base if lam is None else lam) if gcfg.mode == EXPONENTIAL else None,
            _grade_bytes(gcfg.grades),
            None if gcfg.attention_variant == "none" else _grade_bytes(gcfg.head_grades))
        return ad.wrap(w_model), None if w_heads is None else ad.wrap(w_heads)
    spec = gcfg.spec(lam)
    w_model = spec.node(grade_nodes["q"])
    if gcfg.attention_variant == "none":
        return w_model, None
    return w_model, spec.node(grade_nodes["q_heads"])


def _grade_bytes(q) -> bytes:
    return np.asarray(q, dtype=np.float64).tobytes()


@lru_cache(maxsize=16)
def _fixed_weight_rows(mode: str, weight_map: WeightMap, base: float | None,
                       grades: bytes, head_grades: bytes | None):
    """The (model, heads) weight rows of fixed grade tuples, as read-only
    (1, d) and (1, h d_k) arrays (heads None when ungraded).

    The key is the grading's content: the grade tuples as float64 bytes
    (the (h, d_k) head tuples in row order, which is their one row), and
    the base only in exponential mode.  A tuple rewritten in place, as
    training.train rewrites its views of the flat buffer, is a new key.
    """
    spec = GradingSpec(mode, weight_map, base)  # linear mode reads no base
    rows = []
    for q in (grades, head_grades):
        if q is not None:
            q = spec.node(np.frombuffer(q).reshape(1, -1)).value
            q.flags.writeable = False
        rows.append(q)
    return tuple(rows)


def grade_rows(x, w, normalize: bool) -> ad.Node:
    """The input and FFN grading stage: scale the columns of x by w, then
    optionally scale each row to unit norm."""
    x = ad.scale_cols(x, w)
    return ad.normalize_rows(x) if normalize else x


def _decay(t: np.ndarray, positional: str, alpha: float, base: float) -> np.ndarray:
    """Decay factors of the 1-based positions t, one numpy expression: the
    one formula behind positional_scale and graded_positional_matrix."""
    if positional == "off":
        return np.ones(t.shape)
    if positional == "linear_decay":
        return 1.0 - alpha * t
    return np.power(base, -alpha * t)


def positional_scale(t: int, gcfg: GradedModelConfig) -> float:
    """Decay factor applied to the positional encoding of 1-based position t."""
    if t < 1 or t > gcfg.model.n_max:
        raise PositionOutOfRange(f"position {t} outside [1, {gcfg.model.n_max}]")
    return float(_decay(np.array([float(t)]), gcfg.positional, gcfg.alpha, gcfg.base)[0])


def graded_positional_matrix(n: int, gcfg: GradedModelConfig, lam: float | None = None) -> np.ndarray:
    """Decayed encodings of positions 1..n: row t is positional_scale(t) * PE(t),
    with lam for the base under exp_decay when given, as a read-only table
    shared by every call with the same arguments."""
    m = gcfg.model
    if n > m.n_max:
        raise PositionOutOfRange(f"position {n} outside [1, {m.n_max}]")
    base = None  # off and linear_decay read no base
    if gcfg.positional == "exp_decay":
        base = gcfg.base if lam is None else lam
        if not base > 1.0:  # the decay would be growth
            raise InvalidLambda(f"exp_decay base lam must exceed 1, not {lam!r}")
    return _decayed_table(n, m.d_model, m.n_max, gcfg.positional, gcfg.alpha, base)


@lru_cache(maxsize=16)
def _decayed_table(n: int, d: int, n_max: int, positional: str, alpha: float,
                   base: float | None) -> np.ndarray:
    table = _decay(np.arange(1.0, n + 1), positional, alpha, base)[:, None] \
        * tf.positional_matrix(n, d, n_max)
    table.flags.writeable = False
    return table


class AttentionGrading:
    """Carries the stacked head weight row (a node or an array) into the
    encoder; head i's weights are columns i d_k .. (i + 1) d_k."""

    def __init__(self, variant: str, head_weights, ffn_weights=None,
                 normalize_ffn: bool = True):
        self.variant = variant
        self.head_weights = head_weights
        self.ffn_weights = ffn_weights
        self.normalize_ffn = normalize_ffn

    def apply(self, q, k, v):
        """Scale the folded (rows, h d_k) q, k and v of all heads per the variant."""
        if self.variant == "none":
            return q, k, v
        w = self.head_weights
        if self.variant == "scores":
            return ad.scale_cols(q, w), k, v
        if self.variant == "queries_keys":
            return ad.scale_cols(q, w), ad.scale_cols(k, w), v
        if self.variant == "values":
            return q, k, ad.scale_cols(v, w)
        raise InvalidSpec(f"unknown attention variant {self.variant!r}")

    def graded_ffn(self, ff):
        if self.ffn_weights is None:
            return ff
        return grade_rows(ff, self.ffn_weights, self.normalize_ffn)


def forward_nodes(p: dict[str, ad.Node], gcfg: GradedModelConfig, inputs,
                  lam: float | None = None, weights: tuple | None = None,
                  collect: list | None = None) -> tuple[ad.Node, ad.Node]:
    """Graded forward pass on the active tape.

    inputs: token ids, (n,) or a batch (B, n), for vocab models; an (n, d)
    or (B, n, d) array otherwise.  The B sequences run as one (B n)-row
    block; attention stays within each sequence.
    lam, a training step's annealed base, overrides the config's base.
    weights is weight_nodes' (model, heads) pair, such as one made from
    learnable grades; by default the config's fixed tuples.
    Returns (encoder representations, output logits), each B n rows.
    """
    cfg = gcfg.model
    w_model, w_heads = weight_nodes(gcfg, lam, None) if weights is None else weights

    if cfg.vocab_size:
        ids = tf.check_tokens(inputs, cfg)
        n = ids.shape[-1]
        x = ad.embedding_rows(p["embed"], ids.reshape(-1) - 1)
    else:
        batch = np.ndim(inputs) == 3
        x = ad.wrap(np.reshape(inputs, (-1, np.shape(inputs)[-1])) if batch else inputs)
        n = np.shape(inputs)[1] if batch else x.shape[0]
        if n == 0:
            raise DimensionMismatch(f"sequences must not be empty, got shape {np.shape(inputs)}")

    if gcfg.grade_inputs:
        x = grade_rows(x, w_model, gcfg.normalize_inputs)
    if cfg.vocab_size or gcfg.add_positional:
        positions = graded_positional_matrix(n, gcfg, lam)
        sequences = x.shape[0] // n
        x = ad.add(x, positions if sequences == 1 else np.tile(positions, (sequences, 1)))

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


# ---------------------------------------------------------------------------
# plain (numpy) surface: the stages above on constant nodes


def forward(params, gcfg: GradedModelConfig, inputs, collect_attention: bool = False):
    """Forward pass in either mode, at the config's grading.

    Returns (representations, logits), plus the per-layer attention lists
    when collect_attention is set.
    """
    collect = [[] for _ in range(gcfg.model.n_layers)] if collect_attention else None
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        z, logits = forward_nodes(p, gcfg, inputs, collect=collect)
    return (z.value, logits.value, collect) if collect_attention else (z.value, logits.value)


def graded_generate(params, gcfg: GradedModelConfig, tokens,
                    m_max: int | None = None) -> list[int]:
    """Greedy generation with the graded encoder and the standard decoder,
    every array wrapped once for both."""
    cap = gcfg.model.m_max if m_max is None else m_max
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        z, _ = forward_nodes(p, gcfg, tf.check_prompt(tokens, gcfg.model))
        return tf.decode_nodes(p, z, gcfg.model, cap, tf.EOS_TOKEN)


def graded_input(x, gcfg: GradedModelConfig) -> np.ndarray:
    """Scale features by the grading weights; optionally normalize each
    vector (row) to unit norm afterwards."""
    x = np.asarray(x, dtype=np.float64)
    w = gcfg.spec().node(_row(gcfg.grades))
    out = grade_rows(_row(x) if x.ndim == 1 else x, w, gcfg.normalize_inputs).value
    return out[0] if x.ndim == 1 else out


def graded_attention(q, k, v, head_weights, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """One attention head with grading weights placed per the variant.

    Returns (output, attention matrix).  Weights are the diagonal factors
    (already mapped from grades), length d_k.
    """
    w = _row(head_weights)
    if np.shape(q)[1] != w.size or np.shape(k)[1] != w.size:
        raise DimensionMismatch("graded_attention: weight length must equal d_k")
    collect: list = []
    q, k, v = AttentionGrading(variant, w).apply(ad.wrap(q), ad.wrap(k), ad.wrap(v))
    out = tf.attention_head(q, k, v, w.size, collect=collect).value
    return out, collect[0][0]


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
    achieved = float(np.linalg.norm(graded_attention(q, k, v, np.ones(n), "none")[0] - a0))
    return q, k, v, achieved
