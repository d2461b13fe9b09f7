"""Linearly and exponentially graded transformer assembly.

Grading enters at up to four places, each independently switchable:
inputs (diagonal scaling, optionally followed by row normalization),
positional encodings (linear 1 - alpha*t or exponential base**(-alpha*t)
decay), attention, and the feed-forward/output projections.  Attention
grading is a transform of the encoder's parameters: each variant scales
the columns of the folded projections GRADED_PROJECTIONS names by the
head weights, and the plain transformer then runs on the graded copy.

With unit weights (unit grades under the (0, 1) map in linear mode, or
zero grades in exponential mode), every graded path reproduces the baseline transformer
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial

import numpy as np

from . import autodiff as ad
from . import transformer as tf
from .errors import (
    DimensionMismatch,
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

# attention variant -> the projections (of q, k, v) whose columns it scales by
# the head weights: (x W) diag(w) is x (W diag(w)), so grading W_Q alone
# scales the scores and grading W_V scales the values
GRADED_PROJECTIONS = {"none": "", "scores": "q", "queries_keys": "qk", "values": "v"}
VARIANTS = tuple(GRADED_PROJECTIONS)
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
        if (self.mode == EXPONENTIAL or self.positional == "exp_decay") \
                and not 1 < self.base < np.inf:
            raise InvalidSpec(f"base must be finite and exceed 1, not {self.base!r}")
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

    def spec(self) -> GradingSpec:
        """The spec of this config's mode, weight map and base."""
        return GradingSpec(self.mode, self.weight_map, self.base)

    def grade_arrays(self) -> dict[str, np.ndarray]:
        """The grade rows the model reads, as views: the (1, d) model tuple
        under "q" and, only when attention is graded, the (h, d_k) head
        tuples read row by row as one (1, h d_k) row under "q_heads"."""
        rows = {"q": self.grades.reshape(1, -1)}
        if self.attention_variant != "none":
            rows["q_heads"] = self.head_grades.reshape(1, -1)
        return rows

    def weights(self, grades=None) -> np.ndarray:
        """Diagonal scale factors for a grade tuple under this config."""
        return self.spec().weights(self.grades if grades is None else grades)

    def max_weight(self) -> float:
        """Largest diagonal factor over the grade rows the model reads."""
        return max(float(self.weights(q).max()) for q in self.grade_arrays().values())


def unit_config(model: tf.ModelConfig) -> GradedModelConfig:
    """Ungraded twin: the defaults above (linear, zero grades under q + 1,
    so all-unit weights, every graded feature off), unnormalised inputs."""
    return GradedModelConfig(model=model, normalize_inputs=False)


# ---------------------------------------------------------------------------
# model stages on the active tape


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(1, -1)


def weight_nodes(gcfg: GradedModelConfig, grade_nodes: dict | None = None):
    """Weight rows for the model tuple and for all head tuples (None when
    attention is ungraded).

    grade_nodes holds a node, learnable or constant, for each of
    gcfg.grade_arrays()' rows under the same key; head i's weights fill
    columns i d_k .. (i + 1) d_k of the head row.  Without grade_nodes
    (evaluation and generation) the rows are constants, read-only and
    shared by every call with the same grading (see _fixed_weight_rows).
    """
    rows = gcfg.grade_arrays()
    if grade_nodes is None:  # float64 rows, as as_grades made them
        w = _fixed_weight_rows(gcfg.mode, gcfg.weight_map,
                               gcfg.base if gcfg.mode == EXPONENTIAL else None,
                               *map(np.ndarray.tobytes, rows.values()))
        return ad.wrap(w[0]), ad.wrap(w[1]) if len(w) > 1 else None
    spec = gcfg.spec()
    return (spec.node(grade_nodes["q"]),
            spec.node(grade_nodes["q_heads"]) if "q_heads" in rows else None)


@lru_cache(maxsize=16)
def _fixed_weight_rows(mode: str, weight_map: WeightMap, base: float | None,
                       *rows: bytes) -> tuple[np.ndarray, ...]:
    """The weight rows of fixed grade rows, as read-only arrays.

    The key is the grading's content: the grade rows as float64 bytes, and
    the base only in exponential mode.  A row rewritten in place, as
    training.train rewrites its views of the flat buffer, is a new key.
    """
    spec = GradingSpec(mode, weight_map, base)  # linear mode reads no base
    weights = tuple(spec.node(np.frombuffer(q).reshape(1, -1)).value for q in rows)
    for w in weights:
        w.flags.writeable = False
    return weights


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


def graded_positional_matrix(n: int, gcfg: GradedModelConfig) -> np.ndarray:
    """Decayed encodings of positions 1..n: row t is positional_scale(t) * PE(t),
    as a read-only table shared by every call with the same arguments."""
    m = gcfg.model
    if n > m.n_max:
        raise PositionOutOfRange(f"position {n} outside [1, {m.n_max}]")
    base = gcfg.base if gcfg.positional == "exp_decay" else None  # the others read none
    return _decayed_table(n, m.d_model, m.n_max, gcfg.positional, gcfg.alpha, base)


@lru_cache(maxsize=16)
def _decayed_table(n: int, d: int, n_max: int, positional: str, alpha: float,
                   base: float | None) -> np.ndarray:
    table = _decay(np.arange(1.0, n + 1), positional, alpha, base)[:, None] \
        * tf.positional_matrix(n, d, n_max)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _graded_names(variant: str, n_layers: int) -> tuple[str, ...]:
    """The encoder projections the variant grades, layer by layer, q before k."""
    return tuple(f"enc{l}.w{c}" for l in range(n_layers) for c in GRADED_PROJECTIONS[variant])


def forward_nodes(p: dict[str, ad.Node], gcfg: GradedModelConfig, inputs,
                  lam: float | None = None, weights: tuple | None = None,
                  collect: list | None = None) -> tuple[ad.Node, ad.Node]:
    """Graded forward pass on the active tape.

    inputs: token ids, (n,) or a batch (B, n), for vocab models; an (n, d)
    or (B, n, d) array otherwise.  The B sequences run as one (B n)-row
    block; attention stays within each sequence.
    lam, when given, is a base to run at in place of the config's; one the
    config would reject as its base raises InvalidSpec.
    weights is weight_nodes' (model, heads) pair, such as one made from
    learnable grades; by default the config's fixed tuples.
    Graded attention runs the encoder on a copy of p whose projections
    per GRADED_PROJECTIONS are scaled by the head weights; p itself is
    left as it is.
    Returns (encoder representations, output logits), each B n rows.
    """
    if lam is not None and lam != gcfg.base:
        gcfg = replace(gcfg, base=lam)
    cfg = gcfg.model
    w_model, w_heads = weight_nodes(gcfg) if weights is None else weights
    names = _graded_names(gcfg.attention_variant, cfg.n_layers)
    if names:
        p = p.copy()
        for name in names:
            p[name] = ad.scale_cols(p[name], w_heads)

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
        positions = graded_positional_matrix(n, gcfg)
        sequences = x.shape[0] // n
        x = ad.add(x, positions if sequences == 1 else np.tile(positions, (sequences, 1)))

    ffn = partial(grade_rows, w=w_model, normalize=gcfg.normalize_ffn) if gcfg.grade_ffn else None
    z = tf.encoder(p, x, cfg, ffn, collect, n)

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
    if variant not in GRADED_PROJECTIONS:
        raise InvalidSpec(f"unknown attention variant {variant!r}")
    scaled = GRADED_PROJECTIONS[variant]
    q, k, v = (ad.scale_cols(a, w) if c in scaled else a for c, a in zip("qkv", (q, k, v)))
    collect: list = []
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
