"""Baseline encoder-decoder transformer.

Forward passes are written against the autodiff tape so the same code
serves training and inference; inference wraps parameters as constants,
from which no node records, and reads back plain arrays.  Post-norm
residual order throughout: X' = Ln(X + Mh(X)), then Ln(X' + Fnn(X')).

Positions are 1-based.  Token ids live in [1, vocab_size]; id 1 is the
start token and id 2 is EOS.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import container
from .errors import (
    DimensionMismatch,
    PositionOutOfRange,
    SequenceTooLong,
    TokenOutOfRange,
)
from .tensor import Rng

START_TOKEN = 1
EOS_TOKEN = 2
MASK_VALUE = -1e30  # finite stand-in for -inf; softmax result equal to 1e-12


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int  # 0 = matrix-input model (no embedding table)
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    n_max: int = 64
    m_max: int = 64
    eps: float = 1e-5
    out_dim: int = 0  # 0 = d_model; used by matrix-input output head

    def __post_init__(self):
        check_integer_fields(self, DimensionMismatch)  # else init_params fails deep inside
        if self.d_model % self.n_heads != 0:
            raise DimensionMismatch(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if min(self.d_model, self.n_heads, self.d_ff, self.n_max, self.m_max) < 1:
            raise DimensionMismatch("all model dimensions must be >= 1")
        if self.n_layers < 0 or not 0 < self.eps < np.inf:
            raise DimensionMismatch("n_layers must be >= 0 and eps finite and > 0")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    @property
    def output_dim(self) -> int:
        return self.out_dim or self.d_model

    def to_dict(self) -> dict:
        return asdict(self)


def check_integer_fields(obj, error: type[Exception]) -> None:
    """Raise error for the first int-annotated field of the dataclass obj
    that holds a float, a bool or any other non-integer."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type == "int" and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
            raise error(f"{f.name} must be an integer, not {v!r}")


def init_params(cfg: ModelConfig, rng: Rng, decoder: bool = True) -> dict[str, np.ndarray]:
    """Gaussian init with std 1/sqrt(d) on projections, keeping pre-softmax
    scores O(1); LayerNorm gains start at 1."""
    g = rng.generator
    d, dk, h, df = cfg.d_model, cfg.d_k, cfg.n_heads, cfg.d_ff
    std = 1.0 / np.sqrt(d)
    p: dict[str, np.ndarray] = {}
    if cfg.vocab_size:
        p["embed"] = g.normal(0.0, std, (cfg.vocab_size, d))
    else:
        p["w_out"] = g.normal(0.0, std, (d, cfg.output_dim))
        p["b_out"] = np.zeros((1, cfg.output_dim))

    def block(prefix: str, cross: bool):
        # Drawn head by head, as when each head had its own (d, d_k) matrices,
        # then stacked: head i owns columns i d_k .. (i + 1) d_k of wq, wk, wv.
        for tag in ("w", "c") if cross else ("w",):
            heads = [[g.normal(0.0, std, (d, dk)) for _ in "qkv"] for _ in range(h)]
            for m, mats in zip("qkv", zip(*heads)):
                p[f"{prefix}.{tag}{m}"] = np.hstack(mats)
            p[f"{prefix}.{tag}o"] = g.normal(0.0, std, (h * dk, d))

    for l in range(cfg.n_layers):
        block(f"enc{l}", cross=False)
        p[f"enc{l}.w1"] = g.normal(0.0, std, (d, df))
        p[f"enc{l}.b1"] = np.zeros((1, df))
        p[f"enc{l}.w2"] = g.normal(0.0, 1.0 / np.sqrt(df), (df, d))
        p[f"enc{l}.b2"] = np.zeros((1, d))
        for site in ("ln1", "ln2"):
            p[f"enc{l}.{site}.g"] = np.ones((1, d))
            p[f"enc{l}.{site}.b"] = np.zeros((1, d))
        if decoder and cfg.vocab_size:
            block(f"dec{l}", cross=True)
            p[f"dec{l}.w1"] = g.normal(0.0, std, (d, df))
            p[f"dec{l}.b1"] = np.zeros((1, df))
            p[f"dec{l}.w2"] = g.normal(0.0, 1.0 / np.sqrt(df), (df, d))
            p[f"dec{l}.b2"] = np.zeros((1, d))
            for site in ("ln1", "ln2", "ln3"):
                p[f"dec{l}.{site}.g"] = np.ones((1, d))
                p[f"dec{l}.{site}.b"] = np.zeros((1, d))
    return p


def as_nodes(params: dict[str, np.ndarray], tape: ad.Tape, trainable: bool
             ) -> dict[str, ad.Node]:
    """Every array of params as a tape leaf (trainable) or a constant."""
    if trainable:
        return {k: tape.param(k, v) for k, v in params.items()}
    return {k: tape.constant(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# fixed encodings and masks


def _sinusoids(positions: np.ndarray, d: int) -> np.ndarray:
    """One sinusoidal encoding row per 1-based position, in dimension d."""
    k = np.arange(d, dtype=np.float64)
    expo = np.where(k % 2 == 0, k, k - 1) / d
    angle = positions[:, None] / np.power(10000.0, expo)
    return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))


def positional_matrix(n: int, d: int, n_max: int | None = None) -> np.ndarray:
    """Encodings of positions 1..n, one row each: a read-only table shared
    by every call with the same (n, d)."""
    if n_max is not None and n > n_max:
        raise PositionOutOfRange(f"position {n} outside [1, {n_max}]")
    return _sinusoid_table(n, d)


@lru_cache(maxsize=64)
def _sinusoid_table(n: int, d: int) -> np.ndarray:
    table = _sinusoids(np.arange(1, n + 1, dtype=np.float64), d)
    table.flags.writeable = False
    return table


def causal_mask(n: int) -> np.ndarray:
    """Additive mask: MASK_VALUE strictly above the diagonal."""
    return np.triu(np.full((n, n), MASK_VALUE), k=1)


def check_tokens(tokens, cfg: ModelConfig) -> np.ndarray:
    """Validated ids: one sequence (n,) or a batch (B, n) of equal-length,
    non-empty sequences.  The length cap n_max applies to each sequence."""
    try:
        ids = np.atleast_1d(np.asarray(tokens))
    except ValueError as exc:  # ragged batch
        if any(len(row) > cfg.n_max for row in tokens if hasattr(row, "__len__")):
            raise SequenceTooLong(f"a sequence of the batch exceeds {cfg.n_max}") from exc
        raise DimensionMismatch("batched sequences must share one length") from exc
    if ids.ndim > 2:
        raise DimensionMismatch(f"token ids must be (n,) or (B, n), got {ids.ndim}-D")
    if ids.size == 0:
        raise DimensionMismatch(f"token ids must not be empty, got shape {ids.shape}")
    if ids.dtype.kind not in "iu" or ids.min() < 1 or ids.max() > cfg.vocab_size:
        raise TokenOutOfRange(f"token ids must be integers in [1, {cfg.vocab_size}]")
    if ids.shape[-1] > cfg.n_max:
        raise SequenceTooLong(f"sequence of length {ids.shape[-1]} exceeds {cfg.n_max}")
    return ids


def check_prompt(tokens, cfg: ModelConfig) -> np.ndarray:
    """Validated ids of one prompt (n,): generation decodes one sequence."""
    ids = check_tokens(tokens, cfg)
    if ids.ndim != 1:
        raise DimensionMismatch(f"generation takes one prompt (n,), got shape {ids.shape}")
    return ids


def embed_tokens(p: dict[str, ad.Node], cfg: ModelConfig, tokens) -> ad.Node:
    """Embedding rows plus positional encodings (1-based)."""
    ids = check_tokens(tokens, cfg)
    emb = ad.embedding_rows(p["embed"], ids - 1)
    return ad.add(emb, positional_matrix(ids.size, cfg.d_model, cfg.n_max))


# ---------------------------------------------------------------------------
# attention and layers (tape-level)


def attention_head(q, k, v, d_k: int, mask: np.ndarray | None = None,
                   collect: list | None = None, seq_len: int | None = None) -> ad.Node:
    """softmax(q k^T / sqrt(d_k) [+ mask]) v within each sequence, for every
    head at once: head i owns columns i d_k .. (i + 1) d_k of q, k and v.

    q stacks sequences of seq_len rows (default: one sequence); k and v
    stack the same number of sequences.  `collect` receives one
    (B, n_q, n_k) array of attention probabilities per head.
    """
    if type(q) is not ad.Node or type(k) is not ad.Node:
        q, k = ad.wrap(q), ad.wrap(k)
    rows, width = q.value.shape
    if width % d_k:
        raise DimensionMismatch(f"attention_head: q width {width} not heads x d_k {d_k}")
    n_q = rows if seq_len is None else seq_len
    sequences = rows // n_q if n_q > 0 else 0
    n_k = k.value.shape[0] // sequences if sequences else 0
    return ad.attention_rows(q, k, v, n_q, n_k, mask, collect, width // d_k)


# Parameter names, built once per prefix rather than on every call.


@lru_cache(maxsize=256)
def _attention_names(prefix: str, cross: bool) -> tuple[str, str, str, str]:
    """The W_Q, W_K, W_V and W_O names of one attention."""
    name = f"{prefix}.{'c' if cross else 'w'}"
    return f"{name}q", f"{name}k", f"{name}v", f"{name}o"


@lru_cache(maxsize=256)
def _ffn_names(prefix: str) -> tuple[str, str, str, str]:
    return f"{prefix}.w1", f"{prefix}.b1", f"{prefix}.w2", f"{prefix}.b2"


@lru_cache(maxsize=256)
def _norm_names(site: str) -> tuple[str, str]:
    return f"{site}.g", f"{site}.b"


@lru_cache(maxsize=256)
def _layer_names(stack: str, l: int) -> tuple[str, str, str, str]:
    """Layer l's prefix in the "enc" or "dec" stack and its LayerNorm sites."""
    pre = f"{stack}{l}"
    return pre, f"{pre}.ln1", f"{pre}.ln2", f"{pre}.ln3"


def multi_head(p: dict[str, ad.Node], prefix: str, x, cfg: ModelConfig,
               mask: np.ndarray | None = None,
               collect: list | None = None, kv=None,
               seq_len: int | None = None) -> ad.Node:
    """Concat(head_1..head_h) W_O, with the heads' projections folded into
    one (d, h d_k) matrix each for Q, K and V.

    Graded attention reaches here only through p, whose projections the
    graded model has scaled (see graded.GRADED_PROJECTIONS).  `kv`, when
    given, is the key/value source of a cross-attention, which reads the
    `{prefix}.c*` projections; self-attention reads `{prefix}.w*`.  x may
    stack sequences of seq_len rows; attention stays within each sequence.
    A cached decode step attends through DecodeLayer instead.
    """
    wq, wk, wv, wo = _attention_names(prefix, kv is not None)
    kv = x if kv is None else kv
    q = ad.matmul(x, p[wq])
    k = ad.matmul(kv, p[wk])
    v = ad.matmul(kv, p[wv])
    heads = attention_head(q, k, v, cfg.d_k, mask, collect, seq_len)
    return ad.matmul(heads, p[wo])


def feed_forward(p: dict[str, ad.Node], prefix: str, x) -> ad.Node:
    """Fnn(x) = relu(x W1 + b1) W2 + b2, one tape node."""
    w1, b1, w2, b2 = _ffn_names(prefix)
    return ad.feed_forward_rows(x, p[w1], p[b1], p[w2], p[b2])


def layer_norm(p: dict[str, ad.Node], site: str, x, r, eps: float) -> ad.Node:
    """Ln(x + r), the residual add and LayerNorm of one post-norm step, as
    one tape node."""
    g, b = _norm_names(site)
    return ad.layer_norm_rows(x, r, p[g], p[b], eps)


def encoder_layer(p, l: int, x, cfg: ModelConfig, ffn=None,
                  collect: list | None = None, seq_len: int | None = None) -> ad.Node:
    pre, ln1, ln2, _ = _layer_names("enc", l)
    attn = multi_head(p, pre, x, cfg, collect=collect, seq_len=seq_len)
    x1 = layer_norm(p, ln1, x, attn, cfg.eps)
    ff = feed_forward(p, pre, x1)
    if ffn is not None:
        ff = ffn(ff)
    return layer_norm(p, ln2, x1, ff, cfg.eps)


def encoder(p, x, cfg: ModelConfig, ffn=None, collect=None,
            seq_len: int | None = None) -> ad.Node:
    """Stack of n_layers encoder layers (identity when n_layers = 0).

    ffn, when given, maps each layer's FFN output node to the node that
    enters its residual (the graded FFN stage).  x may stack sequences of
    seq_len rows (default: x is one sequence).
    """
    for l in range(cfg.n_layers):
        x = encoder_layer(p, l, x, cfg, ffn,
                          collect[l] if collect is not None else None, seq_len)
    return x


@lru_cache(maxsize=256)
def _decoder_names(l: int) -> tuple[str, ...]:
    """Every array name of decoder layer l, in init_params' order."""
    pre, *sites = _layer_names("dec", l)
    return (*_attention_names(pre, False), *_attention_names(pre, True), *_ffn_names(pre),
            *(name for site in sites for name in _norm_names(site)))


class DecodeLayer:
    """One decoder layer's two attentions for the cached decoding of one
    sequence, through projections absorbed once per request.

    Head h's self-attention score of the new row y against a layer-input
    row x is y W_Q,h W_K,h^T x^T / sqrt(d_k), and its output reaches the
    sublayer's result as p_h X W_V,h W_O,h.  So per layer the request
    builds A = [W_Q,h W_K,h^T]_h / sqrt(d_k), (d, h d), and B = [W_V,h
    W_O,h]_h stacked by rows, (h d, d); a step is then
    ad.shared_kv_attention(y A, X) B, in which every head attends over the
    same d-wide rows X, the layer's inputs so far, kept in a RowBuffer.
    The cross-attention folds the encoder output z in as well:
    M = [W_cQ,h (z W_cK,h)^T]_h / sqrt(d_k), (d, h m), and N = [z W_cV,h
    W_cO,h]_h stacked by rows, (h m, d); a step is ad.softmax_groups(y M,
    h) N.  This costs about h/2 times the multiply-adds of the projected
    form, 2 h d^2 + 2 h t d against 4 d^2 + 2 t d for the self-attention
    over t rows, and far fewer numpy calls.  Every product is a tape node,
    so a live parameter gets its gradient through a cached step.
    """

    __slots__ = ("heads", "a", "b", "m", "n", "rows")

    def __init__(self, p: dict[str, ad.Node], l: int, z, cfg: ModelConfig):
        for name in _decoder_names(l):  # all the layer's steps read, before any runs
            if name not in p:
                raise ValueError(f"decoder: missing array {name!r}")
        pre = _layer_names("dec", l)[0]
        wq, wk, wv, wo = (p[name] for name in _attention_names(pre, False))
        cq, ck, cv, co = (p[name] for name in _attention_names(pre, True))
        h, c = cfg.n_heads, 1.0 / np.sqrt(cfg.d_k)
        self.heads = h
        self.a = ad.scale(ad.head_products(wq, wk, h), c)
        self.b = ad.transpose(ad.head_products(ad.transpose(wo), wv, h))
        self.m = ad.scale(ad.head_products(cq, ad.matmul(z, ck), h), c)
        self.n = ad.transpose(ad.head_products(ad.transpose(co), ad.matmul(z, cv), h))
        self.rows = ad.RowBuffer()

    def self_attention(self, y) -> ad.Node:
        """The new row y against every layer-input row so far, y included."""
        q = ad.matmul(y, self.a)
        return ad.matmul(ad.shared_kv_attention(q, self.rows.append(y), self.heads), self.b)

    def cross_attention(self, y) -> ad.Node:
        return ad.matmul(ad.softmax_groups(ad.matmul(y, self.m), self.heads), self.n)


def decoder_layer(p, l: int, y, z, cfg: ModelConfig, step: DecodeLayer | None = None
                  ) -> ad.Node:
    """Layer l on the rows y under a causal mask, or, given the layer's
    DecodeLayer, on the one new row y of a cached decode."""
    pre, ln1, ln2, ln3 = _layer_names("dec", l)
    if step is None:
        sa = multi_head(p, pre, y, cfg, mask=causal_mask(y.shape[0]))
    else:
        sa = step.self_attention(y)
    y1 = layer_norm(p, ln1, y, sa, cfg.eps)
    ca = multi_head(p, pre, y1, cfg, kv=z) if step is None else step.cross_attention(y1)
    y2 = layer_norm(p, ln2, y1, ca, cfg.eps)
    return layer_norm(p, ln3, y2, feed_forward(p, pre, y2), cfg.eps)


def decoder(p, y, z, cfg: ModelConfig, cache: dict | None = None) -> ad.Node:
    """Decoder stack on the rows y under a causal mask, attending to z.

    With a cache, a dict kept across the calls of one request, y is the
    one row after the rows of the earlier calls, and no mask applies: the
    new row sees every earlier row.  The first call builds a DecodeLayer
    per layer, and with it raises ValueError for the first decoder array
    p lacks; every call then attends through them.  Row t of this
    post-norm stack depends only on rows <= t, so decoding row by row
    gives the rows of one masked pass over the whole prefix, up to
    rounding.  A cache serves one request and one continuation: the
    earlier rows are never rewritten, and a copy of the dict shares its
    buffers.
    """
    if cache is None:
        steps = [None] * cfg.n_layers
    else:
        if y.shape[0] != 1:
            raise DimensionMismatch(f"cached decoding takes one row, got {y.shape[0]}")
        if "layers" not in cache:  # every layer is built before any step runs
            cache["layers"] = [DecodeLayer(p, l, z, cfg) for l in range(cfg.n_layers)]
        steps = cache["layers"]
    for l, step in enumerate(steps):
        y = decoder_layer(p, l, y, z, cfg, step)
    return y


# ---------------------------------------------------------------------------
# inference wrappers


def encode(params: dict[str, np.ndarray], cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """Run the encoder on an already-embedded n x d matrix."""
    tape = ad.Tape()
    with ad.recording(tape):
        p = as_nodes(params, tape, trainable=False)
        out = encoder(p, tape.constant(x), cfg)
    return out.value


def generate(params: dict[str, np.ndarray], cfg: ModelConfig, tokens,
             m_max: int | None = None, eos: int = EOS_TOKEN) -> list[int]:
    """Encoder on the embedded tokens, then greedy decoding (decode_nodes),
    with every array wrapped once for both."""
    tape = ad.Tape()
    with ad.recording(tape):
        p = as_nodes(params, tape, trainable=False)
        z = encoder(p, embed_tokens(p, cfg, check_prompt(tokens, cfg)), cfg)
        return decode_nodes(p, z, cfg, cfg.m_max if m_max is None else m_max, eos)


def decode_nodes(p: dict[str, ad.Node], z: ad.Node, cfg: ModelConfig, m_max: int,
                 eos: int = EOS_TOKEN) -> list[int]:
    """Greedy decoding on the active tape against the encoder output node z:
    argmax over softmax(W_e z_t); ties break to the lowest token id; stops
    at EOS or after m_max tokens.

    Each token runs the decoder once, on its one new row, with a cache
    (see decoder): per layer the absorbed attention products of the
    request and the layer-input rows of the earlier tokens.
    """
    embed = p["embed"]
    positions = positional_matrix(min(m_max, cfg.m_max + 1), cfg.d_model, cfg.m_max + 1)
    cache: dict = {}
    out: list[int] = []
    token = START_TOKEN
    while len(out) < m_max:
        # argmax + 1 keeps every id in range; only the length needs a check
        t = len(out) + 1
        if t > cfg.m_max + 1:
            raise SequenceTooLong(f"sequence of length {t} exceeds {cfg.m_max + 1}")
        row = ad.add(ad.embedding_rows(embed, [token - 1]), positions[t - 1:t])
        dec = decoder(p, row, z, cfg, cache)
        logits = dec.value[-1] @ embed.value.T
        token = int(np.argmax(logits)) + 1  # argmax returns the first max
        out.append(token)
        if token == eos:
            break
    return out


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_KIND = "transformer-checkpoint"


def save_checkpoint(path, params: dict[str, np.ndarray], cfg: ModelConfig,
                    extra: dict | None = None) -> None:
    meta = {"kind": CHECKPOINT_KIND, "config": cfg.to_dict(), "extra": extra or {}}
    container.save_arrays(path, params, meta)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Parameters, config and extra metadata of a checkpoint.

    The arrays must follow init_params' layout for the config: every
    encoder array with its name and shape, the decoder arrays all present
    or all absent, and no array the layout does not name.
    """
    arrays, meta = container.load_arrays(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a checkpoint container")
    try:
        cfg = ModelConfig(**meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: missing or invalid model config: {exc!r}") from exc
    # shapes from a throwaway init, so the check cannot drift from the layout
    layout = {k: v.shape for k, v in init_params(cfg, Rng(0)).items()}
    if not any(k in arrays for k in layout if k.startswith("dec")):
        layout = {k: shape for k, shape in layout.items() if not k.startswith("dec")}
    for name, shape in layout.items():
        if name not in arrays:
            raise ValueError(f"{path}: missing array {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: array {name!r} has shape {arrays[name].shape}, "
                             f"expected {shape}")
    unknown = [name for name in arrays if name not in layout]
    if unknown:
        raise ValueError(f"{path}: unexpected array {unknown[0]!r}")
    return arrays, cfg, meta.get("extra", {})
