import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from graded_transformer import autodiff as ad
from graded_transformer import transformer as tf
from graded_transformer.tensor import Rng

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture(scope="session")
def toy_model():
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=2, d_ff=16,
                         n_max=16, out_dim=4)
    params = tf.init_params(cfg, Rng(0))
    return cfg, params


@pytest.fixture(scope="session")
def token_model():
    cfg = tf.ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                         n_max=12, m_max=8)
    params = tf.init_params(cfg, Rng(5))
    return cfg, params


def assert_close(a, b, tol=1e-12, msg=""):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dev = float(np.abs(a - b).max()) if a.size else 0.0
    assert dev <= tol, f"{msg} max dev {dev:.3e} > {tol:.1e}"


def assert_peak_close(a, b, rel, msg=""):
    """max |a - b| <= rel * max |b|: a tolerance relative to the reference's peak."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dev, peak = float(np.abs(a - b).max()), float(np.abs(b).max())
    assert dev <= rel * peak, f"{msg} max dev {dev:.3e} > {rel:.0e} x peak {peak:.3e}"


def run_nodes(params, builder):
    """builder(p, tape) on a fresh tape with the parameters as constants:
    a node's value, any other result (such as decode_nodes' tokens) as is."""
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        out = builder(p, tape)
    return out.value if isinstance(out, ad.Node) else out


def sinusoid(i, d):
    """Reference: the sinusoidal encoding of 1-based position i in dimension
    d, one position at a time."""
    k = np.arange(d, dtype=np.float64)
    angle = i / np.power(10000.0, np.where(k % 2 == 0, k, k - 1) / d)
    return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: -0.0 differs from 0.0, a NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def unnormalized_softmax(m, axis=-1, out=None):
    """Injected fault: tensor.softmax_rows without the normalization (into
    out when given, as tensor.softmax_rows does)."""
    m = np.asarray(m, dtype=np.float64)
    e = np.subtract(m, m.max(axis=axis, keepdims=True), out=out)
    return np.exp(e, out=e)


def per_head_init_params(cfg, rng, decoder=True):
    """Reference: init_params in the old checkpoint layout, one (d, d_k)
    array per head (`{prefix}.wq0` .. `wq{h-1}`, likewise wk, wv, cq, ck, cv),
    drawn in the same order as the folded layout."""
    g = rng.generator
    d, dk, h, df = cfg.d_model, cfg.d_k, cfg.n_heads, cfg.d_ff
    std = 1.0 / np.sqrt(d)
    p = {}
    if cfg.vocab_size:
        p["embed"] = g.normal(0.0, std, (cfg.vocab_size, d))
    else:
        p["w_out"] = g.normal(0.0, std, (d, cfg.output_dim))
        p["b_out"] = np.zeros((1, cfg.output_dim))

    def block(prefix, cross):
        for tag in ("w", "c") if cross else ("w",):
            for i in range(h):
                for m in "qkv":
                    p[f"{prefix}.{tag}{m}{i}"] = g.normal(0.0, std, (d, dk))
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


def watch_adjoints(nodes):
    """Catch each node's full adjoint as the backward sweep reaches it.

    Tape.backward drops an interior node's adjoint once the node's VJPs
    have run, so each interior node's first VJP is wrapped to copy the
    adjoint it is handed.  Call before backward; the returned function,
    called after it, lists the adjoints in the order of nodes: the copy
    for an interior node (None if the sweep never reached it), `.grad`
    for a leaf or a constant."""
    caught = {}
    for node in nodes:
        if node.vjps and id(node) not in caught:
            caught[id(node)] = None
            first, *rest = node.vjps

            def watched(g, key=id(node), first=first):
                caught[key] = g.copy()
                return first(g)
            node.vjps = (watched, *rest)
    return lambda: [caught[id(n)] if id(n) in caught else n.grad for n in nodes]


def copying_backward(tape, root):
    """Reference: Tape.backward copying every first contribution."""
    for node in tape.nodes:
        node.grad = None
    root.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            contrib = vjp(node.grad)
            if parent.grad is None:
                parent.grad = contrib.copy()
            else:
                parent.grad += contrib
    return {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for name, leaf in tape.params.items()}


# ---------------------------------------------------------------------------
# references for values-only inference


def live_constants(mp):
    """Patch ad.wrap and Tape.constant so every constant is a live leaf
    recorded on its tape: every node then records, with all its parents and
    VJPs, as under full recording."""
    def leaf(tape, value):
        return tape.record(ad.Node(ad._as2d(value), (), (), True))

    mp.setattr(ad.Tape, "constant", leaf)
    mp.setattr(ad, "wrap", lambda x: x if isinstance(x, ad.Node) else leaf(ad._tape(), x))


def recorded(fn, *args, **kwargs):
    """Reference: fn(*args, **kwargs) with every constant a live leaf
    (live_constants), so each op records a full node with parents and VJPs.
    Returns fn's result and, per tape made, the number of op nodes (nodes
    with parents) it recorded."""
    tapes = []

    class RecordingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    with pytest.MonkeyPatch.context() as mp:
        live_constants(mp)
        mp.setattr(ad, "Tape", RecordingTape)
        out = fn(*args, **kwargs)
    return out, [sum(1 for node in t.nodes if node.parents) for t in tapes]


def where_relu(a):
    """Reference: the ReLU node of the unfused chain, zeroing with np.where
    (a NaN input gives 0)."""
    a = ad.wrap(a)
    mask = a.value > 0
    return ad.record(np.where(mask, a.value, 0.0), (a,), (lambda g: g * mask,))


def unfused_feed_forward(p, prefix, x):
    """Reference: tf.feed_forward as a five-node chain, matmul, bias, ReLU,
    matmul, bias."""
    hidden = where_relu(ad.add_rowvec(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return ad.add_rowvec(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def unfused_layer_norm(p, site, x, r, eps):
    """Reference: tf.layer_norm as an ad.add node, then LayerNorm of the sum
    (plus a zero residual)."""
    s = ad.add(x, r)
    return ad.layer_norm_rows(s, np.zeros(s.shape), p[f"{site}.g"], p[f"{site}.b"], eps)


def chain_op(value, parents, vjps):
    """Reference: one elementwise node of the loss and penalty chains, a bare
    node when no parent is live."""
    if not any(p.live for p in parents):
        return ad.Node(value)
    return ad.record(value, parents, vjps)


def chain_sub(a, b):
    a, b = ad.wrap(a), ad.wrap(b)
    return chain_op(a.value - b.value, (a, b), (lambda g: g, lambda g: -g))


def chain_log(a):
    a = ad.wrap(a)
    return chain_op(np.log(a.value), (a,), (lambda g: g / a.value,))


def chain_sigmoid(a):
    a = ad.wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    return chain_op(s, (a,), (lambda g: g * s * (1.0 - s),))


def chain_clip_low(a, lo):
    """max(a, lo); gradient passes only through unclipped entries."""
    a = ad.wrap(a)
    mask = a.value >= lo
    return chain_op(np.maximum(a.value, lo), (a,), (lambda g: g * mask,))


def chain_sequence_loss(logits, targets, weights, base_loss):
    """Reference: training.sequence_loss_node as a chain of elementwise
    nodes, 4 for squared and 12 for sigmoid_ce when the weights record."""
    y = ad.wrap(np.asarray(targets, dtype=np.float64))
    if base_loss == "squared":
        diff = chain_sub(logits, y)
        cell = ad.mul(diff, diff)
    else:
        ones = np.ones_like(targets, dtype=np.float64)
        p = chain_clip_low(chain_sigmoid(logits), 1e-12)
        one_minus = chain_clip_low(chain_sub(ones, p), 1e-12)
        cell = ad.scale(ad.add(ad.mul(y, chain_log(p)),
                               ad.mul(chain_sub(ones, y), chain_log(one_minus))), -1.0)
    return ad.sum_all(ad.scale_cols(cell, weights))


def chain_columns(a, parts):
    """Reference: a (1, parts * w) node as `parts` column blocks of width w,
    each a node whose VJP places its adjoint in zeros of a's shape."""
    a = ad.wrap(a)
    w = a.shape[1] // parts

    def block(cols):
        def vjp(g):
            full = np.zeros(a.shape)
            full[:, cols] = g
            return full
        return chain_op(a.value[:, cols], (a,), (vjp,))

    return [block(slice(i * w, (i + 1) * w)) for i in range(parts)]


def chain_regularizer(grade_nodes, cfg, n_heads):
    """Reference: training.regularizer_node as a chain of elementwise nodes
    from a constant zero, one squared norm per grade tuple and deviation.
    grade_nodes["q_heads"] is a list of one (1, d_k) node per head, or the
    (1, h d_k) row training records, which the chain splits by columns."""
    def sq_norm(node):
        return ad.sum_all(ad.mul(node, node))

    total = ad.wrap(np.zeros((1, 1)))
    if "q" in grade_nodes and cfg.gamma > 0:
        total = ad.add(total, ad.scale(sq_norm(grade_nodes["q"]), cfg.gamma))
    heads = grade_nodes.get("q_heads", [])
    if isinstance(heads, ad.Node):
        heads = chain_columns(heads, n_heads)
    if heads and cfg.gamma_heads > 0:
        acc = sq_norm(heads[0])
        for h in heads[1:]:
            acc = ad.add(acc, sq_norm(h))
        total = ad.add(total, ad.scale(acc, cfg.gamma_heads))
    if cfg.gamma_coord > 0 and len(heads) > 1:
        mean = heads[0]
        for h in heads[1:]:
            mean = ad.add(mean, h)
        mean = ad.scale(mean, 1.0 / len(heads))
        acc = sq_norm(chain_sub(heads[0], mean))
        for h in heads[1:]:
            acc = ad.add(acc, sq_norm(chain_sub(h, mean)))
        total = ad.add(total, ad.scale(acc, cfg.gamma_coord))
    return total


def ones_row_sums(x):
    """Reference: sums over the last axis as a product with a new column of ones."""
    return x @ np.ones((x.shape[-1], 1))


def ones_col_sums(x):
    """Reference: sums over axis -2 as a product with a new row of ones."""
    return np.ones((1, x.shape[-2])) @ x


def out_of_place_softmax(m, axis=-1):
    """Reference in the order of np.add.reduce: softmax along axis with a
    new array per step and ndarray reductions."""
    e = np.exp(m - m.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def blas_softmax(m, axis=-1):
    """Reference: tensor.softmax_rows with a new array per step, its
    normaliser a product with ones."""
    e = np.exp(m - m.max(axis=axis, keepdims=True))
    return e / (ones_row_sums(e) if axis == -1 else ones_col_sums(e))


def key_major_attention(q, k, v, n_q, n_k, heads, mask, g):
    """Reference: ad.attention_rows' value and q, k, v adjoints for the
    output adjoint g, on key-major (B, heads, n_k, n_q) scores as the node
    forms them, with a new array per step and the sums over keys products
    with ones.  With B > 1 the scores, and so the probabilities and dp·p,
    are laid out keys outermost, (n_k, B, heads, n_q) in memory, as in the
    node: BLAS may round a sum over such a strided buffer differently."""
    b = q.shape[0] // n_q
    d_k, d_v = q.shape[1] // heads, v.shape[1] // heads

    def split(x, n, w):
        return x.reshape(b, n, heads, w).transpose(0, 2, 1, 3)

    def merge(x, n):
        return x.transpose(0, 2, 1, 3).reshape(b * n, -1)

    def t(x):
        return x.transpose(0, 1, 3, 2)

    def node_layout(x):
        if b == 1:
            return x
        out = np.empty((n_k, b, heads, n_q)).transpose(1, 2, 0, 3)
        out[...] = x
        return out

    c = 1.0 / np.sqrt(d_k)
    qb, kb, vb = split(q, n_q, d_k), split(k, n_k, d_k), split(v, n_k, d_v)
    scores = node_layout(kb @ t(qb)) * c
    if mask is not None:
        scores = scores + mask.T
    p = blas_softmax(scores, axis=-2)
    gb = split(g, n_q, d_v)
    dp = node_layout(vb @ t(gb))
    ds = p * (dp - ones_col_sums(dp * p)) * c
    return (merge(t(p) @ vb, n_q), merge(t(ds) @ kb, n_q), merge(ds @ qb, n_k),
            merge(p @ gb, n_k))


def out_of_place_attention(q, k, v, n_q, n_k, heads, mask, g):
    """Reference: ad.attention_rows' value and q, k, v adjoints for the
    output adjoint g in the row-major formula, (B, heads, n_q, n_k) scores
    normalised along the last axis, with a new array per step of the
    scores and of the score adjoint ds and ndarray sums."""
    b = q.shape[0] // n_q
    d_k, d_v = q.shape[1] // heads, v.shape[1] // heads

    def split(x, n, w):
        return x.reshape(b, n, heads, w).transpose(0, 2, 1, 3)

    def merge(x, n):
        return x.transpose(0, 2, 1, 3).reshape(b * n, -1)

    c = 1.0 / np.sqrt(d_k)
    qb, kb, vb = split(q, n_q, d_k), split(k, n_k, d_k), split(v, n_k, d_v)
    scores = (qb @ kb.transpose(0, 1, 3, 2)) * c
    if mask is not None:
        scores = scores + mask
    p = out_of_place_softmax(scores)
    gb = split(g, n_q, d_v)
    dp = gb @ vb.transpose(0, 1, 3, 2)
    ds = p * (dp - (dp * p).sum(axis=3, keepdims=True)) * c
    return (merge(p @ vb, n_q), merge(ds @ kb, n_q),
            merge(ds.transpose(0, 1, 3, 2) @ qb, n_k), merge(p.transpose(0, 1, 3, 2) @ gb, n_k))


def mean_layer_norm(x, gamma, beta, eps, g):
    """Reference: ad.layer_norm_rows' value and adjoint of the sum x for the
    output adjoint g, with row means taken by ndarray.mean."""
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gh = g * gamma
    dx = (gh - gh.mean(axis=1, keepdims=True)
          - xhat * (gh * xhat).mean(axis=1, keepdims=True)) * inv
    return xhat * gamma + beta, dx


def blas_layer_norm(x, gamma, beta, eps, g):
    """Reference: ad.layer_norm_rows' value and adjoint of the sum x for the
    output adjoint g, with a new array per step, row means as products with
    a new column of 1/d and the inverse deviation (var + eps)^-0.5."""
    col = np.full((x.shape[1], 1), 1.0 / x.shape[1])
    xc = x - x @ col
    inv = np.power((xc * xc) @ col + eps, -0.5)
    xhat = xc * inv
    gh = g * gamma
    dx = (gh - gh @ col - xhat * ((gh * xhat) @ col)) * inv
    return xhat * gamma + beta, dx


# ---------------------------------------------------------------------------
# reference optimizer: per-array clipping, Adam and rollback, one dict entry
# per parameter or grade tuple (training.train keeps them in flat buffers)


def ref_clip_gradient(grads, threshold):
    """Reference: global-norm clipping summed array by array."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total <= threshold or total == 0.0:
        return grads, total, total, False
    factor = threshold / total
    return {k: g * factor for k, g in grads.items()}, total, threshold, True


class RefAdamState:
    """Reference: per-name first/second moments."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


def ref_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: in-place Adam over a dict of arrays."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name, g in grads.items():
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        params[name] -= lr * mhat / (np.sqrt(vhat) + eps)


def ref_train(params, gcfg, data_x, data_y, cfg):
    """Reference: training.train's loop over per-name dicts, rolling back
    only the parameters on divergence.  Returns (params, grades,
    head_grades, losses, diverged)."""
    from dataclasses import replace

    from graded_transformer import graded_space as gs
    from graded_transformer import training

    exponential = gcfg.mode == gs.EXPONENTIAL
    base = gcfg.base
    params = {k: v.copy() for k, v in params.items()}
    gcfg = replace(gcfg, grades=gcfg.grades.copy(), head_grades=gcfg.head_grades.copy())
    rng = Rng(cfg.seed)
    grade_arrays = gcfg.grade_arrays()  # views of the copies above
    theta_state = RefAdamState(params)
    grade_state = RefAdamState(grade_arrays)
    num = data_x.shape[0]
    last_good = {k: v.copy() for k, v in params.items()}
    losses, diverged = [], False
    for t in range(1, cfg.steps + 1):
        lam_t = training.anneal_lambda(t, cfg.steps, base) if exponential else 1.0
        if exponential:
            gcfg.base = lam_t
        ids = rng.generator.integers(0, num, size=min(cfg.batch_size, num))
        tape, total, _, _ = training.record_step(params, gcfg, data_x[ids], data_y[ids], cfg)
        loss = float(total.value[0, 0])
        if not np.isfinite(loss):
            diverged, params = True, last_good
            break
        grads, *_ = ref_clip_gradient(tape.backward(total), cfg.clip_threshold)
        if exponential:
            q_max = max(float(v.max()) for v in grade_arrays.values())
            bound = training.grade_lr_bound(gs.EXPONENTIAL, lam_t, q_max)
        else:
            bound = training.grade_lr_bound(gs.LINEAR, 1.0, gcfg.max_weight())
        eta_q = min(cfg.lr_grades, 0.9 * bound)
        ref_adam_step(params, {k: grads[k] for k in params}, theta_state, cfg.lr,
                      cfg.beta1, cfg.beta2, cfg.eps_adam)
        if cfg.learn_grades:
            ref_adam_step(grade_arrays, {k: grads[k] for k in grade_arrays}, grade_state,
                          eta_q, cfg.beta1, cfg.beta2, cfg.eps_adam)
            for v in grade_arrays.values():
                np.maximum(v, 0.0, out=v)
        if any(not np.all(np.isfinite(v)) for v in params.values()):
            diverged, params = True, last_good
            break
        last_good = {k: v.copy() for k, v in params.items()}
        losses.append(loss)
    return params, gcfg.grades, gcfg.head_grades, losses, diverged
