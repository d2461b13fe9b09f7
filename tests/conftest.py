import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


def unnormalized_softmax(m):
    """Injected fault: tensor.softmax_rows without the normalization."""
    m = np.asarray(m, dtype=np.float64)
    return np.exp(m - m.max(axis=-1, keepdims=True))


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
