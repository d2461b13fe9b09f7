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
