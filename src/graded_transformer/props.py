"""Executable property suite.

Each registered property checks one mathematical claim of the graded
framework and returns a Result with the measured value and its tolerance.
Properties are seed-scoped and deterministic: the same seed yields a
byte-identical report.  `run_props` filters by substring and renders a
fixed-format text report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graded
from . import graded_space as gs
from . import harness
from . import tasks
from . import tensor
from . import training
from . import transformer as tf
from .tensor import Rng


@dataclass
class Result:
    name: str
    claim: str
    passed: bool
    measured: str
    tolerance: str


REGISTRY: list[tuple[str, str, callable]] = []


def prop(name: str, claim: str):
    def wrap(fn):
        REGISTRY.append((name, claim, fn))
        return fn
    return wrap


def _res(name, claim, passed, measured, tol) -> Result:
    return Result(name, claim, bool(passed), measured, tol)


# ---------------------------------------------------------------------------
# tensor substrate


@prop("tensor.matmul_associative", "(AB)C = A(BC) on random triples")
def _matmul_assoc(seed):
    r = Rng(seed)
    worst = 0.0
    for _ in range(50):
        a, b, c = (tensor.randn_matrix(r, 5, 7), tensor.randn_matrix(r, 7, 6),
                   tensor.randn_matrix(r, 6, 4))
        left = ad.matmul(ad.matmul(a, b), c).value
        right = ad.matmul(a, ad.matmul(b, c)).value
        worst = max(worst, float(np.linalg.norm(left - right) / np.linalg.norm(right)))
    return worst <= 1e-9, f"max rel err {worst:.3e}", "<= 1e-9"


@prop("tensor.softmax_row_sums", "softmax rows sum to 1, magnitudes up to 1e3")
def _softmax_sums(seed):
    r = Rng(seed)
    worst = 0.0
    for _ in range(1000):
        scale = float(r.generator.choice([1.0, 10.0, 1e3]))
        m = tensor.randn_matrix(r, 4, 6) * scale
        p = tensor.softmax_rows(m)
        worst = max(worst, float(np.abs(p.sum(axis=1) - 1.0).max()))
        if np.any(p < 0):
            return False, "negative entry", ">= 0"
    return worst <= 1e-12, f"max row-sum dev {worst:.3e}", "<= 1e-12"


@prop("tensor.spectral_norm_diagonal", "the spectral norm of diag(v) is max |v_i|")
def _spec_diag(seed):
    r = Rng(seed)
    worst = 0.0
    for _ in range(25):
        v = r.generator.uniform(0.1, 1.0, 6)
        est = tensor.spectral_norm(np.diag(v))
        worst = max(worst, abs(est - v.max()) / v.max())
    return worst <= 1e-12, f"max rel err {worst:.3e}", "<= 1e-12"


# ---------------------------------------------------------------------------
# autodiff


PRIMITIVE_CASES = (
    "matmul", "attention", "layer_norm", "layer_norm_residual", "feed_forward", "scale_cols",
    "normalize_rows", "add_rowvec", "embedding", "loss_squared", "loss_sigmoid_ce",
    "regularizer", "transpose", "vstack", "affine",
)


def primitive_case(case: str, g: np.random.Generator):
    """One random (fn, point) for a primitive's gradient check: fn sums the
    primitive's output against O(1) positive weights, which keeps the
    gradients O(1).  The training loss and penalty nodes count as primitives."""
    x0 = g.normal(0.0, 1.0, (3, 4))
    up = g.uniform(0.5, 1.5, (3, 4))

    def summed(out, weights=up):
        return ad.sum_all(ad.mul(out, weights))

    if case == "matmul":
        y0 = g.normal(0.0, 1.0, (4, 3))
        upm = g.uniform(0.5, 1.5, (3, 3))
        return lambda p: summed(ad.matmul(p["x"], p["y"]), upm), {"x": x0, "y": y0}
    if case == "attention":  # 2 sequences of 3 rows and 2 heads, unmasked and causal
        qkv = {name: g.normal(0.0, 1.0, (6, 4)) for name in "qkv"}
        ups = g.uniform(0.5, 1.5, (2, 6, 4))

        def attended(p):
            outs = [ad.attention_rows(p["q"], p["k"], p["v"], 3, 3, mask, None, 2)
                    for mask in (None, tf.causal_mask(3))]
            return ad.add(summed(outs[0], ups[0]), summed(outs[1], ups[1]))

        return attended, qkv
    if case == "layer_norm":  # LN(x + 0)
        gam = g.uniform(0.8, 1.2, (1, 4))
        bet = g.normal(0.0, 0.1, (1, 4))
        return (lambda p: summed(ad.layer_norm_rows(p["x"], np.zeros((3, 4)), p["g"],
                                                    p["b"], 1e-5)),
                {"x": x0, "g": gam, "b": bet})
    if case == "layer_norm_residual":
        r0 = g.normal(0.0, 1.0, (3, 4))
        gam = g.uniform(0.8, 1.2, (1, 4))
        bet = g.normal(0.0, 0.1, (1, 4))
        return (lambda p: summed(ad.layer_norm_rows(p["x"], p["r"], p["g"], p["b"], 1e-5)),
                {"x": x0, "r": r0, "g": gam, "b": bet})
    if case == "feed_forward":
        w2 = g.normal(0.0, 0.5, (5, 4))
        b2 = g.normal(0.0, 0.1, (1, 4))
        while True:  # keep every pre-activation off the ReLU kink
            w1 = g.normal(0.0, 0.5, (4, 5))
            b1 = g.normal(0.0, 0.5, (1, 5))
            if np.abs(x0 @ w1 + b1).min() >= 0.05:
                break
        return (lambda p: summed(ad.feed_forward_rows(p["x"], p["w1"], p["b1"], p["w2"],
                                                      p["b2"])),
                {"x": x0, "w1": w1, "b1": b1, "w2": w2, "b2": b2})
    if case == "scale_cols":
        w0 = g.uniform(0.5, 1.5, (1, 4))
        return lambda p: summed(ad.scale_cols(p["x"], p["w"])), {"x": x0, "w": w0}
    if case == "normalize_rows":
        return lambda p: summed(ad.normalize_rows(p["x"])), {"x": x0 + 2.0}
    if case == "add_rowvec":
        b0 = g.normal(0.0, 1.0, (1, 4))
        return lambda p: summed(ad.add_rowvec(p["x"], p["b"])), {"x": x0, "b": b0}
    if case == "vstack":  # rows appended to a buffer, as in the decoder's K/V cache
        y0 = g.normal(0.0, 1.0, (2, 4))
        up5 = g.uniform(0.5, 1.5, (5, 4))

        def appended(p):
            rows = ad.RowBuffer()
            rows.append(p["x"])
            return summed(rows.append(p["y"]), up5)

        return appended, {"x": x0, "y": y0}
    if case == "embedding":
        table = g.normal(0.0, 1.0, (5, 4))
        return lambda p: summed(ad.embedding_rows(p["t"], [0, 3, 3])), {"t": table}
    if case in ("loss_squared", "loss_sigmoid_ce"):  # scalar nodes: one weight up[:1, :1]
        y0, w0 = g.uniform(0.0, 1.0, (3, 4)), g.uniform(0.5, 1.5, (1, 4))
        base = case.removeprefix("loss_")
        return (lambda p: summed(training.sequence_loss_node(p["x"], y0, p["w"], base),
                                 up[:1, :1]), {"x": x0, "w": w0})
    if case == "regularizer":  # the model row and 3 head rows, every gamma > 0
        cfg = training.TrainConfig(gamma=0.7, gamma_heads=0.3, gamma_coord=1.3)
        rows = {"q": x0[:1], "q_heads": x0[:, :2].reshape(1, -1)}
        return lambda p: summed(training.regularizer_node(p, cfg, 3), up[:1, :1]), rows
    if case == "affine":  # the linear weight map a + b*q
        return lambda p: summed(gs.WeightMap(0.5, 1.3).node(p["x"])), {"x": x0}
    if case == "transpose":
        up_t = g.uniform(0.5, 1.5, (4, 3))
        return lambda p: summed(ad.transpose(p["x"]), up_t), {"x": x0}
    raise ValueError(f"unknown primitive case {case!r}")


def primitive_gradient_error(case: str, g: np.random.Generator, trials: int = 20) -> float:
    """Worst relative error of the tape gradient against central differences
    over `trials` draws of one primitive case."""
    return max(ad.grad_check(*primitive_case(case, g), h=1e-5) for _ in range(trials))


@prop("autodiff.primitive_gradients", "tape gradients of every primitive match central differences")
def _prim_grads(seed):
    g = Rng(seed).generator
    worst = max(primitive_gradient_error(case, g) for case in PRIMITIVE_CASES)
    return worst <= 1e-4, f"max rel err {worst:.3e}", "<= 1e-4"


def softmax_jacobian_error(g: np.random.Generator, draws: int = 10) -> float:
    """Max |tape VJP - brute-force row-Jacobian contraction| of the model's
    softmax over `draws` random 3x3 inputs and upstream gradients.

    The softmax is the one inside ad.attention_rows: with q = sqrt(3) x and
    k = v = I, the attention of 3 rows is softmax_rows(x)."""
    worst = 0.0
    eye = np.eye(3)
    for _ in range(draws):
        x = g.normal(0.0, 1.0, (3, 3))
        up = g.normal(0.0, 1.0, (3, 3))
        tape = ad.Tape()
        with ad.recording(tape):
            q = ad.scale(tape.param("x", x), np.sqrt(3.0))
            root = ad.sum_all(ad.mul(ad.attention_rows(q, eye, eye, 3, 3), up))
        got = tape.backward(root)["x"]
        p = tensor.softmax_rows(x)
        want = np.stack([(np.diag(p[i]) - np.outer(p[i], p[i])) @ up[i] for i in range(3)])
        worst = max(worst, float(np.abs(got - want).max()))
    return worst


@prop("autodiff.softmax_jacobian", "softmax backward equals the brute-force Jacobian contraction")
def _softmax_jac(seed):
    worst = softmax_jacobian_error(Rng(seed).generator)
    return worst <= 1e-8, f"max abs dev {worst:.3e}", "<= 1e-8"


# ---------------------------------------------------------------------------
# graded space


# plus_one linear weights and 2**q exponential weights, alternated by draw
_PLUS_ONE_AND_EXP2 = (gs.GradingSpec(gs.LINEAR),
                     gs.GradingSpec(gs.EXPONENTIAL, base=2.0))


def star_action_errors(g: np.random.Generator, draws: int = 100) -> tuple[float, float]:
    """Worst deviations from the group law (lam mu) * x = lam * (mu * x) and
    from the commutation M (lam * x) = lam * (M x) of plus_one grading with
    the star action, on the same `draws` random (q, x, lam, mu)."""
    group = commute = 0.0
    for _ in range(draws):
        q = g.uniform(0.0, 3.0, 5)
        x = g.normal(0.0, 1.0, 5)
        lam, mu = g.uniform(0.2, 3.0, 2)
        left = gs.star_action(lam * mu, q, x)
        right = gs.star_action(lam, q, gs.star_action(mu, q, x))
        group = max(group, float(np.abs(left - right).max()))
        m = gs.grading_matrix(q, _PLUS_ONE_AND_EXP2[0])
        left = m @ gs.star_action(lam, q, x)
        right = gs.star_action(lam, q, m @ x)
        commute = max(commute, float(np.abs(left - right).max()))
    return group, commute


@prop("graded_space.star_group_law", "(lam*mu) star x = lam star (mu star x)")
def _star_group(seed):
    worst, _ = star_action_errors(Rng(seed).generator)
    return worst <= 1e-10, f"max abs dev {worst:.3e}", "<= 1e-10"


@prop("graded_space.grading_star_commute", "diagonal grading commutes with the scalar action")
def _grading_commute(seed):
    _, worst = star_action_errors(Rng(seed).generator)
    return worst <= 1e-10, f"max abs dev {worst:.3e}", "<= 1e-10"


@prop("graded_space.norm_bounds", "||M x|| <= max-weight * ||x|| in both modes")
def _norm_bounds(seed):
    g = Rng(seed).generator
    ok = True
    worst = -np.inf
    for _ in range(1000):
        q = g.uniform(0.0, 2.5, 6)
        x = g.normal(0.0, 1.0, 6)
        for spec in _PLUS_ONE_AND_EXP2:
            w = spec.weights(q)
            lhs = np.linalg.norm(w * x)
            rhs = w.max() * np.linalg.norm(x)
            ok &= lhs <= rhs * (1 + 1e-12)
            worst = max(worst, lhs - rhs)
    return ok, f"max bound excess {worst:.3e}", "<= 0"


@prop("graded_space.bilinear_positive", "x^T M x > 0 for x != 0 under exponential grading")
def _bilinear_pos(seed):
    g = Rng(seed).generator
    spec = gs.GradingSpec(gs.EXPONENTIAL, base=3.0)
    vals = []
    for _ in range(200):
        q = g.uniform(0.0, 2.0, 5)
        x = g.normal(0.0, 1.0, 5)
        if np.linalg.norm(x) < 1e-6:
            continue
        m = gs.grading_matrix(q, spec)
        vals.append(float(x @ m @ x))
    low = min(vals)
    return low > 0, f"min quadratic form {low:.3e}", "> 0"


@prop("graded_space.feature_concentration",
      "grading suppresses coordinate j relative to the top-grade coordinate "
      "by exactly w_j / w_max")
def _concentration(seed):
    g = Rng(seed).generator
    spec = gs.GradingSpec(gs.LINEAR)
    worst = 0.0
    for _ in range(200):
        q = np.sort(g.uniform(0.0, 3.0, 6))[::-1]
        x = g.normal(0.0, 1.0, 6)
        if np.abs(x).min() < 1e-6:
            continue
        w = spec.weights(q)
        graded_vec = w * x
        m = int(np.argmax(w))
        for j in range(6):
            ratio_graded = abs(graded_vec[j]) / abs(graded_vec[m])
            ratio_plain = abs(x[j]) / abs(x[m])
            worst = max(worst, abs(ratio_graded - (w[j] / w[m]) * ratio_plain))
        # the top-grade coordinate can only gain relative mass
        share_graded = abs(graded_vec[m]) / np.linalg.norm(graded_vec)
        share_plain = abs(x[m]) / np.linalg.norm(x)
        if share_graded < share_plain - 1e-12:
            return False, "top coordinate lost mass", "factor w_j/w_max"
    return worst <= 1e-12, f"max factor dev {worst:.3e}", "<= 1e-12"


def grading_lipschitz_errors(g: np.random.Generator,
                             draws: int = 1000) -> tuple[int, float, float]:
    """The grading X -> X diag(w) against ||phi(X+D) - phi(X)|| <= m_max ||D||
    on `draws` random 4x6 (X, D): the number of violations (at 1e-12
    relative), the largest excess lhs - rhs, and the worst |lhs - rhs| for a
    D on the top-weight column, where equality holds."""
    violations, excess, equality = 0, -np.inf, 0.0
    for trial in range(draws):
        d = 6
        grades = g.uniform(0.0, 2.0, d)
        x = g.normal(size=(4, d))
        delta = g.normal(size=(4, d)) * 0.5
        w = _PLUS_ONE_AND_EXP2[trial % 2].weights(grades)
        lhs = np.linalg.norm((x + delta) * w - x * w)
        rhs = w.max() * np.linalg.norm(delta)
        violations += int(lhs > rhs * (1 + 1e-12))
        excess = max(excess, lhs - rhs)
        delta_top = np.zeros((4, d))
        delta_top[:, int(np.argmax(w))] = g.normal(size=4)
        equality = max(equality, abs(np.linalg.norm(delta_top * w)
                                     - w.max() * np.linalg.norm(delta_top)))
    return violations, excess, equality


@prop("graded_space.grading_lipschitz", "||phi(X+D) - phi(X)|| <= max-weight * ||D||")
def _grading_lip(seed):
    violations, excess, _ = grading_lipschitz_errors(Rng(seed).generator)
    return violations == 0, f"max bound excess {excess:.3e}", "<= 0"


# ---------------------------------------------------------------------------
# the graded loss that trains (training.sequence_loss_node)


def _loss(z, y, w, base_loss: str) -> float:
    return float(training.sequence_loss_node(ad.wrap(z), y, ad.wrap(w), base_loss).value[0, 0])


def _logits_targets(g: np.random.Generator):
    """A random (3, 4) block of logits z and of targets y in [0, 1], and the
    ungraded per-cell loss of each base loss: (z - y)^2 and the binary
    cross-entropy of sigmoid(z)."""
    z, y = g.normal(0.0, 2.0, (3, 4)), g.uniform(0.0, 1.0, (3, 4))
    p = 1.0 / (1.0 + np.exp(-z))
    return z, y, {"squared": (z - y) ** 2,
                  "sigmoid_ce": -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))}


def loss_sign_errors(g: np.random.Generator, draws: int = 100) -> tuple[int, int]:
    """Over `draws` random blocks, under grade weights alternating plus_one
    and 2**q: the count of negative losses under either base loss, and the
    count of squared losses that are not 0 at z = y or not positive where
    one cell of z differs from y (by 1e-6 to 1)."""
    negative = misses = 0
    for i in range(draws):
        w = _PLUS_ONE_AND_EXP2[i % 2].weights(g.uniform(0.0, 3.0, 4)).reshape(1, -1)
        z, y, _ = _logits_targets(g)
        negative += sum(_loss(z, y, w, base) < 0.0 for base in ("squared", "sigmoid_ce"))
        off = z.copy()
        off.flat[g.integers(off.size)] += g.choice([-1.0, 1.0]) * 10.0 ** g.uniform(-6.0, 0.0)
        misses += (_loss(z, z, w, "squared") != 0.0) + (_loss(off, z, w, "squared") <= 0.0)
    return int(negative), int(misses)


@prop("training.loss_nonnegative_zero_iff_equal",
      "the training loss is >= 0 under both base losses; the squared one "
      "vanishes exactly at z = y")
def _loss_zero(seed):
    negative, misses = loss_sign_errors(Rng(seed).generator)
    return negative == misses == 0, f"{negative} negative, {misses} zero-iff-equal misses", \
        "0 and 0"


def unit_weight_loss_error(g: np.random.Generator, draws: int = 100) -> float:
    """Worst |loss under a unit weight row - ungraded loss| over `draws`
    random blocks and both base losses."""
    worst = 0.0
    ones = np.ones((1, 4))
    for _ in range(draws):
        z, y, cells = _logits_targets(g)
        for base, cell in cells.items():
            worst = max(worst, abs(_loss(z, y, ones, base) - cell.sum()))
    return worst


@prop("training.loss_unit_weights_reduce", "a unit weight row gives the ungraded loss bit for bit")
def _unit_reduce(seed):
    worst = unit_weight_loss_error(Rng(seed).generator)
    return worst == 0.0, f"max dev {worst:.3e}", "== 0"


def weight_adjoint_error(g: np.random.Generator, draws: int = 50) -> float:
    """Worst deviation, relative to its peak, of the loss's VJP to a
    learnable weight row from the column sums of the per-cell loss, over
    `draws` random blocks and both base losses; for the squared loss those
    sums are rows x tasks.per_dim_error(z, y)."""
    worst = 0.0
    for _ in range(draws):
        z, y, cells = _logits_targets(g)
        per_dim = {"squared": z.shape[0] * tasks.per_dim_error(z, y),
                   "sigmoid_ce": cells["sigmoid_ce"].sum(axis=0)}
        w = g.uniform(0.5, 3.0, (1, 4))
        for base, want in per_dim.items():
            tape = ad.Tape()
            with ad.recording(tape):
                root = training.sequence_loss_node(ad.wrap(z), y, tape.param("w", w), base)
            got = tape.backward(root)["w"][0]
            worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return worst


@prop("training.loss_weight_adjoint_is_per_dim_loss",
      "the loss's weight-row VJP is the per-dimension loss (rows x per_dim_error when squared)")
def _weight_adjoint(seed):
    worst = weight_adjoint_error(Rng(seed).generator)
    return worst <= 1e-12, f"max rel dev {worst:.3e}", "<= 1e-12"


# ---------------------------------------------------------------------------
# baseline transformer


def attention_row_sum_error(g: np.random.Generator, calls: int = 1000) -> tuple[float, int]:
    """Graded attention maps over `calls` random draws, cycling
    graded.VARIANTS and alternating plus_one and 4**q weights: the max |row sum - 1|
    and the number of maps with a negative entry."""
    variants = graded.VARIANTS
    weights = (_PLUS_ONE_AND_EXP2[0], gs.GradingSpec(gs.EXPONENTIAL, base=4.0))
    worst, negative = 0.0, 0
    for trial in range(calls):
        n, dk = int(g.integers(2, 7)), int(g.integers(2, 6))
        q = g.normal(0.0, float(g.choice([1.0, 5.0])), (n, dk))
        k = g.normal(0.0, 1.0, (n, dk))
        v = g.normal(0.0, 1.0, (n, dk))
        w = weights[trial % 2].weights(g.uniform(0.0, 2.0, dk))
        _, attn = graded.graded_attention(q, k, v, w, variants[trial % len(variants)])
        worst = max(worst, float(np.abs(attn.sum(axis=1) - 1.0).max()))
        negative += int(np.any(attn < 0))
    return worst, negative


@prop("transformer.row_stochastic", "every attention map is row-stochastic")
def _row_stochastic(seed):
    worst, negative = attention_row_sum_error(Rng(seed).generator)
    return (worst <= 1e-12 and negative == 0,
            f"max row-sum dev {worst:.3e}, {negative} maps with a negative entry", "<= 1e-12")


def score_variance_error(seed: int, dks=(4, 16, 64)) -> float:
    """Max |var(q.k / sqrt(d_k)) - 1| over d_k for 100k standard normal
    (q, k) pairs; each d_k draws from Rng(seed + d_k)."""
    worst = 0.0
    for dk in dks:
        g = Rng(seed + dk).generator
        q = g.standard_normal((100_000, dk))
        k = g.standard_normal((100_000, dk))
        s = (q * k).sum(axis=1) / np.sqrt(dk)
        worst = max(worst, abs(float(s.var()) - 1.0))
    return worst


@prop("transformer.scaling_variance", "scores q.k/sqrt(d_k) have unit variance under N(0,1)")
def _scaling_var(seed):
    worst = score_variance_error(seed)
    return worst <= 0.05, f"max |var - 1| = {worst:.4f}", "<= 0.05"


@prop("transformer.symmetric_scores_psd", "with K = Q the pre-softmax matrix is PSD")
def _psd(seed):
    g = Rng(seed).generator
    low = np.inf
    for _ in range(100):
        q = g.normal(0.0, 1.0, (5, 4))
        s = q @ q.T / np.sqrt(4)
        for _ in range(20):
            x = g.normal(0.0, 1.0, 5)
            x /= np.linalg.norm(x)
            low = min(low, float(x @ s @ x))
    return low >= -1e-9, f"min Rayleigh quotient {low:.3e}", ">= -1e-9"


def permutation_equivariance_error(params, cfg, g: np.random.Generator, draws: int,
                                   max_rows: int) -> float:
    """Max ||MH(PX) - P MH(X)||_F of the enc0 attention block over `draws`
    random X with 2 <= n < max_rows rows and random permutations P."""
    worst = 0.0
    for _ in range(draws):
        n = int(g.integers(2, max_rows))
        x = g.normal(0.0, 1.0, (n, cfg.d_model))
        p_mat = np.eye(n)[g.permutation(n)]
        tape = ad.Tape()
        with ad.recording(tape):
            nodes = tf.as_nodes(params, tape, trainable=False)
            mh_x = tf.multi_head(nodes, "enc0", tape.constant(x), cfg).value
            mh_px = tf.multi_head(nodes, "enc0", tape.constant(p_mat @ x), cfg).value
        worst = max(worst, float(np.linalg.norm(mh_px - p_mat @ mh_x)))
    return worst


@prop("transformer.permutation_equivariance", "MH(PX) = P MH(X) without masks or positions")
def _perm_equiv(seed):
    r = Rng(seed)
    cfg = tf.ModelConfig(vocab_size=0, d_model=8, n_heads=2, n_layers=1, d_ff=16, n_max=16)
    worst = permutation_equivariance_error(tf.init_params(cfg, r), cfg, r.generator, 100, 8)
    return worst <= 1e-10, f"max Frobenius dev {worst:.3e}", "<= 1e-10"


@prop("transformer.generation_deterministic", "greedy decoding is a function of (params, input)")
def _gen_det(seed):
    r = Rng(seed)
    cfg = tf.ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                         n_max=12, m_max=6)
    params = tf.init_params(cfg, r)
    ok = True
    for _ in range(10):
        toks = list(r.generator.integers(3, 11, size=4))
        ok &= tf.generate(params, cfg, toks) == tf.generate(params, cfg, toks)
    return ok, "10 repeated generations identical", "bitwise equal"


# ---------------------------------------------------------------------------
# graded transformer


@prop("graded.positional_bias", "decayed positional weights favor earlier positions "
      "(constructed family with non-negative inner products)")
def _pos_bias(seed):
    g = Rng(seed).generator
    cfg = tf.ModelConfig(vocab_size=0, d_model=6, n_heads=1, n_layers=1, d_ff=8, n_max=16)
    ok = True
    for mode, kw in (("linear_decay", {"alpha": 0.05}),
                     ("exp_decay", {"alpha": 0.5, "base": 2.0, "mode": gs.EXPONENTIAL})):
        gcfg = graded.GradedModelConfig(
            model=cfg, grades=np.zeros(6), positional=mode,
            **{k: v for k, v in kw.items()},
        )
        for _ in range(50):
            content = np.abs(g.normal(0.0, 1.0, 6))
            base_pe = np.abs(g.normal(0.0, 1.0, 6))
            base_pe /= np.linalg.norm(base_pe)
            n = 6
            zs = [content + graded.positional_scale(t, gcfg) * base_pe
                  for t in range(1, n + 1)]
            scores = [float(zs[0] @ zj) for zj in zs]
            ok &= all(scores[j] > scores[j + 1] for j in range(n - 1))
    return ok, "scores strictly decrease with position", "strict ordering"


def rank_scaling_ratios(g: np.random.Generator, draws: int = 200):
    """sigma_max(Q M K^T) against m_max sigma_max(Q K^T), M = diag(w), on
    `draws` random 6x4 Q, K with weights alternating plus_one and 2**q.

    Returns the worst lhs/bound of the three forms that are theorems
    (orthonormal Q, K = Q, and the bound times min(kappa(Q), kappa(K))),
    the number of draws exceeding the unconditional form at 1e-9 relative,
    both sides of the counterexample Q=[[1,1]], K=[[-1,1]], weights (1,3),
    and whether it gives 2 > 0 with rank-deficient Q and K.
    """
    # Orthonormal Q: Q M K^T = (Q M Q^T)(Q K^T) and ||Q M Q^T|| = m_max.
    # K = Q: 0 <= Q M Q^T <= m_max Q Q^T in the Loewner order.
    # Full column rank: Q M K^T = (Q M Q^+)(Q K^T) = (Q K^T)(K^+T M K^T).
    def sigma(a):
        return float(np.linalg.norm(a, 2))

    worst = {"orthonormal": 0.0, "K=Q": 0.0, "kappa": 0.0}
    violations = 0
    for trial in range(draws):
        n, dk = 6, 4
        q = g.normal(size=(n, dk))
        k = g.normal(size=(n, dk))
        w = _PLUS_ONE_AND_EXP2[trial % 2].weights(g.uniform(0.0, 2.0, dk))
        m_max = float(w.max())
        qo = np.linalg.qr(q)[0]
        kappa = min(np.linalg.cond(q), np.linalg.cond(k))
        left, stated = sigma((q * w) @ k.T), m_max * sigma(q @ k.T)
        ratios = {
            "orthonormal": sigma((qo * w) @ k.T) / (m_max * sigma(qo @ k.T)),
            "K=Q": sigma((q * w) @ q.T) / (m_max * sigma(q @ q.T)),
            "kappa": left / (kappa * stated),
        }
        worst = {form: max(worst[form], r) for form, r in ratios.items()}
        violations += int(left > stated * (1 + 1e-9))
    cq, ck, cw = np.array([[1.0, 1.0]]), np.array([[-1.0, 1.0]]), np.array([1.0, 3.0])
    sides = (sigma((cq * cw) @ ck.T), float(cw.max()) * sigma(cq @ ck.T))
    counterexample = (sides == (2.0, 0.0) and np.linalg.matrix_rank(cq) < cq.shape[1]
                      and np.linalg.matrix_rank(ck) < ck.shape[1])
    return worst, violations, sides, counterexample


@prop("graded.attention_rank_scaling",
      "sigma_max(Q M K^T) <= m_max sigma_max(Q K^T) for orthonormal Q and for "
      "K = Q, and <= m_max min(kappa(Q), kappa(K)) sigma_max(Q K^T) for "
      "full-column-rank Q, K (unconditionally false: Q=[[1,1]], K=[[-1,1]], "
      "weights (1,3) give 2 > 0)")
def _rank_scaling(seed):
    worst, violations, _, counterexample = rank_scaling_ratios(Rng(seed).generator)
    ok = all(r <= 1 + 1e-9 for r in worst.values()) and counterexample
    ratios = ", ".join(f"{form} {r:.4f}" for form, r in worst.items())
    return ok, (f"worst lhs/bound: {ratios}; "
                f"{violations}/200 draws exceed the unconditional form"), "<= 1 (+1e-9 rel)"


def rank_scaling_product_ratio(g: np.random.Generator, draws: int = 200) -> float:
    """Worst sigma_max(Q M K^T) / (m_max sigma_max(Q) sigma_max(K)) on the
    draws of rank_scaling_ratios."""
    worst = 0.0
    for trial in range(draws):
        q = g.normal(size=(6, 4))
        k = g.normal(size=(6, 4))
        w = _PLUS_ONE_AND_EXP2[trial % 2].weights(g.uniform(0.0, 2.0, 4))
        left = float(np.linalg.norm((q * w) @ k.T, 2))
        bound = float(w.max() * np.linalg.norm(q, 2) * np.linalg.norm(k, 2))
        worst = max(worst, left / bound)
    return worst


@prop("graded.attention_rank_scaling_provable",
      "sigma_max(Q M K^T) <= m_max sigma_max(Q) sigma_max(K) for every Q, K "
      "(the K = Q case of the stated form is in graded.attention_rank_scaling)")
def _rank_scaling_provable(seed):
    worst = rank_scaling_product_ratio(Rng(seed).generator)
    return worst <= 1 + 1e-9, f"worst lhs/product bound {worst:.4f}", "<= 1 (+1e-9 rel)"


@prop("graded.score_lipschitz", "graded scores are Lipschitz in (q, k) with constant m_max * C")
def _score_lip(seed):
    g = Rng(seed).generator
    ok = True
    for _ in range(200):
        dk = 5
        grades = g.uniform(0.0, 2.0, dk)
        w = gs.GradingSpec(gs.EXPONENTIAL, base=2.0).weights(grades)
        c = 3.0
        q1, k1 = g.uniform(-1, 1, dk) * c / np.sqrt(dk), g.uniform(-1, 1, dk) * c / np.sqrt(dk)
        q2, k2 = g.uniform(-1, 1, dk) * c / np.sqrt(dk), g.uniform(-1, 1, dk) * c / np.sqrt(dk)
        lhs = abs(q1 @ (w * k1) - q2 @ (w * k2))
        rhs = w.max() * c * (np.linalg.norm(q1 - q2) + np.linalg.norm(k1 - k2))
        ok &= lhs <= rhs * (1 + 1e-9)
    return ok, "bound held on 200 draws", "m_max * C * (|dq| + |dk|)"


@prop("graded.jacobian_norm", "the grading Jacobian has operator norm m_max")
def _jac_norm(seed):
    g = Rng(seed).generator
    worst = 0.0
    for _ in range(50):
        w = _PLUS_ONE_AND_EXP2[0].weights(g.uniform(0.0, 2.0, 6))
        est = tensor.spectral_norm(np.diag(w))
        worst = max(worst, abs(est - w.max()) / w.max())
    return worst <= 1e-12, f"max rel err {worst:.3e}", "<= 1e-12"


@prop("graded.runtime_parity", "graded attention costs at most 1.5x standard attention")
def _runtime(seed):
    g = Rng(seed).generator
    ratios = []
    for n in (32, 128):
        dk = 32
        q = g.normal(0.0, 1.0, (n, dk))
        k = g.normal(0.0, 1.0, (n, dk))
        v = g.normal(0.0, 1.0, (n, dk))
        w = _PLUS_ONE_AND_EXP2[0].weights(g.uniform(0.0, 2.0, dk))

        def once(variant):
            t0 = time.perf_counter()
            graded.graded_attention(q, k, v, w, variant)
            return time.perf_counter() - t0

        # The fastest of 100 single calls of each variant, interleaved.  Load
        # stretches some calls, and the fastest call of each variant is one it
        # missed; a batch of 10 calls is rarely missed whole, so minima of
        # batches still carried load (ratios up to 7.3 under a CPU hog).
        base = scored = np.inf
        for _ in range(100):
            base = min(base, once("none"))
            scored = min(scored, once("scores"))
        ratios.append(scored / base)
    worst = max(ratios)
    # keep the report byte-reproducible: timings only appear on failure
    measured = "ratio bound held at n in (32, 128)" if worst <= 1.5 \
        else f"max time ratio {worst:.2f}"
    return worst <= 1.5, measured, "<= 1.5"


@prop("graded.effective_dimension", "d_eff counts dimensions within delta of the top grade")
def _deff(seed):
    q = np.array([0.0, 0.5, 1.0, 2.0])
    vals = [gs.effective_dimension(q, d) for d in (0.25, 1.0, 2.0)]
    ok = vals == [1, 2, 4]
    return ok, f"d_eff at deltas (0.25, 1, 2) = {vals}", "[1, 2, 4]"


def egt_nonmonotone_count(g: np.random.Generator, draws: int = 100) -> int:
    """Draws (of `draws` random 4x5 Q, K with a unique top grade) where the
    top-grade coordinate's mean share of |q_i k_j w| does not strictly
    increase over exponential bases 2, 4, 8, 16."""
    bad = 0
    for _ in range(draws):
        dk = 5
        grades = g.uniform(0.0, 1.5, dk)
        grades[int(g.integers(0, dk))] = 2.5  # unique max grade
        q = g.normal(size=(4, dk))
        k = g.normal(size=(4, dk))
        m = int(np.argmax(grades))
        shares = []
        for lam in (2.0, 4.0, 8.0, 16.0):
            w = gs.GradingSpec(gs.EXPONENTIAL, base=lam).weights(grades)
            contrib = np.abs(q[:, None, :] * k[None, :, :] * w)
            shares.append(float((contrib[:, :, m] / contrib.sum(axis=2)).mean()))
        bad += int(not all(a < b for a, b in zip(shares, shares[1:])))
    return bad


@prop("graded.egt_concentration", "the top-grade coordinate's score share grows with the base")
def _egt_conc(seed):
    bad = egt_nonmonotone_count(Rng(seed).generator)
    return bad == 0, f"{bad}/100 draws not strictly increasing at base 2,4,8,16", \
        "strict increase"


# ---------------------------------------------------------------------------
# training


@prop("training.clip_exact", "clipped global gradient norm equals the threshold when it fires")
def _clip(seed):
    g = Rng(seed).generator
    worst = 0.0
    for _ in range(100):
        grads = np.concatenate([g.normal(0.0, 2.0, (3, 3)).ravel() for i in range(4)])
        tau = float(g.uniform(0.5, 5.0))
        pre, post, fired = training.clip_gradient(grads, tau)
        norm = np.sqrt(np.sum(grads * grads))
        if fired:
            worst = max(worst, abs(norm - tau))
        else:
            worst = max(worst, abs(norm - pre))
    return worst <= 1e-9, f"max |norm - target| {worst:.3e}", "<= 1e-9"


@prop("training.regularizer_shrinks_grades",
      "gamma > 0 leaves smaller grade norms than gamma = 0 on a zero-signal task")
def _reg_shrinks(seed):
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    params = tf.init_params(cfg, Rng(0))
    g = Rng(seed).generator
    x = g.normal(0.0, 1.0, (32, 4, 4))
    y = g.integers(0, 2, (32, 4, 4)).astype(float)  # targets independent of inputs
    norms = {}
    for gamma in (0.0, 0.05):
        gcfg = graded.GradedModelConfig(model=cfg, grades=np.array([0.5, 1.0, 1.5, 2.0]),
                                        attention_variant="scores")
        tc = training.TrainConfig(steps=150, lr=1e-3, lr_grades=2e-3, gamma=gamma,
                                  gamma_coord=0.0, seed=7, batch_size=8)
        res = training.train(params, gcfg, x, y, tc)
        norms[gamma] = float(np.linalg.norm(res.grades))
    ok = norms[0.05] < norms[0.0] and norms[0.0] > 0
    return ok, f"|q| gamma=0: {norms[0.0]:.4f}, gamma=0.05: {norms[0.05]:.4f}", "strictly smaller"


@prop("training.smoke_convergence",
      "hierarchical toy task: loss after 2000 steps is at most 10% of the start, both modes")
def _smoke(seed):
    summary = []
    ok = True
    for mode in (gs.LINEAR, gs.EXPONENTIAL):
        res, _, _ = training_smoke_run(mode)
        first, last = res.metrics[0]["loss"], res.metrics[-1]["loss"]
        ratio = last / first
        ok &= np.isfinite(last) and ratio <= 0.10
        summary.append(f"{mode}: {ratio:.3f}")
    return ok, "; ".join(summary), "<= 0.10"


@prop("training.grade_lr_bounded", "the effective grade learning rate never exceeds the bound")
def _lr_bounded(seed):
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    params = tf.init_params(cfg, Rng(0))
    ds = tasks.gen_poly_degree(32, 4, seed)
    gcfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL,
                                    grades=ds.grades, attention_variant="scores")
    tc = training.TrainConfig(steps=100, lr_grades=10.0, seed=3, batch_size=8)
    res = training.train(params, gcfg, ds.x, ds.y, tc)
    ok = all(row["eta_q"] <= row["eta_q_bound"] for row in res.metrics)
    margin = min(row["eta_q_bound"] - row["eta_q"] for row in res.metrics)
    return ok, f"min bound margin {margin:.3e}", ">= 0"


# ---------------------------------------------------------------------------
# shared runs and reporting


_SMOKE_CACHE: dict[str, tuple] = {}


def training_smoke_run(mode: str, steps: int = 2000, seed: int = 42):
    """The standard toy convergence run (cached per mode within a process)."""
    key = f"{mode}:{steps}:{seed}"
    if key in _SMOKE_CACHE:
        return _SMOKE_CACHE[key]
    task = tasks.TASKS["poly_degree"]
    ds = task.generate(256, 8, seed)
    cfg = tf.ModelConfig(**harness.MODEL_DEFAULTS, **training.data_widths(ds.x, ds.y))
    params = tf.init_params(cfg, Rng(0))
    gcfg = graded.GradedModelConfig(model=cfg, mode=mode, grades=ds.grades, **task.grading)
    tc = training.TrainConfig(**{**task.train, "steps": steps, "seed": seed})
    res = training.train(params, gcfg, ds.x, ds.y, tc)
    _SMOKE_CACHE[key] = (res, gcfg, ds)
    return _SMOKE_CACHE[key]


def run_props(pattern: str | None = None, seed: int = 0) -> tuple[list[Result], str]:
    """Run (optionally filtered) properties; returns results and the report."""
    results = []
    for name, claim, fn in REGISTRY:
        if pattern and pattern not in name:
            continue
        results.append(_res(name, claim, *fn(seed)))
    lines = [f"property suite  seed={seed}  filter={pattern or '-'}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.claim}")
        lines.append(f"       measured {r.measured}  (tolerance {r.tolerance})")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} properties passed")
    return results, "\n".join(lines) + "\n"
