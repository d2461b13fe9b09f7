"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 10's inequality sigma_max(QMK^T) <= m_max sigma_max(QK^T) admits
counterexamples (e.g. Q=[[1,1]], K=[[-1,1]], weights (1,3): left side 2, right
side 0), so test_c10_rank_scaling_as_stated asserts it in the forms that are
theorems: verbatim for orthonormal Q and for K = Q, and with the factor
min(kappa(Q), kappa(K)) on every draw.  The product-norm bound
sigma_max(QMK^T) <= m_max sigma_max(Q) sigma_max(K) is asserted by
test_c10_provable_bound.
"""

import numpy as np

from graded_transformer import autodiff as ad
from graded_transformer import graded
from graded_transformer import graded_space as gs
from graded_transformer import props
from graded_transformer import tasks
from graded_transformer import training
from graded_transformer import transformer as tf
from graded_transformer.tensor import Rng


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    return ok


def test_c01_photonic_example():
    cfg = tf.ModelConfig(vocab_size=0, d_model=3, n_heads=1, n_layers=1, d_ff=4)
    gcfg = graded.GradedModelConfig(model=cfg, grades=np.array([0.0, 1.0, 2.0]),
                                    weight_map=gs.WeightMap(1.0, 0.1))
    x = np.array([1.0, 0.5, 0.1])
    scaled = x * gcfg.weights()
    norm = float(np.linalg.norm(scaled))
    unit = graded.graded_input(x, gcfg)
    dev = np.abs(unit - [0.871, 0.479, 0.105]).max()
    ok = dev <= 5e-4 and abs(norm - 1.148) <= 1e-3
    assert verdict(1, ok, f"normalized dev {dev:.2e} (tol 5e-4), norm {norm:.6f} vs 1.148")


def test_c02_loss_multipliers_exact():
    q = [0.0, 0.5, 1.0, 2.0]
    lgt = gs.GradingSpec(gs.LINEAR).weights(q)
    egt = gs.GradingSpec(gs.EXPONENTIAL, base=2.0).weights(q)
    dev = max(np.abs(lgt - [1.0, 1.5, 2.0, 3.0]).max(),
              np.abs(egt - [1.0, np.sqrt(2.0), 2.0, 4.0]).max())
    assert verdict(2, dev <= 1e-12, f"multiplier dev {dev:.2e} (tol 1e-12)")


def test_c03_row_stochastic_all_variants():
    worst, neg = props.attention_row_sum_error(Rng(0).generator, 1000)
    ok = worst <= 1e-12 and neg == 0
    assert verdict(3, ok, f"1000 calls, max row-sum dev {worst:.2e} (tol 1e-12), "
                          f"{neg} negative entries")


def test_c04_permutation_equivariance():
    cfg = tf.ModelConfig(vocab_size=0, d_model=8, n_heads=2, n_layers=1, d_ff=16)
    params = tf.init_params(cfg, Rng(4))
    worst = props.permutation_equivariance_error(params, cfg, Rng(14).generator, 100, 9)
    assert verdict(4, worst <= 1e-10, f"100 draws, max Frobenius dev {worst:.2e} (tol 1e-10)")


def test_c05_scaling_factor_variance():
    worst = props.score_variance_error(500, (4, 16, 64))
    assert verdict(5, worst <= 0.05, f"max |sample var - 1| {worst:.4f} over d_k in (4,16,64) (tol 0.05)")


def test_c06_grading_stage_lipschitz():
    violations, _, worst_eq = props.grading_lipschitz_errors(Rng(6).generator, 1000)
    ok = violations == 0 and worst_eq <= 1e-9
    assert verdict(6, ok, f"bound held on 1000 draws; equality dev {worst_eq:.2e} (tol 1e-9)")


def test_c07_graded_relu_homogeneity():
    g = Rng(7).generator
    worst = 0.0
    for trial in range(500):
        d = 5
        if trial % 4 == 0:  # negative base, integer grades
            q = g.integers(1, 4, d).astype(float)
            lam = -float(g.uniform(0.25, 2.0))
        else:
            q = g.uniform(0.5, 3.0, d)
            lam = float(g.uniform(0.25, 4.0))
        x = g.normal(size=d)
        left = gs.graded_relu(q, gs.star_action(lam, q, x))
        right = abs(lam) * gs.graded_relu(q, x)
        worst = max(worst, float(np.abs(left - right).max()))
    assert verdict(7, worst <= 1e-10, f"500 draws, max dev {worst:.2e} (tol 1e-10)")


def test_c08_star_group_law_and_commutation():
    worst = max(props.star_action_errors(Rng(8).generator, 100))
    assert verdict(8, worst <= 1e-10, f"group law + commutation, max dev {worst:.2e} (tol 1e-10)")


def test_c09_attention_expressivity():
    g = Rng(9).generator
    worst_ratio = 0.0
    for delta in (1e-3, 1e-6):
        for trial in range(50):
            n = 4 if trial % 2 == 0 else 8
            a0 = g.uniform(0.0, 1.0, (n, n))
            a0 /= a0.sum(axis=1, keepdims=True)
            *_, err = graded.construct_attention_target(a0, delta)
            worst_ratio = max(worst_ratio, err / delta)
    ok = worst_ratio <= 1.0
    assert verdict(9, ok, f"50 targets per delta in (1e-3, 1e-6), 4x4 and 8x8; "
                          f"worst err/delta {worst_ratio:.2e} (tol 1)")


def test_c10_rank_scaling_as_stated():
    # Claim under test: sigma_max(Q M K^T) <= m_max sigma_max(Q K^T) (1 + 1e-9),
    # M = diag(w), w > 0.  Unconditionally it is false: a diagonal M can break
    # cancellations in Q K^T, and 5 of these 200 draws exceed it by up to 2.7%.
    # Asserted are the forms that are theorems (||.|| is sigma_max):
    # - orthonormal Q (the Q factor of each draw's QR): Q^T Q = I gives
    #   Q M K^T = (Q M Q^T)(Q K^T), and ||Q M Q^T|| = ||M|| = m_max.
    # - K = Q: 0 <= Q M Q^T <= m_max Q Q^T in the Loewner order, so the largest
    #   eigenvalues, which are the sigma_max of these PSD matrices, obey it.
    # - every raw draw: for full-column-rank Q, Q^+ Q = I gives
    #   Q M K^T = (Q M Q^+)(Q K^T) with ||Q M Q^+|| <= m_max kappa(Q); likewise
    #   Q M K^T = (Q K^T)(K^+T M K^T) for K.  So the stated bound holds with the
    #   factor min(kappa(Q), kappa(K)).
    # The counterexample Q=[[1,1]], K=[[-1,1]], M=diag(1,3) (2 > 0) has Q and K
    # of rank 1 < 2 columns, so no form above covers it.
    worst, violations, (c_left, c_right), counterexample = \
        props.rank_scaling_ratios(Rng(10).generator, 200)
    ok = all(r <= 1 + 1e-9 for r in worst.values()) and counterexample
    ratios_text = ", ".join(f"{form} {r:.4f}" for form, r in worst.items())
    assert verdict(10, ok, f"worst lhs/bound over 200 draws: {ratios_text} (tol 1+1e-9); "
                           f"{violations}/200 raw draws exceed the unconditional form; "
                           f"rank-1 counterexample Q=[[1,1]], K=[[-1,1]], weights (1,3) "
                           f"gives {c_left:g} > {c_right:g}")


def test_c10_provable_bound():
    # The product bound sigma_max(Q M K^T) <= m_max sigma_max(Q) sigma_max(K)
    # holds for every Q and K.  The K = Q case of the stated form is asserted
    # in test_c10_rank_scaling_as_stated on the same draws.
    worst = props.rank_scaling_product_ratio(Rng(10).generator, 200)
    assert verdict(10, worst <= 1 + 1e-9,
                   f"product bound on 200 draws: worst lhs/bound {worst:.4f} (tol 1+1e-9)")


def _full_model_gradcheck(mode: str, seed: int) -> float:
    rng = Rng(seed)
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    params = tf.init_params(cfg, rng, decoder=False)
    q = np.abs(rng.generator.normal(0.5, 0.3, 4)) + 0.1
    gcfg = graded.GradedModelConfig(
        model=cfg, mode=mode, grades=q, attention_variant="queries_keys",
        base=1.7, normalize_inputs=True, grade_ffn=True, normalize_ffn=False,
        grade_output=True)
    x = rng.generator.normal(size=(3, 4))
    y = rng.generator.normal(0.0, 0.8, (3, 4))
    point = dict(params)
    point["q"] = q.reshape(1, -1)
    point["q_heads"] = gcfg.head_grades.reshape(1, -1)

    def f(nodes):
        theta = {k: v for k, v in nodes.items() if not k.startswith("q")}
        grade_nodes = {k: v for k, v in nodes.items() if k.startswith("q")}
        w = gcfg.spec().node(grade_nodes["q"])
        _, logits = graded.forward_nodes(theta, gcfg, x,
                                         weights=graded.weight_nodes(gcfg, grade_nodes))
        loss = training.sequence_loss_node(logits, y, w, "squared")
        reg = ad.scale(ad.sum_all(ad.mul(grade_nodes["q"], grade_nodes["q"])), 0.01)
        return ad.scale(ad.add(loss, reg), 1.0 / 12)

    return ad.grad_check(f, point, h=1e-5, sample=6, seed=seed)


def test_c11_gradient_correctness():
    worst = 0.0
    for seed in range(25):
        for mode in (gs.LINEAR, gs.EXPONENTIAL):
            worst = max(worst, _full_model_gradcheck(mode, seed))
    # closed-form exponential score-grade derivative
    g = Rng(11).generator
    worst_closed = 0.0
    for _ in range(50):
        qv = float(g.uniform(0.1, 2.0))
        lam = float(g.uniform(1.2, 4.0))
        kv = float(g.normal())
        tape = ad.Tape()
        with ad.recording(tape):
            qn = tape.param("q", np.array([[qv]]))
            w = gs.GradingSpec(gs.EXPONENTIAL, base=lam).node(qn)
            root = ad.scale(ad.mul(qn, w), kv)
        analytic = tape.backward(root)["q"][0, 0]
        closed = (lam**qv + qv * lam**qv * np.log(lam)) * kv
        worst_closed = max(worst_closed, abs(analytic - closed) / max(1.0, abs(closed)))
    ok = worst <= 1e-4 and worst_closed <= 1e-6
    assert verdict(11, ok, f"50 full-model configs max rel err {worst:.2e} (tol 1e-4); "
                           f"score-grade derivative dev {worst_closed:.2e} (tol 1e-6)")


def test_c12_annealing_bounds_clipping():
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    params = tf.init_params(cfg, Rng(0), decoder=False)
    ds = tasks.gen_poly_degree(32, 4, 12)
    gcfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, grades=ds.grades,
                                    attention_variant="scores")
    tc = training.TrainConfig(steps=120, clip_threshold=1.0, lr_grades=5.0, seed=12,
                              batch_size=8)
    res = training.train(params, gcfg, ds.x, ds.y, tc)
    schedule_ok = all(r["lambda"] == training.anneal_lambda(r["step"], 120, gcfg.base)
                      for r in res.metrics)
    bound_ok = all(r["eta_q"] <= r["eta_q_bound"] for r in res.metrics)
    fired = [r for r in res.metrics if r["clipped"]]
    clip_ok = bool(fired) and all(r["grad_norm_post"] <= 1.0 * (1 + 1e-9) for r in fired)
    ok = schedule_ok and bound_ok and clip_ok
    assert verdict(12, ok, f"schedule exact at 120 steps: {schedule_ok}; "
                           f"eta_q <= bound: {bound_ok}; "
                           f"clip fired {len(fired)}x with post-norm <= tau: {clip_ok}")


def test_c13_egt_concentration():
    bad = props.egt_nonmonotone_count(Rng(13).generator, 100)
    assert verdict(13, bad == 0,
                   f"100 draws, {bad} non-monotone share sequences over base 2,4,8,16")


def test_c14_reduction_to_baseline_bitwise():
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=2, d_ff=16,
                         n_max=16, out_dim=4)
    params = tf.init_params(cfg, Rng(0))
    ucfg = graded.unit_config(cfg)
    ecfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, base=2.0,
                                    grades=np.zeros(4), normalize_inputs=False)
    tok_cfg = tf.ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                             n_max=12, m_max=6)
    tok_params = tf.init_params(tok_cfg, Rng(1))
    tok_u = graded.unit_config(tok_cfg)
    mismatches = 0
    for i in range(10):
        x = Rng(140 + i).generator.normal(size=(5, 4))
        want = tf.encode(params, cfg, x)
        z_l, _ = graded.forward(params, ucfg, x)
        z_e, _ = graded.forward(params, ecfg, x)
        mismatches += int(not np.array_equal(z_l, want))
        mismatches += int(not np.array_equal(z_e, want))
    for i in range(10):
        toks = list(Rng(150 + i).generator.integers(3, 11, size=4))
        mismatches += int(graded.graded_generate(tok_params, tok_u, toks)
                          != tf.generate(tok_params, tok_cfg, toks))
    assert verdict(14, mismatches == 0,
                   f"20 random inputs (10 matrix encode, 10 token generate), "
                   f"{mismatches} bitwise mismatches")


def test_c15_end_to_end_smoke():
    import time

    start = time.perf_counter()
    details = []
    ok = True
    for mode in (gs.LINEAR, gs.EXPONENTIAL):
        res, gcfg, ds = props.training_smoke_run(mode, steps=2000, seed=42)
        first, last = res.metrics[0]["loss"], res.metrics[-1]["loss"]
        ratio = last / first
        _, logits = graded.forward(res.params, res.grading, ds.x[:64])
        errs = tasks.per_dim_error(logits.reshape(ds.y[:64].shape), ds.y[:64])
        hi = float(errs[list(tasks.POLY_SIGNAL_DIMS)].mean())
        lo = float(errs[list(tasks.POLY_NOISE_DIMS)].mean())
        mode_ok = np.isfinite(last) and ratio <= 0.10 and hi < lo and not res.diverged
        ok &= mode_ok
        details.append(f"{mode}: ratio {ratio:.3f}, high-grade err {hi:.3f} < "
                       f"low-grade {lo:.3f}: {hi < lo}")
    wall = time.perf_counter() - start
    ok &= wall < 180.0
    assert verdict(15, ok, f"poly task T=2000 seed 42; {'; '.join(details)}; "
                           f"wall {wall:.0f}s (< 180s)")
