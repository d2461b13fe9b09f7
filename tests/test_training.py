from dataclasses import replace

import numpy as np
import pytest

from graded_transformer import autodiff as ad
from graded_transformer import graded
from graded_transformer import graded_space as gs
from graded_transformer import props
from graded_transformer import tasks
from graded_transformer import training
from graded_transformer import transformer as tf
from graded_transformer.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidLambda,
    StepOutOfRange,
)
from graded_transformer.tensor import Rng

from conftest import (
    RefAdamState,
    assert_close,
    chain_regularizer,
    chain_sequence_loss,
    copying_backward,
    live_constants,
    ref_adam_step,
    ref_clip_gradient,
    recorded,
    ref_train,
    run_nodes,
    same_bits,
    unfused_feed_forward,
    unfused_layer_norm,
)


def tiny_setup(mode=gs.LINEAR, **gkw):
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    params = tf.init_params(cfg, Rng(0), decoder=False)
    gcfg = graded.GradedModelConfig(model=cfg, mode=mode,
                                    grades=np.array([0.0, 0.5, 1.0, 2.0]),
                                    attention_variant="scores", **gkw)
    ds = tasks.gen_poly_degree(32, 4, 11)
    return cfg, params, gcfg, ds


class TestCompositeLoss:
    def test_no_regularizers_is_main_loss(self):
        tape = ad.Tape()
        cfg = training.TrainConfig(gamma=0.0, gamma_heads=0.0, gamma_coord=0.0)
        with ad.recording(tape):
            nodes = {"q": tape.param("q", np.array([[1.0, 2.0]]))}
            reg = training.regularizer_node(nodes, cfg, n_heads=0)
        assert reg.value[0, 0] == 0.0

    def test_identical_head_tuples_zero_coordination(self):
        tape = ad.Tape()
        cfg = training.TrainConfig(gamma=0.0, gamma_coord=1.0)
        with ad.recording(tape):
            nodes = {"q_heads": tape.param("q_heads", np.array([[1.0, 2.0] * 3]))}
            reg = training.regularizer_node(nodes, cfg, n_heads=3)
        assert reg.value[0, 0] == 0.0

    def test_coordination_hand_value(self):
        # heads (1,0) and (0,1): mean (0.5,0.5); sum of squared deviations = 1
        tape = ad.Tape()
        cfg = training.TrainConfig(gamma=0.0, gamma_coord=1.0)
        with ad.recording(tape):
            nodes = {"q_heads": tape.param("q_heads", np.array([[1.0, 0.0, 0.0, 1.0]]))}
            reg = training.regularizer_node(nodes, cfg, n_heads=2)
        assert reg.value[0, 0] == pytest.approx(1.0)

    def test_gamma_terms_add(self):
        tape = ad.Tape()
        cfg = training.TrainConfig(gamma=0.5, gamma_heads=2.0, gamma_coord=0.0)
        with ad.recording(tape):
            nodes = {
                "q": tape.param("q", np.array([[2.0]])),
                "q_heads": tape.param("q_heads", np.array([[3.0]])),
            }
            reg = training.regularizer_node(nodes, cfg, n_heads=1)
        assert reg.value[0, 0] == pytest.approx(0.5 * 4 + 2.0 * 9)


class TestGradedLoss:
    """training.sequence_loss_node, the loss that trains; the props of the
    same names run the same checks on more draws."""

    def test_sequence_loss_binary_ce(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.8, 0.3]])
        w = np.array([[1.0, 2.0]])  # plus_one weights of grades (0, 1)
        with ad.recording(ad.Tape()):  # logits log(p / (1 - p)) give sigmoid p
            got = training.sequence_loss_node(ad.wrap(np.log(p / (1 - p))), y, ad.wrap(w),
                                              "sigmoid_ce").value[0, 0]
        want = -np.log(0.8) * 1.0 + -np.log(0.7) * 2.0
        assert abs(got - want) <= 1e-12

    def test_zero_iff_equal(self):
        assert props.loss_sign_errors(np.random.default_rng(9), 10) == (0, 0)

    def test_unit_weight_reduction(self):
        assert props.unit_weight_loss_error(np.random.default_rng(9), 5) == 0.0

    def test_weight_adjoint_is_per_dim_loss(self):
        assert props.weight_adjoint_error(np.random.default_rng(9), 5) <= 1e-12


class TestClip:
    def test_below_threshold_unchanged(self):
        grads = np.array([3.0, 4.0])
        pre, post, fired = training.clip_gradient(grads, 10.0)
        assert not fired and pre == post == 5.0
        assert np.array_equal(grads, [3.0, 4.0])

    def test_halving(self):
        grads = np.array([6.0, 8.0])  # norm 10
        pre, post, fired = training.clip_gradient(grads, 5.0)
        assert fired and pre == 10.0 and post == 5.0
        assert_close(grads, [3.0, 4.0])

    def test_post_norm_bounded(self):
        g = Rng(1).generator
        for _ in range(50):
            grads = np.concatenate([g.normal(0, 2, (2, 3)).ravel() for i in range(3)])
            tau = float(g.uniform(0.1, 4.0))
            training.clip_gradient(grads, tau)
            norm = float(np.sqrt(np.sum(grads * grads)))
            assert norm <= tau * (1 + 1e-12)

    def test_matches_per_array_reference(self):
        # one pass over the flat buffer against the sum of per-array sums
        g = Rng(6).generator
        for _ in range(50):
            arrays = {f"p{i}": g.normal(0, 2, (i + 1, 3)) for i in range(4)}
            tau = float(g.uniform(0.1, 8.0))
            want, want_pre, _, want_fired = ref_clip_gradient(arrays, tau)
            flat = np.concatenate([v.ravel() for v in arrays.values()])
            pre, _, fired = training.clip_gradient(flat, tau)
            assert fired == want_fired
            assert abs(pre - want_pre) <= 1e-15 * want_pre
            ref = np.concatenate([v.ravel() for v in want.values()])
            assert np.abs(flat - ref).max() <= 1e-15 * np.abs(ref).max()


class TestSchedulesAndBounds:
    def test_anneal_endpoints_and_midpoint(self):
        assert training.anneal_lambda(0, 100, 2.0) == 1.0
        assert training.anneal_lambda(100, 100, 2.0) == 2.0
        assert training.anneal_lambda(50, 100, 2.0) == 1.5

    def test_anneal_range(self):
        with pytest.raises(StepOutOfRange):
            training.anneal_lambda(-1, 10, 2.0)
        with pytest.raises(StepOutOfRange):
            training.anneal_lambda(11, 10, 2.0)

    def test_exponential_bound(self):
        assert training.grade_lr_bound(gs.EXPONENTIAL, 2.0, 2.0) == \
            pytest.approx(1.0 / (4.0 * np.log(2.0)))

    def test_exponential_bound_blows_up_near_one(self):
        b1 = training.grade_lr_bound(gs.EXPONENTIAL, 1.0 + 1e-6, 1.0)
        b2 = training.grade_lr_bound(gs.EXPONENTIAL, 1.0 + 1e-9, 1.0)
        assert b2 > b1 > 1e4

    def test_linear_bound(self):
        assert training.grade_lr_bound(gs.LINEAR, 1.0, 3.0) == pytest.approx(1.0 / 3.0)

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            training.grade_lr_bound(gs.EXPONENTIAL, 1.0, 2.0)


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = np.array([1.0, -2.0])
        state = training.AdamState(2)
        training.adam_step(params, np.zeros(2), state, 0.1)
        assert_close(params, [1.0, -2.0])

    def test_constant_gradient_step_approaches_lr_sign(self):
        params = np.array([0.0])
        state = training.AdamState(1)
        step = None
        for _ in range(200):
            before = params[0]
            training.adam_step(params, np.array([2.5]), state, 1e-2)
            step = before - params[0]
        assert step == pytest.approx(1e-2, rel=1e-3)

    def test_determinism(self):
        def run():
            params = np.array([0.3, -0.7])
            state = training.AdamState(2)
            g = Rng(3).generator
            for _ in range(20):
                training.adam_step(params, g.normal(size=(1, 2)).ravel(), state, 1e-2)
            return params
        assert np.array_equal(run(), run())

    def test_bitwise_equal_to_per_array_reference(self):
        g = Rng(12).generator
        shapes = {"w": (3, 4), "b": (1, 4), "q": (1, 5)}
        ref = {k: g.normal(0.0, 1.0, s) for k, s in shapes.items()}
        layout = training.FlatLayout(ref)
        flat = layout.pack(ref)
        views = layout.views(flat)
        state, ref_state = training.AdamState(flat.size), RefAdamState(ref)
        for step in range(40):
            grads = {k: g.normal(0.0, 10.0 ** g.integers(-6, 3), s) for k, s in shapes.items()}
            grads["b"][0, step % 4] = 0.0
            lr = 10.0 ** g.uniform(-4, -1)
            ref_adam_step(ref, grads, ref_state, lr)
            training.adam_step(flat, layout.pack(grads), state, lr)
            for k in shapes:
                assert np.array_equal(views[k], ref[k]), (step, k)


class TestTrainLoop:
    def test_lambda_schedule_replay(self):
        cfg, params, gcfg, ds = tiny_setup(mode=gs.EXPONENTIAL)
        tc = training.TrainConfig(steps=40, seed=5, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        for row in res.metrics:
            assert row["lambda"] == training.anneal_lambda(row["step"], 40, gcfg.base)

    @pytest.mark.parametrize("mode", [gs.LINEAR, gs.EXPONENTIAL])
    def test_ungraded_attention_leaves_head_grades_alone(self, mode):
        # under variant "none" no stage reads the head tuples: they get no
        # leaf, penalty, update or share of the grade rate bound, so the run
        # is the same whatever they hold
        _, params, gcfg, ds = tiny_setup(mode)
        heads = np.array([[0.0, 0.5], [1.0, 3.0]])
        gcfg = replace(gcfg, attention_variant="none", head_grades=heads.copy())
        tc = training.TrainConfig(steps=30, seed=5, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        assert np.array_equal(res.head_grades, heads)
        assert not np.shares_memory(res.head_grades, gcfg.head_grades)
        other = training.train(params, replace(gcfg, head_grades=None), ds.x, ds.y, tc)
        assert [m["loss"] for m in res.metrics] == [m["loss"] for m in other.metrics]
        assert [m["eta_q_bound"] for m in res.metrics] == \
            [m["eta_q_bound"] for m in other.metrics]
        assert np.array_equal(res.grades, other.grades)
        assert all(np.array_equal(res.params[k], other.params[k]) for k in params)

    def test_linear_mode_keeps_lambda_one(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=10, seed=5, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        assert all(row["lambda"] == 1.0 for row in res.metrics)

    def test_eta_q_respects_bound(self):
        cfg, params, gcfg, ds = tiny_setup(mode=gs.EXPONENTIAL)
        tc = training.TrainConfig(steps=30, lr_grades=100.0, seed=2, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        assert all(row["eta_q"] <= row["eta_q_bound"] for row in res.metrics)

    def test_clip_fires_and_bounds_norm(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=30, clip_threshold=0.5, seed=2, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        fired = [r for r in res.metrics if r["clipped"]]
        assert fired, "expected clipping at this threshold"
        assert all(r["grad_norm_post"] <= 0.5 * (1 + 1e-9) for r in fired)

    def test_grades_stay_nonnegative(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=60, lr_grades=0.05, seed=3, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        assert np.all(res.grades >= 0)
        assert np.all(res.head_grades >= 0)

    def test_fixed_grades_unchanged(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=10, learn_grades=False, seed=4, batch_size=4)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        assert_close(res.grades, gcfg.grades)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self):
        cfg, params, gcfg, ds = tiny_setup()
        bad = {k: v.copy() for k, v in params.items()}
        bad["w_out"] = bad["w_out"] * np.inf
        tc = training.TrainConfig(steps=5, seed=1, batch_size=2)
        with pytest.raises(DivergenceDetected) as exc_info:
            training.train(bad, gcfg, ds.x, ds.y, tc)
        result = exc_info.value.result
        assert result.diverged and result.metrics == []
        assert str(exc_info.value) == (
            "non-finite loss at step 1 (first non-finite array 'w_out'); "
            "parameters and grades restored to step 0")
        assert np.array_equal(result.grades, gcfg.grades)
        assert np.array_equal(result.head_grades, gcfg.head_grades)

    def diverge_at_step_3(self, monkeypatch, target, poison):
        """Train 5 steps with `poison` applied to the output of `target` at
        step 3; the result must equal a clean 2-step run."""
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=5, seed=1, batch_size=4)
        clean = training.train(params, gcfg, ds.x, ds.y, replace(tc, steps=2))
        real, calls = getattr(training, target), []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                poison(args, out)
            return out

        monkeypatch.setattr(training, target, poisoned)
        with pytest.raises(DivergenceDetected) as exc_info:
            training.train(params, gcfg, ds.x, ds.y, tc)
        result = exc_info.value.result
        assert result.diverged and len(result.metrics) == 2
        assert np.array_equal(result.grades, clean.grades)
        assert np.array_equal(result.head_grades, clean.head_grades)
        for k in clean.params:
            assert np.array_equal(result.params[k], clean.params[k]), k
        return str(exc_info.value)

    def test_divergence_in_grade_gradient_rolls_back_grades(self, monkeypatch):
        def poison(args, out):
            args[0][-1] = np.nan  # last entry of the flat gradient: q_heads

        message = self.diverge_at_step_3(monkeypatch, "clip_gradient", poison)
        assert message == ("non-finite parameter or grade after the update at step 3 "
                           "(first non-finite array 'q_heads'); "
                           "parameters and grades restored to step 2")

    def test_divergence_in_loss(self, monkeypatch):
        def poison(args, out):
            out[1].value[0, 0] = np.inf

        message = self.diverge_at_step_3(monkeypatch, "record_step", poison)
        assert message == ("non-finite loss at step 3 (every parameter and grade finite); "
                           "parameters and grades restored to step 2")

    def test_grade_reaching_zero_weight_rolls_back(self):
        # identity map: the update at step 9 takes head 1's second grade
        # from 0.0034 to 0, a weight of 0; the result is the 8-step run's
        cfg, params, gcfg, ds = tiny_setup()
        gcfg = replace(gcfg, weight_map=gs.WeightMap(0.0, 1.0),
                       grades=np.array([0.5, 1.0, 1.0, 0.05]), head_grades=None)
        tc = training.TrainConfig(steps=10, seed=1, batch_size=4, lr_grades=0.01)
        clean = training.train(params, gcfg, ds.x, ds.y, replace(tc, steps=8))
        with pytest.raises(DivergenceDetected) as exc_info:
            training.train(params, gcfg, ds.x, ds.y, tc)
        assert str(exc_info.value) == (
            "grading weight <= 0 in 'q_heads' after the update at step 9; "
            "parameters and grades restored to step 8")
        result = exc_info.value.result
        assert result.diverged and result.metrics == clean.metrics
        assert np.array_equal(result.grades, clean.grades)
        assert np.array_equal(result.head_grades, clean.head_grades)
        assert np.all(result.head_grades > 0)
        for k in clean.params:
            assert np.array_equal(result.params[k], clean.params[k]), k

    def test_determinism(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=15, seed=9, batch_size=4)
        r1 = training.train(params, gcfg, ds.x, ds.y, tc)
        r2 = training.train(params, gcfg, ds.x, ds.y, tc)
        assert [m["loss"] for m in r1.metrics] == [m["loss"] for m in r2.metrics]
        for k in r1.params:
            assert np.array_equal(r1.params[k], r2.params[k])

    def test_metrics_csv_round_trip(self, tmp_path):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=5, seed=1, batch_size=2)
        res = training.train(params, gcfg, ds.x, ds.y, tc)
        path = tmp_path / "metrics.csv"
        training.write_metrics_csv(path, res.metrics)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == training.METRIC_FIELDS
        assert len(lines) == 6

    def test_mismatched_batch_sizes(self):
        cfg, params, gcfg, ds = tiny_setup()
        tc = training.TrainConfig(steps=2, seed=1, batch_size=2)
        with pytest.raises(DimensionMismatch):
            training.train(params, gcfg, ds.x, ds.y[:-1], tc)


class TestDataWidths:
    def test_widths_of_each_task(self):
        poly, hier = tasks.gen_poly_degree(4, 3, 1), tasks.gen_hier_copy(4, 3, 1, vocab=10)
        assert training.data_widths(poly.x, poly.y) == \
            {"vocab_size": 0, "d_model": 4, "out_dim": 4}
        assert training.data_widths(hier.x, hier.y) == \
            {"vocab_size": 10, "d_model": 10, "out_dim": 0}

    def test_matrix_input_width_must_match_targets(self):
        with pytest.raises(DimensionMismatch, match=r"\(2, 3, 5\).*\(2, 3, 4\)"):
            training.data_widths(np.zeros((2, 3, 5)), np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("widths", [{"d_model": 8, "out_dim": 8},
                                        {"out_dim": 2}, {"vocab_size": 4}])
    def test_train_rejects_model_before_first_step(self, monkeypatch, widths):
        cfg, _, _, ds = tiny_setup()
        model = replace(cfg, **widths)
        gcfg = graded.GradedModelConfig(model=model, attention_variant="scores")
        monkeypatch.setattr(training, "record_step", None)  # a step would call it
        with pytest.raises(DimensionMismatch, match=r"\(32, 4, 4\)"):
            training.train(tf.init_params(model, Rng(0), decoder=False), gcfg, ds.x, ds.y,
                           training.TrainConfig(steps=1))


def smoke_setup(mode):
    """The c15 smoke config: d=4, 2 heads, 2 layers, d_ff 32, poly_degree n=8."""
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=2, d_ff=32,
                         n_max=16, out_dim=4)
    ds = tasks.gen_poly_degree(256, 8, 42)
    gcfg = graded.GradedModelConfig(model=cfg, mode=mode, grades=ds.grades,
                                    attention_variant="scores")
    return tf.init_params(cfg, Rng(0)), gcfg, ds, training.TrainConfig(batch_size=16)


def hier_copy_setup():
    """Token path: embeddings, exp_decay positions, sigmoid_ce, graded heads."""
    cfg = tf.ModelConfig(vocab_size=16, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                         n_max=16, m_max=16)
    ds = tasks.gen_hier_copy(64, 8, 3)
    gcfg = graded.GradedModelConfig(
        model=cfg, mode=gs.EXPONENTIAL, grades=Rng(8).generator.uniform(0.0, 1.0, 16),
        attention_variant="queries_keys", positional="exp_decay", alpha=0.25,
        grade_inputs=False)
    tc = training.TrainConfig(base_loss="sigmoid_ce", batch_size=16)
    return tf.init_params(cfg, Rng(0), decoder=False), gcfg, ds, tc


def grade_arrays_of(gcfg):
    return {"q": gcfg.grades.reshape(1, -1), "q_heads": gcfg.head_grades.reshape(1, -1)}


def per_sample_step(params, grade_arrays, gcfg, x, y, lam, cfg):
    """Reference: one forward and one loss term per sequence, summed, / B."""
    exponential = gcfg.mode == gs.EXPONENTIAL
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=True)
        grade_nodes = {k: tape.param(k, v) for k, v in grade_arrays.items()}
        if exponential:
            loss_w = ad.exp(ad.scale(grade_nodes["q"], float(np.log(lam))))
        else:
            loss_w = gcfg.weight_map.node(grade_nodes["q"])
        main = None
        for xb, yb in zip(x, y):
            lam_or_none = lam if exponential else None
            weights = graded.weight_nodes(gcfg, lam_or_none, grade_nodes)
            _, logits = graded.forward_nodes(p, gcfg, xb, lam=lam_or_none, weights=weights)
            term = training.sequence_loss_node(logits, yb, loss_w, cfg.base_loss)
            main = term if main is None else ad.add(main, term)
        main = ad.scale(main, 1.0 / len(x))
        total = ad.add(main, training.regularizer_node(grade_nodes, cfg, gcfg.model.n_heads))
    return total.value[0, 0], tape.backward(total)


class TestStackedStep:
    @pytest.mark.parametrize("case", ["poly_linear", "poly_exponential", "hier_copy"])
    def test_matches_per_sample_loop(self, case):
        if case == "hier_copy":
            params, gcfg, ds, tc = hier_copy_setup()
        else:
            params, gcfg, ds, tc = smoke_setup(
                gs.LINEAR if case == "poly_linear" else gs.EXPONENTIAL)
        lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
        grade_arrays = grade_arrays_of(gcfg)
        ids = Rng(5).generator.integers(0, ds.size, size=tc.batch_size)  # repeats allowed
        tape, total, _, _ = training.record_step(params, grade_arrays, gcfg, ds.x[ids],
                                                 ds.y[ids], lam, tc)
        grads = tape.backward(total)
        want_loss, want_grads = per_sample_step(params, grade_arrays, gcfg, ds.x[ids],
                                                ds.y[ids], lam, tc)
        assert abs(total.value[0, 0] - want_loss) <= 1e-12 * abs(want_loss)
        assert set(grads) == set(want_grads)
        for name, want in want_grads.items():
            scale = np.abs(want).max()
            dev = np.abs(grads[name] - want).max()
            assert dev <= 1e-12 * scale, f"{name}: {dev:.3e} vs scale {scale:.3e}"

    def test_node_count_independent_of_batch_size(self):
        # A per-sample loop in the step would grow the tape with the batch.
        params, gcfg, ds, tc = smoke_setup(gs.LINEAR)
        counts = []
        for b in (1, 16):
            tape, *_ = training.record_step(params, grade_arrays_of(gcfg), gcfg,
                                            ds.x[:b], ds.y[:b], 1.0, tc)
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]

    def test_node_counts_per_step(self):
        # poly smoke in both modes, hier_copy EGT, wide LGT.  Each encoder
        # layer's FFN and residual LayerNorms are one node each; the unfused
        # chains would record 6 more nodes per layer.  The graded loss and
        # the grade penalty are one node each, where the elementwise chains
        # (conftest.chain_sequence_loss, conftest.chain_regularizer) would
        # record 21 / 21 / 12 / 41 nodes.  Constants (inputs, targets, fixed
        # grades) are not recorded, nor are ops with no live parent: in
        # hier_copy, with fixed grades, the grade-weight chain and the
        # penalty.  The loss reuses the model tuple's weight node, so with
        # learned grades the weight map records once: 1 node (q + 1) fewer
        # in linear mode, 2 (scale, exp) in exponential mode.  The head
        # tuples are one leaf, weighted as it is, with no stacking node.
        assert step_node_counts() == [56, 58, 48, 101]

    @pytest.mark.parametrize("mode", [gs.LINEAR, gs.EXPONENTIAL])
    def test_one_weight_map_per_grade_row(self, mode, monkeypatch):
        # learned grades on the smoke config: one GradingSpec.node call for
        # the model tuple (shared by the encoder and the loss), one for the
        # head tuples, on their leaves themselves: no node stacks the heads
        params, gcfg, ds, tc = smoke_setup(mode)
        calls = []
        node = gs.GradingSpec.node
        monkeypatch.setattr(gs.GradingSpec, "node",
                            lambda spec, q: calls.append(q) or node(spec, q))
        tape, *_ = training.record_step(params, grade_arrays_of(gcfg), gcfg, ds.x[:16],
                                        ds.y[:16], 1.5, tc)
        assert calls == [tape.params["q"], tape.params["q_heads"]]


def workload_setups():
    """The three benchmark models: the c15 smoke config in both modes, EGT
    on hier_copy with fixed grades and ungraded heads, and the wide LGT
    (d=32, 4 heads, 4 layers, n=32) with learned grades on queries and keys."""
    yield smoke_setup(gs.LINEAR)
    yield smoke_setup(gs.EXPONENTIAL)
    cfg = tf.ModelConfig(vocab_size=16, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                         n_max=16, m_max=16)
    gcfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, grades=np.zeros(16),
                                    attention_variant="none", positional="exp_decay",
                                    alpha=0.25, grade_inputs=False)
    yield (tf.init_params(cfg, Rng(0), decoder=False), gcfg, tasks.gen_hier_copy(32, 8, 1),
           training.TrainConfig(base_loss="sigmoid_ce", learn_grades=False))
    cfg = tf.ModelConfig(vocab_size=32, d_model=32, n_heads=4, n_layers=4, d_ff=128,
                         n_max=32, m_max=16)
    gcfg = graded.GradedModelConfig(model=cfg, mode=gs.LINEAR,
                                    grades=Rng(2).generator.uniform(0.0, 1.0, 32),
                                    attention_variant="queries_keys",
                                    positional="exp_decay", alpha=0.25, grade_inputs=False)
    yield (tf.init_params(cfg, Rng(0), decoder=False), gcfg,
           tasks.gen_hier_copy(32, 32, 1, vocab=32),
           training.TrainConfig(base_loss="sigmoid_ce"))


def step_node_counts():
    """Tape nodes of one training step on 16 sequences, per workload_setups() model."""
    counts = []
    for params, gcfg, ds, tc in workload_setups():
        lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
        tape, *_ = training.record_step(params, grade_arrays_of(gcfg), gcfg,
                                        ds.x[:16], ds.y[:16], lam, tc)
        counts.append(len(tape.nodes))
    return counts


def decoder_rows(monkeypatch, fn, *args):
    """fn(*args) and a copy of every row block tf.decoder returns in it."""
    rows, real = [], tf.decoder

    def spy(*a, **kw):
        out = real(*a, **kw)
        rows.append(out.value.copy())
        return out

    monkeypatch.setattr(tf, "decoder", spy)
    out = fn(*args)
    monkeypatch.setattr(tf, "decoder", real)
    return out, rows


class TestValuesOnlyInference:
    """Inference tapes hold no parameter leaf, so they keep values only; the
    values equal those of tapes that record every node (conftest.recorded)."""

    def assert_same(self, fn, *args):
        want, counts = recorded(fn, *args)
        assert counts and min(counts) > 0  # the reference really recorded
        got = fn(*args)
        for a, b in zip(got if isinstance(got, tuple) else [got],
                        want if isinstance(want, tuple) else [want]):
            assert np.array_equal(a, b)
        return got

    def test_workload_models_bitwise(self, monkeypatch):
        for params, gcfg, ds, _ in workload_setups():
            cfg = gcfg.model
            if gcfg.mode == gs.EXPONENTIAL:  # a base other than the default 2
                gcfg = replace(gcfg, base=1.5)
            z, _ = self.assert_same(graded.forward, params, gcfg, ds.x[:4])
            z = z[:ds.x.shape[1]]  # the first sequence's encoder rows
            self.assert_same(tf.encode, params, cfg, z)
            if cfg.vocab_size:
                full = tf.init_params(cfg, Rng(0), decoder=True)

                def decode(p, t):
                    return tf.decode_nodes(p, t.constant(z), cfg, cfg.m_max)

                want, want_rows = decoder_rows(monkeypatch, recorded, run_nodes, full, decode)
                got, rows = decoder_rows(monkeypatch, run_nodes, full, decode)
                assert got == want[0] and len(rows) == len(want_rows) == len(got)
                assert all(np.array_equal(a, b) for a, b in zip(rows, want_rows))

    def test_token_model_with_decoder_bitwise(self, token_model, monkeypatch):
        cfg, params = token_model
        gcfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, base=1.7,
                                        grades=Rng(3).generator.uniform(0.0, 1.0, 8),
                                        attention_variant="queries_keys",
                                        positional="exp_decay", alpha=0.25)
        prompt = [1, 5, 7, 3, 9]
        self.assert_same(tf.generate, params, cfg, prompt)
        want, want_rows = decoder_rows(monkeypatch, recorded, graded.graded_generate,
                                       params, gcfg, prompt)
        got, rows = decoder_rows(monkeypatch, graded.graded_generate, params, gcfg, prompt)
        assert got == want[0] and len(rows) == len(want_rows) > 1
        assert all(np.array_equal(a, b) for a, b in zip(rows, want_rows))


class TestNodeLiveness:
    """A training step records only nodes with a parameter ancestor, and
    its gradients are those of a tape that records every node."""

    @staticmethod
    def step(params, gcfg, ds, tc):
        lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
        return training.record_step(params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16],
                                    lam, tc)

    def test_backward_calls_no_vjp_into_a_constant(self):
        for params, gcfg, ds, tc in workload_setups():
            tape, total, _, _ = self.step(params, gcfg, ds, tc)
            reaching = set(map(id, tape.params.values()))  # nodes with a parameter ancestor
            for node in tape.nodes:
                if any(id(p) in reaching for p in node.parents):
                    reaching.add(id(node))
            calls = []

            def counted(vjp, parent):
                def call(g):
                    calls.append(parent)
                    return vjp(g)
                return call

            for node in tape.nodes:
                node.vjps = tuple(counted(f, p) for f, p in zip(node.vjps, node.parents))
            tape.backward(total)
            assert calls and all(id(p) in reaching for p in calls)
            assert len(reaching) == len(tape.nodes)

    def test_gradients_equal_full_recording(self):
        for params, gcfg, ds, tc in workload_setups():
            tape, total, _, _ = self.step(params, gcfg, ds, tc)
            got = tape.backward(total)
            with pytest.MonkeyPatch.context() as mp:
                live_constants(mp)
                full, full_total, _, _ = self.step(params, gcfg, ds, tc)
            want = full.backward(full_total)
            assert len(full.nodes) > len(tape.nodes)
            assert same_bits(total.value, full_total.value)
            assert set(got) == set(want) == set(tape.params)
            for name in want:
                assert same_bits(got[name], want[name]), name


class TestBackwardCopies:
    def test_gradients_equal_copying_backward(self):
        for params, gcfg, ds, tc in workload_setups():
            lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
            tape, total, _, _ = training.record_step(
                params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16], lam, tc)
            grads = tape.backward(total)
            want = copying_backward(tape, total)
            assert set(grads) == set(want)
            for name in want:
                assert np.array_equal(grads[name], want[name]), name

    def test_residual_layer_norm_inputs_get_unshared_gradients(self, monkeypatch):
        # x and r of LN(x + r) get one adjoint; r's must be a copy
        real = tf.layer_norm
        for params, gcfg, ds, tc in workload_setups():
            norms = []

            def spy(*args):
                norms.append(real(*args))
                return norms[-1]

            lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
            with monkeypatch.context() as mp:
                mp.setattr(tf, "layer_norm", spy)
                tape, total, _, _ = training.record_step(
                    params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16], lam, tc)
            tape.backward(total)
            assert len(norms) == 2 * gcfg.model.n_layers
            for node in norms:
                x, r = node.parents[:2]
                assert x is not r and x.grad is not None and r.grad is not None
                assert not np.shares_memory(x.grad, r.grad)

    def test_flat_out_equals_fresh_arrays(self):
        # gradients summed into zeroed views of one buffer, as train does
        for params, gcfg, ds, tc in workload_setups():
            lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
            tape, total, _, _ = training.record_step(
                params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16], lam, tc)
            want = tape.backward(total)
            layout = training.FlatLayout(want)
            flat = np.zeros(layout.size)
            got = tape.backward(total, out=layout.views(flat))
            assert set(got) == set(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), name
                assert np.shares_memory(got[name], flat), name


class TestFusedSublayers:
    """tf.feed_forward and tf.layer_norm record one node each, with values
    and gradients bit for bit those of the unfused chains
    (conftest.unfused_feed_forward, conftest.unfused_layer_norm)."""

    @staticmethod
    def run(monkeypatch, ffn, ln, build):
        """build() -> (tape, root) with tf.feed_forward and tf.layer_norm
        replaced by ffn and ln; returns the root value, the leaf gradients
        and, per sublayer call, its output value and its inputs' gradients."""
        calls = []

        def spy(fn, inputs):
            def wrapped(*args):
                out = fn(*args)
                calls.append(([args[i] for i in inputs], out))
                return out
            return wrapped

        with monkeypatch.context() as mp:
            mp.setattr(tf, "feed_forward", spy(ffn, [2]))
            mp.setattr(tf, "layer_norm", spy(ln, [2, 3]))
            tape, root = build()
        grads = tape.backward(root)
        return root.value, grads, [(out.value, [x.grad for x in xs]) for xs, out in calls]

    @staticmethod
    def perturbed(params, g):
        """Biases and LayerNorm gains moved off their init values of 0 and 1."""
        return {k: v + g.normal(0.0, 0.1, v.shape) if k.endswith(("b1", "b2", ".g", ".b"))
                else v for k, v in params.items()}

    def assert_fused_equals_unfused(self, monkeypatch, build):
        got = self.run(monkeypatch, tf.feed_forward, tf.layer_norm, build)
        want = self.run(monkeypatch, unfused_feed_forward, unfused_layer_norm, build)
        assert same_bits(got[0], want[0])
        assert set(got[1]) == set(want[1])
        for name in want[1]:
            assert same_bits(got[1][name], want[1][name]), name
        assert len(got[2]) == len(want[2]) > 0
        for (out, input_grads), (want_out, want_grads) in zip(got[2], want[2]):
            assert same_bits(out, want_out)
            assert len(input_grads) == len(want_grads)
            assert all(same_bits(a, b) for a, b in zip(input_grads, want_grads))

    def test_training_step_bitwise(self, monkeypatch):
        g = Rng(8).generator
        for params, gcfg, ds, tc in workload_setups():
            params = self.perturbed(params, g)
            lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
            self.assert_fused_equals_unfused(monkeypatch, lambda: training.record_step(
                params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16], lam, tc)[:2])

    def test_cached_decoder_step_bitwise(self, monkeypatch):
        # the wide model's decoder: a first row fills the cache, a second row
        # is one cached step; the embedding and every decoder array are leaves
        *_, (_, gcfg, _, _) = workload_setups()
        cfg = gcfg.model
        g = Rng(9).generator
        params = self.perturbed(tf.init_params(cfg, Rng(0), decoder=True), g)
        params = {k: v for k, v in params.items() if k.startswith("dec") or k == "embed"}
        z, up = g.normal(0.0, 1.0, (cfg.n_max, cfg.d_model)), g.normal(0.0, 1.0, (1, cfg.d_model))
        positions = tf.positional_matrix(2, cfg.d_model)

        def build():
            tape = ad.Tape()
            with ad.recording(tape):
                p = tf.as_nodes(params, tape, trainable=True)
                cache = {}
                for t, token in enumerate([tf.START_TOKEN, 7]):
                    row = ad.add(ad.embedding_rows(p["embed"], [token - 1]), positions[t:t + 1])
                    out = tf.decoder(p, row, tape.constant(z), cfg, cache)
                return tape, ad.sum_all(ad.mul(out, up))

        self.assert_fused_equals_unfused(monkeypatch, build)


class TestOneNodeObjective:
    """training.sequence_loss_node and training.regularizer_node record one
    node each, with values and gradients bit for bit those of the
    elementwise chains (conftest.chain_sequence_loss,
    conftest.chain_regularizer)."""

    @staticmethod
    def run(monkeypatch, loss, reg, setup):
        """record_step with the loss and the penalty replaced by loss and reg;
        returns the total, main and penalty values, the leaf gradients, the
        tape's node count and, per call, its output and its inputs' gradients."""
        params, gcfg, ds, tc = setup
        calls = []

        def spy(fn):
            def wrapped(*args):
                calls.append((args, fn(*args)))
                return calls[-1][1]
            return wrapped

        lam = 1.5 if gcfg.mode == gs.EXPONENTIAL else 1.0
        with monkeypatch.context() as mp:
            mp.setattr(training, "sequence_loss_node", spy(loss))
            mp.setattr(training, "regularizer_node", spy(reg))
            tape, total, main, penalty = training.record_step(
                params, grade_arrays_of(gcfg), gcfg, ds.x[:16], ds.y[:16], lam, tc)
        grads = tape.backward(total)
        (loss_args, loss_out), (reg_args, reg_out) = calls
        inputs = [loss_args[0], loss_args[2], *reg_args[0].values()]
        return ([total.value, main.value, penalty.value], grads, len(tape.nodes),
                [loss_out, reg_out], [x.grad for x in inputs])

    @staticmethod
    def setups():
        """The four workload models, and the learned-grade ones again with
        every penalty weight > 0."""
        for params, gcfg, ds, tc in workload_setups():
            yield params, gcfg, ds, tc
            if tc.learn_grades:
                yield params, gcfg, ds, replace(tc, gamma_heads=2e-3)

    def test_training_step_bitwise(self, monkeypatch):
        saved = []
        for setup in self.setups():
            values, grads, nodes, (loss, reg), input_grads = self.run(
                monkeypatch, training.sequence_loss_node, training.regularizer_node, setup)
            want = self.run(monkeypatch, chain_sequence_loss, chain_regularizer, setup)
            assert all(same_bits(a, b) for a, b in zip(values, want[0]))
            assert set(grads) == set(want[1])
            for name in want[1]:
                assert same_bits(grads[name], want[1][name]), name
            assert len(input_grads) == len(want[4])
            assert all(same_bits(a, b) for a, b in zip(input_grads, want[4]))
            # one node each, on the logits, the live weight row and the grade leaves
            learned = setup[3].learn_grades
            assert len(loss.parents) == 1 + learned
            assert len(reg.parents) == learned * 2  # q and q_heads
            saved.append(want[2] - nodes)
        # nodes the chains record beyond the one-node versions, among them
        # the h column blocks the penalty chain splits the head row into;
        # gamma_heads > 0 adds 3 h + 1 chain nodes: a product and a sum per
        # head tuple, h - 1 adds, a scale and the add into the total
        assert saved == [19, 26, 19, 26, 11, 39, 52]

    @pytest.mark.parametrize("n_heads", [1, 2, 3, 4, 9])
    def test_penalty_equals_per_head_chain(self, n_heads):
        # one (1, h d_k) head leaf against the chain on one leaf per head, at
        # head counts where numpy would sum 8 or more rows pairwise; small
        # integer grades make equal heads and exact cancellations
        g = Rng(n_heads).generator
        for draw in range(60):
            d_k = int(g.integers(1, 12))
            gammas = g.uniform(0.1, 2.0, 3) * (g.uniform(size=3) < 0.8)
            cfg = training.TrainConfig(gamma=gammas[0], gamma_heads=gammas[1],
                                       gamma_coord=gammas[2])
            q = g.uniform(0.0, 2.0, (1, 3))
            heads = g.integers(0, 3, (n_heads, d_k)) * 1.0 if draw % 3 == 0 \
                else g.uniform(0.0, 2.0, (n_heads, d_k))
            up = g.uniform(-2.0, 2.0)
            values, grads = [], []
            for reg, head_leaves in (
                    (training.regularizer_node,
                     lambda tape: tape.param("q_heads", heads.reshape(1, -1))),
                    (chain_regularizer,
                     lambda tape: [tape.param(f"h{i}", heads[i:i + 1]) for i in range(n_heads)])):
                tape = ad.Tape()
                with ad.recording(tape):
                    nodes = {"q": tape.param("q", q), "q_heads": head_leaves(tape)}
                    root = ad.scale(reg(nodes, cfg, n_heads), up)
                values.append(root.value)
                grads.append(tape.backward(root))
            got, want = grads
            assert same_bits(values[0], values[1]), draw
            assert same_bits(got["q"], want["q"]), draw
            want_heads = np.hstack([want[f"h{i}"] for i in range(n_heads)])
            assert same_bits(got["q_heads"], want_heads), draw

    def test_clamped_sigmoid_ce_passes_no_gradient(self):
        # sigmoid(40) rounds to 1, so 1 - p clamps; sigmoid(-40) < 1e-12, so
        # p clamps; at 30, 1 - p (~1e-13) clamps though sigmoid is below 1.
        # Each clamped term passes no gradient, as in the chain; the
        # unclamped derivative (p - y) w would be about +-w where y != p.
        z = np.array([[40.0, -40.0, 40.0, -40.0, 30.0]])
        y = np.array([[0.0, 1.0, 1.0, 0.0, 0.0]])
        w = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        got, want = [], []
        for loss, out in ((training.sequence_loss_node, got), (chain_sequence_loss, want)):
            tape = ad.Tape()
            with ad.recording(tape):
                root = loss(tape.param("z", z), y, tape.param("w", w), "sigmoid_ce")
            out += [root.value, *tape.backward(root).values()]
        assert np.array_equal(got[1], np.zeros((1, 5)))
        assert got[2][0, 0] == got[2][0, 1] == -np.log(1e-12)
        assert all(same_bits(a, b) for a, b in zip(got, want))


class TestFlatState:
    def test_train_matches_per_array_reference(self):
        for params, gcfg, ds, tc in workload_setups():
            tc = replace(tc, steps=6)
            res = training.train(params, gcfg, ds.x, ds.y, tc)
            ref_params, ref_q, ref_heads, ref_losses, _ = ref_train(params, gcfg, ds.x, ds.y, tc)
            assert len(res.metrics) == len(ref_losses) == 6
            pairs = [(k, res.params[k], ref_params[k]) for k in ref_params]
            pairs += [("q", res.grades, ref_q), ("q_heads", res.head_grades, ref_heads)]
            assert set(res.params) == set(ref_params)
            for name, got, want in pairs:
                assert got.shape == want.shape, name
                dev = np.abs(got - want).max()
                assert dev <= 1e-12 * np.abs(want).max(), f"{name}: {dev:.3e}"
            for got, want in zip([m["loss"] for m in res.metrics], ref_losses):
                assert abs(got - want) <= 1e-12 * abs(want)
