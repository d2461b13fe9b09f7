import json
from dataclasses import replace

import numpy as np
import pytest

from graded_transformer import autodiff as ad
from graded_transformer import graded
from graded_transformer import graded_space as gs
from graded_transformer import props
from graded_transformer import tasks
from graded_transformer import tensor
from graded_transformer import training
from graded_transformer import transformer as tf
from graded_transformer.errors import (
    DimensionMismatch,
    InvalidLambda,
    InvalidSpec,
    NotRowStochastic,
    PositionOutOfRange,
    SequenceTooLong,
    TokenOutOfRange,
    ZeroAfterGrading,
)
from graded_transformer.tensor import Rng

from conftest import assert_close, run_nodes, sinusoid, unnormalized_softmax


def make_gcfg(toy_model, **kw):
    cfg, _ = toy_model
    defaults = dict(model=cfg, grades=np.array([0.0, 0.5, 1.0, 2.0]))
    defaults.update(kw)
    return graded.GradedModelConfig(**defaults)


class TestConfig:
    def test_head_grades_default_to_slices(self, toy_model):
        gcfg = make_gcfg(toy_model)
        assert_close(gcfg.head_grades[0], [0.0, 0.5])
        assert_close(gcfg.head_grades[1], [1.0, 2.0])

    def test_linear_decay_positivity(self, toy_model):
        with pytest.raises(InvalidSpec):
            make_gcfg(toy_model, positional="linear_decay", alpha=0.2)  # 0.2*16 >= 1

    def test_exponential_needs_base_above_one(self, toy_model):
        with pytest.raises(InvalidSpec):
            make_gcfg(toy_model, mode=gs.EXPONENTIAL, base=1.0)

    def test_negative_grades_rejected(self, toy_model):
        with pytest.raises(InvalidSpec):
            make_gcfg(toy_model, grades=np.array([-1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [
        lambda: dict(weight_map=gs.WeightMap.from_json("bogus")),
        lambda: dict(weight_map=gs.WeightMap(1.0, -1.0)),  # weights 1, .5, 0, -1
        lambda: dict(weight_map=gs.WeightMap(0.0, 1.0)),  # identity: grade 0 weighs 0
        lambda: dict(weight_map=gs.WeightMap(0.0, 1.0), grades=np.ones(4),
                     head_grades=[np.ones(2), np.array([0.0, 1.0])],
                     attention_variant="scores"),  # only graded attention reads them
        lambda: dict(mode="cubic"),
        lambda: dict(weight_map=gs.WeightMap(np.nan, 1.0)),  # NaN weights
        lambda: dict(positional="exp_decay", alpha=-3.0),  # decay would be growth
        lambda: dict(alpha=np.nan),
        lambda: dict(positional="exp_decay", alpha=0.25, base=-2.0),  # linear mode reads it
        lambda: dict(positional="exp_decay", alpha=0.25, base=0.5),  # decay would be growth
        lambda: dict(head_grades=np.zeros(4)),  # flat
        lambda: dict(head_grades=[[0.0], [1.0, 2.0]]),  # ragged
        lambda: dict(head_grades=np.zeros((2, 3))),  # rows of the wrong length
    ], ids=["bogus", "affine", "identity", "identity_head", "mode", "affine_nan",
            "alpha_negative", "alpha_nan", "exp_decay_base_negative", "exp_decay_base_half",
            "head_flat", "head_ragged", "head_size"])
    def test_bad_grading_rejected(self, toy_model, bad):
        with pytest.raises(InvalidSpec):
            make_gcfg(toy_model, **bad())

    @pytest.mark.parametrize("weight_map", [*map(gs.WeightMap.from_json, gs.NAMED_MAPS),
                                            gs.WeightMap(1.0, 0.1)],
                             ids=[*gs.NAMED_MAPS, "affine"])
    @pytest.mark.parametrize("variant", graded.VARIANTS)
    @pytest.mark.parametrize("positional, alpha", [("off", 0.0), ("linear_decay", 0.05),
                                                   ("exp_decay", 0.25)])
    def test_dict_round_trip(self, toy_model, weight_map, variant, positional, alpha):
        # identity weighs grade q by q, so every grade is positive
        mode = gs.EXPONENTIAL if positional == "exp_decay" else gs.LINEAR
        gcfg = make_gcfg(toy_model, mode=mode,
                         grades=np.array([0.5, 1.0, 1.5, 2.0]), weight_map=weight_map,
                         head_grades=[np.array([0.25, 3.0]), np.array([1.0, 0.75])],
                         base=2.5, attention_variant=variant, positional=positional,
                         alpha=alpha, grade_ffn=True, normalize_inputs=False)
        raw = gcfg.to_dict()
        again = graded.GradedModelConfig.from_dict(gcfg.model, json.loads(json.dumps(raw)))
        assert again.to_dict() == raw
        assert again.weight_map == weight_map
        assert np.array_equal(again.weights(again.head_grades[0]),
                              gcfg.weights(gcfg.head_grades[0]))

    def test_from_dict_fills_defaults(self, toy_model):
        cfg, _ = toy_model
        assert graded.GradedModelConfig.from_dict(cfg, {}).to_dict() == \
            graded.GradedModelConfig(cfg).to_dict()
        raw = graded.GradedModelConfig.from_dict(cfg, {"grades": [0.0, 1.0, 2.0, 3.0]}).to_dict()
        assert raw["head_grades"] == [[0.0, 1.0], [2.0, 3.0]]
        assert raw["weight_map"] == {"affine": [1.0, 1.0]} and raw["mode"] == gs.LINEAR

    def test_to_dict_is_the_grading_section_form(self, toy_model):
        raw = make_gcfg(toy_model, weight_map=gs.WeightMap(1.0, 0.1)).to_dict()
        assert set(raw) == set(graded.GradedModelConfig.__dataclass_fields__) - {"model"}
        assert raw["grades"] == [0.0, 0.5, 1.0, 2.0]
        assert raw["weight_map"] == {"affine": [1.0, 0.1]}

    def test_max_weight(self, toy_model):
        gcfg = make_gcfg(toy_model)
        assert gcfg.max_weight() == 3.0
        ecfg = make_gcfg(toy_model, mode=gs.EXPONENTIAL, base=2.0)
        assert ecfg.max_weight() == pytest.approx(4.0)
        assert replace(ecfg, base=3.0).max_weight() == pytest.approx(9.0)

    def test_max_weight_reads_head_tuples_only_for_graded_attention(self, toy_model):
        # identity weighs grade 0 by 0: a zero head grade is invalid only
        # where attention reads the head tuples
        heads = np.array([[0.0, 0.5], [1.0, 2.0]])
        gcfg = make_gcfg(toy_model, weight_map=gs.WeightMap(0.0, 1.0),
                         grades=np.array([0.5, 1.0, 1.5, 2.0]), head_grades=heads)
        assert gcfg.max_weight() == 2.0
        for variant in ("scores", "queries_keys", "values"):
            with pytest.raises(InvalidSpec, match="must be positive"):
                replace(gcfg, attention_variant=variant)


class TestOneWeightMap:
    """A config's weight map is the pair (a, b) whatever name it came by."""

    ONES = ["plus_one", {"affine": [1, 1]}, "abs_plus_one"]

    def test_aliases_load_to_one_map_and_one_cache_entry(self, toy_model):
        cfg, _ = toy_model
        gcfgs = [graded.GradedModelConfig.from_dict(
            cfg, {"weight_map": wm, "grades": [0.0, 0.5, 1.0, 2.0]}) for wm in self.ONES]
        assert {g.weight_map for g in gcfgs} == {gs.WeightMap(1.0, 1.0)}
        graded._fixed_weight_rows.cache_clear()
        rows = [graded.weight_nodes(g, None, None)[0].value for g in gcfgs]
        info = graded._fixed_weight_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert rows[1] is rows[0] and rows[2] is rows[0]

    def test_affine_one_one_trains_as_plus_one(self):
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                             n_max=8, out_dim=4)
        ds = tasks.gen_poly_degree(32, 4, 11)
        tc = training.TrainConfig(steps=10, seed=1, batch_size=4)
        runs = [training.train(tf.init_params(cfg, Rng(0), decoder=False),
                               graded.GradedModelConfig.from_dict(
                                   cfg, {"grades": ds.grades, "attention_variant": "scores",
                                         "weight_map": wm}),
                               ds.x, ds.y, tc) for wm in ("plus_one", {"affine": [1, 1]})]
        assert runs[0].metrics == runs[1].metrics
        assert np.array_equal(runs[0].grades, runs[1].grades)
        assert np.array_equal(runs[0].head_grades, runs[1].head_grades)
        for k, v in runs[0].params.items():
            assert np.array_equal(v, runs[1].params[k]), k


class TestGradedInput:
    def test_photonic(self):
        cfg = tf.ModelConfig(vocab_size=0, d_model=3, n_heads=1, n_layers=1, d_ff=4)
        gcfg = graded.GradedModelConfig(
            model=cfg, grades=np.array([0.0, 1.0, 2.0]),
            weight_map=gs.WeightMap(1.0, 0.1))
        out = graded.graded_input(np.array([1.0, 0.5, 0.1]), gcfg)
        assert_close(out, [0.871, 0.479, 0.105], tol=5e-4)
        assert abs(float(np.linalg.norm(out)) - 1.0) <= 1e-12

    def test_identity_grading_no_normalize(self, toy_model):
        gcfg = make_gcfg(toy_model, grades=np.zeros(4), normalize_inputs=False)
        x = Rng(0).generator.normal(size=(3, 4))
        assert np.array_equal(graded.graded_input(x, gcfg), x)

    def test_unit_norm_when_normalizing(self, toy_model):
        gcfg = make_gcfg(toy_model)
        x = Rng(1).generator.normal(size=(5, 4))
        out = graded.graded_input(x, gcfg)
        assert_close(np.linalg.norm(out, axis=1), np.ones(5), tol=1e-12)

    def test_zero_after_grading(self, toy_model):
        gcfg = make_gcfg(toy_model)
        with pytest.raises(ZeroAfterGrading):
            graded.graded_input(np.zeros(4), gcfg)


class TestGradedPositional:
    def test_linear_decay_factor(self, toy_model):
        gcfg = make_gcfg(toy_model, positional="linear_decay", alpha=0.05)
        assert graded.positional_scale(1, gcfg) == pytest.approx(0.95)

    def test_exp_decay_factor(self, toy_model):
        gcfg = make_gcfg(toy_model, mode=gs.EXPONENTIAL, base=2.0,
                         positional="exp_decay", alpha=1.0)
        assert graded.positional_scale(2, gcfg) == pytest.approx(0.25)

    def test_off_is_standard(self, toy_model):
        gcfg = make_gcfg(toy_model)
        pe = graded.graded_positional_matrix(3, gcfg)[2]
        assert np.array_equal(pe, sinusoid(3, 4))

    def test_matrix_rows_are_scaled_encodings(self, toy_model):
        for kw in ({"positional": "off"},
                   {"positional": "linear_decay", "alpha": 0.05},
                   {"positional": "exp_decay", "alpha": 0.3, "mode": gs.EXPONENTIAL}):
            gcfg = make_gcfg(toy_model, **kw)
            for lam in (None, 1.7):
                at_lam = gcfg if lam is None else replace(gcfg, base=lam)
                want = np.stack([graded.positional_scale(t, at_lam)
                                 * sinusoid(t, 4) for t in range(1, 17)])
                for _ in range(2):  # the second call reads the cached table
                    assert np.array_equal(graded.graded_positional_matrix(16, gcfg, lam), want)
            with pytest.raises(PositionOutOfRange):  # after a warm call too
                graded.graded_positional_matrix(17, gcfg)

    def test_position_range(self, toy_model):
        gcfg = make_gcfg(toy_model)
        with pytest.raises(PositionOutOfRange):
            graded.positional_scale(17, gcfg)

    @pytest.mark.parametrize("lam", [1.0, 0.5, -2.0, np.nan])
    def test_exp_decay_base_override_must_exceed_one(self, toy_model, lam):
        gcfg = make_gcfg(toy_model, positional="exp_decay", alpha=0.25)
        with pytest.raises(InvalidLambda):
            graded.graded_positional_matrix(4, gcfg, lam)


class TestGradedAttention:
    def test_identity_weights_match_standard(self, rng):
        q = tensor.randn_matrix(rng, 4, 3)
        k = tensor.randn_matrix(rng, 4, 3)
        v = tensor.randn_matrix(rng, 4, 3)
        ones = np.ones(3)
        base, attn_base = graded.graded_attention(q, k, v, ones, "none")
        for variant in ("scores", "queries_keys", "values"):
            out, attn = graded.graded_attention(q, k, v, ones, variant)
            assert np.array_equal(out, base)
            assert np.array_equal(attn, attn_base)

    def test_scores_match_bruteforce(self, rng):
        n, dk = 3, 4
        q = tensor.randn_matrix(rng, n, dk)
        k = tensor.randn_matrix(rng, n, dk)
        v = tensor.randn_matrix(rng, n, dk)
        w = rng.generator.uniform(0.5, 2.0, dk)
        _, attn = graded.graded_attention(q, k, v, w, "scores")
        scores = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                scores[i, j] = sum(w[m] * q[i, m] * k[j, m] for m in range(dk))
        want = tensor.softmax_rows(scores / np.sqrt(dk))
        assert_close(attn, want, tol=1e-12)

    def test_weight_length_checked_for_every_variant(self, rng):
        q = tensor.randn_matrix(rng, 4, 3)
        for variant in graded.VARIANTS:
            with pytest.raises(DimensionMismatch):
                graded.graded_attention(q, q, q, np.ones(2), variant)

    def test_values_variant_scales_values(self, rng):
        n, dk = 4, 2
        q = tensor.randn_matrix(rng, n, dk)
        k = tensor.randn_matrix(rng, n, dk)
        v = tensor.randn_matrix(rng, n, dk)
        w = np.array([2.0, 0.5])
        out, attn = graded.graded_attention(q, k, v, w, "values")
        _, attn_std = graded.graded_attention(q, k, v, np.ones(dk), "none")
        assert np.array_equal(attn, attn_std)
        assert_close(out, attn @ (v * w), tol=1e-15)

    def test_egt_concentration_monotone(self):
        g = Rng(33).generator
        grades = np.array([0.5, 2.5, 1.0, 0.2])
        q = g.normal(size=(4, 4))
        k = g.normal(size=(4, 4))
        shares = []
        for lam in (2.0, 4.0, 8.0, 16.0):
            w = np.exp(grades * np.log(lam))
            contrib = np.abs(q[:, None, :] * k[None, :, :] * w)
            shares.append(float((contrib[:, :, 1] / contrib.sum(axis=2)).mean()))
        assert all(a < b for a, b in zip(shares, shares[1:]))


def graded_ffn(p, gcfg, x):
    """The encoder's FFN grading stage on rows x: tf.feed_forward, then
    grade_rows with the model tuple's weights."""
    w_model, _ = graded.weight_nodes(gcfg, None, None)
    return graded.grade_rows(tf.feed_forward(p, "enc0", x), w_model, gcfg.normalize_ffn).value


class TestGradedFfnOutput:
    def test_identity_weights(self, toy_model):
        cfg, params = toy_model
        gcfg = make_gcfg(toy_model, grades=np.zeros(4), normalize_ffn=False)
        x = Rng(2).generator.normal(size=4)
        out = graded_ffn(params, gcfg, x[None])[0]
        hidden = np.maximum(x @ params["enc0.w1"] + params["enc0.b1"].ravel(), 0)
        want = hidden @ params["enc0.w2"] + params["enc0.b2"].ravel()
        assert np.array_equal(out, want)

    def test_zero_weights_give_scaled_bias(self, toy_model):
        gcfg = make_gcfg(toy_model, normalize_ffn=True)
        b2 = np.array([1.0, 0.5, -0.5, 2.0])
        p = {"enc0.w1": np.zeros((4, 8)), "enc0.b1": np.zeros((1, 8)),
             "enc0.w2": np.zeros((8, 4)), "enc0.b2": b2[None]}
        out = graded_ffn(p, gcfg, np.ones((1, 4)))[0]
        scaled = b2 * gcfg.weights()
        assert_close(out, scaled / np.linalg.norm(scaled), tol=1e-12)

    def test_ffn_lipschitz_bound(self, toy_model):
        cfg, params = toy_model
        gcfg = make_gcfg(toy_model, normalize_ffn=False)
        w1, w2 = params["enc0.w1"], params["enc0.w2"]
        lip = tensor.spectral_norm(w1) * tensor.spectral_norm(w2)
        bound = gcfg.max_weight() * lip
        g = Rng(3).generator
        for _ in range(50):
            x, y = g.normal(size=(1, 4)), g.normal(size=(1, 4))
            fx, fy = graded_ffn(params, gcfg, x), graded_ffn(params, gcfg, y)
            ratio = np.linalg.norm(fx - fy) / np.linalg.norm(x - y)
            assert ratio <= bound * (1 + 1e-6)


class TestForward:
    def test_unit_grading_reduces_to_baseline(self, toy_model):
        cfg, params = toy_model
        ucfg = graded.unit_config(cfg)
        for i in range(5):
            x = Rng(50 + i).generator.normal(size=(6, 4))
            z, _ = graded.forward(params, ucfg, x)
            assert np.array_equal(z, tf.encode(params, cfg, x))

    def test_egt_zero_grades_reduce(self, toy_model):
        cfg, params = toy_model
        ecfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, base=2.0,
                                        grades=np.zeros(4), normalize_inputs=False)
        x = Rng(60).generator.normal(size=(6, 4))
        z, _ = graded.forward(params, ecfg, x)
        assert np.array_equal(z, tf.encode(params, cfg, x))

    def test_forward_deterministic(self, toy_model):
        gcfg = make_gcfg(toy_model, attention_variant="scores")
        cfg, params = toy_model
        x = Rng(70).generator.normal(size=(5, 4))
        z1, l1 = graded.forward(params, gcfg, x)
        z2, l2 = graded.forward(params, gcfg, x)
        assert np.array_equal(z1, z2) and np.array_equal(l1, l2)

    def test_egt_input_row_scaling(self, toy_model):
        cfg, params = toy_model
        ecfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, base=2.0,
                                        grades=np.array([0.0, 1.0, 2.0, 0.0]),
                                        normalize_inputs=False)
        x = np.ones((2, 4))
        out = graded.graded_input(x, ecfg)
        assert_close(out, np.tile([1.0, 2.0, 4.0, 1.0], (2, 1)), tol=1e-12)

    def test_grading_stage_noise_bound(self, toy_model):
        gcfg = make_gcfg(toy_model, normalize_inputs=False)
        g = Rng(5).generator
        w_max = gcfg.max_weight()
        for _ in range(100):
            x = g.normal(size=(4, 4))
            delta = g.normal(size=(4, 4)) * 0.3
            lhs = np.linalg.norm(graded.graded_input(x + delta, gcfg)
                                 - graded.graded_input(x, gcfg))
            assert lhs <= w_max * np.linalg.norm(delta) * (1 + 1e-12)

    def test_graded_generate_matches_baseline_under_unit_grading(self, token_model):
        cfg, params = token_model
        ucfg = graded.unit_config(cfg)
        for seed in range(5):
            toks = list(Rng(seed).generator.integers(3, cfg.vocab_size + 1, size=4))
            assert graded.graded_generate(params, ucfg, toks) == \
                tf.generate(params, cfg, toks)

    def test_generate_wraps_each_array_once_per_request(self, token_model, monkeypatch):
        cfg, params = token_model
        gcfg = graded.GradedModelConfig(model=cfg, grades=Rng(4).generator.uniform(0, 1, 8),
                                        attention_variant="queries_keys",
                                        positional="exp_decay", alpha=0.1)
        real, wrapped = tf.as_nodes, []

        def recording(params, tape, trainable):
            nodes = real(params, tape, trainable)
            wrapped.append(list(nodes))
            return nodes

        prompts = [list(Rng(s).generator.integers(3, cfg.vocab_size + 1, size=5))
                   for s in range(6)]
        # reference: the encoder and the decoder on their own tapes
        encoded = [graded.forward(params, gcfg, np.asarray(toks))[0] for toks in prompts]
        want = [run_nodes(params, lambda p, t: tf.decode_nodes(p, t.constant(z), cfg, cfg.m_max))
                for z in encoded]
        monkeypatch.setattr(tf, "as_nodes", recording)
        for toks, tokens in zip(prompts, want):
            wrapped.clear()
            assert graded.graded_generate(params, gcfg, toks) == tokens
            assert len(wrapped) == 1 and sorted(wrapped[0]) == sorted(params)
            wrapped.clear()
            tf.generate(params, cfg, toks)
            assert len(wrapped) == 1 and sorted(wrapped[0]) == sorted(params)

    @pytest.mark.parametrize("mode", [gs.LINEAR, gs.EXPONENTIAL])
    def test_grades_written_in_place_reach_the_next_forward(self, toy_model, mode):
        # training.train rewrites the grade arrays in place: a cached weight
        # row must not outlive the values it was made from
        cfg, params = toy_model
        gcfg = make_gcfg(toy_model, mode=mode, base=1.5, attention_variant="queries_keys",
                         grade_ffn=True, grade_output=True)
        x = Rng(72).generator.normal(size=(5, 4))
        before = graded.forward(params, gcfg, x)[1]
        new = Rng(73).generator.uniform(0.0, 2.0, 4)
        gcfg.grades[:] = new
        gcfg.head_grades[:] = new[::-1].reshape(2, 2)
        fresh = make_gcfg(toy_model, mode=mode, base=1.5, attention_variant="queries_keys",
                          grade_ffn=True, grade_output=True, grades=new.copy(),
                          head_grades=new[::-1].reshape(2, 2).copy())
        got = graded.forward(params, gcfg, x)[1]
        assert np.array_equal(got, graded.forward(params, fresh, x)[1])
        assert not np.array_equal(got, before)

    def test_cached_constants_are_read_only(self, toy_model):
        gcfg = make_gcfg(toy_model, attention_variant="scores", positional="linear_decay",
                         alpha=0.05)
        w_model, w_heads = graded.weight_nodes(gcfg, None, None)
        table = graded.graded_positional_matrix(6, gcfg)
        for cached in (w_model.value, w_heads.value, table):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0
        assert np.array_equal(graded.weight_nodes(gcfg, None, None)[0].value,
                              gcfg.weights()[None])

    def test_exponential_base_must_exceed_one(self, toy_model):
        cfg, params = toy_model
        ecfg = make_gcfg(toy_model, mode=gs.EXPONENTIAL)
        with pytest.raises(InvalidSpec):
            replace(ecfg, base=1.0)
        tape = ad.Tape()  # a training step's annealed base overrides the config's
        with ad.recording(tape), pytest.raises(InvalidSpec):
            graded.forward_nodes(tf.as_nodes(params, tape, trainable=False), ecfg,
                                 np.ones((3, 4)), lam=1.0)

    def test_model_softmax_is_tensor_softmax(self, toy_model, monkeypatch):
        # an injected softmax fault must reach the model's forward pass, so
        # that properties checked through tensor.softmax_rows cover the model
        cfg, params = toy_model
        gcfg = make_gcfg(toy_model, attention_variant="scores")
        x = Rng(71).generator.normal(size=(5, 4))
        _, clean = graded.forward(params, gcfg, x)
        monkeypatch.setattr(tensor, "softmax_rows", unnormalized_softmax)
        _, faulty = graded.forward(params, gcfg, x)
        assert np.abs(faulty - clean).max() > 1e-3
        results, _ = props.run_props("transformer.row_stochastic", seed=0)
        assert not results[0].passed


class TestBatchedForward:
    @staticmethod
    def logits(params, gcfg, inputs):
        return graded.forward(params, gcfg, inputs)[1]

    def test_token_batch_matches_per_sequence(self):
        # 16 x 8 ids at n_max 16: the cap holds per sequence, not for all 128 ids
        cfg = tf.ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                             n_max=16)
        params = tf.init_params(cfg, Rng(2), decoder=False)
        gcfg = graded.GradedModelConfig(model=cfg, mode=gs.EXPONENTIAL, base=1.6,
                                        grades=Rng(3).generator.uniform(0, 1, 8),
                                        attention_variant="queries_keys",
                                        positional="exp_decay", alpha=0.25,
                                        grade_inputs=False)
        batch = Rng(4).generator.integers(1, 13, size=(16, 8))
        got = self.logits(params, gcfg, batch)
        want = np.vstack([self.logits(params, gcfg, row) for row in batch])
        assert_close(got, want, tol=1e-12)

    def test_ragged_token_batch_is_a_typed_error(self, token_model):
        cfg, params = token_model
        gcfg = graded.unit_config(cfg)
        with pytest.raises(SequenceTooLong):
            self.logits(params, gcfg, [[3] * 4, [3] * (cfg.n_max + 1)])
        with pytest.raises(DimensionMismatch):
            self.logits(params, gcfg, [[3] * 4, [3] * 5])
        for empty in ([], np.zeros(0, dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
            with pytest.raises(DimensionMismatch, match="empty"):
                self.logits(params, gcfg, empty)

    def test_vocab_model_takes_only_integer_ids(self, token_model):
        cfg, params = token_model
        gcfg = graded.unit_config(cfg)
        for inputs in ([3.7, 4.9], np.ones((4, cfg.d_model))):  # float ids, embedded rows
            with pytest.raises(TokenOutOfRange):
                self.logits(params, gcfg, inputs)
        with pytest.raises(TokenOutOfRange):
            graded.graded_generate(params, gcfg, [3.7, 4.9])
        assert graded.graded_generate(params, gcfg, [3, 4]) == \
            graded.graded_generate(params, gcfg, np.array([3, 4], dtype=np.int32))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3)])
    def test_generate_takes_one_prompt(self, token_model, shape):
        # a batch would decode one sequence against the rows of every prompt
        cfg, params = token_model
        prompts = np.arange(3, 3 + np.prod(shape)).reshape(shape)
        with pytest.raises(DimensionMismatch, match="one prompt"):
            graded.graded_generate(params, graded.unit_config(cfg), prompts)
        with pytest.raises(DimensionMismatch, match="one prompt"):
            tf.generate(params, cfg, prompts)

    def test_matrix_batch_matches_per_sequence(self, toy_model):
        cfg, params = toy_model
        gcfg = make_gcfg(toy_model, attention_variant="scores", add_positional=True,
                         positional="linear_decay", alpha=0.02)
        x = Rng(6).generator.normal(size=(5, 6, 4))
        got = self.logits(params, gcfg, x)
        want = np.vstack([self.logits(params, gcfg, seq) for seq in x])
        assert_close(got, want, tol=1e-12)
        for empty in (np.zeros((0, 4)), np.zeros((2, 0, 4))):
            with pytest.raises(DimensionMismatch, match="empty"):
                self.logits(params, gcfg, empty)


class TestConstructAttentionTarget:
    def test_identity_recovered(self):
        delta = 1e-3
        *_, err = graded.construct_attention_target(np.eye(4), delta)
        assert err <= delta

    def test_uniform_exact(self):
        a0 = np.full((4, 4), 0.25)
        *_, err = graded.construct_attention_target(a0, 1e-3)
        assert err <= 1e-12

    def test_random_targets(self):
        g = Rng(8).generator
        for delta in (1e-3, 1e-6):
            for _ in range(20):
                n = int(g.choice([4, 8]))
                a0 = g.uniform(0.0, 1.0, (n, n))
                a0 /= a0.sum(axis=1, keepdims=True)
                q, k, v, err = graded.construct_attention_target(a0, delta)
                assert err <= delta
                # the returned triple really does reproduce the target
                attn = tensor.softmax_rows(q @ k.T / np.sqrt(n)) @ v
                assert np.linalg.norm(attn - a0) <= delta

    def test_not_row_stochastic(self):
        with pytest.raises(NotRowStochastic):
            graded.construct_attention_target(np.ones((3, 3)), 1e-3)
