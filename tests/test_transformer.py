import numpy as np
import pytest

from graded_transformer import autodiff as ad
from graded_transformer import container
from graded_transformer import tensor
from graded_transformer import transformer as tf
from graded_transformer.errors import (
    DimensionMismatch,
    PositionOutOfRange,
    SequenceTooLong,
    TokenOutOfRange,
)
from graded_transformer.tensor import Rng

from conftest import assert_close


def run_nodes(params, builder):
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        out = builder(p, tape)
    return out.value


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(DimensionMismatch):
            tf.ModelConfig(vocab_size=4, d_model=6, n_heads=4, n_layers=1, d_ff=8)

    def test_round_trip_dict(self):
        cfg = tf.ModelConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8)
        assert tf.ModelConfig(**cfg.to_dict()) == cfg


class TestPositionalEncoding:
    def test_first_dim_is_sin(self):
        for i in (1, 2, 5):
            pe = tf.positional_encoding(i, 6)
            assert pe[0] == pytest.approx(np.sin(i))
            assert pe[1] == pytest.approx(np.cos(i))

    def test_bounded(self):
        for i in range(1, 30):
            assert np.abs(tf.positional_encoding(i, 10)).max() <= 1.0

    def test_deterministic(self):
        assert np.array_equal(tf.positional_encoding(3, 8), tf.positional_encoding(3, 8))

    def test_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            tf.positional_encoding(0, 4)
        with pytest.raises(PositionOutOfRange):
            tf.positional_encoding(9, 4, n_max=8)
        with pytest.raises(PositionOutOfRange):
            tf.positional_matrix(9, 4, n_max=8)

    def test_matrix_equals_per_position_stack(self):
        def one_position(i, d):
            k = np.arange(d, dtype=np.float64)
            angle = i / np.power(10000.0, np.where(k % 2 == 0, k, k - 1) / d)
            return np.where(k % 2 == 0, np.sin(angle), np.cos(angle))

        for d in (4, 8, 16, 32, 64):
            for n in range(1, 65):
                want = np.stack([one_position(i, d) for i in range(1, n + 1)])
                assert np.array_equal(tf.positional_matrix(n, d), want), (n, d)
            assert np.array_equal(tf.positional_encoding(64, d), want[-1])


class TestEmbedding:
    def test_lookup_matches_table_row(self, token_model):
        cfg, params = token_model
        x = run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [4]))
        want = params["embed"][3] + tf.positional_encoding(1, cfg.d_model)
        assert_close(x[0], want)

    def test_same_token_differs_by_positions(self, token_model):
        cfg, params = token_model
        x = run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [5, 5]))
        pe_diff = tf.positional_encoding(1, cfg.d_model) - tf.positional_encoding(2, cfg.d_model)
        assert_close(x[0] - x[1], pe_diff, tol=1e-15)

    def test_length_boundary(self, token_model):
        cfg, params = token_model
        ok = [3] * cfg.n_max
        run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, ok))
        with pytest.raises(SequenceTooLong):
            run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, ok + [3]))

    def test_token_range(self, token_model):
        cfg, params = token_model
        with pytest.raises(TokenOutOfRange):
            run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [0]))
        with pytest.raises(TokenOutOfRange):
            run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [cfg.vocab_size + 1]))


class TestCheckTokens:
    @pytest.fixture
    def cfg(self):
        return tf.ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                              n_max=16)

    def test_cap_applies_per_sequence(self, cfg):
        batch = Rng(1).generator.integers(1, 13, size=(16, 8))  # 128 ids, 8 per row
        assert tf.check_tokens(batch, cfg).shape == (16, 8)
        with pytest.raises(SequenceTooLong):
            tf.check_tokens(np.ones((2, 17), dtype=np.int64), cfg)

    def test_ragged_batch(self, cfg):
        with pytest.raises(SequenceTooLong):
            tf.check_tokens([[3] * 8, [3] * 17], cfg)  # one over-length row
        with pytest.raises(DimensionMismatch):
            tf.check_tokens([[3] * 8, [3] * 7], cfg)

    def test_ids_out_of_range_in_batch(self, cfg):
        for bad in (0, cfg.vocab_size + 1):
            batch = np.full((3, 4), 5)
            batch[2, 1] = bad
            with pytest.raises(TokenOutOfRange):
                tf.check_tokens(batch, cfg)

    def test_rejects_three_axes(self, cfg):
        with pytest.raises(DimensionMismatch):
            tf.check_tokens(np.ones((2, 2, 2), dtype=np.int64), cfg)


class TestAttention:
    def test_single_row_returns_value(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.3, -0.6]])
        v = np.array([[5.0, 7.0]])
        tape = ad.Tape()
        with ad.recording(tape):
            out = tf.attention_head(ad.wrap(q), ad.wrap(k), ad.wrap(v), 2)
        assert_close(out.value, v)

    def test_masked_first_row_sees_only_itself(self, rng):
        n, dk = 4, 3
        q = tensor.randn_matrix(rng, n, dk)
        k = tensor.randn_matrix(rng, n, dk)
        v = tensor.randn_matrix(rng, n, dk)
        tape = ad.Tape()
        with ad.recording(tape):
            out = tf.attention_head(ad.wrap(q), ad.wrap(k), ad.wrap(v), dk,
                                    mask=tf.causal_mask(n))
        assert_close(out.value[0], v[0], tol=1e-12)

    def test_two_by_two_hand_softmax(self):
        q = k = v = np.eye(2) * 3.0
        tape = ad.Tape()
        with ad.recording(tape):
            out = tf.attention_head(ad.wrap(q), ad.wrap(k), ad.wrap(v), 2)
        s = 9.0 / np.sqrt(2.0)
        a = np.exp(s) / (np.exp(s) + 1.0)
        want = np.array([[3 * a, 3 * (1 - a)], [3 * (1 - a), 3 * a]])
        assert_close(out.value, want, tol=1e-12)


class TestMultiHead:
    def test_single_head_identity_wo(self, rng):
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=1, n_layers=1, d_ff=8)
        params = tf.init_params(cfg, rng)
        params["enc0.wo"] = np.eye(4)
        x = tensor.randn_matrix(rng, 5, 4)

        def direct(p, t):
            q = ad.matmul(t.constant(x), p["enc0.wq0"])
            k = ad.matmul(t.constant(x), p["enc0.wk0"])
            v = ad.matmul(t.constant(x), p["enc0.wv0"])
            return tf.attention_head(q, k, v, cfg.d_k)

        got = run_nodes(params, lambda p, t: tf.multi_head(p, "enc0", t.constant(x), cfg))
        want = run_nodes(params, direct)
        assert_close(got, want, tol=1e-15)

    def test_permutation_equivariance(self, toy_model):
        cfg, params = toy_model
        g = Rng(17).generator
        for _ in range(20):
            n = int(g.integers(2, 8))
            x = g.normal(size=(n, cfg.d_model))
            perm = np.eye(n)[g.permutation(n)]
            mh = lambda arr: run_nodes(
                params, lambda p, t: tf.multi_head(p, "enc0", t.constant(arr), cfg))
            assert np.linalg.norm(mh(perm @ x) - perm @ mh(x)) <= 1e-10

    def test_output_rows(self, toy_model):
        cfg, params = toy_model
        for n in (1, 3, 8):
            x = Rng(n).generator.normal(size=(n, cfg.d_model))
            out = run_nodes(params, lambda p, t: tf.multi_head(p, "enc0", t.constant(x), cfg))
            assert out.shape == (n, cfg.d_model)


class TestCrossAttention:
    def test_single_source_row(self, token_model):
        cfg, params = token_model
        y = Rng(2).generator.normal(size=(3, cfg.d_model))
        z = Rng(3).generator.normal(size=(1, cfg.d_model))
        out = run_nodes(params, lambda p, t: tf.multi_head(
            p, "dec0", t.constant(y), cfg, kv=t.constant(z), cross=True))
        # softmax over one key is 1, so every row is the same projected value
        assert np.abs(out - out[0]).max() <= 1e-12

    def test_y_equals_z_coincides_with_self_attention(self, token_model):
        cfg, params = token_model
        shared = {k: v for k, v in params.items()}
        for i in range(cfg.n_heads):  # same projections for self and cross paths
            shared[f"dec0.cq{i}"] = shared[f"dec0.wq{i}"]
            shared[f"dec0.ck{i}"] = shared[f"dec0.wk{i}"]
            shared[f"dec0.cv{i}"] = shared[f"dec0.wv{i}"]
        shared["dec0.co"] = shared["dec0.wo"]
        y = Rng(4).generator.normal(size=(4, cfg.d_model))
        cross = run_nodes(shared, lambda p, t: tf.multi_head(
            p, "dec0", t.constant(y), cfg, kv=t.constant(y), cross=True))
        self_attn = run_nodes(shared, lambda p, t: tf.multi_head(
            p, "dec0", t.constant(y), cfg))
        assert_close(cross, self_attn, tol=1e-15)

    def test_output_shape(self, token_model):
        cfg, params = token_model
        for t_len, n in ((2, 5), (4, 1)):
            y = Rng(t_len).generator.normal(size=(t_len, cfg.d_model))
            z = Rng(n + 10).generator.normal(size=(n, cfg.d_model))
            out = run_nodes(params, lambda p, t: tf.multi_head(
                p, "dec0", t.constant(y), cfg, kv=t.constant(z), cross=True))
            assert out.shape == (t_len, cfg.d_model)


class TestFfnLayerNorm:
    def test_layer_norm_constant_row(self):
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.layer_norm_rows(np.full((1, 4), 3.3), np.ones((1, 4)),
                                     np.zeros((1, 4)), 1e-5)
        assert np.abs(out.value).max() <= 1e-6

    def test_layer_norm_statistics(self, rng):
        x = tensor.randn_matrix(rng, 6, 8) * 3.0
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.layer_norm_rows(x, np.ones((1, 8)), np.zeros((1, 8)), 1e-8)
        v = out.value
        assert np.abs(v.mean(axis=1)).max() <= 1e-12
        assert np.abs(v.var(axis=1) - 1.0).max() <= 1e-6

    def test_ffn_zero_weights_gives_bias(self, toy_model):
        cfg, params = toy_model
        p2 = dict(params)
        p2["enc0.w1"] = np.zeros_like(params["enc0.w1"])
        p2["enc0.w2"] = np.zeros_like(params["enc0.w2"])
        p2["enc0.b2"] = np.arange(4.0).reshape(1, 4)
        x = np.ones((3, 4))
        out = run_nodes(p2, lambda p, t: tf.feed_forward(p, "enc0", t.constant(x)))
        assert_close(out, np.tile(np.arange(4.0), (3, 1)))


class TestEncoderDecoderGenerate:
    def test_empty_stack_is_identity(self):
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=0, d_ff=8)
        x = Rng(8).generator.normal(size=(3, 4))
        assert np.array_equal(tf.encode({}, cfg, x), x)

    def test_generate_dominant_logit(self):
        cfg = tf.ModelConfig(vocab_size=6, d_model=4, n_heads=1, n_layers=0, d_ff=4,
                             n_max=8, m_max=5)
        params = {"embed": np.zeros((6, 4))}
        params["embed"][4] = 100.0  # token id 5 dominates every dot product
        out = tf.generate(params, cfg, [3, 3])
        assert out == [5] * 5

    def test_generate_stops_at_eos(self):
        cfg = tf.ModelConfig(vocab_size=6, d_model=4, n_heads=1, n_layers=0, d_ff=4,
                             n_max=8, m_max=5)
        params = {"embed": np.zeros((6, 4))}
        params["embed"][tf.EOS_TOKEN - 1] = 50.0
        assert tf.generate(params, cfg, [3]) == [tf.EOS_TOKEN]

    def test_generate_is_encoder_then_greedy_decode(self, token_model):
        cfg, params = token_model
        toks = [3, 7, 9]
        z = run_nodes(params, lambda p, t: tf.encoder(p, tf.embed_tokens(p, cfg, toks), cfg))
        assert tf.generate(params, cfg, toks, m_max=4) == \
            tf.greedy_decode(params, z, cfg, 4)

    def test_generate_deterministic(self, token_model):
        cfg, params = token_model
        toks = [3, 7, 9]
        assert tf.generate(params, cfg, toks) == tf.generate(params, cfg, toks)

    def test_decoder_causality(self, token_model):
        cfg, params = token_model
        z = Rng(12).generator.normal(size=(5, cfg.d_model))
        y = Rng(13).generator.normal(size=(4, cfg.d_model))
        y_pert = y.copy()
        y_pert[3] += 1.0  # perturb a later position

        def masked_self(p, t, arr):
            return tf.multi_head(p, "dec0", t.constant(arr), cfg,
                                 mask=tf.causal_mask(arr.shape[0]))

        base = run_nodes(params, lambda p, t: masked_self(p, t, y))
        pert = run_nodes(params, lambda p, t: masked_self(p, t, y_pert))
        assert_close(pert[:3], base[:3], tol=1e-12)
        assert np.abs(pert[3] - base[3]).max() > 1e-6


class TestCheckpoint:
    def test_round_trip(self, tmp_path, token_model):
        cfg, params = token_model
        path = tmp_path / "model.gtc"
        tf.save_checkpoint(path, params, cfg, extra={"step": 3})
        loaded, cfg2, extra = tf.load_checkpoint(path)
        assert cfg2 == cfg
        assert extra == {"step": 3}
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])

    @pytest.mark.parametrize("config", [None, {"d_model": 8}, {"bogus": 1}, [1, 2],
                                        {"vocab_size": 4, "d_model": 6, "n_heads": 4,
                                         "n_layers": 1, "d_ff": 8}])
    def test_missing_or_invalid_config(self, tmp_path, token_model, config):
        _, params = token_model
        path = tmp_path / "model.gtc"
        meta = {"kind": tf.CHECKPOINT_KIND}
        if config is not None:
            meta["config"] = config
        container.save_arrays(path, params, meta)
        with pytest.raises(ValueError, match="model.gtc"):
            tf.load_checkpoint(path)
