import re

import numpy as np
import pytest

from graded_transformer import autodiff as ad
from graded_transformer import container
from graded_transformer import props
from graded_transformer import tensor
from graded_transformer import transformer as tf
from graded_transformer.errors import (
    DimensionMismatch,
    PositionOutOfRange,
    SequenceTooLong,
    TokenOutOfRange,
)
from graded_transformer.tensor import Rng

from conftest import assert_close, per_head_init_params, run_nodes, sinusoid


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(DimensionMismatch):
            tf.ModelConfig(vocab_size=4, d_model=6, n_heads=4, n_layers=1, d_ff=8)

    def test_round_trip_dict(self):
        cfg = tf.ModelConfig(vocab_size=4, d_model=8, n_heads=2, n_layers=1, d_ff=8)
        assert tf.ModelConfig(**cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key, value", [("d_model", 4.0), ("n_layers", 1.0),
                                            ("n_heads", True), ("out_dim", 4.0)])
    def test_integer_field_takes_no_float_or_bool(self, key, value):
        kw = {"vocab_size": 0, "d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 8}
        with pytest.raises(DimensionMismatch, match=key):
            tf.ModelConfig(**{**kw, key: value})
        assert tf.ModelConfig(**{**kw, "d_model": np.int64(4)}).d_k == 2  # numpy ints are ints

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(DimensionMismatch, match="eps"):
            tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8, eps=eps)


class TestInitParams:
    @pytest.mark.parametrize("vocab,d,h,layers", [(0, 4, 2, 2), (12, 8, 2, 1), (16, 16, 4, 2)])
    def test_folded_equals_stacked_per_head_draws(self, vocab, d, h, layers):
        cfg = tf.ModelConfig(vocab_size=vocab, d_model=d, n_heads=h, n_layers=layers,
                             d_ff=16, out_dim=4 if not vocab else 0)
        got = tf.init_params(cfg, Rng(3))
        old = per_head_init_params(cfg, Rng(3))
        want = {k: v for k, v in old.items() if not re.fullmatch(r".+\.[wc][qkv]\d+", k)}
        for prefix in {k.split(".")[0] for k in old if "." in k}:
            for tag in ("w", "c") if prefix.startswith("dec") else ("w",):
                for m in "qkv":
                    want[f"{prefix}.{tag}{m}"] = np.hstack(
                        [old[f"{prefix}.{tag}{m}{i}"] for i in range(h)])
        assert set(got) == set(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestPositionalEncoding:
    def test_first_dim_is_sin(self):
        pe = tf.positional_matrix(5, 6)
        for i in (1, 2, 5):
            assert pe[i - 1, 0] == pytest.approx(np.sin(i))
            assert pe[i - 1, 1] == pytest.approx(np.cos(i))

    def test_bounded(self):
        assert np.abs(tf.positional_matrix(29, 10)).max() <= 1.0

    def test_deterministic(self):
        first = tf.positional_matrix(3, 8).copy()
        tf._sinusoid_table.cache_clear()  # recompute, not re-read
        assert np.array_equal(tf.positional_matrix(3, 8), first)

    def test_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            tf.positional_matrix(9, 4, n_max=8)

    def test_matrix_equals_per_position_stack(self):
        for d in (4, 8, 16, 32, 64):
            for n in range(1, 65):
                want = np.stack([sinusoid(i, d) for i in range(1, n + 1)])
                assert np.array_equal(tf.positional_matrix(n, d), want), (n, d)

    def test_matrix_is_one_read_only_table(self):
        table = tf.positional_matrix(8, 4)
        assert tf.positional_matrix(8, 4, n_max=16) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):
            table += 1.0


class TestEmbedding:
    def test_lookup_matches_table_row(self, token_model):
        cfg, params = token_model
        x = run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [4]))
        want = params["embed"][3] + sinusoid(1, cfg.d_model)
        assert_close(x[0], want)

    def test_same_token_differs_by_positions(self, token_model):
        cfg, params = token_model
        x = run_nodes(params, lambda p, t: tf.embed_tokens(p, cfg, [5, 5]))
        pe_diff = sinusoid(1, cfg.d_model) - sinusoid(2, cfg.d_model)
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
        with pytest.raises(DimensionMismatch):
            tf.check_tokens([[1, 2], 3], cfg)  # a row that is no sequence

    def test_ids_out_of_range_in_batch(self, cfg):
        for bad in (0, cfg.vocab_size + 1):
            batch = np.full((3, 4), 5)
            batch[2, 1] = bad
            with pytest.raises(TokenOutOfRange):
                tf.check_tokens(batch, cfg)

    @pytest.mark.parametrize("ids", [[3.7, 4.2], [3.0, 4.0], [True, False]])
    def test_non_integer_ids_rejected(self, cfg, ids):
        with pytest.raises(TokenOutOfRange, match="integers"):
            tf.check_tokens(np.array(ids), cfg)

    def test_generate_rejects_float_ids(self, token_model):
        cfg, params = token_model
        with pytest.raises(TokenOutOfRange):
            tf.generate(params, cfg, [3.7, 4.9])

    @pytest.mark.parametrize("ids", [[], np.zeros(0, dtype=np.int64),
                                     np.zeros((2, 0), dtype=np.int64),
                                     np.zeros((0, 4), dtype=np.int64)])
    def test_empty_rejected(self, cfg, ids):
        with pytest.raises(DimensionMismatch, match="empty"):
            tf.check_tokens(ids, cfg)

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
            q = ad.matmul(t.constant(x), p["enc0.wq"])
            k = ad.matmul(t.constant(x), p["enc0.wk"])
            v = ad.matmul(t.constant(x), p["enc0.wv"])
            return tf.attention_head(q, k, v, cfg.d_k)

        got = run_nodes(params, lambda p, t: tf.multi_head(p, "enc0", t.constant(x), cfg))
        want = run_nodes(params, direct)
        assert_close(got, want, tol=1e-15)

    def test_permutation_equivariance(self, toy_model):
        cfg, params = toy_model
        worst = props.permutation_equivariance_error(params, cfg, Rng(17).generator, 20, 8)
        assert worst <= 1e-10

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
            p, "dec0", t.constant(y), cfg, kv=t.constant(z)))
        # softmax over one key is 1, so every row is the same projected value
        assert np.abs(out - out[0]).max() <= 1e-12

    def test_y_equals_z_coincides_with_self_attention(self, token_model):
        cfg, params = token_model
        shared = {k: v for k, v in params.items()}
        # same projections for self and cross paths
        shared["dec0.cq"] = shared["dec0.wq"]
        shared["dec0.ck"] = shared["dec0.wk"]
        shared["dec0.cv"] = shared["dec0.wv"]
        shared["dec0.co"] = shared["dec0.wo"]
        y = Rng(4).generator.normal(size=(4, cfg.d_model))
        cross = run_nodes(shared, lambda p, t: tf.multi_head(
            p, "dec0", t.constant(y), cfg, kv=t.constant(y)))
        self_attn = run_nodes(shared, lambda p, t: tf.multi_head(
            p, "dec0", t.constant(y), cfg))
        assert_close(cross, self_attn, tol=1e-15)

    def test_output_shape(self, token_model):
        cfg, params = token_model
        for t_len, n in ((2, 5), (4, 1)):
            y = Rng(t_len).generator.normal(size=(t_len, cfg.d_model))
            z = Rng(n + 10).generator.normal(size=(n, cfg.d_model))
            out = run_nodes(params, lambda p, t: tf.multi_head(
                p, "dec0", t.constant(y), cfg, kv=t.constant(z)))
            assert out.shape == (t_len, cfg.d_model)


class TestFfnLayerNorm:
    def test_layer_norm_constant_row(self):
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.layer_norm_rows(np.full((1, 4), 3.3), np.zeros((1, 4)), np.ones((1, 4)),
                                     np.zeros((1, 4)), 1e-5)
        assert np.abs(out.value).max() <= 1e-6

    def test_layer_norm_statistics(self, rng):
        x = tensor.randn_matrix(rng, 6, 8) * 3.0
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.layer_norm_rows(x, np.zeros((6, 8)), np.ones((1, 8)), np.zeros((1, 8)), 1e-8)
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

    def test_generate_is_encoder_then_decode_nodes(self, token_model):
        cfg, params = token_model
        toks = [3, 7, 9]
        z = run_nodes(params, lambda p, t: tf.encoder(p, tf.embed_tokens(p, cfg, toks), cfg))
        assert tf.generate(params, cfg, toks, m_max=4) == \
            run_nodes(params, lambda p, t: tf.decode_nodes(p, t.constant(z), cfg, 4))

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


def full_prefix_decode(params, z, cfg, m_max, eos):
    """Reference: the whole prefix through the masked decoder for every token.
    Returns the tokens and the decoder's last row at each step."""
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        z = tape.constant(z)
        out, rows, generated = [], [], [tf.START_TOKEN]
        while len(out) < m_max:
            if len(generated) > cfg.m_max + 1:
                raise SequenceTooLong(f"{len(generated)} tokens exceed {cfg.m_max + 1}")
            ids = np.array(generated)
            emb = ad.add(ad.embedding_rows(p["embed"], ids - 1),
                         tf.positional_matrix(ids.size, cfg.d_model, cfg.m_max + 1))
            row = tf.decoder(p, emb, z, cfg).value[-1]
            rows.append(row)
            token = int(np.argmax(row @ params["embed"].T)) + 1
            out.append(token)
            generated.append(token)
            if token == eos:
                break
    return out, rows


def recording_decoder(monkeypatch):
    """Patch tf.decoder to keep the last row of each call's output."""
    rows = []
    original = tf.decoder

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        rows.append(out.value[-1].copy())
        return out

    monkeypatch.setattr(tf, "decoder", recorded)
    return rows


@pytest.fixture(scope="module")
def long_token_model():
    cfg = tf.ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                         n_max=12, m_max=20)
    return cfg, tf.init_params(cfg, Rng(6))


@pytest.fixture(scope="module")
def deep_token_model():
    cfg = tf.ModelConfig(vocab_size=16, d_model=16, n_heads=4, n_layers=2, d_ff=32,
                         n_max=16, m_max=10)
    return cfg, tf.init_params(cfg, Rng(9))


class TestCachedDecode:
    # long_token_model decodes past the K/V buffers' first capacity
    @pytest.mark.parametrize("model", ["token_model", "deep_token_model", "long_token_model"])
    @pytest.mark.parametrize("eos", [tf.EOS_TOKEN, 0])  # 0: never stops early
    def test_matches_full_prefix_decode(self, request, monkeypatch, model, eos):
        cfg, params = request.getfixturevalue(model)
        for seed in range(4):
            z = Rng(seed).generator.normal(size=(int(3 + seed), cfg.d_model))
            want_tokens, want_rows = full_prefix_decode(params, z, cfg, cfg.m_max, eos)
            rows = recording_decoder(monkeypatch)
            assert run_nodes(params, lambda p, t: tf.decode_nodes(
                p, t.constant(z), cfg, cfg.m_max, eos)) == want_tokens
            assert len(rows) == len(want_rows)
            if model == "long_token_model" and eos == 0:
                assert len(rows) > 2 * ad.RowBuffer.FIRST_ROWS
            for got, want in zip(rows, want_rows):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            monkeypatch.undo()

    def test_past_model_m_max_raises_at_same_token(self, token_model, monkeypatch):
        cfg, params = token_model
        z = Rng(1).generator.normal(size=(4, cfg.d_model))
        m_max = cfg.m_max + 3
        with pytest.raises(SequenceTooLong):
            full_prefix_decode(params, z, cfg, m_max, 0)
        rows = recording_decoder(monkeypatch)
        with pytest.raises(SequenceTooLong):
            run_nodes(params, lambda p, t: tf.decode_nodes(p, t.constant(z), cfg, m_max, 0))
        assert len(rows) == cfg.m_max + 1

    def test_cross_kv_projected_once_per_request(self, deep_token_model):
        cfg, params = deep_token_model
        z = Rng(2).generator.normal(size=(5, cfg.d_model))
        tape = ad.Tape()
        cache: dict = {}
        with ad.recording(tape):
            p = tf.as_nodes(params, tape, trainable=False)
            for t in range(3):
                tf.decoder(p, Rng(t).generator.normal(size=(1, cfg.d_model)), z, cfg, cache)
                for l in range(cfg.n_layers):
                    assert cache[f"dec{l}.w"][0].node.shape == (t + 1, cfg.d_model)
                    assert cache[f"dec{l}.c"][0].shape == (5, cfg.d_model)
            cross_k = [cache[f"dec{l}.c"][0] for l in range(cfg.n_layers)]
            tf.decoder(p, np.ones((1, cfg.d_model)), z, cfg, cache)
        assert all(cache[f"dec{l}.c"][0] is k for l, k in enumerate(cross_k))

    def test_earlier_kv_nodes_keep_their_values(self, deep_token_model):
        # each step's K/V nodes view the same buffers, which later steps
        # append to and, past the first capacity, copy into larger ones
        cfg, params = deep_token_model
        z = Rng(3).generator.normal(size=(5, cfg.d_model))
        tape = ad.Tape()
        cache: dict = {}
        kept = []
        with ad.recording(tape):
            p = tf.as_nodes(params, tape, trainable=False)
            for t in range(2 * ad.RowBuffer.FIRST_ROWS + 1):
                tf.decoder(p, Rng(t).generator.normal(size=(1, cfg.d_model)), z, cfg, cache)
                nodes = [b.node for l in range(cfg.n_layers) for b in cache[f"dec{l}.w"]]
                kept.append([(node, node.value.copy()) for node in nodes])
        for t, step in enumerate(kept):
            for node, value in step:
                assert node.value.shape[0] == t + 1
                assert np.array_equal(node.value, value)
            if t:  # step t's rows extend step t - 1's
                for (node, _), (earlier, _) in zip(step, kept[t - 1]):
                    assert np.array_equal(node.value[:t], earlier.value)

    def test_cache_takes_one_row(self, token_model):
        cfg, params = token_model
        with pytest.raises(DimensionMismatch):
            run_nodes(params, lambda p, t: tf.decoder(
                p, np.ones((2, cfg.d_model)), np.ones((3, cfg.d_model)), cfg, {}))


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

    def test_old_layout_is_rejected(self, tmp_path, deep_token_model):
        cfg, _ = deep_token_model
        path = tmp_path / "old.gtc"
        tf.save_checkpoint(path, per_head_init_params(cfg, Rng(4)), cfg)
        with pytest.raises(ValueError, match="old.gtc.*'enc0.wq'"):
            tf.load_checkpoint(path)

    def test_decoder_arrays_may_be_absent(self, tmp_path, token_model):
        cfg, _ = token_model
        path = tmp_path / "enc.gtc"
        tf.save_checkpoint(path, tf.init_params(cfg, Rng(0), decoder=False), cfg)
        loaded, _, _ = tf.load_checkpoint(path)
        assert not any(k.startswith("dec") for k in loaded)

    @pytest.mark.parametrize("name,edit", [
        ("embed", "drop"),             # encoder array missing
        ("enc0.wq", "drop"),
        ("enc0.ln1.g", "reshape"),     # wrong shape
        ("enc0.wk", "reshape"),
        ("dec0.w1", "drop"),           # decoder arrays only partly present
    ])
    def test_missing_or_misshapen_array(self, tmp_path, token_model, name, edit):
        cfg, params = token_model
        arrays = dict(params)
        if edit == "drop":
            del arrays[name]
        else:
            arrays[name] = arrays[name][:, :-1]
        path = tmp_path / "model.gtc"
        tf.save_checkpoint(path, arrays, cfg)
        with pytest.raises(ValueError, match=f"model.gtc.*{name}"):
            tf.load_checkpoint(path)
