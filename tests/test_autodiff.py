import ctypes
import zlib
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
from graded_transformer.errors import DimensionMismatch, NonFinite, NotScalarRoot

from conftest import (
    assert_close,
    assert_peak_close,
    blas_layer_norm,
    copying_backward,
    key_major_attention,
    mean_layer_norm,
    out_of_place_attention,
    same_bits,
    unfused_feed_forward,
)


def scalar(fn, point):
    tape = ad.Tape()
    with ad.recording(tape):
        nodes = {k: tape.param(k, v) for k, v in point.items()}
        root = fn(nodes)
    return tape, root


class TestBackward:
    def test_sum_gives_ones(self):
        tape, root = scalar(lambda p: ad.sum_all(p["w"]), {"w": np.ones((2, 2))})
        assert_close(tape.backward(root)["w"], np.ones((2, 2)))

    def test_squared_norm_gives_2x(self):
        x = np.array([[1.0, -2.0, 3.0]])
        tape, root = scalar(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])), {"x": x})
        assert_close(tape.backward(root)["x"], 2 * x)

    def test_graded_mse_hand_case(self):
        # (1/n) sum q_i (y_i - yhat_i)^2 with q=(2,3), y-yhat=(1,0), n=2:
        # d/dyhat = (-2 q_i (y_i - yhat_i) / n) = (-2, 0)
        y = np.array([[1.0, 5.0]])
        yhat = np.array([[0.0, 5.0]])
        q = np.array([[2.0, 3.0]])

        def loss(p):
            diff = ad.add(ad.wrap(y), ad.scale(p["yhat"], -1.0))
            return ad.scale(ad.sum_all(ad.scale_cols(ad.mul(diff, diff), q)), 0.5)

        tape, root = scalar(loss, {"yhat": yhat})
        assert_close(tape.backward(root)["yhat"], [[-2.0, 0.0]])

    def test_not_scalar_root(self):
        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.param("x", np.ones((2, 2)))
            y = ad.mul(x, x)
        with pytest.raises(NotScalarRoot):
            tape.backward(y)

    def test_unused_leaf_gets_zeros(self):
        tape = ad.Tape()
        with ad.recording(tape):
            x = tape.param("x", np.ones((1, 2)))
            unused = tape.param("unused", np.ones((2, 2)))
            root = ad.sum_all(x)
        grads = tape.backward(root)
        assert_close(grads["unused"], np.zeros((2, 2)))


def vstack(*parts):
    """The parts' rows appended to one ad.RowBuffer: a node whose VJPs pass
    on row slices, views of their adjoint."""
    rows = ad.RowBuffer()
    for part in parts:
        out = rows.append(part)
    return out


class TestGradientAliasing:
    """A VJP that returns g or a view of it shares memory with its node's
    other parents; each such first contribution must be copied before a
    later contribution is added to it in place."""

    @pytest.mark.parametrize("case", ["x_plus_x", "add", "vstack", "transpose"])
    def test_correct_and_unaliased(self, case):
        g = np.random.default_rng(11)
        a, b, c = (g.normal(size=(3, 2)) for _ in range(3))
        up, up2 = g.normal(size=(6, 2)), g.normal(size=(3, 2))
        point = {"a": a, "b": b, "c": c}

        def fn(p):
            # a feeds a node recorded before the aliasing one, so its later
            # += lands after the aliasing contribution
            side = ad.sum_all(ad.mul(p["a"], up2))
            if case == "x_plus_x":
                out = vstack(ad.add(p["a"], p["a"]), p["b"])
            elif case == "add":
                out = vstack(ad.add(p["a"], p["c"]), p["b"])
            elif case == "vstack":
                out = ad.add(vstack(p["a"], p["b"]), vstack(p["c"], p["b"]))
            else:
                out = vstack(ad.add(ad.transpose(ad.transpose(p["a"])), p["c"]), p["b"])
            return ad.add(ad.sum_all(ad.mul(out, up)), side)

        tape, root = scalar(fn, point)
        grads = tape.backward(root)
        top, bottom = up[:3], up[3:]
        want = {
            "x_plus_x": {"a": 2 * top + up2, "b": bottom, "c": 0 * c},
            "add": {"a": top + up2, "b": bottom, "c": top},
            "vstack": {"a": top + up2, "b": 2 * bottom, "c": top},
            "transpose": {"a": top + up2, "b": bottom, "c": top},
        }[case]
        for name in point:
            assert_close(grads[name], want[name], tol=1e-14, msg=name)
        for x in grads:
            for y in grads:
                assert x == y or not np.shares_memory(grads[x], grads[y])
        tape2, root2 = scalar(fn, point)
        ref = copying_backward(tape2, root2)
        for name in point:
            assert np.array_equal(grads[name], ref[name]), name


def wide_lgt_setup(steps):
    """The benchmark's `wide_lgt` training shape: d=32, 4 heads, 4 layers,
    d_ff 128, 16 sequences of 32 tokens, learned grades on queries and keys."""
    cfg = tf.ModelConfig(vocab_size=32, d_model=32, n_heads=4, n_layers=4, d_ff=128,
                         n_max=32, m_max=16)
    gcfg = graded.GradedModelConfig(model=cfg, mode=gs.LINEAR,
                                    grades=tensor.Rng(2).generator.uniform(0.0, 1.0, 32),
                                    attention_variant="queries_keys",
                                    positional="exp_decay", alpha=0.25, grade_inputs=False)
    return (tf.init_params(cfg, tensor.Rng(0), decoder=False), gcfg,
            tasks.gen_hier_copy(128, 32, 1, vocab=32),
            training.TrainConfig(steps=steps, seed=1, base_loss="sigmoid_ce", lr=2e-3))


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestAdjointLifetime:
    """The sweep drops each interior adjoint and clears each fused node's
    memo once the node's VJPs have run; leaves keep their gradients."""

    def test_sweep_keeps_only_leaf_adjoints(self):
        params, gcfg, ds, tc = wide_lgt_setup(1)
        tape, total, _, _ = training.record_step(params, gcfg, ds.x[:16], ds.y[:16], tc)
        memos = [node.memo for node in tape.nodes if node.memo is not None]
        assert len(memos) == 4 * gcfg.model.n_layers  # attention, FFN, two LayerNorms
        want = copying_backward(tape, total)  # frees nothing
        assert all(memos)
        got = tape.backward(total)
        leaves = {id(leaf) for leaf in tape.params.values()}
        for node in tape.nodes:
            assert (node.grad is not None) == (id(node) in leaves)
        assert not any(memos)
        again = tape.backward(total)
        assert set(got) == set(again) == set(want)
        for name in want:
            assert same_bits(got[name], want[name]), name
            assert same_bits(again[name], got[name]), name

    @pytest.mark.skipif(not has_mallopt(), reason="no mallopt in the C library")
    def test_warm_training_step_faults_in_no_pages(self):
        # the allocator pin keeps the freed step buffers mapped, so a warm
        # step reuses them instead of faulting fresh pages in
        resource = pytest.importorskip("resource")
        params, gcfg, ds, tc = wide_lgt_setup(3)
        training.train(params, gcfg, ds.x, ds.y, tc)
        steps = 20
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training.train(params, gcfg, ds.x, ds.y, replace(tc, steps=steps))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / steps < 5


class TestValuesOnly:
    """A tape with no parameter leaf keeps values only."""

    def setup_method(self):
        g = np.random.default_rng(11)
        self.a = g.normal(0.0, 1.0, (3, 4))
        self.w0 = g.normal(0.0, 1.0, (4, 2))
        self.up = g.uniform(0.5, 1.5, (3, 2))

    def test_param_free_tape_keeps_no_nodes(self):
        tape = ad.Tape()
        with ad.recording(tape):
            c = tape.constant(self.a)
            h = ad.exp(ad.matmul(c, ad.transpose(c)))
            y = ad.layer_norm_rows(h, h, np.ones((1, 3)), np.zeros((1, 3)), 1e-5)
            s = ad.sum_all(vstack(y, ad.normalize_rows(y)))
        assert tape.nodes == [] and tape.params == {}
        for node in (c, h, y, s):
            assert node.parents == () and node.vjps == ()
        assert np.array_equal(h.value, np.exp(self.a @ self.a.T))

    def test_late_param_gets_unchanged_gradients(self):
        a, up = self.a, self.up

        def fn(p):
            return ad.sum_all(ad.mul(ad.matmul(ad.normalize_rows(a), p["w"]), up))

        tape = ad.Tape()
        with ad.recording(tape):
            c = ad.normalize_rows(tape.constant(a))  # before any parameter: values only
            assert tape.nodes == [] and c.parents == ()
            w = tape.param("w", self.w0)
            root = ad.sum_all(ad.mul(ad.matmul(c, w), up))
        # w, matmul, mul, sum_all: the constant up is a bare node, never recorded
        assert tape.nodes[0] is w and len(tape.nodes) == 4
        ref_tape, ref_root = scalar(fn, {"w": self.w0})
        want = ref_tape.backward(ref_root)["w"]
        for _ in range(2):  # a second sweep over the same tape gives the same
            assert np.array_equal(tape.backward(root)["w"], want)
        assert ad.grad_check(fn, {"w": self.w0}) <= 1e-4

    def test_nested_param_free_tape(self):
        outer = ad.Tape()
        with ad.recording(outer):
            w = outer.param("w", self.w0)
            inner = ad.Tape()
            with ad.recording(inner):
                v = ad.affine(inner.constant(self.a), 0.5, 2.0)
            assert inner.nodes == [] and v.parents == ()
            root = ad.sum_all(ad.mul(ad.matmul(v, w), self.up))
        assert len(outer.nodes) == 4  # w, matmul, mul, sum_all; v and up are constants
        assert_close(outer.backward(root)["w"], v.value.T @ self.up, tol=1e-14)

    @staticmethod
    def layer_norm_case(d, rows, seed):
        g = np.random.default_rng(seed)
        x = g.normal(0.0, 3.0, (rows, d)) + g.normal(0.0, 50.0, (rows, 1))
        r = g.normal(0.0, 1.0, (rows, d))
        if rows > 2:
            x[2], r[2] = 1.25, 0.0  # a constant row of x + r: zero variance
        gamma, beta = g.uniform(0.5, 1.5, (1, d)), g.normal(0.0, 1.0, (1, d))
        up = g.normal(0.0, 1.0, (rows, d))
        tape = ad.Tape()
        with ad.recording(tape):
            y = ad.layer_norm_rows(tape.param("x", x), tape.param("r", r), gamma, beta, 1e-5)
        return x + r, gamma, beta, up, y

    # d = 6 and 12: 1/d is inexact, so a mean taken as x @ (1/d column)
    # differs from the sum over d in the last bits
    @pytest.mark.parametrize("d", [4, 6, 12, 16, 32])
    def test_layer_norm_equals_mean_reference(self, d):
        # in place equals the out-of-place BLAS means bit for bit, and the
        # ndarray.mean formula to 1e-13 of its peak
        z, gamma, beta, up, y = self.layer_norm_case(d, 6, d)
        dx, dr = y.vjps[0](up), y.vjps[1](up)
        want_y, want_dz = blas_layer_norm(z, gamma, beta, 1e-5, up)
        assert np.array_equal(y.value, want_y)
        assert np.array_equal(dx, want_dz) and np.array_equal(dr, want_dz)
        assert not np.shares_memory(dx, dr)
        mean_y, mean_dz = mean_layer_norm(z, gamma, beta, 1e-5, up)
        assert_peak_close(y.value, mean_y, 1e-13)
        assert_peak_close(dx, mean_dz, 1e-13)

    @pytest.mark.parametrize("d", [4, 6, 32])
    def test_one_row_layer_norm(self, d):
        # the decode shape: one row per call
        z, gamma, beta, up, y = self.layer_norm_case(d, 1, 100 + d)
        want_y, want_dz = blas_layer_norm(z, gamma, beta, 1e-5, up)
        assert np.array_equal(y.value, want_y) and np.array_equal(y.vjps[0](up), want_dz)
        mean_y, mean_dz = mean_layer_norm(z, gamma, beta, 1e-5, up)
        assert_peak_close(y.value, mean_y, 1e-13)
        assert_peak_close(y.vjps[0](up), mean_dz, 1e-13)

    @pytest.mark.parametrize("d", [4, 6, 12, 32])
    def test_one_row_matches_its_row_in_a_block(self, d):
        # a decode step normalises one row; the full-prefix pass normalises
        # the same row inside a block.  BLAS takes a one-row product as a
        # dot and a block's as a matrix-vector product, which sum in their
        # own orders, so the two agree to rounding, not bit for bit
        z, gamma, beta, up, y = self.layer_norm_case(d, 8, 200 + d)
        dz = y.vjps[0](up)
        for i in range(8):
            tape = ad.Tape()
            with ad.recording(tape):
                one = ad.layer_norm_rows(tape.param("z", z[i:i + 1]), np.zeros((1, d)),
                                         gamma, beta, 1e-5)
            assert_peak_close(one.value, y.value[i:i + 1], 1e-13)
            assert_peak_close(one.vjps[0](up[i:i + 1]), dz[i:i + 1], 1e-13)
            values_only = ad.layer_norm_rows(z[i:i + 1], np.zeros((1, d)), gamma, beta, 1e-5)
            assert np.array_equal(values_only.value, one.value)


class TestLiveness:
    """A node records only when one of its parents records: a parameter
    leaf or a node recorded from one."""

    def setup_method(self):
        g = np.random.default_rng(12)
        self.a = g.normal(0.0, 1.0, (3, 4))
        self.b = g.normal(0.0, 1.0, (4, 3))

    def test_op_of_constants_records_nothing(self):
        tape = ad.Tape()
        with ad.recording(tape):
            w = tape.param("w", self.b)
            outs = [ad.matmul(tape.constant(self.a), self.b),
                    ad.layer_norm_rows(self.a, self.a, np.ones((1, 4)), np.zeros((1, 4)), 1e-5),
                    vstack(self.a, tape.constant(self.a)),
                    ad.attention_rows(self.a, self.a, self.a, 3, 3, heads=2)]
        assert tape.nodes == [w]
        for out in outs:
            assert not out.live and out.parents == () and out.vjps == ()

    def test_mixed_op_keeps_its_live_parents(self):
        tape = ad.Tape()
        with ad.recording(tape):
            w = tape.param("w", self.b)
            c = tape.constant(self.a)
            prod = ad.matmul(c, w)
            ln = ad.layer_norm_rows(c, c, tape.param("g", np.ones((1, 4))), np.zeros((1, 4)),
                                    1e-5)
            cat = vstack(tape.constant(self.b), w)
        assert prod.live and prod.parents == (w,) and len(prod.vjps) == 1
        assert same_bits(prod.vjps[0](np.ones((3, 3))), self.a.T @ np.ones((3, 3)))
        assert ln.parents == (tape.params["g"],) and len(ln.vjps) == 1
        assert cat.parents == (w,) and same_bits(cat.vjps[0](np.arange(24.0).reshape(8, 3)),
                                                 np.arange(24.0).reshape(8, 3)[4:])
        assert tape.nodes == [w, prod, tape.params["g"], ln, cat]

    def test_constants_need_no_active_tape(self):
        out = ad.exp(ad.matmul(self.a, ad.wrap(self.b)))
        assert not out.live and same_bits(out.value, np.exp(self.a @ self.b))


class TestOneRowMatmul:
    @pytest.mark.parametrize("d", [4, 16, 32])
    def test_equals_the_matmul_operator_bitwise(self, d):
        # a one-row product runs as ndarray.dot: value and VJPs equal @
        g = np.random.default_rng(60 + d)
        a, w, up = g.normal(size=(1, d)), g.normal(size=(d, d)), g.normal(size=(1, d))
        tape = ad.Tape()
        with ad.recording(tape):
            node = ad.matmul(tape.param("a", a), tape.param("w", w))
        assert same_bits(node.value, a @ w)
        assert same_bits(ad.matmul(a, w).value, a @ w)
        assert same_bits(node.vjps[0](up), up @ w.T)
        assert same_bits(node.vjps[1](up), a.T @ up)


class TestStack:
    """vstack as rows appended part by part to an ad.RowBuffer, of parts of
    unequal heights, Nodes (even positions) mixed with plain arrays (odd
    positions)."""

    SIZES = [3, 1, 4, 2]

    def parts(self, n):
        g = np.random.default_rng(n)
        return [g.normal(0.0, 1.0, (s, 3)) for s in self.SIZES[:n]]

    @staticmethod
    def stacked(values, make_node):
        parts = [make_node(f"p{i}", v) if i % 2 == 0 else v for i, v in enumerate(values)]
        return vstack(*parts), parts

    @pytest.mark.parametrize("how", ["vstack"])  # the numpy function the appends equal
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_values_only_tape(self, how, n):
        values = self.parts(n)
        tape = ad.Tape()
        with ad.recording(tape):
            out, _ = self.stacked(values, lambda name, v: tape.constant(v))
        assert same_bits(out.value, getattr(np, how)(values))
        assert tape.nodes == [] and out.parents == () and out.vjps == ()

    @pytest.mark.parametrize("how", ["vstack"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_each_vjp_returns_its_slice(self, how, n):
        values = self.parts(n)
        tape = ad.Tape()
        with ad.recording(tape):
            out, parts = self.stacked(values, tape.param)
            up = np.random.default_rng(7).normal(0.0, 1.0, out.shape)
            root = ad.sum_all(ad.mul(out, up))
        assert same_bits(out.value, getattr(np, how)(values))
        want = np.split(up, np.cumsum(self.SIZES[:n])[:-1])
        # the last append: the node of the earlier rows, then the last part
        # unless it is a plain array, a constant with no VJP
        expect = [(None, up[:-self.SIZES[n - 1]])] if n > 1 else []
        expect += [(parts[n - 1], want[n - 1])] if (n - 1) % 2 == 0 else []
        assert len(out.parents) == len(out.vjps) == len(expect)
        for parent, vjp, (part, piece) in zip(out.parents, out.vjps, expect):
            assert part is None or parent is part
            assert same_bits(vjp(up), piece)
        grads = tape.backward(root)
        for i in range(0, n, 2):
            assert same_bits(grads[f"p{i}"], want[i]), i

    def test_append_checks_the_width(self):
        rows = ad.RowBuffer()
        rows.append(np.ones((1, 3)))
        with pytest.raises(DimensionMismatch):
            rows.append(np.ones((1, 1)))


class TestFeedForwardRows:
    """feed_forward_rows, one node, against the five-node chain with its
    np.where ReLU (conftest.unfused_feed_forward)."""

    def setup_method(self):
        g = np.random.default_rng(21)
        self.p = {"f.w1": g.normal(0.0, 1.0, (4, 6)), "f.b1": g.normal(0.0, 1.0, (1, 6)),
                  "f.w2": g.normal(0.0, 1.0, (6, 3)), "f.b2": g.normal(0.0, 1.0, (1, 3))}
        self.x = g.normal(0.0, 1.0, (5, 4))
        self.x[1] = 0.0  # pre-activations equal to b1
        self.x[2] = -0.0
        self.p["f.b1"][0, :2] = (0.0, -0.0)  # exact zero pre-activations in rows 1, 2
        self.up = g.normal(0.0, 1.0, (5, 3))

    def run(self, ffn, x):
        names = ["f.w1", "f.b1", "f.w2", "f.b2"]
        tape = ad.Tape()
        with ad.recording(tape):
            p = {k: tape.param(k, self.p[k]) for k in names}
            xn = tape.param("x", x)
            out = ffn(p, "f", xn)
            root = ad.sum_all(ad.mul(out, self.up))
        return out, tape.backward(root)

    def test_one_node_bitwise_equal_to_chain(self):
        out, grads = self.run(tf.feed_forward, self.x)
        want, want_grads = self.run(unfused_feed_forward, self.x)
        assert len(out.parents) == 5
        assert same_bits(out.value, want.value)
        for name in want_grads:
            assert same_bits(grads[name], want_grads[name]), name

    def test_relu_bitwise_on_finite_inputs(self):
        # the node's np.maximum against the chain's np.where, signed zeros,
        # subnormals and the largest floats included
        h = np.array([[-0.0, 0.0, -5e-324, 5e-324, -1.0, 1.0, -1.7e308, 1.7e308]])
        assert same_bits(np.maximum(h, 0.0), np.where(h > 0, h, 0.0))

    def test_nan_pre_activation_propagates(self):
        # np.where mapped a NaN pre-activation to 0; the node keeps it
        x = self.x.copy()
        x[3, 0] = np.nan
        out, _ = self.run(tf.feed_forward, x)
        want, _ = self.run(unfused_feed_forward, x)
        assert np.isnan(out.value[3]).all()
        assert same_bits(want.value[3], self.p["f.b2"][0])
        keep = [0, 1, 2, 4]
        assert same_bits(out.value[keep], want.value[keep])

    def test_shape_errors(self):
        p = self.p
        with ad.recording(ad.Tape()), pytest.raises(DimensionMismatch):
            ad.feed_forward_rows(self.x, p["f.w1"], p["f.b1"], p["f.w2"], np.zeros((1, 6)))
        with ad.recording(ad.Tape()), pytest.raises(DimensionMismatch):
            ad.feed_forward_rows(self.x[:, :3], p["f.w1"], p["f.b1"], p["f.w2"], p["f.b2"])


class TestEmbeddingRows:
    @pytest.mark.parametrize("vocab, ids", [
        (5, [3]),
        (5, [0, 3, 3, 1, 3, 0]),  # repeated ids, and ids 2 and 4 unused
        (32, list(np.random.default_rng(9).integers(0, 32, 512))),  # wide_lgt's batch
    ])
    def test_gradient_sums_each_ids_rows(self, vocab, ids):
        g = np.random.default_rng(vocab)
        table = g.normal(0.0, 1.0, (vocab, 6))
        up = g.normal(0.0, 1.0, (len(ids), 6))
        tape = ad.Tape()
        with ad.recording(tape):
            rows = ad.embedding_rows(tape.param("t", table), ids)
        assert np.array_equal(rows.value, table[ids])
        want = np.zeros_like(table)
        np.add.at(want, np.asarray(ids), up)  # reference: scatter-add row by row
        got = rows.vjps[0](up)
        assert got.shape == table.shape
        assert_peak_close(got, want, 1e-13)
        unused = np.setdiff1d(np.arange(vocab), ids)
        assert not got[unused].any()


class TestGradCheck:
    def test_quadratic_is_exact(self):
        err = ad.grad_check(
            lambda p: ad.sum_all(ad.mul(p["x"], p["x"])),
            {"x": np.array([[0.7, -1.3, 2.1]])},
            h=1e-5,
        )
        assert err <= 1e-6

    def test_egt_score_grade_derivative(self):
        # score q * lam**q * k; the grade derivative is (lam**q + q lam**q ln lam) k
        g = np.random.default_rng(11)
        for _ in range(20):
            qv = float(g.uniform(0.1, 2.0))
            lam = float(g.uniform(1.2, 3.0))
            kv = float(g.normal())

            def score(p):
                w = gs.GradingSpec(gs.EXPONENTIAL, base=lam).node(p["q"])
                return ad.scale(ad.mul(p["q"], w), kv)

            tape, root = scalar(score, {"q": np.array([[qv]])})
            analytic = tape.backward(root)["q"][0, 0]
            closed = (lam**qv + qv * lam**qv * np.log(lam)) * kv
            assert abs(analytic - closed) <= 1e-6 * max(1.0, abs(closed))
            fd = ad.grad_check(score, {"q": np.array([[qv]])}, h=1e-5)
            assert fd <= 1e-4

    def test_nonfinite_probe(self):
        # finite at the point; exp overflows at the probe x + h
        def f(p):
            return ad.sum_all(ad.exp(p["x"]))

        x = np.log(np.finfo(np.float64).max) - 2e-6
        with np.errstate(over="ignore"), pytest.raises(NonFinite):
            ad.grad_check(f, {"x": np.array([[x]])}, h=1e-5)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("case", props.PRIMITIVE_CASES)
    def test_primitive(self, case):
        g = np.random.default_rng(zlib.crc32(case.encode()))
        worst = props.primitive_gradient_error(case, g)
        assert worst <= 1e-4, f"{case}: {worst:.3e}"

    def test_softmax_jacobian_bruteforce(self):
        assert props.softmax_jacobian_error(np.random.default_rng(2)) <= 1e-8


class TestAttentionRows:
    @staticmethod
    def per_sequence(q, k, v, b, mask=None):
        """Reference: one 2-D softmax(q k^T / sqrt(d_k) [+ mask]) v per sequence."""
        outs = []
        for qs, ks, vs in zip(np.split(q, b), np.split(k, b), np.split(v, b)):
            scores = qs @ ks.T / np.sqrt(q.shape[1])
            outs.append(tensor.softmax_rows(scores if mask is None else scores + mask) @ vs)
        return np.vstack(outs)

    @pytest.mark.parametrize("n_q,n_k,causal", [(4, 4, True), (2, 5, False)])
    def test_grad_check(self, n_q, n_k, causal):
        # B = 3 self-attention under a causal mask, and cross-attention n_q != n_k
        g = np.random.default_rng(7 + n_k)
        b, d_k, d_v = 3, 3, 2
        mask = tf.causal_mask(n_q) if causal else None
        worst = 0.0
        for _ in range(5):
            point = {"q": g.normal(0.0, 1.0, (b * n_q, d_k)),
                     "k": g.normal(0.0, 1.0, (b * n_k, d_k)),
                     "v": g.normal(0.0, 1.0, (b * n_k, d_v))}
            up = g.uniform(0.5, 1.5, (b * n_q, d_v))
            fn = lambda p: ad.sum_all(ad.mul(
                ad.attention_rows(p["q"], p["k"], p["v"], n_q, n_k, mask), up))
            worst = max(worst, ad.grad_check(fn, point, h=1e-5))
        assert worst <= 1e-4, f"{worst:.3e}"

    def test_matches_per_sequence_attention(self):
        g = np.random.default_rng(3)
        b, n, d_k = 4, 5, 3
        q, k, v = (g.normal(0.0, 1.0, (b * n, d_k)) for _ in range(3))
        mask = tf.causal_mask(n)
        tape = ad.Tape()
        with ad.recording(tape):
            collect = []
            out = ad.attention_rows(q, k, v, n, n, mask, collect)
        assert_close(out.value, self.per_sequence(q, k, v, b, mask), tol=1e-12)
        assert collect[0].shape == (b, n, n)
        assert_close(collect[0].sum(axis=2), np.ones((b, n)), tol=1e-12)

    def test_sequences_do_not_mix(self):
        g = np.random.default_rng(4)
        b, n, d_k = 3, 4, 2
        q, k, v = (g.normal(0.0, 1.0, (b * n, d_k)) for _ in range(3))
        k2, v2 = k.copy(), v.copy()
        k2[n:2 * n] += 1.0  # perturb sequence 1 only
        v2[n:2 * n] -= 1.0
        tape = ad.Tape()
        with ad.recording(tape):
            base = ad.attention_rows(q, k, v, n, n).value
            pert = ad.attention_rows(q, k2, v2, n, n).value
        keep = np.r_[0:n, 2 * n:3 * n]
        assert np.array_equal(base[keep], pert[keep])
        assert np.abs(base[n:2 * n] - pert[n:2 * n]).max() > 1e-3

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n_q,n_k,causal", [(4, 4, True), (2, 5, False)])
    def test_heads_grad_check(self, heads, n_q, n_k, causal):
        g = np.random.default_rng(heads + 10 * n_k)
        b, d_k, d_v = 3, 2, 2
        mask = tf.causal_mask(n_q) if causal else None
        worst = 0.0
        for _ in range(2):
            point = {"q": g.normal(0.0, 1.0, (b * n_q, heads * d_k)),
                     "k": g.normal(0.0, 1.0, (b * n_k, heads * d_k)),
                     "v": g.normal(0.0, 1.0, (b * n_k, heads * d_v))}
            up = g.uniform(0.5, 1.5, (b * n_q, heads * d_v))
            fn = lambda p: ad.sum_all(ad.mul(
                ad.attention_rows(p["q"], p["k"], p["v"], n_q, n_k, mask, heads=heads), up))
            worst = max(worst, ad.grad_check(fn, point, h=1e-5))
        assert worst <= 1e-4, f"{worst:.3e}"

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("n_q,n_k,causal", [(4, 4, True), (2, 5, False)])
    def test_heads_match_per_head_attention(self, heads, n_q, n_k, causal):
        g = np.random.default_rng(5 + heads)
        b, d_k, d_v = 3, 3, 2
        mask = tf.causal_mask(n_q) if causal else None
        point = {"q": g.normal(0.0, 1.0, (b * n_q, heads * d_k)),
                 "k": g.normal(0.0, 1.0, (b * n_k, heads * d_k)),
                 "v": g.normal(0.0, 1.0, (b * n_k, heads * d_v))}
        up = g.normal(0.0, 1.0, (b * n_q, heads * d_v))

        def folded(p, collect):
            return ad.attention_rows(p["q"], p["k"], p["v"], n_q, n_k, mask, collect, heads)

        def per_head(p, collect):
            # head i's columns, picked by an exact 0/1 selection matmul
            pick = lambda x, w, i: ad.matmul(x, np.eye(heads * w)[:, i * w:(i + 1) * w])
            # and its output placed in its columns by the transposed selection
            place = lambda x, i: ad.matmul(x, np.eye(heads * d_v)[i * d_v:(i + 1) * d_v])
            out = None
            for i in range(heads):
                head = place(ad.attention_rows(pick(p["q"], d_k, i), pick(p["k"], d_k, i),
                                               pick(p["v"], d_v, i), n_q, n_k, mask, collect), i)
                out = head if out is None else ad.add(out, head)
            return out

        def run(build):
            collect, outs = [], []

            def fn(p):
                outs.append(build(p, collect))
                return ad.sum_all(ad.mul(outs[0], up))

            tape, root = scalar(fn, point)
            return outs[0].value, collect, tape.backward(root)

        out, collect, grads = run(folded)
        want_out, want_collect, want_grads = run(per_head)
        assert_close(out, want_out, tol=1e-12)
        assert len(collect) == heads
        for got, want in zip(collect, want_collect):
            assert got.shape == (b, n_q, n_k)
            assert_close(got, want, tol=1e-12)
        for name in point:
            assert_close(grads[name], want_grads[name], tol=1e-12, msg=name)

    @staticmethod
    def recorded_case(heads, n_q, n_k, causal, seed):
        g = np.random.default_rng(seed)
        b, d_k, d_v = 3, 3, 2
        mask = tf.causal_mask(n_q) if causal else None
        q = g.normal(0.0, 1.0, (b * n_q, heads * d_k))
        k = g.normal(0.0, 1.0, (b * n_k, heads * d_k))
        v = g.normal(0.0, 1.0, (b * n_k, heads * d_v))
        up = g.normal(0.0, 1.0, (b * n_q, heads * d_v))
        tape, collect = ad.Tape(), []
        with ad.recording(tape):
            out = ad.attention_rows(tape.param("q", q), tape.param("k", k),
                                    tape.param("v", v), n_q, n_k, mask, collect, heads)
        return (q, k, v, mask, up), out, collect

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("n_q,n_k,causal", [(4, 4, True), (2, 5, False), (1, 6, False)])
    def test_in_place_kernels_bitwise(self, heads, n_q, n_k, causal):
        # key-major scores, softmax and the score adjoint built in place
        # equal the out-of-place key-major expressions bit for bit
        (q, k, v, mask, up), out, _ = self.recorded_case(heads, n_q, n_k, causal,
                                                         30 + heads + n_k)
        want = key_major_attention(q, k, v, n_q, n_k, heads, mask, up)
        assert same_bits(out.value, want[0])
        for vjp, want_adjoint in zip(out.vjps, want[1:]):
            assert same_bits(vjp(up), want_adjoint)

    @pytest.mark.parametrize("b,n_q,n_k,heads,d_k", [
        (16, 8, 8, 2, 2),     # poly_smoke training batch
        (16, 8, 8, 2, 8),     # hiercopy_egt training batch
        (16, 32, 32, 4, 8),   # wide_lgt training batch
        (1, 1, 8, 4, 8),      # one decode step
    ])
    def test_benchmark_shapes_bitwise(self, b, n_q, n_k, heads, d_k):
        # the keys-outermost buffers of a stacked batch, and the plain ones
        # of one sequence, equal the reference in the node's layout
        g = np.random.default_rng(b + n_q + heads + d_k)
        q, up = (g.normal(0.0, 1.0, (b * n_q, heads * d_k)) for _ in range(2))
        k, v = (g.normal(0.0, 1.0, (b * n_k, heads * d_k)) for _ in range(2))
        tape = ad.Tape()
        with ad.recording(tape):
            out = ad.attention_rows(tape.param("q", q), tape.param("k", k),
                                    tape.param("v", v), n_q, n_k, heads=heads)
        want = key_major_attention(q, k, v, n_q, n_k, heads, None, up)
        assert same_bits(out.value, want[0])
        assert same_bits(ad.attention_rows(q, k, v, n_q, n_k, heads=heads).value, want[0])
        for vjp, want_adjoint in zip(out.vjps, want[1:]):
            assert same_bits(vjp(up), want_adjoint)

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("n_q,n_k,causal", [(4, 4, True), (2, 5, False), (1, 6, False)])
    def test_key_major_matches_row_major_formula(self, heads, n_q, n_k, causal):
        # value and q, k, v adjoints within 1e-14 of the row-major formula's
        # peak; collect holds (B, n_q, n_k) row-stochastic arrays per head,
        # exactly 0 above the diagonal under a causal mask
        (q, k, v, mask, up), out, collect = self.recorded_case(heads, n_q, n_k, causal,
                                                               50 + heads + n_k)
        want = out_of_place_attention(q, k, v, n_q, n_k, heads, mask, up)
        assert_peak_close(out.value, want[0], 1e-14, "value")
        for name, vjp, want_adjoint in zip("qkv", out.vjps, want[1:]):
            assert_peak_close(vjp(up), want_adjoint, 1e-14, name)
        assert len(collect) == heads
        for probs in collect:
            assert probs.shape == (3, n_q, n_k) and np.all(probs >= 0)
            assert_close(probs.sum(axis=2), np.ones((3, n_q)), tol=1e-15)
            if causal:
                assert not np.triu(probs, 1).any()

    def test_heads_must_divide_widths(self):
        tape = ad.Tape()
        with ad.recording(tape), pytest.raises(DimensionMismatch):
            ad.attention_rows(np.ones((4, 6)), np.ones((4, 6)), np.ones((4, 6)), 4, 4,
                              heads=4)

    @pytest.mark.parametrize("q_rows,k_rows,n_q,n_k,mask_shape", [
        (6, 6, 4, 4, None),    # q rows not a multiple of n_q
        (6, 8, 3, 3, None),    # k rows do not match B * n_k
        (6, 6, 3, 3, (3, 2)),  # mask shape differs from (n_q, n_k)
    ])
    def test_shape_errors(self, q_rows, k_rows, n_q, n_k, mask_shape):
        tape = ad.Tape()
        mask = None if mask_shape is None else np.zeros(mask_shape)
        with ad.recording(tape), pytest.raises(DimensionMismatch):
            ad.attention_rows(np.ones((q_rows, 2)), np.ones((k_rows, 2)),
                              np.ones((k_rows, 2)), n_q, n_k, mask)


class TestAbsorbedDecodePrimitives:
    """head_products, shared_kv_attention and softmax_groups, the arithmetic
    of a cached decode step (transformer.DecodeLayer), against per-head
    references."""

    def test_head_products_match_per_head_products(self):
        g = np.random.default_rng(21)
        a, b = g.normal(0.0, 1.0, (3, 3 * 2)), g.normal(0.0, 1.0, (5, 3 * 2))
        want = np.hstack([a[:, 2 * h:2 * h + 2] @ b[:, 2 * h:2 * h + 2].T for h in range(3)])
        assert_peak_close(ad.head_products(a, b, 3).value, want, 1e-15)

    @pytest.mark.parametrize("rows,heads", [(1, 4), (3, 2)])
    def test_shared_kv_attention_is_attention_over_repeated_rows(self, rows, heads):
        # attention_rows with k = v = kv repeated per head, q scaled by
        # sqrt(w) to undo its 1/sqrt(d_k): the same value and gradients
        g = np.random.default_rng(22 + heads)
        w, t = 3, 5
        point = {"q": g.normal(0.0, 1.0, (rows, heads * w)), "kv": g.normal(0.0, 1.0, (t, w))}
        up = g.normal(0.0, 1.0, (rows, heads * w))
        repeat = np.tile(np.eye(w), heads)

        def shared(p):
            return ad.sum_all(ad.mul(ad.shared_kv_attention(p["q"], p["kv"], heads), up))

        def reference(p):
            kv = ad.matmul(p["kv"], repeat)
            out = ad.attention_rows(ad.scale(p["q"], np.sqrt(w)), kv, kv, rows, t, heads=heads)
            return ad.sum_all(ad.mul(out, up))

        (tape, root), (ref_tape, ref_root) = scalar(shared, point), scalar(reference, point)
        assert_peak_close(root.value, ref_root.value, 1e-14)
        got, want = tape.backward(root), ref_tape.backward(ref_root)
        for name in point:
            assert_peak_close(got[name], want[name], 1e-13, name)

    def test_softmax_groups_is_a_softmax_per_block(self):
        x = np.random.default_rng(23).normal(0.0, 3.0, (2, 4 * 5))
        x0 = x.copy()
        want = np.hstack([tensor.softmax_rows(x[:, 5 * i:5 * i + 5]) for i in range(4)])
        assert_peak_close(ad.softmax_groups(x, 4).value, want, 1e-15)
        assert np.array_equal(x, x0)  # the input is left as it is

    def test_constants_record_nothing(self):
        tape = ad.Tape()
        with ad.recording(tape):
            nodes = [ad.head_products(np.ones((2, 4)), np.ones((3, 4)), 2),
                     ad.shared_kv_attention(np.ones((1, 4)), np.ones((3, 2)), 2),
                     ad.softmax_groups(np.ones((1, 6)), 3)]
        assert tape.nodes == [] and all(node.parents == () for node in nodes)

    @pytest.mark.parametrize("call", [
        lambda: ad.head_products(np.ones((2, 4)), np.ones((3, 6)), 2),  # widths differ
        lambda: ad.head_products(np.ones((2, 6)), np.ones((3, 6)), 4),  # heads do not divide
        lambda: ad.shared_kv_attention(np.ones((1, 6)), np.ones((3, 2)), 2),
        lambda: ad.softmax_groups(np.ones((1, 6)), 4),
    ])
    def test_shape_errors(self, call):
        tape = ad.Tape()
        with ad.recording(tape), pytest.raises(DimensionMismatch):
            call()
