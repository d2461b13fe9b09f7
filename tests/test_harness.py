import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graded_transformer import autodiff as ad
from graded_transformer import cli
from graded_transformer import container
from graded_transformer import graded
from graded_transformer import harness
from graded_transformer import props
from graded_transformer import tasks
from graded_transformer import tensor
from graded_transformer import training
from graded_transformer import transformer as tf
from graded_transformer.harness import ExperimentConfig, evaluate_checkpoint, run_experiment
from graded_transformer.tensor import Rng

from conftest import per_head_init_params, unnormalized_softmax

EXPECTED_PROPS = {
    "tensor.matmul_associative",
    "tensor.softmax_row_sums",
    "tensor.spectral_norm_diagonal",
    "autodiff.primitive_gradients",
    "autodiff.softmax_jacobian",
    "graded_space.star_group_law",
    "graded_space.grading_star_commute",
    "graded_space.norm_bounds",
    "graded_space.bilinear_positive",
    "graded_space.feature_concentration",
    "graded_space.grading_lipschitz",
    "training.loss_nonnegative_zero_iff_equal",
    "training.loss_unit_weights_reduce",
    "training.loss_weight_adjoint_is_per_dim_loss",
    "transformer.row_stochastic",
    "transformer.scaling_variance",
    "transformer.symmetric_scores_psd",
    "transformer.permutation_equivariance",
    "transformer.generation_deterministic",
    "graded.positional_bias",
    "graded.attention_rank_scaling",
    "graded.attention_rank_scaling_provable",
    "graded.score_lipschitz",
    "graded.jacobian_norm",
    "graded.runtime_parity",
    "graded.effective_dimension",
    "graded.egt_concentration",
    "training.clip_exact",
    "training.regularizer_shrinks_grades",
    "training.smoke_convergence",
    "training.grade_lr_bounded",
}


class TestDatasets:
    def test_poly_grades_and_shapes(self):
        ds = tasks.gen_poly_degree(20, 6, 1)
        assert ds.x.shape == (20, 6, 4) and ds.y.shape == (20, 6, 4)
        assert np.array_equal(ds.grades, [0.0, 0.5, 1.0, 2.0])

    def test_poly_signal_dims_follow_sign(self):
        ds = tasks.gen_poly_degree(50, 5, 2)
        for k in tasks.POLY_SIGNAL_DIMS:
            assert np.array_equal(ds.y[:, :, k], (ds.x[:, :, k] > 0).astype(float))

    def test_poly_label_balance(self):
        ds = tasks.gen_poly_degree(10_000, 4, 3)
        rates = ds.y.mean(axis=(0, 1))
        assert np.all(rates > 0.45) and np.all(rates < 0.55)

    def test_dataset_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.gtc", tmp_path / "b.gtc"
        tasks.save_dataset(p1, tasks.gen_poly_degree(100, 8, 42))
        tasks.save_dataset(p2, tasks.gen_poly_degree(100, 8, 42))
        assert p1.read_bytes() == p2.read_bytes()

    def test_hier_copy_structure(self):
        ds = tasks.gen_hier_copy(40, 6, 4)
        heads = ds.x[:, 0]
        assert set(np.unique(heads)) <= set(tasks.HIER_HEAD_TOKENS)
        targets = np.argmax(ds.y, axis=2) + 1
        copy_rows = heads == 3
        assert np.array_equal(targets[copy_rows, 1:], ds.x[copy_rows, 1:])
        shift_rows = heads == 4
        span = 16 - tasks.HIER_BODY_MIN + 1
        want = tasks.HIER_BODY_MIN + (ds.x[shift_rows, 1:] - tasks.HIER_BODY_MIN + 1) % span
        assert np.array_equal(targets[shift_rows, 1:], want)

    def test_generate_takes_only_table_names(self):
        for name, task in tasks.TASKS.items():
            ds = tasks.generate(name, 3, 4, seed=1)
            assert ds.task == name and ds.grades.size == ds.y.shape[-1]
            assert set(task.signal_dims).isdisjoint(task.noise_dims)
        for alias in ("poly", "hiercopy"):  # the CLI's spellings, mapped there
            with pytest.raises(ValueError, match="known"):
                tasks.generate(alias, 3, 4, seed=1)
        assert tasks.gen_hier_copy(2, 3, 1, vocab=9).grades.size == 9

    def test_round_trip(self, tmp_path):
        ds = tasks.gen_hier_copy(10, 5, 7)
        path = tmp_path / "ds.gtc"
        tasks.save_dataset(path, ds)
        back = tasks.load_dataset(path)
        assert back.task == ds.task
        assert np.array_equal(back.x, ds.x) and np.array_equal(back.y, ds.y)


class TestContainer:
    def test_round_trip_and_determinism(self, tmp_path):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "ids": np.array([1, 2, 3])}
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        container.save_arrays(p1, arrays, meta={"kind": "test"})
        container.save_arrays(p2, arrays, meta={"kind": "test"})
        assert p1.read_bytes() == p2.read_bytes()
        loaded, meta = container.load_arrays(p1)
        assert meta == {"kind": "test"}
        assert np.array_equal(loaded["a"], arrays["a"])
        assert loaded["ids"].dtype.kind == "i"

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"not a container")
        with pytest.raises(ValueError):
            container.load_arrays(p)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A checkpoint's bytes, a dataset to evaluate it on, a path for bad copies."""
    root = tmp_path_factory.mktemp("container")
    cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                         n_max=8, out_dim=4)
    ckpt = root / "model.gtc"
    tf.save_checkpoint(ckpt, tf.init_params(cfg, Rng(0), decoder=False), cfg,
                       extra={"grades": [0.0, 0.5, 1.0, 2.0]})
    data = root / "data.gtc"
    tasks.save_dataset(data, tasks.gen_poly_degree(4, 4, 1))
    return ckpt.read_bytes(), data, root / "bad.gtc"


def _rewrite_header(raw: bytes, edit) -> bytes:
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    new = json.dumps(header).encode()
    return raw[:8] + len(new).to_bytes(8, "little") + new + raw[16 + hlen:]


def _assert_rejected(path, data, key=None):
    """A ValueError naming the file, from the container reader or, for a bad
    stored `key`, from evaluate_checkpoint naming the key too; `eval` exits 2
    and prints no traceback."""
    with pytest.raises(ValueError, match=path.name) as info:
        if key is None:
            container.load_arrays(path)
        else:
            evaluate_checkpoint(path, data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--checkpoint", str(path), "--data", str(data)])
    assert code == 2
    assert path.name in err.getvalue() and "Traceback" not in err.getvalue()
    if key is not None:
        assert key in str(info.value) and key in err.getvalue()


class TestCheckpointArrays:
    def test_old_layout_exit_two(self, stored, tmp_path):
        # per-head arrays ({prefix}.wq0 ..) from before the folded layout are not loaded
        _, data, _ = stored
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                             n_max=8, out_dim=4)
        path = tmp_path / "old.gtc"
        tf.save_checkpoint(path, per_head_init_params(cfg, Rng(0), decoder=False), cfg)
        _assert_rejected(path, data, "enc0.wq")

    def test_other_widths_without_task_exit_two(self, stored, tmp_path):
        # the stored checkpoint is poly_degree-shaped (d_model 4) and names no task
        raw, _, path = stored
        path.write_bytes(raw)
        data = tmp_path / "hier.gtc"
        tasks.save_dataset(data, tasks.gen_hier_copy(4, 4, 1))
        _assert_rejected(path, data, data.name)

    def test_missing_array_exit_two(self, stored, tmp_path):
        _, data, _ = stored
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                             n_max=8, out_dim=4)
        params = tf.init_params(cfg, Rng(0), decoder=False)
        del params["w_out"]
        path = tmp_path / "no_w_out.gtc"
        tf.save_checkpoint(path, params, cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--checkpoint", str(path), "--data", str(data)])
        assert code == 2
        msg = err.getvalue()
        assert path.name in msg and "w_out" in msg and "Traceback" not in msg

    @pytest.mark.parametrize("unknown", [("enc7.wq", "junk"), ("junk",)])
    def test_unknown_array_exit_two(self, stored, tmp_path, unknown):
        # arrays that init_params' layout does not name: the first is named
        _, data, _ = stored
        cfg = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=1, d_ff=8,
                             n_max=8, out_dim=4)
        params = tf.init_params(cfg, Rng(0), decoder=False)
        path = tmp_path / "extra.gtc"
        tf.save_checkpoint(path, {**params, **{k: np.zeros((4, 4)) for k in unknown}}, cfg)
        _assert_rejected(path, data, unknown[0])

    @pytest.mark.parametrize("key, value", [("d_model", 4.0), ("n_layers", 1.0),
                                            ("n_heads", True), ("n_layers", "2")])
    def test_non_integer_model_dimension_exit_two(self, stored, key, value):
        raw, data, path = stored
        path.write_bytes(_rewrite_header(raw, lambda h: h["meta"]["config"].update({key: value})))
        _assert_rejected(path, data, key)


class TestCorruptContainer:
    def test_intact_copy_evaluates(self, stored):
        raw, data, path = stored
        path.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 0

    @given(st.data())
    def test_truncated_at_any_offset(self, stored, draw):
        raw, data, path = stored
        path.write_bytes(raw[:draw.draw(st.integers(0, len(raw) - 1))])
        _assert_rejected(path, data)

    @given(st.binary(min_size=1, max_size=64))
    def test_trailing_bytes(self, stored, extra):
        raw, data, path = stored
        path.write_bytes(raw + extra)
        _assert_rejected(path, data)

    @given(st.one_of(st.text(max_size=5), st.sampled_from(["<f4", ">f8", "<i4", "|u1"]),
                     st.integers(), st.none(), st.lists(st.just("<f8")))
           .filter(lambda d: d not in ("<f8", "<i8")))
    def test_corrupted_dtype(self, stored, dtype):
        raw, data, path = stored
        path.write_bytes(_rewrite_header(raw, lambda h: h["arrays"][-1].update(dtype=dtype)))
        _assert_rejected(path, data)

    @pytest.mark.parametrize("edit", [
        lambda h: h["arrays"][0].update(shape=[-1, 4]),
        lambda h: h["arrays"][0].update(shape=[2.0, 4]),
        lambda h: h["arrays"][0].update(shape="4"),
        lambda h: h["arrays"][0].pop("name"),
        lambda h: h.pop("arrays"),
        lambda h: h.update(meta=[]),
        lambda h: h.update(version=2),
    ])
    def test_malformed_header_or_shape(self, stored, edit):
        raw, data, path = stored
        path.write_bytes(_rewrite_header(raw, edit))
        _assert_rejected(path, data)

    def test_header_not_json_or_too_long(self, stored):
        raw, data, path = stored
        hlen = int.from_bytes(raw[8:16], "little")
        path.write_bytes(raw[:16] + b"\xff" * hlen + raw[16 + hlen:])
        _assert_rejected(path, data)
        path.write_bytes(raw[:8] + (len(raw)).to_bytes(8, "little") + raw[16:])
        _assert_rejected(path, data)


def _edit_extra(**stored):
    return lambda header: header["meta"]["extra"].update(stored)


class TestStoredGrading:
    # the model of `stored` has d_model 4 and 2 heads, so d_k 2
    @pytest.mark.parametrize("key, grading", [
        ("weight_map", {"weight_map": "bogus"}),
        ("weight_map", {"weight_map": {"affine": [1.0]}}),
        ("grades", {"grades": "abc"}),
        ("grades", {"grades": [0.0, "a", 1.0, 2.0]}),
        ("grades", {"grades": [0.0, 1.0, 2.0]}),
        ("head_grades", {"head_grades": [[0.0], [1.0]]}),
        ("head_grades", {"head_grades": [[0.0, 1.0]]}),
        ("base", {"mode": "exponential", "base": 1.0}),
        ("base", {"mode": "exponential", "base": 0.5}),
        ("mode", {"mode": 3}),
        ("head_grades", {"head_grades": [[0.0], [1.0, 2.0]]}),
        ("base", {"positional": "exp_decay", "alpha": 0.25, "base": 0.5}),
    ])
    def test_malformed_grading_exit_two(self, stored, key, grading):
        raw, data, path = stored
        path.write_bytes(_rewrite_header(raw, _edit_extra(**grading)))
        _assert_rejected(path, data, key)

    @pytest.mark.parametrize("lam", ["x", 1.0, [2.0], True, float("inf")])
    def test_malformed_lambda_exit_two(self, stored, lam):
        raw, data, path = stored
        path.write_bytes(_rewrite_header(raw, _edit_extra(mode="exponential", **{"lambda": lam})))
        _assert_rejected(path, data, "extra.lambda")

    def test_older_lambda_is_read_as_the_base(self, stored):
        # older files store the base an exponential model ran at as "lambda"
        raw, data, path = stored

        def report(**extra):
            path.write_bytes(_rewrite_header(raw, _edit_extra(**extra)))
            return evaluate_checkpoint(path, data)

        old = report(mode="exponential", base=2.0, **{"lambda": 3.0})
        assert old == report(mode="exponential", base=3.0)
        assert old["grading"]["base"] == 3.0 and "lambda" not in old
        # a null lambda, or any lambda in linear mode, leaves the stored base
        assert report(mode="exponential", base=2.0, **{"lambda": None}) \
            == report(mode="exponential", base=2.0)
        assert report(**{"lambda": 3.0}) == report()

    @pytest.mark.parametrize("missing", ["task", "y"])
    def test_dataset_missing_key_exit_two(self, stored, tmp_path, missing):
        # a dataset container with no task meta key, or with no y array
        raw, _, path = stored
        path.write_bytes(raw)
        ds = tasks.gen_poly_degree(4, 4, 1)
        arrays = {"x": ds.x, "y": ds.y, "grades": ds.grades}
        meta = {"kind": "dataset", "task": ds.task}
        (meta if missing == "task" else arrays).pop(missing)
        data = tmp_path / "partial.gtc"
        container.save_arrays(data, arrays, meta=meta)
        with pytest.raises(ValueError, match=f"{data.name}.*{missing!r}"):
            evaluate_checkpoint(path, data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--checkpoint", str(path), "--data", str(data)])
        assert code == 2
        msg = err.getvalue()
        assert data.name in msg and repr(missing) in msg and "Traceback" not in msg

    @pytest.mark.parametrize("task, other", [("poly_degree", "hier_copy"),
                                             ("hier_copy", "poly_degree")])
    def test_task_mismatch_exit_two(self, stored, tmp_path, task, other):
        raw, _, path = stored
        path.write_bytes(_rewrite_header(raw, _edit_extra(task=task)))
        data = tmp_path / "other.gtc"
        tasks.save_dataset(data, tasks.generate(other, 4, 4, seed=1))
        _assert_rejected(path, data, repr(task))
        with pytest.raises(ValueError, match=repr(other)):
            evaluate_checkpoint(path, data)

    def test_grades_only_checkpoint_unchanged(self, stored):
        # an old checkpoint that stores only grades evaluates as linear with
        # variant "scores" and every other field its default; its
        # per_dim_error must not move
        raw, data, path = stored
        path.write_bytes(raw)
        report = evaluate_checkpoint(path, data)
        want = [1.840668744130534, 0.8470320684444467, 2.3852958086435585, 1.5425988523504497]
        assert np.allclose(report["per_dim_error"], want, rtol=1e-12, atol=0)
        assert "lambda" not in report
        assert report["grading"] == graded.GradedModelConfig(
            tf.load_checkpoint(path)[1], grades=np.array([0.0, 0.5, 1.0, 2.0]),
            attention_variant="scores").to_dict()


class TestPropsRegistry:
    def test_registry_complete_and_unique(self):
        names = [name for name, _, _ in props.REGISTRY]
        assert len(names) == len(set(names))
        assert set(names) == EXPECTED_PROPS

    def test_filter_runs_subset(self):
        results, report = props.run_props("tensor.matmul", seed=0)
        assert [r.name for r in results] == ["tensor.matmul_associative"]
        assert "1/1 properties passed" in report

    def test_reports_are_idempotent(self):
        _, r1 = props.run_props("graded_space", seed=3)
        _, r2 = props.run_props("graded_space", seed=3)
        assert r1 == r2

    def test_reports_idempotent_including_timing_property(self):
        # the runtime-parity entry reports deterministic text, so even the
        # timing-based property replays byte-identically
        _, r1 = props.run_props("graded.", seed=1)
        _, r2 = props.run_props("graded.", seed=1)
        assert r1 == r2

    def test_injected_softmax_bug_is_caught(self, monkeypatch):
        monkeypatch.setattr(tensor, "softmax_rows", unnormalized_softmax)
        results, _ = props.run_props("transformer.row_stochastic", seed=0)
        assert not results[0].passed

    def test_full_suite_status(self):
        results, report = props.run_props(None, seed=0)
        failed = {r.name for r in results if not r.passed}
        assert not failed, f"unexpected failures: {failed}"


@pytest.fixture(scope="module")
def poly_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(
        task="poly_degree",
        dataset_size=64,
        seq_len=4,
        run_baseline=True,
        out_dir=str(out),
        model={"n_layers": 1},
        train={"steps": 120, "batch_size": 8, "seed": 42},
    )
    return out, run_experiment(cfg)


class TestExperiment:
    def test_artifacts_written(self, poly_summary):
        out, summary = poly_summary
        assert (out / "graded_metrics.csv").exists()
        assert (out / "baseline_metrics.csv").exists()
        assert (out / "graded_final.gtc").exists()
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_baseline_twin_schema_matches(self, poly_summary):
        _, summary = poly_summary
        assert set(summary["runs"]["graded"]) == set(summary["runs"]["baseline"])

    def test_summary_fields(self, poly_summary):
        _, summary = poly_summary
        run = summary["runs"]["graded"]
        assert run["steps"] == 120
        assert len(run["per_dim_error"]) == 4
        assert run["effective_dimension"] >= 1
        assert not run["diverged"]

    def test_eval_checkpoint(self, poly_summary, tmp_path):
        out, _ = poly_summary
        data = tmp_path / "eval.gtc"
        tasks.save_dataset(data, tasks.gen_poly_degree(16, 4, 5))
        report = evaluate_checkpoint(out / "graded_final.gtc", data)
        assert len(report["per_dim_error"]) == 4
        assert np.isfinite(report["mean_error"])

    def test_step_checkpoints_per_run(self, tmp_path):
        cfg = ExperimentConfig(task="poly_degree", dataset_size=16, seq_len=4,
                               run_baseline=True, out_dir=str(tmp_path),
                               model={"n_layers": 1},
                               train={"steps": 4, "batch_size": 4, "seed": 1,
                                      "checkpoint_every": 2})
        run_experiment(cfg)
        assert not list(tmp_path.glob("step*.gtc"))
        for step in ("step000002.gtc", "step000004.gtc"):
            graded_params, _, _ = tf.load_checkpoint(tmp_path / "graded" / step)
            base_params, _, _ = tf.load_checkpoint(tmp_path / "baseline" / step)
            assert set(graded_params) == set(base_params)
            assert any(not np.array_equal(graded_params[k], base_params[k])
                       for k in graded_params)

    def test_hier_copy_positional_probe(self, tmp_path):
        cfg = ExperimentConfig(
            task="hier_copy",
            mode="exponential",
            dataset_size=48,
            seq_len=6,
            out_dir=str(tmp_path / "hier"),
            model={"n_layers": 1},
            train={"steps": 300, "batch_size": 8, "seed": 42, "base_loss": "sigmoid_ce",
                   "learn_grades": False},
        )
        summary = run_experiment(cfg)
        mass = summary["runs"]["graded"]["attention_mass_by_position"]
        assert mass[0] > 1.0 / len(mass)


REPRODUCED = {
    # poly_degree's default grading learns head grades apart from the model tuple
    "poly_linear": dict(task="poly_degree", mode="linear", train={}),
    # annealing takes lambda from 1 to the base 3, through the default base 2
    "hier_exponential": dict(task="hier_copy", mode="exponential", train={},
                             grading={"base": 3.0}),
}


@pytest.fixture(scope="module", params=list(REPRODUCED))
def reproduced(request, tmp_path_factory):
    """A run's output directory, its data saved as a dataset file, its summary."""
    out = tmp_path_factory.mktemp(request.param)
    case = REPRODUCED[request.param]
    cfg = ExperimentConfig(task=case["task"], mode=case["mode"], dataset_size=32, seq_len=6,
                           run_baseline=True, out_dir=str(out),
                           train={"steps": 60, "seed": 3, "checkpoint_every": 30,
                                  **case["train"]},
                           grading=case.get("grading", {}))
    summary = run_experiment(cfg)
    data = out / "data.gtc"
    tasks.save_dataset(data, tasks.generate(cfg.task, cfg.dataset_size, cfg.seq_len, seed=3))
    return out, data, summary


class TestReproduction:
    @pytest.mark.parametrize("run", ["graded", "baseline"])
    @pytest.mark.parametrize("checkpoint", ["{run}_final.gtc", "{run}/step000060.gtc"])
    def test_eval_reproduces_summary(self, reproduced, run, checkpoint):
        out, data, summary = reproduced
        report = evaluate_checkpoint(out / checkpoint.format(run=run), data)
        want = summary["runs"][run]["per_dim_error"]
        assert np.abs(np.subtract(report["per_dim_error"], want)).max() <= 1e-12

    def test_report_shows_the_stored_grading(self, reproduced):
        out, data, summary = reproduced
        report = evaluate_checkpoint(out / "graded_final.gtc", data)
        grading = report["grading"]
        assert grading == {k: v for k, v in tf.load_checkpoint(out / "graded_final.gtc")[2].items()
                           if k != "task"}
        assert "lambda" not in report
        if summary["mode"] == "linear":
            assert np.concatenate(grading["head_grades"]).tolist() != grading["grades"]
        else:
            assert grading["base"] == 3.0

    @pytest.mark.parametrize("run", ["graded", "baseline"])
    @pytest.mark.parametrize("checkpoint, step", [("{run}/step000030.gtc", 30),
                                                  ("{run}/step000060.gtc", 60),
                                                  ("{run}_final.gtc", 60)])
    def test_checkpoint_runs_at_its_step_lambda(self, reproduced, run, checkpoint, step):
        # the stored grading alone rebuilds the model a step ran: its base is
        # that step's annealed lambda, and eval matches a forward pass that
        # takes lambda as an override of the run's own base
        out, data, summary = reproduced
        params, model, extra = tf.load_checkpoint(out / checkpoint.format(run=run))
        stored = graded.GradedModelConfig.from_dict(
            model, {k: v for k, v in extra.items() if k not in ("task", "step")})
        lam = None
        if stored.mode == "exponential":
            lam = training.anneal_lambda(step, 60, 3.0)
            assert stored.base == lam and "lambda" not in extra
        ds = tasks.load_dataset(data)
        want, _ = per_sequence_eval(params, replace(stored, base=3.0) if lam else stored,
                                    ds, 64, lam)
        report = evaluate_checkpoint(out / checkpoint.format(run=run), data)
        assert np.abs(np.subtract(report["per_dim_error"], want)).max() <= 1e-12


class TestRerun:
    def test_output_directory_reruns_itself(self, tmp_path):
        # the written config.json, run into a second directory, remakes the
        # run: every checkpoint byte for byte, the summary but its wall times
        first, second = tmp_path / "first", tmp_path / "second"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "poly_degree", "dataset_size": 32, "seq_len": 4, "run_baseline": True,
            "out_dir": str(first), "train": {"steps": 4, "checkpoint_every": 2}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            assert cli.main(["train", "--config", str(first / "config.json"),
                             "--out", str(second)]) == 0
        written = json.loads((first / "config.json").read_text())
        assert set(written["train"]) == set(training.TrainConfig.__dataclass_fields__)
        assert written["train"]["lr"] == training.TrainConfig.lr
        assert not {"d_model", "out_dim", "vocab_size"} & set(written["model"])
        assert written["grading"]["grades"] == list(tasks.POLY_GRADES)
        assert written["grading"]["weight_map"] == {"affine": [1.0, 1.0]}
        checkpoints = sorted(p.relative_to(first) for p in first.rglob("*.gtc"))
        assert len(checkpoints) == 6  # per run: steps 2 and 4, and the final one
        assert checkpoints == sorted(p.relative_to(second) for p in second.rglob("*.gtc"))
        for rel in checkpoints:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
        summaries = [json.loads((out / "summary.json").read_text()) for out in (first, second)]
        for summary in summaries:
            for run in summary["runs"].values():
                del run["wall_time_s"]
        assert summaries[0] == summaries[1]


def per_sequence_eval(params, gcfg, ds, n_eval, lam):
    """Reference: one tape per sequence, per-head row means summed over sequences."""
    m = min(n_eval, ds.size)
    errs, mass, count = np.zeros(ds.y.shape[-1]), np.zeros(ds.x.shape[1]), 0
    for i in range(m):
        collect = [[] for _ in range(gcfg.model.n_layers)]
        tape = ad.Tape()
        with ad.recording(tape):
            p = tf.as_nodes(params, tape, trainable=False)
            _, logits = graded.forward_nodes(p, gcfg, ds.x[i], lam=lam, collect=collect)
        pred = logits.value
        if gcfg.model.vocab_size:
            pred = tensor.softmax_rows(pred)
        errs += tasks.per_dim_error(pred, ds.y[i])
        for head_attn in collect[-1]:
            mass += head_attn[0].mean(axis=0)
            count += 1
    return errs / m, mass / count


class TestFinalEval:
    @pytest.mark.parametrize("task,n_eval", [("poly_degree", 64), ("poly_degree", 7),
                                             ("hier_copy", 64)])
    def test_stacked_matches_per_sequence(self, task, n_eval):
        ds = tasks.generate(task, 24, 6, seed=3)
        model = tf.ModelConfig(**harness.MODEL_DEFAULTS, **training.data_widths(ds.x, ds.y))
        gcfg = graded.GradedModelConfig(model=model, mode="exponential", base=1.7,
                                        grades=ds.grades, **tasks.TASKS[task].grading)
        params = tf.init_params(model, Rng(1), decoder=False)
        errs, mass = harness._final_eval(params, gcfg, ds, n_eval)
        want_errs, want_mass = per_sequence_eval(params, gcfg, ds, n_eval, 1.7)
        assert np.abs(errs - want_errs).max() <= 1e-12 * np.abs(want_errs).max()
        assert np.abs(mass - want_mass).max() <= 1e-12
        assert abs(mass.sum() - 1.0) <= 1e-12


class TestCli:
    def test_demo_exit_zero(self, capsys):
        assert cli.main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "photonic" in out and "annealing" in out

    def test_props_filter(self, capsys):
        assert cli.main(["props", "--filter", "tensor.matmul", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_props_filter_matching_nothing_exit_two(self, capsys):
        assert cli.main(["props", "--filter", "nosuchprop"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and "nosuchprop" in err

    def test_props_reports_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(tensor, "softmax_rows", unnormalized_softmax)
        assert cli.main(["props", "--filter", "transformer.row_stochastic", "--seed", "0"]) == 1

    def test_gen_and_eval_round_trip(self, tmp_path, capsys):
        data = tmp_path / "poly.gtc"
        assert cli.main(["gen", "--task", "poly", "--size", "8", "--len", "4",
                         "--seed", "3", "--out", str(data)]) == 0
        ds = tasks.load_dataset(data)
        assert ds.size == 8

    def test_eval_of_empty_sequences_exit_two(self, tmp_path, capsys):
        cfg = tf.ModelConfig(vocab_size=16, d_model=16, n_heads=2, n_layers=1, d_ff=8,
                             n_max=8)
        ckpt = tmp_path / "model.gtc"
        tf.save_checkpoint(ckpt, tf.init_params(cfg, Rng(0), decoder=False), cfg,
                           extra={"task": "hier_copy"})
        data = tmp_path / "empty.gtc"  # four hier_copy sequences of no tokens
        container.save_arrays(data, {"x": np.zeros((4, 0), dtype=np.int64),
                                     "y": np.zeros((4, 0, 16)), "grades": np.zeros(16)},
                              meta={"kind": "dataset", "task": "hier_copy"})
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "empty" in err
        assert "Traceback" not in err

    def test_eval_of_mismatched_targets_exit_two(self, stored, tmp_path, capsys):
        # a poly_degree dataset whose targets hold 4 positions against x's 6
        ckpt = tmp_path / "model.gtc"
        ckpt.write_bytes(stored[0])
        ds = tasks.gen_poly_degree(8, 6, 1)
        data = tmp_path / "short_targets.gtc"
        tasks.save_dataset(data, replace(ds, y=ds.y[:, :4]))
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert ckpt.name in err and data.name in err and "(8, 4, 4)" in err

    def test_gen_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "ds.gtc"
        assert cli.main(["gen", "--task", "poly", "--size", "4", "--len", "8",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err

    def test_train_unwritable_out_exit_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "poly_degree", "dataset_size": 16,
                                        "seq_len": 4}))
        out = blocker / "sub"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err

    def test_train_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "nope"}))
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_divergence_exit_three(self, tmp_path, monkeypatch):
        from graded_transformer import harness
        from graded_transformer.errors import DivergenceDetected

        def boom(cfg):
            raise DivergenceDetected("injected")

        monkeypatch.setattr(harness, "run_experiment", boom)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "poly_degree"}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 3

    @pytest.mark.parametrize("scale, steps", [(500, 0), (100, 1)])
    def test_diverged_run_writes_artifacts(self, tmp_path, scale, steps):
        # grades (0, 1, 2, 3) * 500 overflow the loss at step 1; * 100 at step 2
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "poly_degree", "mode": "exponential", "out_dir": str(out),
            "train": {"steps": 10},
            "grading": {"base": 60, "grades": [0, scale, 2 * scale, 3 * scale]}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert f"non-finite loss at step {steps + 1}" in err.getvalue()
        rows = (out / "graded_metrics.csv").read_text().splitlines()
        assert rows[0].split(",") == training.METRIC_FIELDS
        assert len(rows) == 1 + steps
        run = json.loads((out / "summary.json").read_text())["runs"]["graded"]
        assert run["diverged"] is True and run["steps"] == steps
        assert run["divergence"] == err.getvalue().removeprefix("divergence: ").strip()
        assert sorted(run) == ["diverged", "divergence", "final_loss", "first_loss",
                               "loss_ratio", "steps", "wall_time_s"]
        if steps:
            assert run["first_loss"] == run["final_loss"] and run["loss_ratio"] == 1.0
        else:
            assert run["first_loss"] is run["final_loss"] is run["loss_ratio"] is None

    @pytest.mark.parametrize("grading", [{"weight_map": "identity"},
                                         {"attention_variant": "bogus"},
                                         {"weight_map": "bogus"},
                                         {"weight_map": {"affine": [1.0, -1.0]}},
                                         {"positional": "exp_decay", "alpha": -3.0},
                                         {"positional": "exp_decay", "alpha": 0.25,
                                          "base": -2.0},
                                         {"positional": "exp_decay", "alpha": 0.25,
                                          "base": 0.5},
                                         {"head_grades": [[0.0], [1.0, 2.0]]},
                                         {"head_grades": [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]}])
    def test_invalid_grading_exit_two(self, tmp_path, capsys, grading):
        # poly grades (0, .5, 1, 2): the identity map weighs grade 0 by 0 and
        # the affine map 1 - q weighs grade 2 by -1; weights must be positive.
        # A negative alpha, or a base <= 1 under exp_decay (which linear mode
        # reads too), would turn positional decay into growth.  Head tuples
        # need length d_k = 2 each.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "poly_degree", "dataset_size": 16,
                                        "seq_len": 4, "out_dir": str(tmp_path / "run"),
                                        "train": {"steps": 2}, "grading": grading}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_learned_grade_reaching_zero_weight_exit_three(self, tmp_path, capsys):
        # identity map: the first update clamps grade 0.01 to 0, a weight of
        # 0; a valid config that diverged, not a config error
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "poly_degree", "dataset_size": 32, "seq_len": 4,
            "out_dir": str(out), "train": {"steps": 10, "lr_grades": 1.0},
            "grading": {"weight_map": "identity", "grades": [0.01, 0.5, 1.0, 2.0]}}))
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("divergence: grading weight <= 0 in 'q' after the update "
                              "at step 1; parameters and grades restored to step 0")
        assert "Traceback" not in err
        rows = (out / "graded_metrics.csv").read_text().splitlines()
        assert rows == [",".join(training.METRIC_FIELDS)]
        run = json.loads((out / "summary.json").read_text())["runs"]["graded"]
        assert run["diverged"] is True and run["steps"] == 0

    @pytest.mark.parametrize("override", [{"model": {"n_heads": 3}},  # d_model 4
                                          {"train": {"steps": 0}}])
    def test_invalid_model_or_train_config_exit_two(self, tmp_path, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "poly_degree", "dataset_size": 16,
                                        "seq_len": 4, "out_dir": str(tmp_path / "run"),
                                        **override}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "config error" in err.getvalue() and "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("train, message", [
        ({"batch_size": 0}, "batch_size must be >= 1, not 0"),
        ({"batch_size": -3}, "batch_size must be >= 1, not -3"),
        ({"lr": 0.0}, "lr must be > 0, not 0.0"),
        ({"lr": -1e-3}, "lr must be > 0, not -0.001"),
        ({"lr_grades": -0.1}, "lr_grades must be >= 0, not -0.1"),
        ({"beta1": 1.0}, "beta1 must lie in [0, 1), not 1.0"),
        ({"beta1": -0.5}, "beta1 must lie in [0, 1), not -0.5"),
        ({"beta2": 1.5}, "beta2 must lie in [0, 1), not 1.5"),
        ({"eps_adam": 0.0}, "eps_adam must be > 0, not 0.0"),
    ])
    def test_bad_optimizer_setting_exit_two(self, tmp_path, train, message):
        # each used to end in a traceback (exit 1) or a reported divergence (exit 3)
        out = tmp_path / "run"
        self.assert_config_error(tmp_path, {"task": "poly_degree", "dataset_size": 16,
                                            "seq_len": 4, "out_dir": str(out),
                                            "train": {"steps": 2, **train}}, message)
        assert not out.exists()

    def test_zero_grade_rate_is_accepted(self, tmp_path):
        # lr_grades 0 and beta1 0 are valid: grades stay fixed, Adam keeps no momentum
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "poly_degree", "dataset_size": 16, "seq_len": 4,
            "out_dir": str(tmp_path / "run"), "model": {"n_layers": 1},
            "train": {"steps": 2, "batch_size": 4, "lr_grades": 0.0, "beta1": 0.0}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("raw, message", [
        (5, "must hold a JSON object, not int"),
        (["task"], "must hold a JSON object, not list"),
    ])
    def test_config_not_an_object_exit_two(self, tmp_path, raw, message):
        self.assert_config_error(tmp_path, raw, message)

    @pytest.mark.parametrize("section, value", [("model", [1]), ("train", 3),
                                                ("grading", "scores")])
    def test_config_section_not_an_object_exit_two(self, tmp_path, section, value):
        self.assert_config_error(tmp_path, {"task": "poly_degree", section: value},
                                 f"section {section!r} must be a JSON object")

    @pytest.mark.parametrize("raw, message", [
        ({"seq_len": "a"}, "key 'seq_len' must be a JSON integer, not str"),
        ({"init_seed": "a", "train": {"steps": 1}},
         "key 'init_seed' must be a JSON integer, not str"),
        ({"run_baseline": "yes", "train": {"steps": 1}},
         "key 'run_baseline' must be a JSON boolean, not str"),
        ({"dataset_size": True}, "key 'dataset_size' must be a JSON integer, not bool"),
        ({"seq_len": 8.0}, "key 'seq_len' must be a JSON integer, not float"),
        ({"task": 5}, "key 'task' must be a JSON string, not int"),
        ({"model": {"d_model": "4"}}, "key 'model.d_model' must be a JSON integer, not str"),
        ({"train": {"lr": "x"}}, "key 'train.lr' must be a JSON number, not str"),
        ({"train": {"steps": 1.5}}, "key 'train.steps' must be a JSON integer, not float"),
        ({"train": {"base_loss": "bogus"}},
         "base_loss must be 'squared' or 'sigmoid_ce', not 'bogus'"),
        ({"grading": {"grades": "abc"}},
         "key 'grading.grades' must be a JSON array of numbers, not str"),
        ({"grading": {"weight_map": {"foo": 1}}},
         "key 'grading.weight_map' must be a JSON string naming a weight map"),
        ({"grading": {"weight_map": {"affine": [1]}}},
         "key 'grading.weight_map' must be a JSON string naming a weight map"),
        ({"grading": {"head_grades": [["a"]]}},
         "key 'grading.head_grades' must be a JSON array of number arrays or null"),
        # Python's json reads NaN and Infinity; no config number may be either
        ({"mode": "exponential", "train": {"lr_grades": np.inf}},
         "key 'train.lr_grades' must be a JSON number, not Infinity"),
        ({"train": {"clip_threshold": np.nan}},
         "key 'train.clip_threshold' must be a JSON number, not NaN"),
        ({"train": {"gamma": np.nan}}, "key 'train.gamma' must be a JSON number, not NaN"),
        ({"train": {"gamma_coord": np.inf}},
         "key 'train.gamma_coord' must be a JSON number, not Infinity"),
        ({"train": {"lr": -np.inf}}, "key 'train.lr' must be a JSON number, not -Infinity"),
        ({"grading": {"weight_map": {"affine": [np.nan, 1.0]}}},
         "key 'grading.weight_map' must be a JSON string naming a weight map"),
        ({"task": "hier_copy", "grading": {"positional": "linear_decay", "alpha": np.nan}},
         "key 'grading.alpha' must be a JSON number, not NaN"),
        ({"task": "hier_copy", "mode": "exponential",
          "grading": {"positional": "exp_decay", "alpha": np.inf}},
         "key 'grading.alpha' must be a JSON number, not Infinity"),
        ({"mode": "exponential", "grading": {"base": np.inf}},
         "key 'grading.base' must be a JSON number, not Infinity"),
        ({"grading": {"grades": [0.0, np.nan, 1.0, 2.0]}},
         "key 'grading.grades' must be a JSON array of numbers, not list"),
    ])
    def test_config_key_of_wrong_type_exit_two(self, tmp_path, raw, message):
        out = tmp_path / "run"
        self.assert_config_error(tmp_path, {**raw, "out_dir": str(out)}, message)
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        {"mode": "bogus"}, {"dataset_size": -1}, {"model": {"n_heads": 3}},
        {"train": {"steps": 0}}, {"grading": {"attention_variant": "bogus"}},
        {"task": "hier_copy", "seq_len": 40}, {"model": {"d_model": "4"}},
        {"train": {"lr": "x"}}, {"train": {"steps": 1.5}}, {"train": {"base_loss": "bogus"}},
        {"grading": {"grades": "abc"}}, {"grading": {"weight_map": {"foo": 1}}},
        {"grading": {"weight_map": {"affine": [1]}}}, {"grading": {"head_grades": [["a"]]}},
    ])
    def test_config_error_leaves_no_output_directory(self, tmp_path, override):
        out = tmp_path / "run"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "poly_degree", "dataset_size": 16,
                                        "seq_len": 4, **override}))
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("task, model", [
        ("hier_copy", {"d_model": 32}), ("hier_copy", {"vocab_size": 20}),
        ("poly_degree", {"d_model": 8}), ("poly_degree", {"out_dim": 3}),
    ])
    def test_width_fixed_by_data_exit_two(self, tmp_path, task, model):
        out = tmp_path / "run"
        key = f"model.{next(iter(model))}"
        self.assert_config_error(tmp_path, {"task": task, "dataset_size": 16, "seq_len": 4,
                                            "model": model, "out_dir": str(out)},
                                 f"config keys [{key!r}] are fixed by the task's data")
        assert not out.exists()

    def test_seq_len_above_n_max_exit_two(self, tmp_path):
        # hier_copy's default model has n_max 16
        self.assert_config_error(tmp_path, {"task": "hier_copy", "seq_len": 40,
                                            "out_dir": str(tmp_path / "run")},
                                 "seq_len 40 exceeds the model's n_max 16")

    def test_retired_variant_exit_two(self, tmp_path):
        out = tmp_path / "run"
        self.assert_config_error(tmp_path, {"task": "poly_degree", "dataset_size": 16,
                                            "seq_len": 4, "out_dir": str(out),
                                            "grading": {"attention_variant": "multi_head"}},
                                 "unknown attention variant 'multi_head'")
        assert not out.exists()

    @staticmethod
    def assert_config_error(tmp_path, raw, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert err.getvalue().startswith("config error: ") and message in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("raw, message", [
        ({"train": {"lambda_max": 3.0}}, "unknown config keys in section 'train': ['lambda_max']"),
        ({"train": {"grade_init_scale": 0.5}},
         "unknown config keys in section 'train': ['grade_init_scale']"),
        ({"train": {"checkpoint_every": -1}}, "checkpoint_every must be >= 0, not -1"),
        ({"train": {"seed": -1}}, "seed must be >= 0, not -1"),
        ({"init_seed": -1}, "init_seed must be >= 0, not -1"),
    ])
    def test_rejected_before_any_output(self, tmp_path, raw, message):
        out = tmp_path / "run"
        self.assert_config_error(tmp_path, {"task": "poly_degree", "dataset_size": 16,
                                            "seq_len": 4, **raw, "out_dir": str(out)}, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["props"], ["gen", "--task", "poly", "--size", "4",
                                                     "--len", "4", "--out", "never.gtc"]])
    def test_negative_seed_exit_two(self, capsys, command):
        assert cli.main([*command, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --seed must be >= 0, not -1\n"

    def test_unread_head_grades_do_not_invalidate_config(self, tmp_path, capsys):
        # identity weighs grade 0 by 0; ungraded attention reads no head tuple
        grading = {"attention_variant": "none", "weight_map": "identity",
                   "grades": [0.5, 1.0, 1.5, 2.0], "head_grades": [[0.0, 0.5], [1.0, 2.0]]}
        raw = {"task": "poly_degree", "dataset_size": 16, "seq_len": 4,
               "train": {"steps": 2, "batch_size": 4}, "out_dir": str(tmp_path / "run"),
               "grading": grading}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        self.assert_config_error(
            tmp_path, {**raw, "grading": {**grading, "attention_variant": "scores"}},
            "linear grading weights must be positive")

    def test_unknown_config_key_exit_two(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"task": "poly_degree", "bogus": 1}))
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_train_and_eval_commands(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "poly_degree",
            "dataset_size": 32,
            "seq_len": 4,
            "out_dir": str(tmp_path / "run"),
            "model": {"n_layers": 1},
            "train": {"steps": 40, "batch_size": 8, "seed": 1},
        }))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        data = tmp_path / "d.gtc"
        tasks.save_dataset(data, tasks.gen_poly_degree(8, 4, 2))
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "graded_final.gtc"),
                         "--data", str(data)]) == 0
        assert "per_dim_error" in capsys.readouterr().out


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_configs_are_shipped():
    assert len(SHIPPED_CONFIGS) >= 3


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(path, tmp_path):
    cfg = ExperimentConfig.from_file(path)
    cfg = replace(cfg, dataset_size=8, out_dir=str(tmp_path),
                  train={**cfg.train, "steps": 2})
    summary = run_experiment(cfg)
    for run in summary["runs"].values():
        assert np.isfinite(run["final_loss"]) and run["steps"] == 2
