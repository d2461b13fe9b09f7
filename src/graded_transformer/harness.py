"""Experiment runner: trains a graded model (optionally next to an
ungraded twin on identical data and seed) and writes the resolved config
(config.json, which reruns the experiment), step metrics (CSV), a summary
(JSON) and a final checkpoint per run into the output directory; step
checkpoints go to a subdirectory named after the run."""

from __future__ import annotations

import json
import math
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import graded
from . import tasks
from . import tensor
from . import training
from . import transformer as tf
from .errors import ConfigError, DivergenceDetected
from .graded_space import EXPONENTIAL, LINEAR, WeightMap, effective_dimension
from .tensor import Rng


@dataclass
class ExperimentConfig:
    task: str = "poly_degree"
    mode: str = LINEAR
    dataset_size: int = 256
    seq_len: int = 8
    run_baseline: bool = False
    out_dir: str = "runs/exp"
    init_seed: int = 0  # parameter init stream, separate from the data/batch seed
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    grading: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object, "
                              f"not {type(raw).__name__}")
        _check_keys(raw, cls)
        _check_keys(raw.get("model", {}), tf.ModelConfig, "model")
        _check_keys(raw.get("train", {}), training.TrainConfig, "train")
        # the grading section sets neither the model nor the mode
        _check_keys(raw.get("grading", {}), graded.GradedModelConfig, "grading",
                    exclude=("model", "mode"))
        return cls(**raw)


_JSON_KINDS = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}


def _number(value) -> bool:
    """An int or a finite float: no bool, NaN or Infinity (json reads both)."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _numbers(value) -> bool:
    """A JSON array of numbers."""
    return type(value) is list and all(map(_number, value))


def _expected_kind(value, hint) -> str | None:
    """The JSON kind a config value annotated `hint` must have, or None when
    it has it.  Types match exactly (an int field takes no bool), except
    that a float field also takes an integer; no number is NaN or Infinity.
    Only head_grades, optional, takes null."""
    if hint is np.ndarray:  # a grade tuple
        return None if _numbers(value) else "array of numbers"
    if hint is WeightMap:
        affine = (type(value) is dict and list(value) == ["affine"]
                  and _numbers(value["affine"]) and len(value["affine"]) == 2)
        return None if type(value) is str or affine else \
            'string naming a weight map or {"affine": [a, b]}'
    if np.ndarray in typing.get_args(hint):  # per-head grade tuples, one array each
        ok = value is None or (type(value) is list and all(map(_numbers, value)))
        return None if ok else "array of number arrays or null"
    ok = _number(value) if hint is float and type(value) in (int, float) else type(value) is hint
    return None if ok else _JSON_KINDS[hint]


def _check_keys(raw: dict, cls, section: str = "", exclude=()) -> None:
    """Raise ConfigError for a key of `raw` that the dataclass `cls` does not
    declare (or that `exclude` names), or whose value has the wrong JSON
    kind for its annotation; messages name keys as `section.key`."""
    hints = {k: v for k, v in typing.get_type_hints(cls).items() if k not in exclude}
    bad = set(raw) - set(hints)
    if bad:
        where = f" in section {section!r}" if section else ""
        raise ConfigError(f"unknown config keys{where}: {sorted(bad)}")
    for name, value in raw.items():
        kind = _expected_kind(value, hints[name])
        if kind:
            key = f"{section}.{name}" if section else name
            got = json.dumps(value) if type(value) is float and not _number(value) \
                else type(value).__name__  # NaN and Infinity by their JSON names
            raise ConfigError(
                f"config {'section' if hints[name] is dict else 'key'} {key!r} must be "
                f"a JSON {kind}, not {got}")


MODEL_DEFAULTS = dict(n_heads=2, n_layers=2, d_ff=32, n_max=16, m_max=16)  # no widths


def _build(make, defaults: dict, section: dict):
    """make(**{**defaults, **section}), a bad value raising ConfigError."""
    try:
        return make(**{**defaults, **section})
    except (TypeError, ValueError) as exc:  # ValueError: DimensionMismatch, InvalidSpec, ...
        raise ConfigError(str(exc)) from exc


def _final_eval(params, gcfg, ds, n_eval: int):
    """Per-dimension error and final-layer attention mass by key position.

    The first n_eval sequences run as one stacked forward; the error and
    the mass are means over sequences (and, for the mass, query rows and
    heads).
    """
    m = min(n_eval, ds.size)
    x, y = ds.x[:m], ds.y[:m]
    _, pred, collect = graded.forward(params, gcfg, x, collect_attention=True)
    if gcfg.model.vocab_size:
        pred = tensor.softmax_rows(pred)
    errs = tasks.per_dim_error(pred.reshape(y.shape), y)
    mass = np.zeros(x.shape[1])
    if gcfg.model.n_layers:
        mass = np.mean([head_attn.mean(axis=(0, 1)) for head_attn in collect[-1]], axis=0)
    return errs, mass


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train per config; returns the summary dict (also written to disk).

    Before the first step, config.json records the config as run: every
    section complete with the task defaults, the starting grading, and no
    data-fixed width, so `train --config` of it reruns the experiment.

    Every run writes its metrics CSV and a summary entry with the loss
    fields (null when no step completed), wall time, completed steps and
    divergence.  A diverged run then re-raises, and later runs do not
    start; a finished run adds its final evaluation's fields.
    """
    if cfg.task not in tasks.TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}; known: {sorted(tasks.TASKS)}")
    task = tasks.TASKS[cfg.task]
    if cfg.init_seed < 0:
        raise ConfigError(f"init_seed must be >= 0, not {cfg.init_seed}")
    tcfg = _build(training.TrainConfig, task.train, cfg.train)
    try:
        ds = task.generate(cfg.dataset_size, cfg.seq_len, tcfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    widths = training.data_widths(ds.x, ds.y)
    fixed = [f"model.{k}" for k in widths if k in cfg.model]
    if fixed:
        raise ConfigError(f"config keys {fixed} are fixed by the task's data "
                          f"({widths}); remove them")
    model = _build(tf.ModelConfig, {**MODEL_DEFAULTS, **widths}, cfg.model)
    gcfg = _build(lambda **raw: graded.GradedModelConfig.from_dict(model, raw),
                  {"mode": cfg.mode, "grades": ds.grades, **task.grading}, cfg.grading)
    n = ds.x.shape[1]
    if n > model.n_max and (model.vocab_size or gcfg.add_positional):
        # token ids and positional encodings exist only for positions 1..n_max
        raise ConfigError(f"seq_len {n} exceeds the model's n_max {model.n_max}")
    runs = {"graded": gcfg}
    if cfg.run_baseline:
        runs["baseline"] = graded.unit_config(model)

    out = Path(cfg.out_dir)  # made only once the whole config is valid
    out.mkdir(parents=True, exist_ok=True)
    resolved = {**vars(cfg),
                "model": {k: v for k, v in vars(model).items() if k not in widths},
                "train": vars(tcfg),
                "grading": {k: v for k, v in gcfg.to_dict().items() if k != "mode"}}
    (out / "config.json").write_text(json.dumps(resolved, indent=2))
    summary = {"task": cfg.task, "mode": cfg.mode, "runs": {}}
    for name, rcfg in runs.items():
        params = tf.init_params(model, Rng(cfg.init_seed), decoder=False)
        start = time.perf_counter()
        failure = None
        try:
            result = training.train(params, rcfg, ds.x, ds.y, tcfg,
                                    checkpoint_dir=str(out / name))
        except DivergenceDetected as exc:
            result, failure = exc.result, exc
        metrics = result.metrics
        first, final = (metrics[0]["loss"], metrics[-1]["loss"]) if metrics else (None, None)
        run = summary["runs"][name] = {
            "first_loss": first,
            "final_loss": final,
            "loss_ratio": final / first if metrics else None,
            "wall_time_s": time.perf_counter() - start,
            "steps": len(metrics),
            "diverged": failure is not None,
            "divergence": str(failure) if failure else None,
        }
        training.write_metrics_csv(out / f"{name}_metrics.csv", metrics)
        if failure:
            _write_summary(out, summary)
            raise failure
        errs, attn_mass = _final_eval(result.params, result.grading, ds, 64)
        tf.save_checkpoint(out / f"{name}_final.gtc", result.params, model,
                           extra={**result.grading.to_dict(), "task": cfg.task})
        run.update({
            "per_dim_error": errs.tolist(),
            "grade_weighted_error": float(np.sum(result.grading.weights() * errs)),
            "high_grade_error": float(np.mean(errs[list(task.signal_dims)]))
            if task.signal_dims else None,
            "low_grade_error": float(np.mean(errs[list(task.noise_dims)]))
            if task.noise_dims else None,
            "attention_mass_by_position": attn_mass.tolist(),
            "effective_dimension": effective_dimension(result.grades, 0.5),
            "grade_norm": float(np.linalg.norm(result.grades)),
        })
    _write_summary(out, summary)
    return summary


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


def evaluate_checkpoint(checkpoint_path, data_path) -> dict:
    """Per-dimension error of a checkpoint, rebuilt from its stored grading
    alone, on a dataset of its task.  Unstored grading fields take their
    defaults; attention_variant takes "scores", as old checkpoints ran.  An
    older file in exponential mode may store the base its parameters ran
    at as a separate "lambda"; a non-null one is read as the base."""
    params, model, extra = tf.load_checkpoint(checkpoint_path)
    ds = tasks.load_dataset(data_path)
    task = extra.get("task", ds.task)
    if task != ds.task:
        raise ConfigError(f"{checkpoint_path}: a {task!r} checkpoint cannot evaluate "
                          f"{data_path}, a {ds.task!r} dataset")
    try:
        training.check_widths(ds.x, ds.y, model)
    except ValueError as exc:
        raise ConfigError(f"{checkpoint_path} cannot evaluate {data_path}: {exc}") from exc
    stored = {f.name: extra[f.name] for f in fields(graded.GradedModelConfig)
              if f.name in extra and f.name != "model"}
    try:
        _check_keys(stored, graded.GradedModelConfig, "extra")
        gcfg = graded.GradedModelConfig.from_dict(
            model, {"attention_variant": "scores", **stored})
        lam = extra.get("lambda") if gcfg.mode == EXPONENTIAL else None
        if lam is not None and not (type(lam) in (int, float) and 1 < lam < np.inf):
            raise ValueError(f"extra.lambda must be a finite number > 1 or null, got {lam!r}")
        gcfg = gcfg if lam is None else replace(gcfg, base=lam)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{checkpoint_path}: {exc}") from exc
    errs, _ = _final_eval(params, gcfg, ds, 64)
    return {
        "per_dim_error": errs.tolist(),
        "mean_error": float(errs.mean()),
        "size_evaluated": int(min(64, ds.size)),
        "grading": gcfg.to_dict(),
    }
