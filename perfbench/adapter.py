"""The only benchmark file that imports `graded_transformer`.

Everything the benchmark runs goes through the few public entry points
used here: `training.train`, `graded.forward_nodes` on a fresh tape with
constant parameters, `graded.graded_generate`, `transformer.init_params`,
the config dataclasses and the `tasks` generators.  When one of these is
renamed or reshaped, this file is the one benchmark file to change.

The package is imported from the `src` directory of the checkout that
holds this file; importing this module fails with `ImportError` when
that directory is absent.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "graded_transformer" / "__init__.py").is_file():
    raise ImportError(f"graded_transformer sources not found under {_SRC}")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from graded_transformer import autodiff as ad  # noqa: E402
from graded_transformer import graded, tasks, training  # noqa: E402
from graded_transformer import transformer as tf  # noqa: E402
from graded_transformer.errors import DivergenceDetected  # noqa: E402
from graded_transformer.graded_space import EXPONENTIAL, LINEAR  # noqa: E402
from graded_transformer.tensor import Rng  # noqa: E402

EOS_TOKEN = tf.EOS_TOKEN
POLY_SIGNAL_DIMS = list(tasks.POLY_SIGNAL_DIMS)
POLY_NOISE_DIMS = list(tasks.POLY_NOISE_DIMS)

# Parameters come from the fixed init stream the harness and c15 use
# (seed 0); only the task data and the batch order follow the workload seed.
INIT_SEED = 0
GEN_PROMPTS = 32


# ---------------------------------------------------------------------------
# what the tracer wraps

TAPE = ad.Tape

# (owner, attribute, span name); calls between these go through the
# owner's attribute, so replacing it reaches every caller.
SPAN_TARGETS = [
    (training, "train", "training.train"),
    (training, "sequence_loss_node", "training.sequence_loss_node"),
    (training, "regularizer_node", "training.regularizer_node"),
    (training, "clip_gradient", "training.clip_gradient"),
    (training, "adam_step", "training.adam_step"),
    (ad.Tape, "backward", "autodiff.backward"),
    (graded, "forward_nodes", "graded.forward_nodes"),
    (graded, "weight_nodes", "graded.weight_nodes"),
    (graded, "graded_positional_matrix", "graded.graded_positional_matrix"),
    (graded, "graded_generate", "graded.graded_generate"),
    (tf, "as_nodes", "transformer.as_nodes"),
    (tf, "encoder", "transformer.encoder"),
    (tf, "multi_head", "transformer.multi_head"),
    (tf, "attention_head", "transformer.attention_head"),
    (tf, "feed_forward", "transformer.feed_forward"),
    (tf, "layer_norm", "transformer.layer_norm"),
    (tf, "decoder", "transformer.decoder"),
    (tf, "positional_matrix", "transformer.positional_matrix"),
]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class TrainJob:
    label: str
    params: dict
    gcfg: graded.GradedModelConfig
    tcfg: training.TrainConfig


@dataclass
class Workload:
    name: str
    data: tasks.Dataset
    train_jobs: list
    gen_params: dict
    gen_cfg: graded.GradedModelConfig
    prompts: np.ndarray
    m_max: int
    grade_direction: bool  # poly task: high-grade error below low-grade error


@dataclass
class TrainOutcome:
    losses: list
    params: dict
    eval_cfg: graded.GradedModelConfig
    lam: float | None
    diverged: bool


def _token_model(vocab, d, heads, layers, d_ff, n_max, m_max, mode, variant,
                 alpha, positional="exp_decay"):
    model = tf.ModelConfig(vocab_size=vocab, d_model=d, n_heads=heads,
                           n_layers=layers, d_ff=d_ff, n_max=n_max, m_max=m_max)
    gcfg = graded.GradedModelConfig(
        model=model, mode=mode, grades=np.zeros(d), attention_variant=variant,
        positional=positional, alpha=alpha, grade_inputs=False)
    return model, gcfg


def _poly_smoke(seed: int) -> Workload:
    model = tf.ModelConfig(vocab_size=0, d_model=4, n_heads=2, n_layers=2, d_ff=32,
                           n_max=16, out_dim=4)
    data = tasks.gen_poly_degree(256, 8, seed)
    jobs = []
    for mode in (LINEAR, EXPONENTIAL):
        jobs.append(TrainJob(
            mode, tf.init_params(model, Rng(INIT_SEED)),
            graded.GradedModelConfig(model=model, mode=mode, grades=data.grades,
                                     attention_variant="scores"),
            training.TrainConfig(steps=100, seed=seed, batch_size=16)))
    gen_model, gen_cfg = _token_model(8, 4, 2, 2, 32, 16, 16, LINEAR, "scores",
                                      0.0, positional="off")
    return Workload(
        "poly_smoke", data, jobs,
        tf.init_params(gen_model, Rng(INIT_SEED), decoder=True), gen_cfg,
        tasks.gen_hier_copy(GEN_PROMPTS, 8, seed, vocab=8).x, 16, True)


def _hiercopy_egt(seed: int) -> Workload:
    model, gcfg = _token_model(16, 16, 2, 2, 32, 16, 16, EXPONENTIAL, "none", 0.25)
    data = tasks.gen_hier_copy(128, 8, seed)
    job = TrainJob(
        "exponential", tf.init_params(model, Rng(INIT_SEED), decoder=False), gcfg,
        training.TrainConfig(steps=100, seed=seed, base_loss="sigmoid_ce", lr=2e-3,
                             learn_grades=False))
    return Workload(
        "hiercopy_egt", data, [job],
        tf.init_params(model, Rng(INIT_SEED), decoder=True), gcfg,
        tasks.gen_hier_copy(GEN_PROMPTS, 8, seed).x, 16, False)


def _wide_lgt(seed: int) -> Workload:
    model, gcfg = _token_model(32, 32, 4, 4, 128, 32, 16, LINEAR, "queries_keys", 0.25)
    data = tasks.gen_hier_copy(128, 32, seed, vocab=32)
    job = TrainJob(
        "linear", tf.init_params(model, Rng(INIT_SEED), decoder=False), gcfg,
        training.TrainConfig(steps=40, seed=seed, base_loss="sigmoid_ce", lr=2e-3,
                             learn_grades=True))
    return Workload(
        "wide_lgt", data, [job],
        tf.init_params(model, Rng(INIT_SEED), decoder=True), gcfg,
        tasks.gen_hier_copy(GEN_PROMPTS, 32, seed, vocab=32).x, 8, False)


WORKLOADS = {"poly_smoke": _poly_smoke, "hiercopy_egt": _hiercopy_egt,
             "wide_lgt": _wide_lgt}


def build(name: str, seed: int) -> Workload:
    """Data generation, parameter init and config build for one workload."""
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# operations


def train(job: TrainJob, data: tasks.Dataset) -> TrainOutcome:
    """One `training.train` call; divergence is reported, not raised."""
    try:
        res = training.train(job.params, job.gcfg, data.x, data.y, job.tcfg)
        diverged = False
    except DivergenceDetected as exc:
        res = exc.result
        diverged = True
    lam = res.metrics[-1]["lambda"] if job.gcfg.mode == EXPONENTIAL and res.metrics else None
    eval_cfg = graded.GradedModelConfig(
        **{**job.gcfg.__dict__, "grades": res.grades, "head_grades": res.head_grades})
    return TrainOutcome([m["loss"] for m in res.metrics], res.params, eval_cfg, lam,
                        diverged)


def forward(params: dict, gcfg: graded.GradedModelConfig, inputs,
            lam: float | None) -> np.ndarray:
    """Forward-only logits of one sequence on a fresh tape."""
    tape = ad.Tape()
    with ad.recording(tape):
        p = tf.as_nodes(params, tape, trainable=False)
        _, logits = graded.forward_nodes(p, gcfg, inputs, lam=lam)
    return logits.value


def generate(params: dict, gcfg: graded.GradedModelConfig, prompt, m_max: int) -> list:
    return graded.graded_generate(params, gcfg, prompt, m_max=m_max)


def per_dim_error(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return tasks.per_dim_error(pred, target)
