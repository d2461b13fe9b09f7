"""Tests of the outside-in tracer and of the benchmark's output checks.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import math

import numpy as np
import pytest

import adapter as A
import run
from tracer import Tracer, step_clock


@pytest.fixture(scope="module")
def poly():
    return A.build("poly_smoke", 3)


def _originals():
    return [vars(owner)[attr] for owner, attr, _ in A.SPAN_TARGETS] + \
        [vars(A.TAPE)["record"], vars(A.TAPE)["backward"]]


def _traced_forward(wl):
    """One eval forward of the poly model under the tracer, plus its tape."""
    job = wl.train_jobs[0]
    tracer = Tracer(A.SPAN_TARGETS, A.TAPE)
    tracer.phase = "eval"
    tape = A.ad.Tape()
    with tracer.installed(), A.ad.recording(tape):
        p = A.tf.as_nodes(job.params, tape, trainable=False)
        _, logits = A.graded.forward_nodes(p, job.gcfg, wl.data.x[0])
    return tracer, tape, logits.value


def test_node_counts_are_exact(poly):
    tracer, tape, _ = _traced_forward(poly)
    cfg = poly.train_jobs[0].gcfg.model
    heads = tracer.stat("eval", "transformer.attention_head")
    # transpose, q k^T, scale, softmax, attn v: five nodes per unmasked head.
    assert heads.calls == cfg.n_layers * cfg.n_heads
    assert heads.nodes == 5 * heads.calls
    norms = tracer.stat("eval", "transformer.layer_norm")
    assert norms.calls == 2 * cfg.n_layers and norms.nodes == norms.calls
    assert tracer.stat("eval", "transformer.as_nodes").nodes == len(poly.train_jobs[0].params)
    assert tracer.nodes["eval"] == len(tape.nodes)
    outer = tracer.stat("eval", "transformer.as_nodes").nodes + \
        tracer.stat("eval", "graded.forward_nodes").nodes
    assert outer == len(tape.nodes)


def test_self_times_nonnegative_and_children_sum_to_parent(poly):
    tracer, _, _ = _traced_forward(poly)
    for s in tracer.stats.values():
        assert s.self_s >= 0.0 and s.total_s >= s.self_s

    def total(name):
        return tracer.stat("eval", name).total_s

    def self_(name):
        return tracer.stat("eval", name).self_s

    parents = {
        "transformer.multi_head": ["transformer.attention_head"],
        "transformer.encoder": ["transformer.multi_head", "transformer.feed_forward",
                                "transformer.layer_norm"],
        "graded.forward_nodes": ["graded.weight_nodes", "transformer.encoder"],
    }
    for parent, children in parents.items():
        assert math.isclose(total(parent), self_(parent) + sum(map(total, children)),
                            rel_tol=1e-9, abs_tol=1e-12), parent
    assert tracer.covered_s("eval") == pytest.approx(
        total("transformer.as_nodes") + total("graded.forward_nodes"))


def test_wrapping_is_undone_and_changes_no_value(poly):
    before = _originals()
    tracer, _, traced = _traced_forward(poly)
    assert _originals() == before
    job = poly.train_jobs[0]
    plain = A.forward(job.params, job.gcfg, poly.data.x[0], None)
    assert np.array_equal(plain, traced)
    counted = dict(tracer.nodes)
    A.forward(job.params, job.gcfg, poly.data.x[0], None)
    assert tracer.nodes == counted


def test_span_stack_unwinds_on_exception():
    tracer = Tracer(A.SPAN_TARGETS, A.TAPE)
    tape = A.ad.Tape()
    with tracer.installed(), A.ad.recording(tape):
        with pytest.raises(ValueError):
            A.tf.attention_head(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)), 4)
        assert tracer._stack == []
    assert tracer.stat("none", "transformer.attention_head").calls == 1


def test_step_clock_stamps_once_per_step(poly):
    job = poly.train_jobs[0]
    job = A.TrainJob(job.label, job.params, job.gcfg,
                     A.training.TrainConfig(steps=3, seed=1, batch_size=2))
    stamps = []
    backward = vars(A.TAPE)["backward"]
    with step_clock(A.TAPE, stamps):
        out = A.train(job, poly.data)
    assert len(stamps) == 3 and len(out.losses) == 3
    assert vars(A.TAPE)["backward"] is backward


class _Generator:
    """Adapter stand-in whose generator returns fixed token lists."""

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def __getattr__(self, name):
        return getattr(A, name)

    def generate(self, params, gcfg, prompt, m_max):
        return next(self.outputs)


def test_generation_checks_count_failures(poly):
    wl = A.Workload(poly.name, poly.data, poly.train_jobs, poly.gen_params,
                    poly.gen_cfg, poly.prompts[:4], 3, False)
    vocab = wl.gen_cfg.model.vocab_size
    outputs = [[5, 6, 7], [5, A.EOS_TOKEN], [5, vocab + 1, 6], [5, 6]]
    bench = run.Bench(_Generator(outputs), wl)
    bench.one_pass("gen")
    assert bench.attempted == 4
    assert bench.failed == 2  # a token outside the vocabulary; short without EOS
