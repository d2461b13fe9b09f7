#!/usr/bin/env python3
"""Microseconds per call of the hot tape primitives, beside their numpy bodies.

Usage, from the root of a checkout:

    python3 scripts/time_primitives.py [--repeats 40] [--number 200]
        [--section all|primitives|step]

Two shapes, each at the `wide_lgt` benchmark model (d = 32, 4 heads,
d_ff = 128):

- `decode`: values-only calls on one row, as a greedy decode step makes
  them (constants only, nothing records).  The step's self-attention is
  `shared_kv_attention`, one query row of 4 heads over 8 shared d-wide
  rows, and its cross-attention softmax is `softmax_groups` over 4
  groups of 8 scores; `RowBuffer.append` is timed as 8 one-row appends
  to a new buffer, per append.
- `train`: live calls at the training shape, 16 sequences of 32 rows
  (512 rows) with every input a parameter leaf: the forward call, which
  records its node, and then each of its VJPs once.

A third section, `forward`, times the values-only work of one eval
forward at each benchmark model (the generation model and prompts that
`perfbench/adapter.py` builds at seed 1, with the config's own base): the
whole forward as the benchmark's eval makes it (`adapter.forward`: a new
tape, the parameter wrap and `graded.forward_nodes`), and the parts of it
that depend on the grading or on the prompt alone, namely
`graded.weight_nodes`, `graded.graded_positional_matrix`,
`transformer.check_tokens` and `transformer.as_nodes` (the one
parameter wrap each forward or request makes).  Each row gives
microseconds per call and that as a share of the forward.

Beside each primitive runs its bare numpy body: the same arithmetic on
plain arrays, with no nodes, checks or closures.  The ratio is the
primitive's cost over its body.  Every timing is the fastest of
`--repeats` rounds of `--number` calls; the rounds interleave all cases,
so a slow spell on a shared machine hits every case alike.  BLAS runs on
one thread.

A last section, `step`, times inside real training: it runs the
training jobs that `perfbench/adapter.py` builds for every benchmark
workload at seed 1, STEP_ROUNDS times each, with every tape primitive
and the two training loss nodes wrapped in a clock, and so every VJP they
hand to `ad.record`.  Per kind it prints the calls, forward and VJP
milliseconds per training step and their share of the step, and then the
rest of the step: tape set-up, the backward sweep's own loop, clipping and
Adam.  Each figure is the fastest of the rounds; the step time includes
the clocks' own cost, about a microsecond per call.  The header gives the
step's minor page faults (`ru_minflt`) and the process's peak resident
set so far (`ru_maxrss`), which grows over the workloads in their order.

The `train` rows' temporaries are 128 KB and more.  Importing the
package pins glibc's allocator to keep freed pages mapped (see the
`autodiff` module docstring), so after the first round each temporary
reuses pages already touched and costs no page fault.  Where the C
library has no `mallopt`, a temporary served from pages returned to the
system costs a fault per 4 KB page on first touch, and the rows depend
on the allocator's history as well as on the code.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from functools import lru_cache  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graded_transformer import autodiff as ad  # noqa: E402
from graded_transformer import graded, training  # noqa: E402
from graded_transformer import transformer as tf  # noqa: E402

D, HEADS, D_FF, EPS = 32, 4, 128, 1e-5
KEYS = 8  # cached rows a decode-step query attends to
BATCH, SEQ = 16, 32  # the training shape: BATCH sequences of SEQ rows
STEP_ROUNDS = 3  # training runs per workload in the step section


@lru_cache(maxsize=None)
def _ones_row(n):
    return np.ones((1, n))


# ---------------------------------------------------------------------------
# numpy bodies


def ln_body(x, r, g, b, col):
    z = x + r
    z -= z.dot(col)
    inv = np.power((z * z).dot(col) + EPS, -0.5)
    z *= inv
    z *= g
    z += b
    return z


def ln_body_backward(x, r, g, b, col, up):
    z = x + r
    z -= z.dot(col)
    inv = np.power((z * z).dot(col) + EPS, -0.5)
    z *= inv
    out = z * g
    out += b
    gh = up * g
    dz = gh - gh.dot(col)
    gh *= z
    dz -= z * gh.dot(col)
    dz *= inv
    ones = _ones_row(up.shape[0])
    return out, dz, dz.copy(), ones @ (up * z), ones @ up


def key_major(x, y, b, n_k, n_q):
    """x @ y, (B, heads, n_k, n_q); for B > 1 in the primitive's own
    keys-outermost score buffer (ad._key_outer)."""
    if b == 1:
        return x @ y
    return np.matmul(x, y, out=ad._key_outer(b, x.shape[1], n_k, n_q))


def attention_body(q, k, v, n_q, n_k):
    b = q.shape[0] // n_q
    dk = q.shape[1] // HEADS
    qt = q.reshape(b, n_q, HEADS, dk).transpose(0, 2, 3, 1)
    kb = k.reshape(b, n_k, HEADS, dk).transpose(0, 2, 1, 3)
    vb = v.reshape(b, n_k, HEADS, dk).transpose(0, 2, 1, 3)
    s = key_major(kb, qt, b, n_k, n_q)
    s *= 1.0 / math.sqrt(dk)
    s -= np.maximum.reduce(s, axis=-2, keepdims=True)
    np.exp(s, out=s)
    s /= _ones_row(n_k) @ s
    return ad._product_rows(s.transpose(0, 1, 3, 2), vb, b, n_q), s, qt, kb, vb


def attention_body_backward(q, k, v, n_q, n_k, up):
    out, p, qt, kb, vb = attention_body(q, k, v, n_q, n_k)
    b, dk = q.shape[0] // n_q, q.shape[1] // HEADS
    gt = up.reshape(b, n_q, HEADS, dk).transpose(0, 2, 3, 1)
    ds = key_major(vb, gt, b, n_k, n_q)
    ds -= _ones_row(n_k) @ (ds * p)
    ds *= p
    ds *= 1.0 / math.sqrt(dk)
    return (out, ad._product_rows(ds.transpose(0, 1, 3, 2), kb, b, n_q),
            ad._product_rows(ds, qt.transpose(0, 1, 3, 2), b, n_k),
            ad._product_rows(p, gt.transpose(0, 1, 3, 2), b, n_k))


def row_softmax(s):
    """softmax_rows along the rows of s, in place."""
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s @ _ones_row(s.shape[1]).T
    return s


def shared_kv_body(q, kv):
    p = row_softmax(q.reshape(-1, kv.shape[1]).dot(kv.T))
    return p.dot(kv).reshape(q.shape)


def softmax_groups_body(x, groups):
    return row_softmax(x.reshape(-1, x.shape[1] // groups).copy()).reshape(x.shape)


def ffn_body(x, w1, b1, w2, b2):  # one row, as a decode step: ndarray.dot
    h = x.dot(w1)
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h.dot(w2)
    out += b2
    return out


def ffn_body_backward(x, w1, b1, w2, b2, up):
    h = x @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2
    out += b2
    gh = up @ w2.T
    gh *= h > 0
    ones = _ones_row(x.shape[0])
    return out, gh @ w1.T, x.T @ gh, ones @ gh, h.T @ up, ones @ up


def append_body(rows):
    data = np.empty((ad.RowBuffer.FIRST_ROWS, rows[0].shape[1]))
    for n, row in enumerate(rows):
        data[n:n + 1] = row
        data[:n + 1]


# ---------------------------------------------------------------------------
# cases: name -> (primitive call, numpy body, calls per timed call)


def live_call(op, values, up):
    """op on parameter leaves of a new tape, then each VJP of its node once."""
    tape = ad.Tape()
    with ad.recording(tape):
        node = op(*[tape.param(str(i), v) for i, v in enumerate(values)])
    for vjp in node.vjps:
        vjp(up)


def cases(rng):
    def normal(*shape):
        return rng.normal(0.0, 1.0, shape)

    w, w1, w2 = normal(D, D) / math.sqrt(D), normal(D, D_FF) / math.sqrt(D), normal(D_FF, D)
    b1, b2 = normal(1, D_FF), normal(1, D)
    g, b = rng.uniform(0.5, 1.5, (1, D)), normal(1, D)
    col = np.full((D, 1), 1.0 / D)
    out = {}

    # decode: values-only, one row
    x, r = normal(1, D), normal(1, D)
    kc = normal(KEYS, D)
    xn, rn, wn, kn = (ad.Tape.constant(a) for a in (x, r, w, kc))
    gn, bn = ad.Tape.constant(g), ad.Tape.constant(b)
    w1n, b1n, w2n, b2n = (ad.Tape.constant(a) for a in (w1, b1, w2, b2))
    out["decode matmul"] = (lambda: ad.matmul(xn, wn), lambda: x.dot(w), 1)
    out["decode layer_norm_rows"] = (lambda: ad.layer_norm_rows(xn, rn, gn, bn, EPS),
                                     lambda: ln_body(x, r, g, b, col), 1)
    qs, ss = normal(1, HEADS * D), normal(1, HEADS * KEYS)
    qsn, ssn = ad.Tape.constant(qs), ad.Tape.constant(ss)
    out["decode shared_kv_attention"] = (lambda: ad.shared_kv_attention(qsn, kn, HEADS),
                                         lambda: shared_kv_body(qs, kc), 1)
    out["decode softmax_groups"] = (lambda: ad.softmax_groups(ssn, HEADS),
                                    lambda: softmax_groups_body(ss, HEADS), 1)
    out["decode feed_forward_rows"] = (lambda: ad.feed_forward_rows(xn, w1n, b1n, w2n, b2n),
                                       lambda: ffn_body(x, w1, b1, w2, b2), 1)
    rows = [normal(1, D) for _ in range(KEYS)]
    row_nodes = [ad.Tape.constant(a) for a in rows]

    def appends():
        buf = ad.RowBuffer()
        for row in row_nodes:
            buf.append(row)

    out["decode RowBuffer.append"] = (appends, lambda: append_body(rows), KEYS)

    # train: live, 512 rows
    n = BATCH * SEQ
    xt, rt, kt, vt, up = (normal(n, D) for _ in range(5))
    out["train matmul"] = (lambda: live_call(ad.matmul, (xt, w), up),
                           lambda: (xt @ w, up @ w.T, xt.T @ up), 1)
    out["train layer_norm_rows"] = (
        lambda: live_call(lambda *a: ad.layer_norm_rows(*a, EPS), (xt, rt, g, b), up),
        lambda: ln_body_backward(xt, rt, g, b, col, up), 1)
    out["train attention_rows"] = (
        lambda: live_call(lambda *a: ad.attention_rows(*a, SEQ, SEQ, heads=HEADS),
                          (xt, kt, vt), up),
        lambda: attention_body_backward(xt, kt, vt, SEQ, SEQ, up), 1)
    out["train feed_forward_rows"] = (
        lambda: live_call(ad.feed_forward_rows, (xt, w1, b1, w2, b2), up),
        lambda: ffn_body_backward(xt, w1, b1, w2, b2, up), 1)
    return out


def forward_cases():
    """name -> call, the forward and its parts at each benchmark model."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import adapter

    out = {}
    for name in adapter.WORKLOADS:
        wl = adapter.build(name, 1)
        params, gcfg, prompt = wl.gen_params, wl.gen_cfg, wl.prompts[0]
        n = len(prompt)
        tape = ad.Tape()
        out[f"{name} forward"] = lambda p=params, g=gcfg, x=prompt: adapter.forward(p, g, x, None)
        out[f"{name} weight_nodes"] = lambda g=gcfg: graded.weight_nodes(g)
        out[f"{name} graded_positional_matrix"] = \
            lambda g=gcfg, n=n: graded.graded_positional_matrix(n, g)
        out[f"{name} check_tokens"] = lambda g=gcfg, x=prompt: tf.check_tokens(x, g.model)
        out[f"{name} as_nodes"] = lambda p=params, t=tape: tf.as_nodes(p, t, trainable=False)
    return out


# ---------------------------------------------------------------------------
# step: per-kind time inside real training steps

# the tape primitives of a training step and the training loss nodes; none
# calls another, so each forward time is the kind's own
STEP_KINDS = [(ad, name) for name in (
    "add", "mul", "scale", "add_rowvec", "scale_cols", "matmul", "transpose", "exp",
    "affine", "sum_all", "attention_rows", "normalize_rows", "layer_norm_rows",
    "feed_forward_rows", "embedding_rows")] + [
    (training, "sequence_loss_node"), (training, "regularizer_node")]


class StepTimer:
    """Wraps each kind's function, and every VJP it hands to `ad.record`,
    with a clock; a node recorded outside the wrapped kinds counts as
    "other"."""

    def __init__(self):
        self.forward, self.vjps, self.calls = {}, {}, {}
        self.current = []

    def reset(self):
        for table in (self.forward, self.vjps, self.calls):
            table.clear()

    def timed(self, kind, fn):
        def call(*args, **kwargs):
            self.current.append(kind)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.forward[kind] = self.forward.get(kind, 0.0) + perf_counter() - t0
                self.calls[kind] = self.calls.get(kind, 0) + 1
                self.current.pop()
        return call

    def timed_vjp(self, kind, vjp):
        def call(g):
            t0 = perf_counter()
            try:
                return vjp(g)
            finally:
                self.vjps[kind] = self.vjps.get(kind, 0.0) + perf_counter() - t0
        return call

    def install(self):
        """Patch the module attributes; returns the undo list."""
        record = ad.record
        undo = [(ad, "record", record)] + [(m, n, getattr(m, n)) for m, n in STEP_KINDS]

        def timed_record(value, parents, vjps, memo=None):
            kind = self.current[-1] if self.current else "other"
            return record(value, parents, tuple(self.timed_vjp(kind, f) for f in vjps), memo)

        ad.record = timed_record
        for module, name in STEP_KINDS:
            setattr(module, name, self.timed(name, getattr(module, name)))
        return undo


def step_tables():
    """workload -> (step ms, minor faults per step, process peak RSS MB,
    {kind: (calls, forward ms, VJP ms)} per step), each training job of the
    workload, built at seed 1, run STEP_ROUNDS times; per kind and for the
    step, the fastest round."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import adapter

    timer = StepTimer()
    undo = timer.install()
    out = {}
    try:
        for name in adapter.WORKLOADS:
            wl = adapter.build(name, 1)
            steps = sum(job.tcfg.steps for job in wl.train_jobs)
            best_step, best_faults, kinds = math.inf, math.inf, {}
            for _ in range(STEP_ROUNDS):
                timer.reset()
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = perf_counter()
                for job in wl.train_jobs:
                    adapter.train(job, wl.data)
                best_step = min(best_step, (perf_counter() - t0) / steps * 1e3)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                best_faults = min(best_faults, faults / steps)
                for kind in timer.calls.keys() | timer.vjps.keys():
                    calls, fwd, back = kinds.get(kind, (0, math.inf, math.inf))
                    kinds[kind] = (timer.calls.get(kind, 0) / steps,
                                   min(fwd, timer.forward.get(kind, 0.0) / steps * 1e3),
                                   min(back, timer.vjps.get(kind, 0.0) / steps * 1e3))
            out[name] = (best_step, best_faults, peak_rss_mb(), kinds)
    finally:
        for module, name, fn in undo:
            setattr(module, name, fn)
    return out


def peak_rss_mb():
    """The process's peak resident set so far in MB of 2**20 bytes, as
    `perfbench/run.py` reports it (ru_maxrss counts bytes on macOS, KB
    elsewhere)."""
    unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def print_step():
    for name, (step, faults, rss, kinds) in step_tables().items():
        print(f"\nstep: {name}, seed 1: {step:.3f} ms per step (clocks included), "
              f"{faults:.1f} minor faults per step, process peak RSS {rss:.1f} MB; "
              f"fastest of {STEP_ROUNDS} runs")
        print(f"{'kind':20s} {'calls':>6s} {'forward ms':>11s} {'VJP ms':>8s} {'share':>6s}")
        timed = 0.0
        for kind, (calls, fwd, back) in sorted(kinds.items(), key=lambda kv: -sum(kv[1][1:])):
            timed += fwd + back
            print(f"{kind:20s} {calls:6.1f} {fwd:11.3f} {back:8.3f} {(fwd + back) / step:6.1%}")
        rest = step - timed  # tape set-up, the backward sweep, clipping, Adam
        print(f"{'rest of the step':20s} {'':6s} {rest:11.3f} {'':8s} {rest / step:6.1%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--number", type=int, default=200)
    parser.add_argument("--section", choices=("all", "primitives", "step"), default="all",
                        help="primitives: the decode, train and forward tables")
    args = parser.parse_args()
    if args.section in ("all", "primitives"):
        print_primitives(args.repeats, args.number)
    if args.section in ("all", "step"):
        print_step()
    return 0


def print_primitives(repeats, number):
    table = cases(np.random.default_rng(0))
    per_forward = forward_cases()
    timed = {**{(name, side): fn for name, (op, body, _) in table.items()
                for side, fn in ((0, op), (1, body))},
             **{(name, 0): fn for name, fn in per_forward.items()}}
    best = dict.fromkeys(timed, math.inf)
    for _ in range(repeats):
        for key, fn in timed.items():
            t0 = perf_counter()
            for _ in range(number):
                fn()
            best[key] = min(best[key], perf_counter() - t0)
    print(f"{'case':28s} {'primitive us':>13s} {'numpy us':>9s} {'ratio':>6s}")
    for name, (_, _, per) in table.items():
        prim, body = (best[name, side] / number / per * 1e6 for side in (0, 1))
        print(f"{name:28s} {prim:13.2f} {body:9.2f} {prim / body:6.2f}")
    print(f"\n{'forward part':40s} {'us':>9s} {'share':>6s}")
    for name in per_forward:
        us = best[name, 0] / number * 1e6
        whole = best[f"{name.split()[0]} forward", 0] / number * 1e6
        print(f"{name:40s} {us:9.2f} {us / whole:6.1%}")
    print(f"numpy {np.__version__}, {os.cpu_count()} cores, fastest of {repeats} "
          f"interleaved rounds of {number} calls")


if __name__ == "__main__":
    sys.exit(main())
