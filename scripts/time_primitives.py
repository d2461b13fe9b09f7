#!/usr/bin/env python3
"""Microseconds per call of the hot tape primitives, beside their numpy bodies.

Usage, from the root of a checkout:

    python3 scripts/time_primitives.py [--repeats 40] [--number 200]

Two shapes, each at the `wide_lgt` benchmark model (d = 32, 4 heads,
d_ff = 128):

- `decode`: values-only calls on one row, as a greedy decode step makes
  them (constants only, nothing records); attention has one query and 8
  cached keys, and `RowBuffer.append` is timed as 8 one-row appends to a
  new buffer, per append.
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

The `train` rows depend on the allocator's history as well as on the
code: their temporaries are 128 KB and more, and one the C allocator
serves from pages it has returned to the system costs a page fault per
4 KB page on first touch.  Compare them between trees only with care.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from functools import lru_cache  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graded_transformer import autodiff as ad  # noqa: E402
from graded_transformer import graded  # noqa: E402
from graded_transformer import transformer as tf  # noqa: E402

D, HEADS, D_FF, EPS = 32, 4, 128, 1e-5
KEYS = 8  # cached rows a decode-step query attends to
BATCH, SEQ = 16, 32  # the training shape: BATCH sequences of SEQ rows


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


def attention_body(q, k, v, n_q, n_k):
    b = q.shape[0] // n_q
    dk = q.shape[1] // HEADS
    qt = q.reshape(b, n_q, HEADS, dk).transpose(0, 2, 3, 1)
    kb = k.reshape(b, n_k, HEADS, dk).transpose(0, 2, 1, 3)
    vb = v.reshape(b, n_k, HEADS, dk).transpose(0, 2, 1, 3)
    s = kb @ qt
    s *= 1.0 / math.sqrt(dk)
    s -= np.maximum.reduce(s, axis=-2, keepdims=True)
    np.exp(s, out=s)
    s /= _ones_row(n_k) @ s
    return (s.transpose(0, 1, 3, 2) @ vb).transpose(0, 2, 1, 3).reshape(q.shape[0], -1), s, qt, kb, vb


def attention_body_backward(q, k, v, n_q, n_k, up):
    out, p, qt, kb, vb = attention_body(q, k, v, n_q, n_k)
    b, dk = q.shape[0] // n_q, q.shape[1] // HEADS
    gt = up.reshape(b, n_q, HEADS, dk).transpose(0, 2, 3, 1)
    ds = vb @ gt
    ds -= _ones_row(n_k) @ (ds * p)
    ds *= p
    ds *= 1.0 / math.sqrt(dk)

    def merge(x, n):
        return x.transpose(0, 2, 1, 3).reshape(b * n, -1)

    return (out, merge(ds.transpose(0, 1, 3, 2) @ kb, n_q),
            merge(ds @ qt.transpose(0, 1, 3, 2), n_k), merge(p @ gt.transpose(0, 1, 3, 2), n_k))


def ffn_body(x, w1, b1, w2, b2):
    h = x @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2
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
    kc, vc = normal(KEYS, D), normal(KEYS, D)
    xn, rn, wn, kn, vn = (ad.Tape.constant(a) for a in (x, r, w, kc, vc))
    gn, bn = ad.Tape.constant(g), ad.Tape.constant(b)
    w1n, b1n, w2n, b2n = (ad.Tape.constant(a) for a in (w1, b1, w2, b2))
    out["decode matmul"] = (lambda: ad.matmul(xn, wn), lambda: x @ w, 1)
    out["decode layer_norm_rows"] = (lambda: ad.layer_norm_rows(xn, rn, gn, bn, EPS),
                                     lambda: ln_body(x, r, g, b, col), 1)
    out["decode attention_rows"] = (lambda: ad.attention_rows(xn, kn, vn, 1, KEYS, heads=HEADS),
                                    lambda: attention_body(x, kc, vc, 1, KEYS), 1)
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
        out[f"{name} weight_nodes"] = lambda g=gcfg: graded.weight_nodes(g, None, None)
        out[f"{name} graded_positional_matrix"] = \
            lambda g=gcfg, n=n: graded.graded_positional_matrix(n, g, None)
        out[f"{name} check_tokens"] = lambda g=gcfg, x=prompt: tf.check_tokens(x, g.model)
        out[f"{name} as_nodes"] = lambda p=params, t=tape: tf.as_nodes(p, t, trainable=False)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args()
    table = cases(np.random.default_rng(0))
    per_forward = forward_cases()
    timed = {**{(name, side): fn for name, (op, body, _) in table.items()
                for side, fn in ((0, op), (1, body))},
             **{(name, 0): fn for name, fn in per_forward.items()}}
    best = dict.fromkeys(timed, math.inf)
    for _ in range(args.repeats):
        for key, fn in timed.items():
            t0 = perf_counter()
            for _ in range(args.number):
                fn()
            best[key] = min(best[key], perf_counter() - t0)
    print(f"{'case':28s} {'primitive us':>13s} {'numpy us':>9s} {'ratio':>6s}")
    for name, (_, _, per) in table.items():
        prim, body = (best[name, side] / args.number / per * 1e6 for side in (0, 1))
        print(f"{name:28s} {prim:13.2f} {body:9.2f} {prim / body:6.2f}")
    print(f"\n{'forward part':40s} {'us':>9s} {'share':>6s}")
    for name in per_forward:
        us = best[name, 0] / args.number * 1e6
        whole = best[f"{name.split()[0]} forward", 0] / args.number * 1e6
        print(f"{name:40s} {us:9.2f} {us / whole:6.1%}")
    print(f"numpy {np.__version__}, {os.cpu_count()} cores, fastest of {args.repeats} "
          f"interleaved rounds of {args.number} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
