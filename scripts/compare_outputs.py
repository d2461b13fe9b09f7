#!/usr/bin/env python3
"""Dump and compare the outputs of the benchmark workloads of two trees.

Usage, from the root of a checkout:

    python3 scripts/compare_outputs.py dump OUT.npz --seed S
    python3 scripts/compare_outputs.py diff A.npz B.npz

`dump` builds every workload of this tree's `perfbench/adapter.py` at
seed S, trains each of its jobs, and saves the training losses, the final
parameters, the final model and head grades (as arrays, so a tree that
keeps the head grades as a list of per-head tuples and one that keeps
them as one (h, d_k) array compare alike), the eval logits of the first
32 dataset sequences under each trained model and the greedy tokens of
every generation prompt.  It also
saves the tree's two text outputs: the `graded-transformer demo` output
and the `graded-transformer props --seed 0` report.  Run it with BLAS
held to one thread (it sets OPENBLAS_NUM_THREADS and friends before numpy
loads, as perfbench/run.py does) in each tree to compare; to compare
with a tree whose script predates the text outputs or the grades, copy
this script into that tree first.

`diff` prints, per workload, the largest relative difference of the
losses, the parameters, the logits and the grades, each array's largest
|a - b| over its largest |b|, and whether the tokens match; then whether
each text output is identical.  It exits 1 when the dumps hold different arrays or
shapes, a token or a text output differs, or a relative difference
exceeds 1e-13.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

TOLERANCE = 1e-13
EVAL_SEQUENCES = 32
KINDS = ("losses", "params", "logits", "grades")
TEXTS = {"demo": "demo", "props": "props --seed 0"}  # key: the CLI command it records


def dump(out: str, seed: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import adapter

    arrays = {}
    for name in adapter.WORKLOADS:
        wl = adapter.build(name, seed)
        for job in wl.train_jobs:
            res = adapter.train(job, wl.data)
            arrays[f"{name}/losses/{job.label}"] = np.asarray(res.losses)
            for pname, value in res.params.items():
                arrays[f"{name}/params/{job.label}/{pname}"] = value
            arrays[f"{name}/grades/{job.label}/model"] = np.asarray(res.eval_cfg.grades)
            arrays[f"{name}/grades/{job.label}/heads"] = np.asarray(res.eval_cfg.head_grades)
            arrays[f"{name}/logits/{job.label}"] = np.stack([
                adapter.forward(res.params, res.eval_cfg, x, res.lam)
                for x in wl.data.x[:EVAL_SEQUENCES]])
        for i, prompt in enumerate(wl.prompts):
            tokens = adapter.generate(wl.gen_params, wl.gen_cfg, prompt, wl.m_max)
            arrays[f"{name}/tokens/{i}"] = np.asarray(tokens, dtype=np.int64)
    from graded_transformer import demo, props  # from this tree's src, as adapter loads it

    arrays["text/demo"] = np.asarray(demo.run_demo())
    arrays["text/props"] = np.asarray(props.run_props(None, 0)[1])
    np.savez(out, **arrays)


def diff(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if set(a.files) != set(b.files):
        print(f"arrays differ: only in A {sorted(set(a.files) - set(b.files))}, "
              f"only in B {sorted(set(b.files) - set(a.files))}")
        return 1
    worst: dict = {}
    tokens_equal: dict = {}
    texts_equal = {name: str(a[f"text/{name}"]) == str(b[f"text/{name}"]) for name in TEXTS}
    for key in sorted(a.files):  # workload/kind/..., or text/name
        workload, kind = key.split("/")[:2]
        if workload == "text":
            continue
        if kind == "tokens":
            tokens_equal[workload] = tokens_equal.get(workload, True) and \
                np.array_equal(a[key], b[key])
            continue
        x, y = a[key], b[key]
        if x.shape != y.shape:
            print(f"{key}: shape {x.shape} vs {y.shape}")
            return 1
        peak = float(np.abs(y).max()) if y.size else 0.0
        dev = float(np.abs(x - y).max()) if y.size else 0.0
        rel = dev / peak if peak else (0.0 if dev == 0.0 else np.inf)
        worst.setdefault(workload, dict.fromkeys(KINDS, 0.0))
        worst[workload][kind] = max(worst[workload][kind], rel)
    failed = False
    print(f"{'workload':14s} " + " ".join(f"{k:>10s}" for k in KINDS) + "  tokens")
    for workload in sorted(set(worst) | set(tokens_equal)):
        rels = worst.get(workload, dict.fromkeys(KINDS, 0.0))
        same = tokens_equal.get(workload, True)
        failed |= not same or any(r > TOLERANCE for r in rels.values())
        print(f"{workload:14s} " + " ".join(f"{rels[k]:10.2e}" for k in KINDS)
              + f"  {'identical' if same else 'DIFFER'}")
    for name, command in TEXTS.items():
        failed |= not texts_equal[name]
        print(f"graded-transformer {command}: {'identical' if texts_equal[name] else 'DIFFER'}")
    print(f"{'FAIL' if failed else 'PASS'} (tolerance {TOLERANCE:.0e} relative to each "
          "array's peak; tokens and text outputs must match)")
    return int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="save this tree's workload outputs")
    p_dump.add_argument("out")
    p_dump.add_argument("--seed", type=int, required=True)
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.seed)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
