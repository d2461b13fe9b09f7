"""Command-line entry point.

Subcommands: props (property suite), demo (worked-example replays),
gen (synthetic datasets), train (experiment from a JSON config),
eval (checkpoint on a dataset).  Exit codes: 0 success, 1 property
failure, 2 config error (also a props filter matching no property),
3 divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DivergenceDetected, InvalidSpec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="graded-transformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_props = sub.add_parser("props", help="run the property suite")
    p_props.add_argument("--filter", default=None, help="substring filter on property names")
    p_props.add_argument("--seed", type=int, default=0)

    sub.add_parser("demo", help="replay the worked examples")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--task", choices=["poly", "hiercopy"], required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--len", type=int, required=True, dest="seq_len")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_train = sub.add_parser("train", help="run an experiment from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="override the output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)

    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:  # props and gen
        sys.stderr.write(f"config error: --seed must be >= 0, not {args.seed}\n")
        return 2

    if args.command == "props":
        from .props import run_props

        results, report = run_props(args.filter, args.seed)
        if not results:
            sys.stderr.write(f"config error: --filter {args.filter!r} matches no property\n")
            return 2
        sys.stdout.write(report)
        return 0 if all(r.passed for r in results) else 1

    if args.command == "demo":
        from .demo import run_demo

        sys.stdout.write(run_demo())
        return 0

    if args.command == "gen":
        from . import tasks

        try:
            task = {"poly": "poly_degree", "hiercopy": "hier_copy"}[args.task]
            ds = tasks.generate(task, args.size, args.seq_len, args.seed)
            tasks.save_dataset(args.out, ds)
        except (ValueError, OSError) as exc:  # OSError: unwritable --out
            sys.stderr.write(f"config error: {exc}\n")
            return 2
        print(f"wrote {args.task} dataset ({ds.size} x {ds.x.shape[1]}) to {args.out}")
        return 0

    if args.command == "train":
        from .harness import ExperimentConfig, run_experiment

        try:
            cfg = ExperimentConfig.from_file(args.config)
            if args.out:
                cfg.out_dir = args.out
            summary = run_experiment(cfg)
        except (ConfigError, InvalidSpec, OSError) as exc:
            # InvalidSpec: bad grading settings; OSError: unwritable output directory
            sys.stderr.write(f"config error: {exc}\n")
            return 2
        except DivergenceDetected as exc:
            sys.stderr.write(f"divergence: {exc}\n")
            return 3
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if args.command == "eval":
        from .harness import evaluate_checkpoint

        try:
            report = evaluate_checkpoint(args.checkpoint, args.data)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"config error: {exc}\n")
            return 2
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
