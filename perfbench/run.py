#!/usr/bin/env python3
"""Benchmark of the graded transformer: training, evaluation and generation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload poly_smoke --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop: one caller, one step,
sequence or request at a time.  `--trace 0` prints the end-to-end
metrics; `--trace 1` runs the same phases under the outside-in tracer
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the line before it records the environment, the checks and
digests of the loss trajectory and of the generated tokens.
`--workload all` runs every workload in its own child process, one after
the other, and prints a table.  See perfbench/README.md.
"""

import os

# BLAS threads are fixed before numpy is imported, the same on every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, step_clock  # noqa: E402

WORKLOADS = ("poly_smoke", "hiercopy_egt", "wide_lgt")
PHASES = ("train", "eval", "gen")
# Share of the run each phase gets.
SHARES = {"train": 0.5, "eval": 0.2, "gen": 0.3}
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 110
# train_loss_ratio compares the mean loss of the last and the first steps
# of a training run: the loss of a single batch varies too much by seed.
LOSS_WINDOW = 20
# setup_s is the fastest of many set-up probes, each a fresh process that
# builds the workload: SETUP_PROBES_AROUND before and after the measured
# loop, and one after any pass that ends PROBE_EVERY_S or more after the
# last probe.  Spread over the whole run, the probes catch the machine's
# quiet spells as the operation minima do.
SETUP_PROBES_AROUND = 4
PROBE_EVERY_S = 2.0

# The metrics BENCHMARK.json bounds.  Operation times are minima: on a
# machine shared with other tenants an operation runs at one of two speeds,
# and the share of time at the slower one drifts over minutes, which moves
# medians between runs far more than minima (see README.md).
END_TO_END = {
    "setup_s": "s",
    "train_step_ms_min": "ms",
    "train_loss_ratio": "ratio",
    "eval_seq_ms_min": "ms",
    "gen_request_ms_min": "ms",
    "peak_rss_mb": "MB",
}
# Reported in the record line only: what a user of this machine sees.
OBSERVED = {
    "train_seq_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p90": "ms",
    "eval_seq_per_s": "1/s",
    "gen_tokens_per_s": "1/s",
    "gen_request_ms_p50": "ms",
    "gen_request_ms_p90": "ms",
    "failed_ops_share": "ratio",
}

# Spans reported per phase; values are per step (train), per sequence
# (eval) or per generated token (gen).
MODEL_SPANS = ["graded.forward_nodes", "graded.weight_nodes",
               "graded.graded_positional_matrix", "transformer.as_nodes",
               "transformer.encoder", "transformer.multi_head",
               "transformer.attention_head", "transformer.feed_forward",
               "transformer.layer_norm"]
PHASE_SPANS = {
    "train": ["training.train", "training.sequence_loss_node",
              "training.regularizer_node", "training.clip_gradient",
              "training.adam_step", "autodiff.backward", *MODEL_SPANS],
    "eval": MODEL_SPANS,
    "gen": ["graded.graded_generate", *MODEL_SPANS, "transformer.decoder",
            "transformer.positional_matrix"],
}
# Functions a caching change would call less often.
CALL_COUNTED = {"graded.weight_nodes", "graded.graded_positional_matrix",
                "transformer.positional_matrix", "transformer.layer_norm"}


def per_layer_units() -> dict:
    units = {}
    for phase, spans in PHASE_SPANS.items():
        units[f"{phase}.autodiff.nodes"] = "count"
        for name in spans:
            units[f"{phase}.{name}.self_ms"] = "ms"
            units[f"{phase}.{name}.nodes"] = "count"
            if name in CALL_COUNTED:
                units[f"{phase}.{name}.calls"] = "count"
    units["trace.overhead_pct"] = "%"
    units["trace.unattributed_pct"] = "%"
    return units


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


class Bench:
    """One workload in one process: passes, output checks and tallies.

    A pass is fixed work: one `training.train` call per training job, a
    forward pass over every sequence of the dataset for each trained
    model, or one request per prompt.  Repeated passes must give the
    same losses and tokens as the first one.
    """

    def __init__(self, ad, wl):
        self.ad = ad
        self.wl = wl
        self.stamps = None  # step-clock readings, untraced runs only
        self.setup_probe = None  # times one set-up; untraced runs only
        self.setup_samples = []
        self.last_probe = 0.0
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.errors = []
        self.outcomes = None
        self.first_losses = None
        self.first_tokens = None
        self.step_ms = {job.label: [] for job in wl.train_jobs}
        self.eval_ms_min = {}  # fastest sequence per trained model
        self.req_ms = []
        self.counts = {"train": 0, "eval": 0, "gen": 0, "gen_requests": 0}
        # Operations per second inside the timed calls: per training run,
        # per evaluation pass and per generation pass.
        self.rates = {phase: [] for phase in PHASES}
        self.pass_s = dict.fromkeys(PHASES, 0.0)  # whole passes

    def _check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def run(self, seconds):
        """Rounds of one training pass followed by evaluation and generation
        passes for times in proportion to it, until one more round would
        overrun `seconds`.  Interleaving spreads every phase over the whole
        run, so a burst of load on the machine hits all phases alike."""
        steps = sum(job.tcfg.steps - 1 for job in self.wl.train_jobs)
        min_rounds = math.ceil(MIN_SAMPLES / steps)
        start, rounds = perf_counter(), 0
        while True:
            train_s = self.one_pass("train")
            if not self.outcomes:
                return
            for phase in PHASES[1:]:
                budget = train_s * SHARES[phase] / SHARES["train"]
                spent = last = self.one_pass(phase)
                while spent + last <= budget:
                    last = self.one_pass(phase)
                    spent += last
            rounds += 1
            if rounds >= min_rounds and (perf_counter() - start) * (rounds + 1) / rounds > seconds:
                break
        while self.counts["gen_requests"] < MIN_SAMPLES:
            self.one_pass("gen")

    def one_pass(self, phase):
        if self.tracer is not None:
            self.tracer.phase = phase
        start = perf_counter()
        getattr(self, f"_{phase}")()
        dur = perf_counter() - start
        self.pass_s[phase] += dur
        if self.setup_probe and perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe_setup()
        return dur

    def probe_setup(self):
        self.setup_samples.append(self.setup_probe())
        self.last_probe = perf_counter()

    def _train(self):
        outcomes = []
        for job in self.wl.train_jobs:
            steps, batch = job.tcfg.steps, min(job.tcfg.batch_size, self.wl.data.size)
            self.attempted += steps
            if self.stamps is not None:
                self.stamps.clear()
            start = perf_counter()
            try:
                out = self.ad.train(job, self.wl.data)
            except Exception as exc:  # a raising run fails all of its steps
                self.errors.append(f"train {job.label}: {exc!r}")
                self.failed += steps
                self._check("train_runs", False)
                continue
            self.rates["train"].append(len(out.losses) * batch / (perf_counter() - start))
            if self.stamps is not None:
                self.step_ms[job.label] += [1e3 * (b - a)
                                            for a, b in zip(self.stamps, self.stamps[1:])]
            bad = sum(not math.isfinite(x) for x in out.losses)
            self.failed += steps - len(out.losses) + bad
            self._check("train_finite_no_divergence",
                        not out.diverged and not bad and len(out.losses) == steps)
            self.counts["train"] += len(out.losses)
            outcomes.append((job.label, out))
        losses = [out.losses for _, out in outcomes]
        if self.first_losses is None:
            self.first_losses = losses
        self._check("train_repeatable", losses == self.first_losses)
        self.outcomes = outcomes

    def _eval(self):
        data = self.wl.data
        busy, done = 0.0, 0
        for label, out in self.outcomes:
            err = np.zeros(data.y.shape[-1])
            fastest = self.eval_ms_min.get(label, math.inf)
            for x, y in zip(data.x, data.y):
                self.attempted += 1
                start = perf_counter()
                try:
                    logits = self.ad.forward(out.params, out.eval_cfg, x, out.lam)
                except Exception as exc:
                    self.errors.append(f"eval: {exc!r}")
                    self.failed += 1
                    continue
                dur = perf_counter() - start
                busy += dur
                done += 1
                fastest = min(fastest, 1e3 * dur)
                if not math.isfinite(float(logits.sum())):
                    self.failed += 1
                elif self.wl.grade_direction:
                    err += self.ad.per_dim_error(logits, y)
            self.eval_ms_min[label] = fastest
            if self.wl.grade_direction:
                # c15's direction: error concentrates on the low-grade dimensions.
                hi = err[self.ad.POLY_SIGNAL_DIMS].mean()
                lo = err[self.ad.POLY_NOISE_DIMS].mean()
                self._check("poly_high_grade_error_below_low", hi < lo)
        self.counts["eval"] += done
        if done:
            self.rates["eval"].append(done / busy)

    def _gen(self):
        wl = self.wl
        vocab = wl.gen_cfg.model.vocab_size
        tokens, busy = [], 0.0
        for prompt in wl.prompts:
            self.attempted += 1
            self.counts["gen_requests"] += 1
            start = perf_counter()
            try:
                out = self.ad.generate(wl.gen_params, wl.gen_cfg, prompt, wl.m_max)
            except Exception as exc:
                self.errors.append(f"gen: {exc!r}")
                self.failed += 1
                continue
            dur = perf_counter() - start
            busy += dur
            self.req_ms.append(1e3 * dur)
            self.counts["gen"] += len(out)
            tokens.append(out)
            ok = (all(1 <= t <= vocab for t in out) and 1 <= len(out) <= wl.m_max
                  and (len(out) == wl.m_max or out[-1] == self.ad.EOS_TOKEN))
            self.failed += not ok
        if tokens:
            self.rates["gen"].append(sum(map(len, tokens)) / busy)
        if self.first_tokens is None:
            self.first_tokens = tokens
        self._check("gen_repeatable", tokens == self.first_tokens)

    # -- results -----------------------------------------------------------

    def digests(self):
        losses = [f"{x:.10e}" for run in self.first_losses or [] for x in run]
        tokens = [" ".join(map(str, t)) for t in self.first_tokens or []]
        return {"loss_trajectory": _digest(losses), "generated_tokens": _digest(tokens),
                "first_loss": [run[0] for run in self.first_losses or [] if run],
                "last_loss": [run[-1] for run in self.first_losses or [] if run]}

    def end_to_end(self, setup_s):
        """Every bounded metric, or {} when a phase produced no sample."""
        steps = [v for v in self.step_ms.values() if v]
        if not (steps and self.req_ms and self.eval_ms_min):
            return {}
        w = LOSS_WINDOW
        ratio = max(statistics.fmean(run[-w:]) / statistics.fmean(run[:w])
                    for run in self.first_losses)
        return {
            "setup_s": setup_s,
            # Mean over training jobs (the two modes on poly_smoke) and over
            # trained models, so that a change to either one shows.
            "train_step_ms_min": statistics.fmean(map(min, steps)),
            "train_loss_ratio": ratio,
            "eval_seq_ms_min": statistics.fmean(self.eval_ms_min.values()),
            "gen_request_ms_min": min(self.req_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def observed(self):
        steps = [x for v in self.step_ms.values() for x in v]
        out = {"failed_ops_share": self.failed / max(self.attempted, 1)}
        if steps and self.req_ms and self.rates["eval"]:
            out.update({
                "train_seq_per_s": statistics.median(self.rates["train"]),
                "train_step_ms_p50": statistics.median(steps),
                "train_step_ms_p90": _percentile(steps, 90),
                "eval_seq_per_s": statistics.median(self.rates["eval"]),
                "gen_tokens_per_s": statistics.median(self.rates["gen"]),
                "gen_request_ms_p50": statistics.median(self.req_ms),
                "gen_request_ms_p90": _percentile(self.req_ms, 90),
            })
        return {k: {"value": v, "unit": OBSERVED[k]} for k, v in out.items()}


def time_setup(workload, seed):
    """Seconds from the start of a fresh process to the workload built."""
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, __file__, "--probe-setup", "--workload", workload,
             "--seed", str(seed)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return elapsed


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "seed": seed}


def run_untraced(ad, workload, seed, seconds):
    bench = Bench(ad, ad.build(workload, seed))
    bench.setup_probe = lambda: time_setup(workload, seed)
    bench.stamps = []
    for _ in range(SETUP_PROBES_AROUND):
        bench.probe_setup()
    with step_clock(ad.TAPE, bench.stamps):
        bench.run(seconds)
    for _ in range(SETUP_PROBES_AROUND):
        bench.probe_setup()
    metrics = bench.end_to_end(min(bench.setup_samples))
    return bench, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(ad, wl, seconds):
    bench = Bench(ad, wl)
    # Reference for the overhead: one untraced pass of each phase.
    start = perf_counter()
    for phase in PHASES:
        bench.one_pass(phase)
    ref_s, ref_ops = dict(bench.pass_s), {p: bench.counts[p] for p in PHASES}
    bench.tracer = tracer = Tracer(ad.SPAN_TARGETS, ad.TAPE)
    with tracer.installed():
        bench.run(seconds - (perf_counter() - start))
    wall = {p: bench.pass_s[p] - ref_s[p] for p in PHASES}
    ops = {p: bench.counts[p] - ref_ops[p] for p in PHASES}
    metrics = {}
    for phase, spans in PHASE_SPANS.items():
        n = max(ops[phase], 1)
        metrics[f"{phase}.autodiff.nodes"] = tracer.nodes.get(phase, 0) / n
        for name in spans:
            s = tracer.stat(phase, name)
            metrics[f"{phase}.{name}.self_ms"] = 1e3 * s.self_s / n
            metrics[f"{phase}.{name}.nodes"] = s.nodes / n
            if name in CALL_COUNTED:
                metrics[f"{phase}.{name}.calls"] = s.calls / n
    # Traced time per operation, applied to the reference passes' operations.
    traced_s = sum(wall[p] / max(ops[p], 1) * ref_ops[p] for p in PHASES)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / sum(ref_s.values()) - 1.0)
    covered = sum(tracer.covered_s(p) for p in PHASES)
    metrics["trace.unattributed_pct"] = 100.0 * (1.0 - covered / sum(wall.values()))
    units = per_layer_units()
    return bench, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_all(args):
    """Each workload in its own child process, one after the other."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        observed = json.loads(lines[-2])["info"]["observed"]
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in {**result["metrics"], **observed}.items():
            rows.append((name, key, m["value"], m["unit"]))
    for name, key, value, unit in rows:
        print(f"  {name:<13} {key:<48} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        import adapter as ad
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        ad.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        bench, metrics = run_traced(ad, ad.build(args.workload, args.seed), args.seconds)
    else:
        bench, metrics = run_untraced(ad, args.workload, args.seed, args.seconds)
    correct = bench.failed == 0 and all(bench.checks.values()) and bool(metrics)
    info = {"workload": args.workload, "trace": args.trace,
            "env": environment(args.seed), "checks": bench.checks,
            "observed": bench.observed(),
            "setup_samples_s": bench.setup_samples,
            "counts": bench.counts, "digests": bench.digests(),
            "errors": bench.errors[:5]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
