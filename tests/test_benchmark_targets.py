"""The traced benchmark (`perfbench/run.py --trace 1`) wraps each function in
`perfbench/adapter.py`'s SPAN_TARGETS by reading `vars(owner)[attr]`.  A
renamed or deleted target breaks the traced run, so each must be defined
on its owner itself.  The benchmark reaches the package only through the
adapter's operations, so each workload runs them once here, briefly."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ADAPTER = Path(__file__).resolve().parent.parent / "perfbench" / "adapter.py"


def load_adapter():
    spec = importlib.util.spec_from_file_location("perfbench_adapter", ADAPTER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_span_targets_defined_on_their_owners():
    adapter = load_adapter()
    assert adapter.SPAN_TARGETS
    missing = [name for owner, attr, name in adapter.SPAN_TARGETS
               if not callable(vars(owner).get(attr))]
    assert missing == []
    assert callable(vars(adapter.TAPE).get("record"))  # the tracer counts nodes here


def test_adapter_operations_run_on_every_workload():
    # train (2 steps), forward and generate, as perfbench/run.py calls them
    adapter = load_adapter()
    for name in adapter.WORKLOADS:
        wl = adapter.build(name, 1)
        for job in wl.train_jobs:
            out = adapter.train(replace(job, tcfg=replace(job.tcfg, steps=2)), wl.data)
            assert not out.diverged and len(out.losses) == 2, (name, job.label)
            assert np.isfinite(out.losses).all() and set(out.params) == set(job.params)
            logits = adapter.forward(out.params, out.eval_cfg, wl.data.x[0], out.lam)
            assert np.isfinite(logits).all(), (name, job.label)
        tokens = adapter.generate(wl.gen_params, wl.gen_cfg, wl.prompts[0], wl.m_max)
        assert 1 <= len(tokens) <= wl.m_max, name
