"""The traced benchmark (`perfbench/run.py --trace 1`) wraps each function in
`perfbench/adapter.py`'s SPAN_TARGETS by reading `vars(owner)[attr]`.  A
renamed or deleted target breaks the traced run, so each must be defined
on its owner itself."""

import importlib.util
import sys
from pathlib import Path

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
