"""The scripts under scripts/ call package functions by name and signature,
so a change to one breaks a script only when the script runs: each runs
here once, briefly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_time_primitives_runs():
    # one round of one call per case, the forward section's weight_nodes
    # and graded_positional_matrix calls included
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_primitives.py"), "--section",
         "primitives", "--repeats", "1", "--number", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "wide_lgt weight_nodes" in proc.stdout


def test_time_primitives_step_section_runs():
    # every benchmark workload's training jobs, with each recorded VJP clocked
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_primitives.py"), "--section", "step"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("minor faults per step, process peak RSS") == 3
