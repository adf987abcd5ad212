"""Smoke run of the benchmark: the small gallery passes every output check.

The small gallery (300 samples) spans several scoring blocks, so the
benchmark's independent reference scorer and its ranking and recall checks
cover blocked evaluation end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_gallery_eval_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gallery-eval", "--small",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
