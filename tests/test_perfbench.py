"""Smoke runs of the benchmark: each small workload passes every output check.

The small gallery (300 samples) spans several scoring blocks, so the
benchmark's independent reference scorer and its ranking and recall checks
cover blocked evaluation end to end; the small caption lookup covers
``rank_gallery`` the same way. The small training run checks tape
gradients against central differences through the full model, so every
tape primitive of a training step is covered end to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_small(workload, *options):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--small",
         "--seconds", "1", *options],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    *_, notes, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0
    # importing fpmine pins numpy's BLAS, whatever the environment asks for
    assert json.loads(notes.split(" ", 3)[3])["blas_threads"] == 1


def test_small_gallery_eval_is_correct():
    run_small("gallery-eval")


def test_small_train_is_correct():
    run_small("train")


def test_small_traced_train_is_correct():
    # the tracer wraps numerics ops and Model methods by name: a renamed one fails here
    run_small("train", "--trace", "1")


def test_small_traced_gallery_eval_is_correct():
    # evaluation runs the traced ops untaped: their wrappers see the untaped path
    run_small("gallery-eval", "--trace", "1")


def test_small_caption_lookup_is_correct():
    # rank_gallery's 1-D rankings against the reference scorer
    run_small("caption-lookup")
