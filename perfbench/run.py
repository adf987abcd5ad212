"""Benchmark for fpmine: training steps, gallery evaluation, single-caption lookup.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Earlier lines describe the environment and the checks. ``--small`` runs
every workload at a small size, with every check, in seconds.

The program is imported from ``src/`` next to this directory; numpy is the
only dependency. BLAS runs at its default thread count, which is reported.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference
from tracing import NUMERIC_OPS, Tracer, install

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"


def blas_threads() -> int:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return os.cpu_count() or 1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(setups: list[float], out) -> dict[str, float]:
    samples = np.array(out.samples_ms)
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": float(np.percentile(samples, 50)),
        "op_ms_p90": float(np.percentile(samples, 90)),
        "cpu_ms_per_op": float(np.mean(out.timed_cpu_ms)),
    }


def per_layer(tracer, setups: list[float], out, threads: int) -> dict[str, float]:
    """Per-operation means over the timed operations, per-setup means over set-up.

    The allocation peak comes from the warm-up operation (see tracing).
    """
    ops = len(out.timed_wall_ms)
    m: dict[str, float] = {
        "numerics.tape_nodes": out.tape_nodes / out.attempted,
        "trace.op_ms_p50": float(np.percentile(out.samples_ms, 50)),
        "env.blas_threads": float(threads),
    }
    for op in NUMERIC_OPS:
        calls, _, self_ms = tracer.total(f"numerics.op.{op}")
        m[f"numerics.op.{op}.calls"] = calls / ops
        m[f"numerics.op.{op}.self_ms"] = self_ms / ops
    for name in ("numerics.backward", "training.adam_step", "losses.mean_identity_loss",
                 "sampling.balanced_batches", "encoders.encode_images_batch",
                 "encoders.encode_texts_batch", "model.word_score_tensor",
                 "model.score_components", "evaluation.rank_rows", "evaluation.recall_at_k"):
        m[f"{name}.ms"] = tracer.total(name)[1] / ops
    for name in ("model.batch_loss", "model.similarity_components"):
        m[f"{name}.self_ms"] = tracer.total(name)[2] / ops
    m["model.score_components.peak_alloc_mb"] = (
        tracer.counter("model.score_components.peak_alloc_bytes", "warmup") / 2 ** 20)
    m["model.word_score_tensor.bytes"] = tracer.counter("model.word_score_tensor.bytes") / ops
    m["encoders.images_encoded_per_op"] = tracer.counter("encoders.images_encoded") / ops
    for name in ("dataset.generate_synthetic_dataset", "training.train",
                 "training.save_checkpoint", "training.load_checkpoint"):
        m[f"{name}.s"] = tracer.total(name, "setup")[1] / 1e3 / len(setups)
    return m


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: str):
    """Set up repeatedly, measure, check. Returns (result, notes)."""
    import workloads  # imports fpmine, so only after main() has put src/ on the path

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if traced else None
    installed = install(tracer) if traced else None
    try:
        wl = workloads.WORKLOADS[name](seed, size, OUT)
        setups = []
        while len(setups) < workloads.SETUP_REPEATS or sum(setups) < workloads.SETUP_SECONDS:
            t0 = time.perf_counter()
            state = wl.setup()
            setups.append(time.perf_counter() - t0)
        on_op = None
        if traced:
            tracer.phase = "warmup"

            def on_op(index: int) -> None:
                tracer.op_index = index
                if index == 1:
                    tracer.phase = "measure"
        out = wl.measure(state, seconds, on_op)
        spec = load_spec()
        threads = blas_threads()
        if traced:
            metrics = per_layer(tracer, setups, out, threads)
            wanted = spec["per_layer"]
            tracer.phase, tracer.op_index = "check", -1
        else:
            metrics = end_to_end(setups, out)
            wanted = spec["end_to_end"]
        try:
            notes = wl.check(state, out)
            correct = True
        except reference.CheckFailed as exc:
            notes = {"check_failed": str(exc)}
            correct = False
        if traced:
            tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                         {"workload": name, "seed": seed, "seconds": seconds, "size": size})
    finally:
        if installed is not None:
            installed.uninstall()
    notes.update(numpy=np.__version__, blas_threads=threads, cpu_count=os.cpu_count(),
                 setup_s=[round(x, 4) for x in setups])
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="train, gallery-eval or caption-lookup")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs; without --workload, run every workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fpmine" / "__init__.py").is_file():
        print(f"error: no fpmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = [args.workload] if args.workload else (
        list(workloads.WORKLOADS) if args.small else [])
    if not names or any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    ok = True
    for name in names:
        result, notes = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     "small" if args.small else "full")
        print(f"# {name} seed={args.seed} " + json.dumps(notes, default=str))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
