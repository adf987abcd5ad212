"""Golden bytes: the acceptance runs, their step logs and evidence reports hash as recorded.

``golden_bytes.json`` holds the sha256 of every acceptance run's checkpoint (as
``save_checkpoint`` writes it) and step log (as ``fpmine train`` writes
``log.ndjson``), and of each seed's ``full``-model evidence reports over criterion 9's
planted pairs. A refactor that claims to change no number must leave all of them equal.

The bytes also depend on numpy and its BLAS, so the table stores that fingerprint
beside the hashes; on another fingerprint every test here fails and names the field.
``PYTHONPATH=src python tests/test_golden.py`` re-records the table (see README). The
runs are the session cache of ``conftest``, so a full Tier-1 run trains nothing extra.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPT_SEEDS, TrainedRuns
from fpmine import numerics as nm
from fpmine.evaluation import negative_evidence_report, planted_contradiction_pairs
from fpmine.training import save_checkpoint

TABLE = Path(__file__).with_name("golden_bytes.json")
# the variants the acceptance criteria train
VARIANTS = ("global", "global+local", "full", "no_mining_mask", "no_local_neg_ranking",
            "learnable_boundary")
RUNS = [(v, s) for v in VARIANTS for s in ACCEPT_SEEDS]


def _openblas_config() -> str | None:
    """``openblas_get_config()`` of numpy's bundled OpenBLAS: version, build and core."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_char_p, []
                return fn().decode()
    return None


def fingerprint() -> dict:
    return {"numpy": np.__version__, "openblas": _openblas_config(),
            "blas_threads": nm.blas_threads()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(runs: TrainedRuns, variant: str, seed: int) -> tuple[str, str]:
    """(checkpoint sha256, step-log sha256) of one acceptance run."""
    result = runs.run(variant, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(result.checkpoint, path)
        ckpt = _sha256(path.read_bytes())
    log = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.log)
    return ckpt, _sha256(log.encode("utf-8"))


def evidence_digest(runs: TrainedRuns, seed: int) -> str:
    """sha256 of the JSON list of the ``full`` model's reports on the planted pairs."""
    ds, val_idx = runs.dataset(seed)
    model = runs.run("full", seed).model
    docs = [negative_evidence_report(model, ds.samples[i], ds.samples[t])
            for i, t in planted_contradiction_pairs(ds, val_idx)]
    return _sha256(json.dumps(docs).encode("utf-8"))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def check_fingerprint(recorded: dict) -> None:
    now = fingerprint()
    for field, value in recorded.items():
        if now.get(field) != value:
            pytest.fail(f"golden table recorded with {field} = {value!r}, but this machine has "
                        f"{now.get(field)!r}; re-record it on a commit whose bytes are trusted")


def test_fingerprint_matches(table):
    check_fingerprint(table["fingerprint"])
    assert set(table["fingerprint"]) == set(fingerprint())


@pytest.mark.parametrize("variant,seed", RUNS, ids=[f"{v}-{s}" for v, s in RUNS])
def test_run_bytes(table, trained_runs, variant, seed):
    check_fingerprint(table["fingerprint"])
    ckpt, log = run_digests(trained_runs, variant, seed)
    key = f"{variant}/{seed}"
    assert ckpt == table["checkpoints"][key], f"checkpoint bytes of {key} moved"
    assert log == table["step_logs"][key], f"step log of {key} moved"


@pytest.mark.parametrize("seed", ACCEPT_SEEDS)
def test_evidence_report_bytes(table, trained_runs, seed):
    check_fingerprint(table["fingerprint"])
    assert evidence_digest(trained_runs, seed) == table["evidence_reports"][str(seed)]


def record() -> dict:
    runs = TrainedRuns()
    doc = {"fingerprint": fingerprint(), "checkpoints": {}, "step_logs": {},
           "evidence_reports": {}}
    for variant, seed in RUNS:
        key = f"{variant}/{seed}"
        doc["checkpoints"][key], doc["step_logs"][key] = run_digests(runs, variant, seed)
    for seed in ACCEPT_SEEDS:
        doc["evidence_reports"][str(seed)] = evidence_digest(runs, seed)
    return doc


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {TABLE}", file=sys.stderr)
