"""Shared fixtures: the acceptance benchmark profile and a training cache, plus the
one-pair batches the loss and similarity tests hand the batched kernels.

Training runs are the expensive part of acceptance, and several criteria
read the same runs, so trained variants are cached per (variant, seed)
for the whole session.
"""

import numpy as np
import pytest

from fpmine import numerics as nm
from fpmine.dataset import generate_synthetic_dataset, identity_split
from fpmine.encoders import EncoderConfig
from fpmine.evaluation import variant_config
from fpmine.numerics import Tensor
from fpmine.training import TrainConfig, train


def one_pair(scores):
    """One pair's word scores as a batch of one, every word valid: the (1, 1, L) scores
    (a taped ``scores`` stays on its tape) and their (1, L) mask."""
    s = scores if isinstance(scores, Tensor) else Tensor(scores)
    return nm.reshape(s, (1, 1, s.size)), np.ones((1, s.size), dtype=bool)


# the negatives of a (2, 2) similarity matrix that holds one pair: row 0 / column 0 are
# the matched image / text, the off-diagonal cells their negatives; cell (1, 1) goes unread
PAIR_NEGATIVES = ~np.eye(2, dtype=bool)


# benchmark profile for the directional ablations: hard-negative twins at
# fraction 0.3, collision-free identity codes, faint pervasive details
ACCEPT_SEEDS = (0, 1, 2)
ACCEPT_ENCODER = EncoderConfig(max_words=16)
ACCEPT_DATA = dict(
    identity_count=60,
    samples_per_identity=10,
    attribute_count=12,
    detail_count=2,
    detail_strength=0.2,
    flip_count=2,
    noise=0.12,
    text_noise=0.04,
    hard_negative_fraction=0.3,
    min_hamming=3,
)
ACCEPT_EPOCHS = 45
ACCEPT_BATCH = 64

def accept_dataset(seed: int):
    kw = dict(ACCEPT_DATA)
    identities = kw.pop("identity_count")
    per_id = kw.pop("samples_per_identity")
    return generate_synthetic_dataset(seed, identities, per_id, ACCEPT_ENCODER, **kw)


def accept_config(seed: int, variant: str) -> TrainConfig:
    """The ablation variant ``variant`` (a name of ``ABLATION_VARIANTS``) on the profile."""
    return variant_config(TrainConfig(epochs=ACCEPT_EPOCHS, batch_size=ACCEPT_BATCH, seed=seed,
                                      val_fraction=0.1), variant)


class TrainedRuns:
    """Session-wide cache of trained acceptance variants."""

    def __init__(self):
        self._datasets = {}
        self._runs = {}
        self.train_seconds = 0.0

    def dataset(self, seed: int):
        if seed not in self._datasets:
            ds = accept_dataset(seed)
            _, val_idx = identity_split(ds, 0.1, seed=seed)
            self._datasets[seed] = (ds, val_idx)
        return self._datasets[seed]

    def run(self, variant: str, seed: int):
        key = (variant, seed)
        if key not in self._runs:
            import time

            ds, _ = self.dataset(seed)
            t0 = time.process_time()
            result = train(ds, accept_config(seed, variant))
            self.train_seconds += time.process_time() - t0
            self._runs[key] = result
        return self._runs[key]


@pytest.fixture(scope="session")
def trained_runs():
    return TrainedRuns()


# ------------------------------------------------------- acceptance reporting

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


@pytest.fixture()
def acceptance_record():
    def record(criterion: str, passed: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS.append(
            (criterion, ("PASS" if passed else "FAIL") + (f" - {detail}" if detail else "")))
        assert passed, f"{criterion}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion, status in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{criterion}: {status}")
