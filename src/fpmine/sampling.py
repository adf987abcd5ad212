"""Balanced mini-batch construction.

Every batch pairs each matched (image, its own caption) slot with one
uniformly drawn cross-identity caption, so matched and mismatched pairs
arrive in equal numbers. The unbalanced variant (for ablations) instead
uses every cross-identity pairing inside the batch as a mismatched pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import SyntheticDataset
from .errors import ConfigError

Pair = tuple[int, int]


@dataclass(frozen=True)
class BatchPlan:
    """Index-level batch: (image idx, text idx) pairs into one dataset."""

    matched: tuple[Pair, ...]
    mismatched: tuple[Pair, ...]
    batch_size: int
    balanced: bool = True

    def __post_init__(self):
        if self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even, got {self.batch_size}")
        if self.balanced and len(self.matched) != len(self.mismatched):
            raise ConfigError("balanced plan needs equal matched/mismatched counts")

    def check_identities(self, labels: Sequence[int]) -> None:
        """Verify matched pairs share identities and mismatched pairs never do."""
        for img, txt in self.matched:
            if labels[img] != labels[txt]:
                raise ConfigError(f"matched pair ({img}, {txt}) crosses identities")
        for img, txt in self.mismatched:
            if labels[img] == labels[txt]:
                raise ConfigError(f"mismatched pair ({img}, {txt}) shares an identity")


def balanced_batches(dataset: SyntheticDataset, batch_size: int, seed: int, *,
                     include: Sequence[int] | None = None,
                     balanced: bool = True) -> Iterator[BatchPlan]:
    """Yield one epoch of batch plans, deterministically per seed.

    Each epoch covers every matched pair in ``include`` exactly once in a
    shuffled order; the trailing partial batch is dropped so the balance
    invariant stays exact.
    """
    labels = dataset.labels()
    idx = np.asarray(include if include is not None else np.arange(len(labels)), dtype=np.intp)
    if batch_size < 2 or batch_size % 2 != 0:
        raise ConfigError(f"batch_size must be an even number >= 2, got {batch_size}")
    present = labels[idx]
    if np.unique(present).size < 2:
        raise ConfigError("balanced sampling needs at least two identities")

    rng = np.random.default_rng(seed)
    order = idx[rng.permutation(idx.size)]
    half = batch_size // 2

    # per identity, the complement pool mismatched partners are drawn from
    others: dict[int, np.ndarray] = {}
    for ident in np.unique(present):
        others[int(ident)] = idx[present != ident]

    for start in range(0, order.size - half + 1, half):
        chunk = order[start:start + half]
        matched = tuple((int(i), int(i)) for i in chunk)
        if balanced:
            mismatched = tuple(
                (int(i), int(others[int(labels[i])][rng.integers(others[int(labels[i])].size)]))
                for i in chunk)
        else:
            mismatched = tuple(
                (int(i), int(j)) for i in chunk for j in chunk
                if labels[i] != labels[j])
        yield BatchPlan(matched, mismatched, batch_size, balanced=balanced)
