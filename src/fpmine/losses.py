"""Training objectives: word-score hinges, identity loss, ranking loss.

The two word-score hinges open a gap around the decision boundary:
matched pairs pay ``max(bias - s, 0)`` per word until every word score
clears +bias, while mismatched pairs pay ``max(s_min + bias, 0)`` until
their weakest word drops below -bias. With the default biases the
zero-loss regions are s >= 0.001 and s_min <= -0.15, so no score
distribution can satisfy both inside the open band in between.

With a learnable decision boundary tau the hinges follow the mining mask,
which selects the words scoring below tau but passes their raw scores as
evidence: selection is measured from tau, evidence from zero. The matched
hinge asks every word to stay unselected, s >= tau + bias; an
unselected word contributes nothing, so its value does not matter. The
mismatched hinge asks the weakest word for evidence of at most -bias,
which takes selection (below tau) and value (below zero), so it targets
min(tau, 0) - bias.

This is what keeps tau near zero. Above zero, raising tau no longer relaxes
the mismatched hinge, so the only tau-dependent term is the matched hinge,
and it pushes tau down. Below zero both hinges act on tau; the mismatched
one, with its 0.15 margin and a full unit of slope per pair, outweighs the
matched one (0.001 margin, averaged over words) and pushes tau up. Zero is
the kink where the push changes sign. Should the matched push ever win
below zero, tau would rest at that negative balance point, where the
mined evidence is still <= 0. At tau = 0 both hinges equal the
fixed-boundary ones.

Each objective has one implementation, a batched kernel that training
calls on a whole batch plan. The word hinges and the ranking loss are the
``numerics`` kernels ``matched_word_hinge``, ``mismatched_word_hinge`` and
``hardest_negative_hinge``, which the model calls directly; one pair is a
batch of one. The total is two ``numerics.weighted_sum`` nodes: the ranking
family, then all three.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from .errors import ConfigError
from .numerics import Tensor, _as_tensor


@dataclass(frozen=True)
class LossWeights:
    """Hinge biases, the ranking margin, and the weights of the local terms."""

    matched_bias: float = 0.001       # matched-word hinge: zero loss iff s >= bias
    mismatched_bias: float = 0.15     # mismatched-word hinge: zero loss iff s_min <= -bias
    identity_local_weight: float = 0.5    # local identity terms vs global ones
    ranking_margin: float = 0.2
    ranking_local_weight: float = 0.5     # local ranking term
    ranking_localneg_weight: float = 0.25  # negative-adjusted local ranking term

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{f.name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossReport:
    """Per-term values for one batch; ``total`` is the weighted sum."""

    matched: float
    mismatched: float
    identity: float
    rank_global: float
    rank_local: float
    rank_local_neg: float
    total: float

    def to_json(self) -> dict:
        return asdict(self)


def mean_identity_loss(embeddings, labels, classifier) -> Tensor:
    """Identity cross-entropy of softmax(embedding @ classifier.T), averaged over rows."""
    return nm.cross_entropy(nm.linear(embeddings, classifier), labels)


def total_loss(matched, mismatched, identity, rank_global, rank_local, rank_local_neg,
               weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Sum the three loss families; every term is reported separately.

    Disabled terms are passed as 0.0. The total is
    ((matched + mismatched) + identity) + ranking, where ranking is
    (rank_global + local weight * rank_local) + local-neg weight * rank_local_neg.
    """
    ranking = nm.weighted_sum([rank_global, rank_local, rank_local_neg],
                              [1.0, weights.ranking_local_weight, weights.ranking_localneg_weight])
    total = nm.weighted_sum([matched, mismatched, identity, ranking])
    terms = (matched, mismatched, identity, rank_global, rank_local, rank_local_neg, total)
    return total, LossReport(*(_as_tensor(t).item() for t in terms))
