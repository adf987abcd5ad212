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
``hardest_negative_hinge``, which the model calls directly; the per-pair
functions keep their signatures as adapters over a batch of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
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


# ---------------------------------------------------------- per-pair adapters

def _one_pair(word_scores, name: str) -> tuple[Tensor, np.ndarray]:
    """A nonempty score vector as a one-pair batch: (1, 1, length) scores, (1, length) mask."""
    ws = _as_tensor(word_scores)
    if ws.ndim != 1 or ws.size < 1:
        raise ShapeError(f"{name} expects a nonempty score vector")
    return ws.reshape((1, 1, ws.size)), np.ones((1, ws.size), dtype=bool)


def matched_word_loss(word_scores, weights: LossWeights, boundary=0.0) -> Tensor:
    """Mean hinge pushing every word score of a matched pair positive.

    (1/length) * sum_i max(bias - (s_i - boundary), 0); zero exactly when
    every score clears boundary + bias.
    """
    scores, mask = _one_pair(word_scores, "matched_word_loss")
    return nm.matched_word_hinge(scores, mask, [0], [0], weights.matched_bias, boundary)


def mismatched_word_loss(word_scores, weights: LossWeights, boundary=0.0) -> Tensor:
    """Hinge pushing the weakest word score of a mismatched pair negative.

    max(min_i s_i - min(boundary, 0) + bias, 0); zero exactly when the
    minimum drops to min(boundary, 0) - bias or lower.
    """
    scores, mask = _one_pair(word_scores, "mismatched_word_loss")
    return nm.mismatched_word_hinge(scores, mask, [0], [0], weights.mismatched_bias, boundary)


def identity_loss(x, label: int, classifier) -> Tensor:
    """Cross-entropy of softmax(classifier @ x) at the true identity."""
    xv, w = _as_tensor(x), _as_tensor(classifier)
    if xv.ndim != 1 or w.ndim != 2 or w.shape[1] != xv.shape[0]:
        raise ShapeError(f"classifier {w.shape} does not apply to embedding {xv.shape}")
    return mean_identity_loss(xv.reshape((1, xv.size)), [label], w)


# row 0 / column 0 hold the matched image / text; the other cells are negatives
_ONE_PAIR_DIFF = np.array([[False, True], [True, False]])


def ranking_loss(s_matched, s_img_negtext, s_negimg_text, margin: float) -> Tensor:
    """Two-sided hinge: the matched pair must beat both negatives by ``margin``."""
    # the (negative image, negative text) cell is never read; s_matched fills it
    sim = nm.stack([nm.stack([s_matched, s_img_negtext]), nm.stack([s_negimg_text, s_matched])])
    return nm.hardest_negative_hinge(sim, _ONE_PAIR_DIFF, [0], [0], margin)


def total_loss(matched, mismatched, identity, rank_global, rank_local, rank_local_neg,
               weights: LossWeights) -> tuple[Tensor, LossReport]:
    """Sum the three loss families; every term is reported separately.

    Disabled terms are passed as 0.0. The total is
    ((matched + mismatched) + identity) + ranking, where ranking is
    (rank_global + local weight * rank_local) + local-neg weight * rank_local_neg.
    """
    terms = [_as_tensor(t) for t in (matched, mismatched, identity,
                                     rank_global, rank_local, rank_local_neg)]
    ranking = nm.add(nm.add(terms[3], nm.mul(terms[4], weights.ranking_local_weight)),
                     nm.mul(terms[5], weights.ranking_localneg_weight))
    total = nm.add(nm.add(nm.add(terms[0], terms[1]), terms[2]), ranking)
    report = LossReport(
        matched=terms[0].item(),
        mismatched=terms[1].item(),
        identity=terms[2].item(),
        rank_global=terms[3].item(),
        rank_local=terms[4].item(),
        rank_local_neg=terms[5].item(),
        total=total.item(),
    )
    return total, report
