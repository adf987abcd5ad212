"""Similarity branches and the mined-negative fusion rule.

Three signals per (image, text) pair:

* global  - cosine of the pooled embeddings,
* local   - cosine of the region-major concatenated local embeddings,
* mining  - word-region cosine scores, max-pooled over regions per word;
  scores below the decision boundary (zero by default) pass the mining
  mask and sum into negative evidence that lowers the pair's overall
  similarity. The evidence is one product, s * [s < tau] * [valid word].

At inference the overall similarity is the sum of the global score, the
local score, and the negative-adjusted local score, one ``weighted_sum``.

Each quantity has one implementation over n images and m texts that
training and evaluation both call: ``numerics.cosine`` of (n, P) or
(n, K * P) rows for the global and local branches, ``numerics.max_cosine``
and the kernels here for mining. One pair is a batch of one: the evidence
report scores it through the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ShapeError
from .numerics import Tensor, _as_tensor

_FUSION_TERMS = {
    "global": ("global",),
    "local": ("local",),
    "global+local": ("global", "local"),
    "local+mining": ("local", "local_negative"),
    "full": ("global", "local", "local_negative"),
}
FUSIONS = tuple(_FUSION_TERMS)


@dataclass(frozen=True)
class MiningParams:
    """Bias-free projections into the shared word-region scoring space."""

    region_proj: Tensor  # (M, C), applied to region features
    word_proj: Tensor    # (M, C), applied to word features

    def __post_init__(self):
        if self.region_proj.ndim != 2 or self.word_proj.ndim != 2:
            raise ShapeError("mining projections must be 2-D")
        if self.region_proj.shape != self.word_proj.shape:
            raise ShapeError(
                f"projection shapes disagree: {self.region_proj.shape} vs {self.word_proj.shape}")


# ------------------------------------------------------------ batched kernels

def projected(region_feats: Tensor, word_feats: Tensor, params: MiningParams):
    """Region (..., C) and word (..., C) features projected to (..., M) in their own
    shapes: (n, K, M) and (m, L, M) for batches. ``nm.max_cosine(regions, words, K)``
    then gives the (n, m, L) word scores, each word's max over its image's regions."""
    return nm.linear(region_feats, params.region_proj), nm.linear(word_feats, params.word_proj)


def _below(s: Tensor, boundary) -> np.ndarray:
    """[s < tau], the words the mining mask selects, for a float or scalar Tensor tau."""
    return s.data < _as_tensor(boundary).data


def mining_mask(score, boundary=0.0) -> Tensor:
    """s * [s < tau]: scores at or above the decision boundary zeroed, the rest unchanged.

    With the default boundary 0 this equals min(s, 0): positive scores
    carry no mismatch evidence, negative ones pass through, and the
    boundary itself maps to 0. A nonzero ``boundary`` (the learnable
    variant) moves the cut to tau while still passing the raw score below
    it; the boundary receives no gradient through the mask (it trains
    through the hinge losses instead).

    Selection is measured from tau but the evidence from zero, so the summed
    evidence s_neg is <= 0 whenever tau <= 0, while for tau > 0 each word
    scoring in [0, tau) passes its positive score and adds less than tau.
    The hinges keep tau at zero to within a few optimizer steps: their push
    on tau points down above zero and up below it (see ``losses``).
    """
    s = _as_tensor(score)
    return nm.mul(s, _below(s, boundary))


def mined_evidence(word_scores: Tensor, text_mask, local, *, use_mask: bool = True,
                   boundary=0.0, out=None) -> tuple[Tensor, Tensor, Tensor]:
    """(evidence per word (n, m, L), negative (n, m), local + negative (n, m)).

    The evidence is s * [s < tau] * [valid word], one product with a boolean mask:
    ``text_mask`` (m, L) is True at valid words. With ``use_mask`` off (ablation) it
    is s * [valid word]. Untaped evaluation may pass ``out``, buffers for the three
    results; the evidence's may be the word scores' own, which it then overwrites.
    """
    ev, neg, local_neg = (None,) * 3 if out is None else out
    keep = (_below(word_scores, boundary) if use_mask else True) & np.asarray(text_mask, bool)
    evidence = nm.mul(word_scores, keep, out=ev)
    negative = nm.reduce_sum(evidence, axis=2, out=neg)
    return evidence, negative, nm.add(local, negative, out=local_neg)


def fuse(comps: Mapping[str, Tensor | np.ndarray], fusion: str) -> Tensor:
    """Combine component matrices per the requested inference rule."""
    if fusion not in FUSIONS:
        raise ConfigError(f"unknown fusion {fusion!r}; expected one of {FUSIONS}")
    need = _FUSION_TERMS[fusion]
    missing = [n for n in need if n not in comps]
    if missing:
        raise ConfigError(f"fusion {fusion!r} needs disabled branch(es): {missing}")
    return nm.weighted_sum([comps[name] for name in need])
