"""Similarity branches and the mined-negative fusion rule.

Three signals per (image, text) pair:

* global  - cosine of the pooled embeddings,
* local   - cosine of the region-major concatenated local embeddings,
* mining  - word-region cosine scores, max-pooled over regions per word;
  scores below the decision boundary (zero by default) pass the mining
  mask and sum into negative evidence that lowers the pair's overall
  similarity.

At inference the overall similarity is the sum of the global score, the
local score, and the negative-adjusted local score.

Each quantity has one implementation over n images and m texts that
training and evaluation both call: ``numerics.cosine`` of (n, P) or
(n, K * P) rows for the global and local branches, ``numerics.max_cosine``
and the kernels here for mining. The per-pair functions are adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import numerics as nm
from .encoders import EmbeddingBundle
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


@dataclass(frozen=True)
class SimilarityBreakdown:
    """Every per-pair similarity signal, plus per-word scores and evidence."""

    global_score: float
    local_score: float
    word_scores: np.ndarray         # (length,) max-over-regions score per word
    masked_word_scores: np.ndarray  # (length,) each word's evidence after the mask
    argmax_regions: np.ndarray      # (length,) region attaining each word's max
    negative_score: float           # sum of masked word scores, <= 0 for a boundary <= 0
    local_negative_score: float
    overall_score: float

    def to_json(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


# ------------------------------------------------------------ batched kernels

def projected(region_feats: Tensor, word_feats: Tensor, params: MiningParams):
    """Region (..., C) and word (..., C) features projected to (..., M) in their own
    shapes: (n, K, M) and (m, L, M) for batches. ``nm.max_cosine(regions, words, K)``
    then gives the (n, m, L) word scores, each word's max over its image's regions."""
    return nm.linear(region_feats, params.region_proj), nm.linear(word_feats, params.word_proj)


def mining_mask(score, boundary=0.0, out=None) -> Tensor:
    """Zero out scores above the decision boundary, pass the rest unchanged.

    With the default boundary 0 this is exactly min(s, 0): positive scores
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
    Untaped, the result may be written into ``out``, which may be the score's buffer.
    """
    s = _as_tensor(score)
    if isinstance(boundary, Tensor):
        return nm.mul(s, s.data < boundary.data, out=out)
    if boundary != 0.0:
        return nm.mul(s, s.data < boundary, out=out)
    return nm.minimum(s, 0.0, out=out)


def mined_evidence(word_scores: Tensor, text_mask, local, *, use_mask: bool = True,
                   boundary=0.0, out=None) -> tuple[Tensor, Tensor, Tensor]:
    """(evidence per word (n, m, L), negative (n, m), local + negative (n, m)).

    ``text_mask`` (m, L) is True at valid words; padding contributes 0.
    With ``use_mask`` off (ablation) the raw scores are the evidence.
    Untaped evaluation may pass ``out``, buffers for the three results; the
    evidence's may be the word scores' own, which it then overwrites.
    """
    ev, neg, local_neg = (None,) * 3 if out is None else out
    contrib = mining_mask(word_scores, boundary, out=ev) if use_mask else word_scores
    evidence = nm.mul(contrib, np.asarray(text_mask, dtype=np.float64)[None, :, :], out=ev)
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
    out = _as_tensor(comps[need[0]])
    for name in need[1:]:
        out = nm.add(out, comps[name])
    return out


# ---------------------------------------------------------- per-pair adapters

def global_similarity(img_global, txt_global) -> Tensor:
    """Cosine of the two pooled embeddings."""
    a, b = _as_tensor(img_global), _as_tensor(txt_global)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError(f"global embeddings must be vectors, got {a.shape} and {b.shape}")
    return nm.cosine(a, b)


def local_similarity(img_local, txt_local) -> Tensor:
    """Cosine of the flattened (region-major) local embeddings."""
    a, b = _as_tensor(img_local), _as_tensor(txt_local)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"local embeddings must share a (K, P) shape, got {a.shape} and {b.shape}")
    return nm.cosine(a.reshape((a.size,)), b.reshape((b.size,)))


def word_region_scores(region_feats, word_feats, params: MiningParams) -> Tensor:
    """Cosine of projected region/word features for every (region, word) pair.

    ``region_feats`` is (K, C), ``word_feats`` is (C, length); the result is
    a (K, length) matrix with entries in [-1, 1].
    """
    v, e = _as_tensor(region_feats), _as_tensor(word_feats)
    if v.ndim != 2 or e.ndim != 2:
        raise ShapeError("word_region_scores expects 2-D feature matrices")
    return nm.cosine(*projected(v, e.T, params))


def word_max_scores(scores) -> Tensor:
    """Per-word max over regions; gradient goes to the first maximizing region."""
    s = _as_tensor(scores)
    if s.ndim != 2 or s.size == 0:
        raise ShapeError(f"word_max_scores requires a nonempty (K, length) matrix, got {s.shape}")
    return s.max(axis=0)


def _pair_evidence(word_scores: Tensor, local_score, use_mask: bool, boundary):
    """``mined_evidence`` for one pair: shapes (length,), (), ()."""
    length = word_scores.size
    evidence, neg, local_neg = mined_evidence(
        word_scores.reshape((1, 1, length)), np.ones((1, length), dtype=bool),
        nm.reshape(local_score, (1, 1)), use_mask=use_mask, boundary=boundary)
    return evidence.reshape((length,)), neg.reshape(()), local_neg.reshape(())


def negative_similarity(word_scores, local_score, *, use_mask: bool = True,
                        boundary=0.0) -> tuple[Tensor, Tensor]:
    """Sum word evidence into (negative_score, local_negative_score).

    ``word_scores`` must already exclude padding. With ``use_mask`` off
    (ablation) the raw scores are summed instead of the masked ones.
    """
    ws = _as_tensor(word_scores)
    if ws.ndim != 1 or ws.size < 1:
        raise ShapeError("negative_similarity needs a nonempty word-score vector")
    _, neg, local_neg = _pair_evidence(ws, local_score, use_mask, boundary)
    return neg, local_neg


def overall_similarity(global_score, local_score, local_negative_score) -> Tensor:
    """Inference fusion: global + local + negative-adjusted local."""
    return fuse({"global": global_score, "local": local_score,
                 "local_negative": local_negative_score}, "full")


def pair_breakdown(image: EmbeddingBundle, text: EmbeddingBundle, params: MiningParams,
                   *, use_mask: bool = True, boundary: float = 0.0) -> SimilarityBreakdown:
    """Compute every similarity signal for one encoded pair."""
    s_global = global_similarity(image.global_embed, text.global_embed)
    s_local = local_similarity(image.local_embed, text.local_embed)
    scores = word_region_scores(image.raw_parts, text.raw_parts, params)
    per_word = word_max_scores(scores)
    evidence, neg, local_neg = _pair_evidence(per_word, s_local, use_mask, boundary)
    return SimilarityBreakdown(
        global_score=s_global.item(),
        local_score=s_local.item(),
        word_scores=per_word.data,
        masked_word_scores=evidence.data,
        argmax_regions=np.argmax(scores.data, axis=0),
        negative_score=neg.item(),
        local_negative_score=local_neg.item(),
        overall_score=overall_similarity(s_global, s_local, local_neg).item(),
    )
