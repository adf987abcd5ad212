"""Retrieval protocol, Recall@K, ablation harness, and evidence reports.

Queries are captions, the gallery is every test image, and a query scores
at K if any of its top-K images shares its identity. Ties break to the
lower gallery index so tables are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import SyntheticDataset, identity_split, twin_pairs
from . import numerics as nm
from . import similarity as sim
from .encoders import Sample, encode_images_batch, encode_texts_batch
from .errors import ConfigError, InputError
from .model import Model
from .numerics import Tensor


@dataclass(frozen=True)
class RetrievalResult:
    """Per-query rankings plus aggregate Recall@K percentages."""

    rankings: np.ndarray          # (n_queries, n_gallery) gallery indices, best first
    r_at: dict[int, float]        # K -> percentage in [0, 100]
    query_count: int
    gallery_count: int
    fusion: str

    def to_json(self) -> dict:
        return {
            "fusion": self.fusion,
            "query_count": self.query_count,
            "gallery_count": self.gallery_count,
            "r_at": {str(k): v for k, v in self.r_at.items()},
            "rankings": self.rankings.tolist(),
        }


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """Descending ranking per row, in the narrowest unsigned type that holds every index
    (uint8 up to 256 items, uint16 up to 65 536); equal scores keep the lower index first.

    The default sort is not stable, so only rows whose sorted scores are not strictly
    descending (a tie, or a NaN) are sorted again, stably."""
    neg = -np.asarray(scores)
    order = np.argsort(neg, axis=-1)
    ranked = np.take_along_axis(neg, order, axis=-1)
    tied = ~(ranked[..., :-1] < ranked[..., 1:]).all(axis=-1)
    order[tied] = np.argsort(neg[tied], axis=-1, kind="stable")
    return order.astype(np.min_scalar_type(neg.shape[-1] - 1))


def rank_gallery(model: Model, query: Sample, gallery: list[Sample],
                 fusion: str) -> np.ndarray:
    """Rank a gallery of images for one caption under the chosen fusion."""
    if len(gallery) == 0:
        raise InputError("empty gallery")
    scores = model.score_matrix(gallery, [query], fusion)[:, 0]
    return rank_rows(scores)


def recall_at_k(rankings: np.ndarray, query_ids: np.ndarray, gallery_ids: np.ndarray,
                k: int) -> float:
    """Percentage of queries with a same-identity gallery item in the top K."""
    rankings = np.asarray(rankings)
    query_ids = np.asarray(query_ids)
    gallery_ids = np.asarray(gallery_ids)
    if k < 1:
        raise InputError(f"K must be >= 1, got {k}")
    top = gallery_ids[rankings[:, :k]]
    hits = int((top == query_ids[:, None]).any(axis=1).sum())
    return 100.0 * hits / rankings.shape[0]


def _split_samples(dataset: SyntheticDataset, indices) -> tuple[list[Sample], np.ndarray]:
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size == 0:
        raise InputError("empty evaluation split")
    samples = [dataset.samples[i] for i in indices]
    return samples, np.array([s.identity_id for s in samples])


_RECALL_KS = (1, 5, 10)


def _retrieval_result(scores: np.ndarray, ids: np.ndarray, fusion: str) -> RetrievalResult:
    """Rank the gallery for every caption of an (images, captions) score matrix."""
    rankings = rank_rows(scores.T)  # (queries, gallery)
    r_at = {k: recall_at_k(rankings, ids, ids, k) for k in _RECALL_KS}
    return RetrievalResult(rankings, r_at, len(ids), len(ids), fusion)


_INACTIVE = {"enabled": False, "mismatched_active_fraction": 0.0,
             "matched_active_fraction": 0.0, "mean_negative_mismatched": 0.0,
             "mean_negative_matched": 0.0}


def _mean(values: np.ndarray) -> float | None:
    """The mean, or None over no values (a split of one identity has no mismatched pair)."""
    return float(values.mean()) if values.size else None


def _activity(negative: np.ndarray, ids: np.ndarray) -> dict:
    mismatched = ids[:, None] != ids[None, :]
    matched = ~mismatched
    return {
        "enabled": True,
        "mismatched_active_fraction": _mean(negative[mismatched] < 0),
        "matched_active_fraction": _mean(negative[matched] < 0),
        "mean_negative_mismatched": _mean(negative[mismatched]),
        "mean_negative_matched": _mean(negative[matched]),
    }


def evaluate_retrieval(model: Model, dataset: SyntheticDataset, indices,
                       fusion: str) -> RetrievalResult:
    """Text-to-image retrieval over one identity-disjoint split: R@1, R@5 and R@10."""
    samples, ids = _split_samples(dataset, indices)
    return _retrieval_result(model.score_matrix(samples, samples, fusion), ids, fusion)


def mining_activity(model: Model, dataset: SyntheticDataset, indices) -> dict:
    """How often the mining branch fires on a split.

    Reports the fraction of cross-identity (image, text) pairs with
    strictly negative summed evidence, and the same for matched pairs; a
    fraction or mean over no pairs is None.
    """
    if not model.flags.use_mining:
        return dict(_INACTIVE)
    samples, ids = _split_samples(dataset, indices)
    return _activity(model.score_components(samples, samples)["negative"], ids)


def evaluate_with_activity(model: Model, dataset: SyntheticDataset, indices,
                           fusion: str) -> tuple[RetrievalResult, dict]:
    """``evaluate_retrieval`` and ``mining_activity`` from one scoring of the split."""
    samples, ids = _split_samples(dataset, indices)
    comps = model.score_components(samples, samples)
    result = _retrieval_result(sim.fuse(comps, fusion).data, ids, fusion)
    activity = _activity(comps["negative"], ids) if "negative" in comps else dict(_INACTIVE)
    return result, activity


def negative_evidence_report(model: Model, image_sample: Sample, text_sample: Sample) -> dict:
    """Per-word mismatch evidence for one pair (machine-readable).

    Each word record carries its max-over-regions score, the masked value,
    and the index of the region attaining the max. ``masked`` is the raw
    score when it falls below the model's boundary tau (0, or the learned
    value) and 0 otherwise; with the mask ablated it is the raw score. Under
    the mask it is <= 0 whenever tau <= 0, and in [0, tau) for a word that
    passes a positive boundary.

    The pair is a batch of one through the batched encoders and kernels, every
    head applied, so every variant reports every branch's score.
    """
    bound = model.bind(None)
    images = encode_images_batch(image_sample.image_raw[None], bound, model.config)
    texts = encode_texts_batch(text_sample.text_raw[None], [text_sample.length], bound,
                               model.config)
    regions, words = sim.projected(images.region_feats, texts.word_feats,
                                   model.mining_params(bound))
    scores = nm.cosine(regions, words).data[:, 0]  # (K, L): every region against every word
    word_scores, argmax_regions = scores.max(axis=0), np.argmax(scores, axis=0)
    tau = float(model.boundary(model.params))
    comps = {"global": nm.cosine(images.global_embed, texts.global_embed),
             "local": nm.cosine(images.local_embed, texts.local_embed)}
    evidence, negative, comps["local_negative"] = sim.mined_evidence(
        Tensor(word_scores[None, None]), texts.mask, comps["local"],
        use_mask=model.flags.use_mining_mask, boundary=tau)
    doc = {
        "global_score": comps["global"].item(),
        "local_score": comps["local"].item(),
        "word_scores": word_scores.tolist(),
        "masked_word_scores": evidence.data[0, 0].tolist(),
        "argmax_regions": argmax_regions.tolist(),
        "negative_score": negative.item(),
        "local_negative_score": comps["local_negative"].item(),
        "overall_score": sim.fuse(comps, "full").item(),
        "image_identity": image_sample.identity_id,
        "text_identity": text_sample.identity_id,
        "matched": image_sample.identity_id == text_sample.identity_id,
        "boundary": tau,
    }
    doc["words"] = [{"index": i, "score": score, "masked": masked, "argmax_region": region}
                    for i, (score, masked, region) in enumerate(zip(
                        doc["word_scores"], doc["masked_word_scores"], doc["argmax_regions"]))]
    return doc


def planted_contradiction_pairs(dataset: SyntheticDataset, indices) -> list[tuple[int, int]]:
    """(image idx, text idx) pairs whose identities are twins within a split.

    These pairs agree on every attribute except the planted flips, so they
    are the canonical probes for the evidence report.
    """
    indices = np.asarray(indices, dtype=np.intp)
    ids_present: dict[int, list[int]] = {}
    for i in indices:
        ids_present.setdefault(dataset.samples[i].identity_id, []).append(int(i))
    pairs = []
    for twin, parent, _flips in twin_pairs(dataset):
        if twin in ids_present and parent in ids_present:
            pairs.append((ids_present[parent][0], ids_present[twin][0]))
            pairs.append((ids_present[twin][0], ids_present[parent][0]))
    return pairs


# ------------------------------------------------------------------ ablations

_ALL = dict(use_global=True, use_local=True, use_mining=True)  # every branch on
# Every ablation variant, in table order: name -> (table, flag settings, training
# settings); ``variant_config`` applies both settings over a base TrainConfig.
ABLATION_VARIANTS = {
    "global": ("branches", dict(_ALL, use_local=False, use_mining=False), {}),
    "local": ("branches", dict(_ALL, use_global=False, use_mining=False), {}),
    "global+local": ("branches", dict(_ALL, use_mining=False), {}),
    "local+mining": ("branches", dict(_ALL, use_global=False), {}),
    "global+local+mining": ("branches", _ALL, {}),
    "baseline": ("design", dict(_ALL, use_mining=False), {}),
    "no_local_neg_ranking": ("design", dict(_ALL, use_local_neg_ranking=False), {}),
    "no_mining_mask": ("design", dict(_ALL, use_mining_mask=False), {}),
    "no_balanced_sample": ("design", _ALL, {"balanced_sampling": False}),
    "learnable_boundary": ("design", dict(_ALL, learnable_boundary=True), {}),
    "full": ("design", _ALL, {}),
}


def variant_config(base, name: str):
    """The TrainConfig ``base`` with ablation variant ``name``'s flags and settings."""
    _table, flags, settings = ABLATION_VARIANTS[name]
    return replace(base, flags=replace(base.flags, **flags), **settings)


@dataclass(frozen=True)
class AblationRow:
    name: str
    fusion: str
    r_at: dict[int, float]

    def to_json(self) -> dict:
        return {"name": self.name, "fusion": self.fusion,
                "r_at": {str(k): v for k, v in self.r_at.items()}}


@dataclass(frozen=True)
class AblationTables:
    branches: list[AblationRow]
    design: list[AblationRow]

    def to_json(self) -> dict:
        return {"branches": [r.to_json() for r in self.branches],
                "design": [r.to_json() for r in self.design]}

    def format_text(self) -> str:
        lines = []
        for title, rows in (("Branch ablation", self.branches),
                            ("Mining-branch design ablation", self.design)):
            lines.append(title)
            lines.append(f"{'variant':<28}{'R@1':>8}{'R@5':>8}{'R@10':>8}")
            for r in rows:
                lines.append(f"{r.name:<28}{r.r_at[1]:>8.2f}{r.r_at[5]:>8.2f}{r.r_at[10]:>8.2f}")
            lines.append("")
        return "\n".join(lines)


def ablation_suite(dataset: SyntheticDataset, base_config) -> AblationTables:
    """Train every variant with the same seed and tabulate validation R@K.

    Branch rows toggle similarity branches; design rows toggle the mining
    branch internals (ranking term, mask, balanced sampling, learnable
    boundary). Each distinct config trains once: rows that coincide
    (baseline == global+local, full == global+local+mining) share a run.
    """
    from .training import train

    _, val_idx = identity_split(dataset, base_config.val_fraction, seed=base_config.seed)
    if val_idx.size == 0:
        raise ConfigError("ablation requires a nonempty validation split")

    models: dict = {}
    tables: dict[str, list[AblationRow]] = {"branches": [], "design": []}
    for name, (table, *_) in ABLATION_VARIANTS.items():
        config = variant_config(base_config, name)
        if config not in models:
            models[config] = train(dataset, config).model
        result = evaluate_retrieval(models[config], dataset, val_idx, config.flags.fusion())
        tables[table].append(AblationRow(name, config.flags.fusion(), result.r_at))
    return AblationTables(**tables)
