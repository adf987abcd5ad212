"""Full matching model: parameters, batched forward pass, batch loss.

One code path serves training and evaluation: ops record onto a GradTape
when one is supplied and run as plain array math when it is None. The
model only gathers a batch (encodes its images and padded captions, and
maps plan pairs to batch rows) and calls the batched kernels: ``numerics``
for the cosines, the word hinges and the ranking hinge, ``similarity`` and
``losses`` for the rest. One pair is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from . import losses as ls
from . import numerics as nm
from . import similarity as sim
from .encoders import (EncoderConfig, ImageEncodings, Sample, TextEncodings,
                       encode_images_batch, encode_texts_batch, encoder_param_shapes)
from .errors import ConfigError
from .losses import LossReport, LossWeights
from .numerics import GradTape, Tensor
from .sampling import BatchPlan
from .similarity import FUSIONS, MiningParams  # noqa: F401 (FUSIONS is re-exported)

# Bytes of the float64 (rows, n_txt * pad) word scores of one evaluation block; the
# block's workspace is two such arrays. Chosen on a 600 x 600 evaluate_retrieval
# (K = 6, pad 16; 2 cores, numpy 2.4.6 / OpenBLAS on its one thread, so wall and CPU
# time agree), median ms of 51 rounds: 201 at 1 MiB, 187 at 2, 179 at 4, 178 at 8,
# 182 at 12, 187 at 16, 205 at 24, 204 at 32 (quartiles about +-5 ms); the traced
# peak of score_components is 23 MiB plus two budgets (39 MiB at 8, 31 MiB at 4, which
# is as fast within the quartiles). Going from 6 blocks (8 MiB) to 47 (1 MiB) costs
# about 0.5 ms per added block.
SCORE_BLOCK_BYTES = 8 * 2 ** 20


@dataclass(frozen=True)
class ModelFlags:
    """Branch and loss toggles (the ablation surface)."""

    use_global: bool = True
    use_local: bool = True
    use_mining: bool = True
    use_mining_mask: bool = True
    use_local_neg_ranking: bool = True
    learnable_boundary: bool = False

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(getattr(self, f.name), bool):
                raise ConfigError(f"{f.name} must be true or false, got {getattr(self, f.name)!r}")
        if self.use_mining and not self.use_local:
            raise ConfigError("the mining branch requires the local branch")
        if not (self.use_global or self.use_local):
            raise ConfigError("at least one similarity branch must be enabled")

    def fusion(self) -> str:
        """The natural inference fusion: the one whose terms are the enabled branches."""
        terms = tuple(t for t, on in (("global", self.use_global), ("local", self.use_local),
                                      ("local_negative", self.use_mining)) if on)
        return next(name for name, need in sim._FUSION_TERMS.items() if need == terms)


def param_shapes(config: EncoderConfig, flags: ModelFlags) -> dict[str, tuple[int, ...]]:
    """Every trainable array's shape, in the order ``init_params`` draws them."""
    m, c, ids, p = (config.projection_dim, config.feature_dim, config.identity_count,
                    config.shared_dim)
    return {**encoder_param_shapes(config), "mining_region_proj": (m, c),
            "mining_word_proj": (m, c), "id_global_w": (ids, p),
            "id_local_w": (ids, config.region_count * p),
            **({"boundary_tau": ()} if flags.learnable_boundary else {})}


def init_params(config: EncoderConfig, flags: ModelFlags, seed: int) -> dict[str, np.ndarray]:
    """All trainable arrays; identical across flag variants for a given seed.

    Biases (``*_b``) and scalars are zero; every other array is Gaussian with
    scale 1/sqrt(fan_in), drawn in ``param_shapes`` order. The learnable
    boundary scalar is last, so enabling it never shifts the other draws.
    """
    rng = np.random.default_rng(seed)
    return {name: np.zeros(shape) if name.endswith("_b") or not shape
            else rng.normal(0.0, shape[-1] ** -0.5, shape)
            for name, shape in param_shapes(config, flags).items()}


@dataclass
class Model:
    """Parameter store plus the forward passes that use it."""

    config: EncoderConfig
    flags: ModelFlags = field(default_factory=ModelFlags)
    weights: LossWeights = field(default_factory=LossWeights)
    params: dict[str, np.ndarray] = None  # type: ignore[assignment]
    seed: int = 0

    def __post_init__(self):
        if self.params is None:
            self.params = init_params(self.config, self.flags, self.seed)

    def bind(self, tape: GradTape | None = None) -> dict[str, Tensor]:
        """Wrap parameters as tape leaves (training) or constants (evaluation)."""
        if tape is None:
            return {name: Tensor(arr) for name, arr in self.params.items()}
        return {name: tape.leaf(arr) for name, arr in self.params.items()}

    def mining_params(self, bound: Mapping[str, Tensor]) -> MiningParams:
        return MiningParams(bound["mining_region_proj"], bound["mining_word_proj"])

    def boundary(self, bound: Mapping[str, Tensor]):
        """The mining decision boundary: the bound tau (a leaf, or the array of
        ``params``), or the fixed 0.0.

        tau gets no gradient through the mask; it trains through the word
        hinges, whose push on it changes sign at zero (see ``losses``)."""
        return bound["boundary_tau"] if self.flags.learnable_boundary else 0.0

    # ---------------------------------------------------------------- forward

    def word_score_tensor(self, images: ImageEncodings, texts: TextEncodings,
                          mining: MiningParams) -> Tensor:
        """(n_images, n_texts, pad_len) word scores, ``nm.max_cosine`` of the projected (n, K, M)
        regions in groups of K and (m, L, M) words; padding holds junk that ``texts.mask`` masks."""
        regions, words = sim.projected(images.region_feats, texts.word_feats, mining)
        return nm.max_cosine(regions, words, regions.shape[1])

    def similarity_components(self, images: ImageEncodings, texts: TextEncodings,
                              bound: Mapping[str, Tensor]
                              ) -> tuple[dict[str, Tensor], Tensor | None]:
        """((n_images, n_texts) matrices of the enabled branches, word scores or None)."""
        comps = self._cosine_branches(images, texts)
        word_scores = None
        if self.flags.use_mining:
            word_scores = self.word_score_tensor(images, texts, self.mining_params(bound))
            _, comps["negative"], comps["local_negative"] = self._evidence(
                word_scores, texts, comps["local"], bound)
        return comps, word_scores

    def _evidence(self, word_scores: Tensor, texts: TextEncodings, local: Tensor,
                  bound: Mapping[str, Tensor], out=None) -> tuple[Tensor, Tensor, Tensor]:
        """``sim.mined_evidence`` of (n_images, n_texts, pad_len) word scores under the
        model's mask and boundary; ``out`` as there."""
        return sim.mined_evidence(word_scores, texts.mask, local,
                                  use_mask=self.flags.use_mining_mask,
                                  boundary=self.boundary(bound), out=out)

    def _cosine_branches(self, images: ImageEncodings, texts: TextEncodings
                         ) -> dict[str, Tensor]:
        """The (n_images, n_texts) global and local matrices of the enabled branches."""
        comps: dict[str, Tensor] = {}
        if self.flags.use_global:
            comps["global"] = nm.cosine(images.global_embed, texts.global_embed)
        if self.flags.use_local:
            comps["local"] = nm.cosine(images.local_embed, texts.local_embed)
        return comps

    # ------------------------------------------------------------- batch loss

    def batch_loss(self, dataset, plan: BatchPlan, tape: GradTape | None
                   ) -> tuple[Tensor, LossReport, dict[str, Tensor]]:
        """Loss of one batch plan; returns (total, report, bound params)."""
        samples = dataset.samples
        img_idx = sorted({i for i, _ in plan.matched} | {i for i, _ in plan.mismatched})
        txt_idx = sorted({t for _, t in plan.matched} | {t for _, t in plan.mismatched})
        img_pos = {g: i for i, g in enumerate(img_idx)}
        txt_pos = {g: i for i, g in enumerate(txt_idx)}

        bound = self.bind(tape)
        images, texts = self._encode([samples[i] for i in img_idx],
                                     [samples[t] for t in txt_idx], bound)
        img_labels = np.array([samples[i].identity_id for i in img_idx], dtype=np.intp)
        txt_labels = np.array([samples[t].identity_id for t in txt_idx], dtype=np.intp)

        comps, word_scores = self.similarity_components(images, texts, bound)

        def rows(pairs):
            return (np.array([img_pos[i] for i, _ in pairs], dtype=np.intp),
                    np.array([txt_pos[t] for _, t in pairs], dtype=np.intp))

        pos_img, pos_txt = rows(plan.matched)
        w, flags = self.weights, self.flags
        matched_t = mismatched_t = 0.0
        if flags.use_mining:
            tau = self.boundary(bound)
            matched_t = nm.matched_word_hinge(word_scores, texts.mask, pos_img, pos_txt,
                                              w.matched_bias, tau)
            mismatched_t = nm.mismatched_word_hinge(word_scores, texts.mask,
                                                    *rows(plan.mismatched), w.mismatched_bias, tau)

        identity_t = self._identity_term(images, texts, img_labels, txt_labels, bound)

        diff = img_labels[:, None] != txt_labels[None, :]

        def ranking(name):
            return nm.hardest_negative_hinge(comps[name], diff, pos_img, pos_txt,
                                             w.ranking_margin)

        rank_g = ranking("global") if flags.use_global else 0.0
        rank_l = ranking("local") if flags.use_local else 0.0
        rank_ln = (ranking("local_negative")
                   if flags.use_mining and flags.use_local_neg_ranking else 0.0)
        total, report = ls.total_loss(matched_t, mismatched_t, identity_t,
                                      rank_g, rank_l, rank_ln, w)
        return total, report, bound

    def _identity_term(self, images: ImageEncodings, texts: TextEncodings,
                       img_labels: np.ndarray, txt_labels: np.ndarray,
                       bound: Mapping[str, Tensor]) -> Tensor:
        terms, weights = [], []
        if self.flags.use_global:
            terms += [ls.mean_identity_loss(images.global_embed, img_labels, bound["id_global_w"]),
                      ls.mean_identity_loss(texts.global_embed, txt_labels, bound["id_global_w"])]
            weights += [1.0, 1.0]
        if self.flags.use_local:
            terms.append(nm.weighted_sum([
                ls.mean_identity_loss(images.local_embed, img_labels, bound["id_local_w"]),
                ls.mean_identity_loss(texts.local_embed, txt_labels, bound["id_local_w"])]))
            weights.append(self.weights.identity_local_weight)
        return nm.weighted_sum(terms, weights)

    def _encode(self, image_samples: list[Sample], text_samples: list[Sample],
                bound: Mapping[str, Tensor]) -> tuple[ImageEncodings, TextEncodings]:
        """Encode images stacked and captions zero-padded to the longest one, applying
        only the enabled branches' heads (parameters ``{img,txt}_{local,global}_*``)."""
        off = {head for head, on in (("local", self.flags.use_local),
                                     ("global", self.flags.use_global)) if not on}
        bound = {name: t for name, t in bound.items() if name.split("_")[1] not in off}
        images = encode_images_batch(
            np.stack([s.image_raw for s in image_samples]), bound, self.config)
        lengths = np.array([s.length for s in text_samples], dtype=np.intp)
        raws = np.zeros((len(text_samples), int(lengths.max()), self.config.text_raw_dim))
        for row, s in enumerate(text_samples):
            raws[row, :s.length] = s.text_raw
        return images, encode_texts_batch(raws, lengths, bound, self.config)

    # ------------------------------------------------------------- evaluation

    def score_components(self, image_samples: list[Sample], text_samples: list[Sample]
                         ) -> dict[str, np.ndarray]:
        """Similarity matrices, as read-only (n_img, n_txt) arrays (no tape).

        Keys: the enabled components among global/local/negative/local_negative.

        Once per call, both sides are encoded, the global and local cosines taken
        and the mining projections made. The word scores are then made in blocks
        of images whose (rows, n_txt*pad) scores fit ``SCORE_BLOCK_BYTES`` (at least
        two images per block), all in one (2, rows, n_txt*pad) workspace: a block's
        ``max_cosine`` keeps its maxima and one region's products there, the
        evidence overwrites the maxima, and its row sums go straight into the
        outputs. Rows are independent, so the values do not depend on the blocks.
        BLAS would take a lone image's products by gemv, which can round unlike
        the gemm of a larger block in the last bit, so a last block of one image
        starts one image early and scores the image before it again.
        """
        bound = self.bind(None)
        images, texts = self._encode(image_samples, text_samples, bound)
        comps = self._cosine_branches(images, texts)
        out = {name: t.data for name, t in comps.items()}
        if self.flags.use_mining:
            n, k = len(image_samples), self.config.region_count
            n_txt, pad = texts.word_feats.shape[:2]
            regions, words = sim.projected(images.region_feats, texts.word_feats,
                                           self.mining_params(bound))
            rows = max(2, SCORE_BLOCK_BYTES // (n_txt * pad * 8))
            work = np.empty((2, min(rows, n), n_txt * pad))
            out["negative"], out["local_negative"] = np.empty((n, n_txt)), np.empty((n, n_txt))
            starts = list(range(0, n, rows))
            if n > rows and n % rows == 1:
                starts[-1] -= 1
            for lo in starts:
                hi = min(lo + rows, n)
                block = work[:, :hi - lo]
                scores = nm.max_cosine(nm.take_rows(regions, np.arange(lo, hi)), words, k,
                                       out=block)
                self._evidence(scores, texts, nm.take_rows(comps["local"], np.arange(lo, hi)),
                               bound, out=(block[0].reshape(scores.shape), out["negative"][lo:hi],
                                           out["local_negative"][lo:hi]))
        for arr in out.values():
            arr.setflags(write=False)
        return out

    def score_matrix(self, image_samples: list[Sample], text_samples: list[Sample],
                     fusion: str) -> np.ndarray:
        comps = self.score_components(image_samples, text_samples)
        return np.array(sim.fuse(comps, fusion).data)
