"""Toy trainable encoders producing global, region-level, and word-level features.

Real backbones (CNN feature maps, recurrent sentence encoders, pretrained
word embeddings) are replaced by small linear maps so the whole pipeline
trains in CPU seconds while keeping the exact representation set the
matching engine needs:

* image: per-strip features ``region_feats`` (K x C), per-strip local
  embeddings (K x P), and a pooled global embedding (P).
* text:  per-token features ``word_feats`` (length x C), K local embeddings
  derived from the pooled token features, and a pooled global embedding (P).

Encoding is batched, and one sample is a batch of one. Batches hold each
sample's K local embeddings as one region-major K * P row.

Padding positions in text batches are excluded from every pooling and
reduction via explicit masks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Mapping

import numpy as np

from . import numerics as nm
from .errors import ConfigError, InputError, ShapeError
from .numerics import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """Dimension settings for the encoders and the matching engine (desk-scale defaults)."""

    feature_dim: int = 64      # C: width of region/word features
    shared_dim: int = 32       # P: width of the shared embedding space
    projection_dim: int = 16   # M: width of the mining projection space
    region_count: int = 6      # K: horizontal image strips
    max_words: int = 12        # n: text length cap
    identity_count: int = 50
    image_raw_dim: int = 24    # raw feature width per strip
    text_raw_dim: int = 24     # raw feature width per token

    def __post_init__(self):
        for f in fields(self):
            value, least = getattr(self, f.name), 2 if f.name == "region_count" else 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{f.name} must be >= {least}, got {value}")

    def with_identity_count(self, identity_count: int) -> "EncoderConfig":
        return replace(self, identity_count=identity_count)


@dataclass(frozen=True)
class Sample:
    """One (image, caption) item: raw strip grid plus raw token sequence."""

    identity_id: int
    image_raw: np.ndarray  # (region_count, image_raw_dim)
    text_raw: np.ndarray   # (length, text_raw_dim), 1 <= length <= max_words

    def __post_init__(self):
        if self.identity_id < 0:
            raise InputError(f"identity_id must be >= 0, got {self.identity_id}")
        if self.image_raw.ndim != 2:
            raise ShapeError(f"image_raw must be 2-D, got shape {self.image_raw.shape}")
        if self.text_raw.ndim != 2 or self.text_raw.shape[0] < 1:
            raise ShapeError(f"text_raw must be 2-D with >= 1 token, got {self.text_raw.shape}")

    @property
    def length(self) -> int:
        return self.text_raw.shape[0]


@dataclass(frozen=True)
class ImageEncodings:
    """Batched image representations (N samples)."""

    region_feats: Tensor          # (N, K, C)
    local_embed: Tensor | None    # (N, K * P), region-major; None if the head was skipped
    global_embed: Tensor | None   # (N, P); None if the head was skipped


@dataclass(frozen=True)
class TextEncodings:
    """Batched text representations (N samples, padded to a common length)."""

    word_feats: Tensor            # (N, L, C)
    local_embed: Tensor | None    # as in ImageEncodings
    global_embed: Tensor | None
    mask: np.ndarray              # (N, L) bool, True at valid tokens


ENCODER_PARAM_SHAPES = {
    "img_embed_w": ("feature_dim", "image_raw_dim"),
    "img_embed_b": ("feature_dim",),
    "img_local_w": ("region_count", "shared_dim", "feature_dim"),
    "img_local_b": ("region_count", "shared_dim"),
    "img_global_w": ("shared_dim", "feature_dim"),
    "img_global_b": ("shared_dim",),
    "txt_embed_w": ("feature_dim", "text_raw_dim"),
    "txt_embed_b": ("feature_dim",),
    "txt_local_w": ("region_count", "shared_dim", "feature_dim"),
    "txt_local_b": ("region_count", "shared_dim"),
    "txt_global_w": ("shared_dim", "feature_dim"),
    "txt_global_b": ("shared_dim",),
}


def encoder_param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    return {name: tuple(getattr(config, d) for d in dims)
            for name, dims in ENCODER_PARAM_SHAPES.items()}


def encode_images_batch(raws, params: Mapping[str, Tensor | np.ndarray],
                        config: EncoderConfig) -> ImageEncodings:
    """Encode a stack of raw image grids (N, K, image_raw_dim). A head whose weights
    ``params`` does not hold (``img_local_*`` or ``img_global_*``) is skipped: its
    embedding is None."""
    r = raws if isinstance(raws, Tensor) else Tensor(raws)
    k, raw_dim = config.region_count, config.image_raw_dim
    if r.ndim != 3 or r.shape[1:] != (k, raw_dim):
        raise ShapeError(f"expected image raws (N, {k}, {raw_dim}), got {r.shape}")
    region_feats = nm.linear(r, params["img_embed_w"], params["img_embed_b"])
    local_embed = global_embed = None
    if "img_local_w" in params:
        local_embed = nm.linear(region_feats, params["img_local_w"],
                                params["img_local_b"]).reshape((r.shape[0], k * config.shared_dim))
    if "img_global_w" in params:
        global_embed = nm.linear(region_feats.max(axis=1), params["img_global_w"],
                                 params["img_global_b"])
    return ImageEncodings(region_feats, local_embed, global_embed)


def encode_texts_batch(raws, lengths, params: Mapping[str, Tensor | np.ndarray],
                       config: EncoderConfig) -> TextEncodings:
    """Encode padded token batches (N, L, text_raw_dim) with explicit lengths; a head
    missing from ``params`` is skipped as in ``encode_images_batch``."""
    r = raws if isinstance(raws, Tensor) else Tensor(raws)
    lengths = np.asarray(lengths, dtype=np.intp)
    if r.ndim != 3 or r.shape[2] != config.text_raw_dim:
        raise ShapeError(f"expected text raws (N, L, {config.text_raw_dim}), got {r.shape}")
    n, pad_len = r.shape[0], r.shape[1]
    if lengths.shape != (n,):
        raise ShapeError(f"lengths must be ({n},), got {lengths.shape}")
    if np.any(lengths < 1) or np.any(lengths > config.max_words) or np.any(lengths > pad_len):
        raise InputError("text lengths must satisfy 1 <= length <= max_words and fit the padding")

    word_feats = nm.linear(r, params["txt_embed_w"], params["txt_embed_b"])
    mask = np.arange(pad_len)[None, :] < lengths[:, None]
    pooled = nm.masked_max(word_feats, mask[:, :, None], axis=1)
    local_embed = global_embed = None
    if "txt_local_w" in params:
        local_embed = nm.linear(pooled, params["txt_local_w"], params["txt_local_b"]).reshape(
            (n, config.region_count * config.shared_dim))
    if "txt_global_w" in params:
        global_embed = nm.linear(pooled, params["txt_global_w"], params["txt_global_b"])
    return TextEncodings(word_feats, local_embed, global_embed, mask)

