"""Toy trainable encoders producing global, region-level, and word-level features.

Real backbones (CNN feature maps, recurrent sentence encoders, pretrained
word embeddings) are replaced by small linear maps so the whole pipeline
trains in CPU seconds while keeping the exact representation set the
matching engine needs:

* image: per-strip features ``region_feats`` (K x C), per-strip local
  embeddings (K x P), and a pooled global embedding (P).
* text:  per-token features (C x length), K local embeddings derived from
  the pooled token features, and a pooled global embedding (P).

Batches hold each sample's K local embeddings as one region-major K * P row.

Padding positions in text batches are excluded from every pooling and
reduction via explicit masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
        for name in ("feature_dim", "shared_dim", "projection_dim", "max_words",
                     "identity_count", "image_raw_dim", "text_raw_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.region_count < 2:
            raise ConfigError(f"region_count must be >= 2, got {self.region_count}")

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
class EmbeddingBundle:
    """All representation levels of one sample in one modality.

    ``raw_parts`` is (K x C) region features for images and (C x length)
    word features for text; ``valid_len`` is the token count for text and
    None for images.
    """

    global_embed: Tensor   # (P,)
    local_embed: Tensor    # (K, P)
    raw_parts: Tensor
    valid_len: int | None = None


@dataclass(frozen=True)
class ImageEncodings:
    """Batched image representations (N samples)."""

    region_feats: Tensor   # (N, K, C)
    local_embed: Tensor    # (N, K * P), region-major
    global_embed: Tensor   # (N, P)


@dataclass(frozen=True)
class TextEncodings:
    """Batched text representations (N samples, padded to a common length)."""

    word_feats: Tensor     # (N, L, C)
    local_embed: Tensor    # (N, K * P), region-major
    global_embed: Tensor   # (N, P)
    mask: np.ndarray       # (N, L) bool, True at valid tokens


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
    """Encode a stack of raw image grids (N, K, image_raw_dim)."""
    r = raws if isinstance(raws, Tensor) else Tensor(raws)
    k, raw_dim = config.region_count, config.image_raw_dim
    if r.ndim != 3 or r.shape[1:] != (k, raw_dim):
        raise ShapeError(f"expected image raws (N, {k}, {raw_dim}), got {r.shape}")
    region_feats = nm.linear(r, params["img_embed_w"], params["img_embed_b"])
    local_embed = nm.linear(region_feats, params["img_local_w"], params["img_local_b"]).reshape(
        (r.shape[0], k * config.shared_dim))
    pooled = region_feats.max(axis=1)
    global_embed = nm.linear(pooled, params["img_global_w"], params["img_global_b"])
    return ImageEncodings(region_feats, local_embed, global_embed)


def encode_texts_batch(raws, lengths, params: Mapping[str, Tensor | np.ndarray],
                       config: EncoderConfig) -> TextEncodings:
    """Encode padded token batches (N, L, text_raw_dim) with explicit lengths."""
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
    local_embed = nm.linear(pooled, params["txt_local_w"], params["txt_local_b"]).reshape(
        (n, config.region_count * config.shared_dim))
    global_embed = nm.linear(pooled, params["txt_global_w"], params["txt_global_b"])
    return TextEncodings(word_feats, local_embed, global_embed, mask)


def encode_image(raw, params: Mapping[str, Tensor | np.ndarray],
                 config: EncoderConfig) -> EmbeddingBundle:
    """Encode one raw strip grid (region_count, image_raw_dim)."""
    arr = raw.data if isinstance(raw, Tensor) else np.asarray(raw, dtype=np.float64)
    if arr.shape != (config.region_count, config.image_raw_dim):
        raise ShapeError(
            f"expected image raw ({config.region_count}, {config.image_raw_dim}), got {arr.shape}")
    batch = raw.reshape((1,) + arr.shape) if isinstance(raw, Tensor) else Tensor(arr[None])
    enc = encode_images_batch(batch, params, config)
    return EmbeddingBundle(
        global_embed=enc.global_embed.reshape((config.shared_dim,)),
        local_embed=enc.local_embed.reshape((config.region_count, config.shared_dim)),
        raw_parts=enc.region_feats.reshape((config.region_count, config.feature_dim)),
    )


def encode_text(raw, params: Mapping[str, Tensor | np.ndarray],
                config: EncoderConfig) -> EmbeddingBundle:
    """Encode one raw token sequence (length, text_raw_dim), every row a token."""
    arr = raw.data if isinstance(raw, Tensor) else np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != config.text_raw_dim:
        raise ShapeError(f"expected text raw (L, {config.text_raw_dim}), got {arr.shape}")
    length = arr.shape[0]
    if length < 1 or length > config.max_words:
        raise InputError(f"text length must be in [1, {config.max_words}], got {length}")
    batch = raw.reshape((1,) + arr.shape) if isinstance(raw, Tensor) else Tensor(arr[None])
    enc = encode_texts_batch(batch, np.array([length]), params, config)
    return EmbeddingBundle(
        global_embed=enc.global_embed.reshape((config.shared_dim,)),
        local_embed=enc.local_embed.reshape((config.region_count, config.shared_dim)),
        raw_parts=enc.word_feats.reshape((length, config.feature_dim)).T,
        valid_len=length,
    )
