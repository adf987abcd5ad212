"""Synthetic identity dataset: generation, serialization, and split helpers.

Each identity carries a latent sign vector over ``attribute_count``
attributes. Image strips are noisy linear mixtures of the attributes
assigned to them (attribute j lives on strip j mod K); text tokens are
noisy linear views of single attributes, so a matched pair shares every
attribute sign while a mismatched pair disagrees somewhere.

Hard negatives: with probability ``hard_negative_fraction`` an identity is
generated as a *twin* of an earlier one - same attributes except
``flip_count`` flipped signs. Twins are the pairs that look alike
everywhere except a couple of contradicted attributes, which is exactly
the regime the mining branch is meant to resolve.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .encoders import EncoderConfig, Sample
from .errors import ConfigError, DataError, ShapeError

_MAGIC = b"FPMDSET1"
EXTRA_TOKENS = 4  # most repeated attributes a caption adds after its mentions


@dataclass(frozen=True)
class SyntheticDataset:
    """Samples plus the generator metadata needed for twin-aware evaluation."""

    samples: list[Sample]
    config: EncoderConfig
    seed: int
    attribute_count: int
    noise: float
    hard_negative_fraction: float
    identity_attributes: np.ndarray  # (identity_count, attribute_count), entries +-1
    twin_parent: np.ndarray          # (identity_count,), parent identity or -1
    detail_count: int                # trailing attributes rendered faintly in images
    text_noise: float                # token noise level
    min_hamming: int                 # minimum attribute distance between drawn identities

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def identity_count(self) -> int:
        return self.config.identity_count

    def labels(self) -> np.ndarray:
        return np.array([s.identity_id for s in self.samples], dtype=np.intp)


def generate_synthetic_dataset(seed: int, identity_count: int, samples_per_identity: int,
                               config: EncoderConfig, *, attribute_count: int = 12,
                               noise: float = 0.12, hard_negative_fraction: float = 0.0,
                               flip_count: int = 2,
                               detail_count: int = 2, detail_strength: float = 0.2,
                               text_noise: float | None = None,
                               min_hamming: int = 3,
                               strong_token_keep: float = 1.0) -> SyntheticDataset:
    """Deterministically generate a labelled (image, caption) dataset.

    Matched pairs are learnably more similar than mismatched ones: both
    modalities are linear views of the shared attribute signs. Token order
    and count vary per sample (length in [attribute_count,
    attribute_count + EXTRA_TOKENS], capped at config.max_words).

    The trailing ``detail_count`` attributes are *pervasive but faint*:
    they appear in every image strip at ``detail_strength`` yet as
    full-strength tokens - subtle cues (build, gender, accessory) that
    captions state outright. A caption word contradicting such an
    attribute disagrees with every region at once, which is exactly what
    max-over-regions mining can detect; instance-level similarity sees
    only a small pervasive shift. Twins flip detail attributes when there
    are any, so twin pairs differ exactly where instance similarity is
    weakest and word evidence is strongest.

    ``noise`` perturbs image strips; ``text_noise`` (default: a third of
    ``noise``) perturbs tokens. Captions are closer to clean symbols than
    pixels are, and that asymmetry is what makes word-level evidence worth
    mining.

    Randomly drawn identities keep a minimum Hamming distance of
    ``min_hamming`` from every earlier identity, so planted twins are the
    only near-duplicates in the data (accidental sign-vector collisions
    would otherwise create unresolvable queries).

    Captions longer than ``attribute_count`` repeat detail attributes (any
    attribute when there are none): people restate the distinguishing
    details. Repeats multiply summed word evidence without changing
    max-pooled sentence features.

    ``strong_token_keep`` < 1 makes captions *partial*: each strong
    attribute is mentioned with that probability while details are always
    mentioned. Coverage variance is the honest hard part of description
    matching - agreement-based similarity cannot recover what a caption
    omits, but contradiction evidence only needs the contradicted word to
    be present.
    """
    counts = dict(identity_count=identity_count, samples_per_identity=samples_per_identity,
                  attribute_count=attribute_count, flip_count=flip_count,
                  detail_count=detail_count, min_hamming=min_hamming)
    levels = dict(noise=noise, text_noise=0.0 if text_noise is None else text_noise,
                  hard_negative_fraction=hard_negative_fraction,
                  detail_strength=detail_strength, strong_token_keep=strong_token_keep)
    for group, kind, what in ((counts, numbers.Integral, "an integer"),
                              (levels, numbers.Real, "a finite real number")):
        for name, value in group.items():
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or kind is numbers.Real and not math.isfinite(value)):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
    if min_hamming < 0:
        raise ConfigError("min_hamming must be >= 0")
    if identity_count < 2:
        raise ConfigError("identity_count must be >= 2 (ranking needs negatives)")
    if samples_per_identity < 1:
        raise ConfigError("samples_per_identity must be >= 1")
    if attribute_count < flip_count + 1:
        raise ConfigError("attribute_count must exceed flip_count")
    if attribute_count > config.max_words:
        raise ConfigError(
            f"attribute_count {attribute_count} does not fit max_words {config.max_words}")
    if not 0.0 <= hard_negative_fraction <= 1.0:
        raise ConfigError("hard_negative_fraction must be in [0, 1]")
    if noise < 0.0:
        raise ConfigError("noise must be >= 0")
    if not 0 <= detail_count < attribute_count:
        raise ConfigError("detail_count must be in [0, attribute_count)")
    if detail_count and flip_count > detail_count:
        raise ConfigError("flip_count cannot exceed detail_count when details are used")
    if text_noise is None:
        text_noise = noise / 3.0
    if text_noise < 0.0:
        raise ConfigError("text_noise must be >= 0")
    if not 0.0 < strong_token_keep <= 1.0:
        raise ConfigError("strong_token_keep must be in (0, 1]")

    config = config.with_identity_count(identity_count)
    rng = np.random.default_rng(seed)
    k = config.region_count

    def unit_rows(shape):
        m = rng.normal(size=shape)
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    attr_img_dirs = unit_rows((attribute_count, config.image_raw_dim))
    attr_txt_dirs = unit_rows((attribute_count, config.text_raw_dim))
    # strong attributes live on single strips; details appear on every strip
    strong_count = attribute_count - detail_count
    strip_of_strong = np.arange(strong_count) % k
    detail_attrs = np.arange(strong_count, attribute_count)
    flip_pool = detail_attrs if detail_count else np.arange(attribute_count)

    attrs = np.zeros((identity_count, attribute_count))
    twin_parent = np.full(identity_count, -1, dtype=np.int64)
    has_twin = np.zeros(identity_count, dtype=bool)

    def place_random(ident: int) -> np.ndarray:
        for _ in range(10000):
            vec = rng.choice([-1.0, 1.0], size=attribute_count)
            if ((vec != attrs[:ident]).sum(axis=1) >= min_hamming).all():
                return vec
        raise ConfigError(
            f"cannot place {identity_count} identities with pairwise Hamming "
            f"distance >= {min_hamming} over {attribute_count} attributes; "
            f"raise attribute_count or lower min_hamming")

    for ident in range(identity_count):
        # twins come in pairs: a parent that is itself not twin-linked
        roots = np.flatnonzero((twin_parent[:ident] == -1) & ~has_twin[:ident])
        twin_vec = None
        if roots.size and rng.random() < hard_negative_fraction:
            parent = int(roots[rng.integers(roots.size)])
            for _ in range(100):
                flips = rng.choice(flip_pool, size=flip_count, replace=False)
                vec = attrs[parent].copy()
                vec[flips] *= -1.0
                if (vec != attrs[:ident]).any(axis=1).all():
                    twin_vec = vec
                    break
        if twin_vec is not None:
            attrs[ident] = twin_vec
            twin_parent[ident] = parent
            has_twin[parent] = True
        else:
            attrs[ident] = place_random(ident)

    max_extra = min(EXTRA_TOKENS, config.max_words - attribute_count)
    extras_pool = detail_attrs if detail_count else np.arange(attribute_count)
    samples: list[Sample] = []
    for ident in range(identity_count):
        sign = attrs[ident]
        strip_base = np.zeros((k, config.image_raw_dim))
        for j in range(strong_count):
            strip_base[strip_of_strong[j]] += sign[j] * attr_img_dirs[j]
        for j in detail_attrs:
            strip_base += detail_strength * sign[j] * attr_img_dirs[j]
        for _ in range(samples_per_identity):
            image = strip_base + noise * rng.normal(size=strip_base.shape)
            if strong_token_keep < 1.0:
                kept = np.nonzero(rng.random(strong_count) < strong_token_keep)[0]
                if kept.size == 0:
                    kept = np.array([int(rng.integers(strong_count))])
                mentioned = np.concatenate([kept, detail_attrs])
            else:
                mentioned = np.arange(attribute_count)
            budget = config.max_words - mentioned.size
            extras = int(rng.integers(0, min(max_extra, budget) + 1)) if budget > 0 else 0
            token_attrs = np.concatenate([
                rng.permutation(mentioned),
                rng.choice(extras_pool, size=extras),
            ])
            token_attrs = rng.permutation(token_attrs).astype(np.intp)
            length = token_attrs.size
            text = (sign[token_attrs, None] * attr_txt_dirs[token_attrs]
                    + text_noise * rng.normal(size=(length, config.text_raw_dim)))
            samples.append(Sample(ident, image, text))

    return SyntheticDataset(samples, config, seed, attribute_count, noise,
                            hard_negative_fraction, attrs, twin_parent,
                            detail_count=detail_count, text_noise=text_noise,
                            min_hamming=min_hamming)


def twin_pairs(dataset: SyntheticDataset) -> list[tuple[int, int, list[int]]]:
    """(twin identity, parent identity, flipped attribute indices) triples."""
    out = []
    for ident, parent in enumerate(dataset.twin_parent):
        if parent >= 0:
            flipped = np.nonzero(dataset.identity_attributes[ident]
                                 != dataset.identity_attributes[parent])[0]
            out.append((ident, int(parent), flipped.tolist()))
    return out


def twin_groups(dataset: SyntheticDataset) -> list[list[int]]:
    """Identities grouped so every twin sits with its parent."""
    groups: dict[int, list[int]] = {}
    for ident, parent in enumerate(dataset.twin_parent):
        root = ident if parent < 0 else int(parent)
        groups.setdefault(root, []).append(ident)
    return [groups[r] for r in sorted(groups)]


def identity_split(dataset: SyntheticDataset, val_fraction: float,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Identity-disjoint (train sample idx, val sample idx) split.

    Whole twin groups go to the same side, so held-out galleries keep the
    confusable images their queries need; when the dataset has any twin
    group at all, the validation side gets at least one, so the
    hard-negative regime is actually exercised at evaluation time.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError("val_fraction must be in [0, 1)")
    n_id = dataset.identity_count
    if val_fraction == 0.0:
        return np.arange(len(dataset.samples), dtype=np.intp), np.array([], dtype=np.intp)
    groups = twin_groups(dataset)
    order = list(np.random.default_rng(seed).permutation(len(groups)))
    first_twin = next((gi for gi in order if len(groups[gi]) > 1), None)
    if first_twin is not None:
        order.remove(first_twin)
        order.insert(0, first_twin)
    target = max(1, round(val_fraction * n_id))
    val_ids: set[int] = set()
    for gi in order:
        if len(val_ids) >= target:
            break
        if n_id - len(val_ids) - len(groups[gi]) < 2:
            continue  # keep at least two train identities for ranking
        val_ids.update(groups[gi])
    labels = dataset.labels()
    val_mask = np.isin(labels, sorted(val_ids))
    idx = np.arange(len(dataset.samples), dtype=np.intp)
    return idx[~val_mask], idx[val_mask]


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """Write the documented little-endian binary layout (see README)."""
    cfg = dataset.config
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack(
        "<12I", cfg.identity_count, len(dataset.samples), cfg.region_count,
        cfg.image_raw_dim, cfg.text_raw_dim, cfg.max_words, dataset.attribute_count,
        cfg.feature_dim, cfg.shared_dim, cfg.projection_dim, dataset.detail_count,
        dataset.min_hamming)
    buf += struct.pack("<Q", dataset.seed)
    buf += struct.pack("<3d", dataset.noise, dataset.text_noise,
                       dataset.hard_negative_fraction)
    buf += np.ascontiguousarray(dataset.identity_attributes, dtype="<f8").tobytes()
    buf += np.ascontiguousarray(dataset.twin_parent, dtype="<i4").tobytes()
    for s in dataset.samples:
        buf += struct.pack("<IH", s.identity_id, s.length)
        buf += np.ascontiguousarray(s.image_raw, dtype="<f8").tobytes()
        buf += np.ascontiguousarray(s.text_raw, dtype="<f8").tobytes()
    write_atomic(path, bytes(buf))


def write_atomic(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to ``path`` through a renamed temporary file, so
    readers see the old file or the whole new one, never a partial write."""
    tmp = Path(str(path) + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    tmp.replace(path)


class _Reader:
    """Sequential reader over a binary file's bytes; ``kind`` names the file in errors."""

    def __init__(self, blob: bytes, path, kind: str):
        self.blob = blob
        self.off = 0
        self.path = path
        self.kind = kind

    def read(self, size: int) -> bytes:
        if self.off + size > len(self.blob):
            raise DataError(f"truncated {self.kind}: {self.path}")
        out = self.blob[self.off:self.off + size]
        self.off += size
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        raw = self.read(math.prod(shape) * np.dtype(dtype).itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise DataError(f"non-finite value in {self.kind}: {self.path}")
        return arr


def load_dataset(path) -> SyntheticDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    r = _Reader(path.read_bytes(), path, "dataset file")
    if r.read(len(_MAGIC)) != _MAGIC:
        raise DataError(f"not a dataset file (bad magic): {path}")
    (n_id, n_samples, k, img_dim, txt_dim, max_words, n_attr,
     feat_dim, shared_dim, proj_dim, detail_count, min_hamming) = r.unpack("<12I")
    (seed,) = r.unpack("<Q")
    noise, text_noise, hard_frac = r.unpack("<3d")
    try:  # a header that no valid config or sample matches is corrupt data
        config = EncoderConfig(feature_dim=feat_dim, shared_dim=shared_dim,
                               projection_dim=proj_dim, region_count=k, max_words=max_words,
                               identity_count=n_id, image_raw_dim=img_dim, text_raw_dim=txt_dim)
        attrs = r.array("<f8", (n_id, n_attr))
        twin_raw = r.read(n_id * 4)
        twin_parent = np.frombuffer(twin_raw, dtype="<i4").astype(np.int64)
        if np.any((twin_parent < -1) | (twin_parent >= n_id)):
            raise DataError(f"twin parent outside [-1, {n_id}) in {path}")
        samples = []
        for _ in range(n_samples):
            ident, length = r.unpack("<IH")
            if ident >= n_id or length > max_words:
                raise DataError(f"sample of identity {ident} with {length} tokens does not fit "
                                f"{n_id} identities and max_words {max_words} in {path}")
            image = r.array("<f8", (k, img_dim))
            text = r.array("<f8", (length, txt_dim))
            samples.append(Sample(int(ident), image, text))
    except (ConfigError, ShapeError) as exc:
        raise DataError(f"invalid dataset header in {path}: {exc}") from exc
    if r.off != len(r.blob):
        raise DataError(f"trailing bytes in dataset file: {path}")
    return SyntheticDataset(samples, config, int(seed), int(n_attr), float(noise),
                            float(hard_frac), attrs, twin_parent,
                            detail_count=int(detail_count), text_noise=float(text_noise),
                            min_hamming=int(min_hamming))


def export_json(dataset: SyntheticDataset, path) -> None:
    """Human-inspectable mirror of the binary file."""
    doc = {
        "format": "fpmine-dataset",
        "version": 1,
        "seed": dataset.seed,
        "attribute_count": dataset.attribute_count,
        "detail_count": dataset.detail_count,
        "noise": dataset.noise,
        "text_noise": dataset.text_noise,
        "hard_negative_fraction": dataset.hard_negative_fraction,
        "min_hamming": dataset.min_hamming,
        "config": asdict(dataset.config),
        "identity_attributes": dataset.identity_attributes.tolist(),
        "twin_parent": dataset.twin_parent.tolist(),
        "samples": [
            {
                "identity_id": s.identity_id,
                "length": s.length,
                "image_raw": s.image_raw.tolist(),
                "text_raw": s.text_raw.tolist(),
            }
            for s in dataset.samples
        ],
    }
    write_atomic(path, json.dumps(doc, sort_keys=True))
