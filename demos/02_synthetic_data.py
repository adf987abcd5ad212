"""Generate a synthetic identity dataset and look inside.

Every identity is a vector of attribute signs; images render them as
noisy strip mixtures, captions as noisy per-attribute tokens. Twin
identities (the hard negatives) copy a parent and flip a couple of the
faint "detail" attributes.
"""

import tempfile
from pathlib import Path

from fpmine import EncoderConfig, generate_synthetic_dataset, save_dataset, twin_pairs
from fpmine.dataset import export_json, identity_split, load_dataset

config = EncoderConfig(max_words=16)
dataset = generate_synthetic_dataset(
    seed=0, identity_count=30, samples_per_identity=5, config=config,
    attribute_count=12, detail_count=2, hard_negative_fraction=0.3)

print(f"{len(dataset.samples)} samples over {dataset.identity_count} identities")
print(f"attribute signs of identity 0: {dataset.identity_attributes[0].astype(int)}")

print("\ntwin pairs (identity, parent, flipped attributes):")
for twin, parent, flips in twin_pairs(dataset):
    print(f"  {twin:3d} <- {parent:3d}  flipped {flips}")

sample = dataset.samples[0]
print(f"\nsample 0: identity {sample.identity_id}, "
      f"image {sample.image_raw.shape}, text {sample.text_raw.shape}")

train_idx, val_idx = identity_split(dataset, 0.1, seed=0)
print(f"identity-disjoint split: {train_idx.size} train / {val_idx.size} val samples")

with tempfile.TemporaryDirectory() as tmp:
    save_dataset(dataset, Path(tmp) / "dataset.bin")
    export_json(dataset, Path(tmp) / "dataset.json")
    back = load_dataset(Path(tmp) / "dataset.bin")
print(f"\nround-trip through dataset.bin: {len(back.samples)} samples, "
      f"seed {back.seed}, noise {back.noise}")
