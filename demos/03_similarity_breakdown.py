"""The three similarity branches on a single (image, caption) pair.

Shows the per-word max scores, what the mining mask keeps, and how the
summed negative evidence modifies the pair's overall similarity.
"""

import numpy as np

from fpmine import EncoderConfig, Model, generate_synthetic_dataset
from fpmine.encoders import encode_image, encode_text
from fpmine.similarity import pair_breakdown

config = EncoderConfig(max_words=16)
dataset = generate_synthetic_dataset(
    seed=3, identity_count=20, samples_per_identity=4, config=config,
    attribute_count=12, detail_count=2, hard_negative_fraction=0.4)
model = Model(config.with_identity_count(20), seed=1)

bound = model.bind()
mining = model.mining_params(bound)

matched = dataset.samples[0], dataset.samples[1]        # same identity
mismatched = dataset.samples[0], dataset.samples[12]    # different identity

for title, (img_sample, txt_sample) in (("matched pair", matched),
                                        ("mismatched pair", mismatched)):
    img = encode_image(img_sample.image_raw, bound, model.config)
    txt = encode_text(txt_sample.text_raw, bound, model.config)
    b = pair_breakdown(img, txt, mining)
    print(f"{title} (identities {img_sample.identity_id} vs {txt_sample.identity_id})")
    print(f"  global score        {b.global_score:+.4f}")
    print(f"  local score         {b.local_score:+.4f}")
    print(f"  word scores         {np.round(b.word_scores, 3)}")
    print(f"  masked (evidence)   {np.round(b.masked_word_scores, 3)}")
    print(f"  negative score      {b.negative_score:+.4f}")
    print(f"  local - negative    {b.local_negative_score:+.4f}")
    print(f"  overall             {b.overall_score:+.4f}")
    print()

print("note: this model is untrained, so word scores are still arbitrary;")
print("demo 04 trains them until matched words turn positive.")
