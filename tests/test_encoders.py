"""Encoder contracts: shapes, linearity, padding, gradients."""

from dataclasses import fields

import numpy as np
import pytest

from fpmine.encoders import EncoderConfig, encode_images_batch, encode_texts_batch
from fpmine.errors import ConfigError, InputError, ShapeError
from fpmine.model import ModelFlags, init_params
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad

CFG = EncoderConfig(feature_dim=10, shared_dim=6, projection_dim=4, region_count=3,
                    max_words=5, identity_count=4, image_raw_dim=7, text_raw_dim=8)


@pytest.fixture()
def params():
    return init_params(CFG, ModelFlags(), 0)


class TestConfig:
    def test_defaults_match_toy_profile(self):
        c = EncoderConfig()
        assert (c.feature_dim, c.shared_dim, c.projection_dim) == (64, 32, 16)
        assert (c.region_count, c.max_words) == (6, 12)

    def test_region_count_minimum(self):
        with pytest.raises(ConfigError):
            EncoderConfig(region_count=1)

    def test_positive_dims(self):
        with pytest.raises(ConfigError):
            EncoderConfig(feature_dim=0)

    @pytest.mark.parametrize("field", [f.name for f in fields(EncoderConfig)])
    @pytest.mark.parametrize("value", [2.5, 16.0, True, "8"])
    def test_non_integer_setting_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            EncoderConfig(**{field: value})


class TestEncodeImage:
    """One image is a batch of one."""

    def test_shape_contract(self):
        cfg = EncoderConfig(feature_dim=64, shared_dim=32, region_count=6,
                            image_raw_dim=24)
        p = init_params(cfg, ModelFlags(), 1)
        enc = encode_images_batch(np.zeros((1, 6, 24)), p, cfg)
        assert enc.global_embed.shape == (1, 32)
        assert enc.local_embed.shape == (1, 6 * 32)
        assert enc.region_feats.shape == (1, 6, 64)

    def test_zero_input_zero_bias_gives_zero_bundle(self, params):
        enc = encode_images_batch(np.zeros((1, CFG.region_count, CFG.image_raw_dim)), params,
                                  CFG)
        assert np.all(enc.global_embed.data == 0.0)
        assert np.all(enc.local_embed.data == 0.0)
        assert np.all(enc.region_feats.data == 0.0)

    def test_strip_count_mismatch(self, params):
        with pytest.raises(ShapeError):
            encode_images_batch(np.zeros((1, CFG.region_count + 1, CFG.image_raw_dim)), params,
                                CFG)

    def test_batch_matches_single(self, params):
        rng = np.random.default_rng(2)
        raws = rng.normal(size=(4, CFG.region_count, CFG.image_raw_dim))
        batch = encode_images_batch(raws, params, CFG)
        for i in range(4):
            single = encode_images_batch(raws[i:i + 1], params, CFG)
            assert np.allclose(batch.global_embed.data[i], single.global_embed.data[0])
            # batches hold each sample's local embeddings as one region-major row
            assert np.allclose(batch.local_embed.data[i], single.local_embed.data[0])
            assert np.allclose(batch.region_feats.data[i], single.region_feats.data[0])

    def test_gradient_of_bundle_entry_wrt_params(self, params):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(CFG.region_count, CFG.image_raw_dim))[None]
        for pname in ("img_embed_w", "img_global_w", "img_local_w", "img_local_b"):
            tape = GradTape()
            bound = {k: (tape.leaf(v) if k == pname else Tensor(v))
                     for k, v in params.items()}
            enc = encode_images_batch(raw, bound, CFG)
            out = enc.global_embed.sum() + enc.local_embed.sum()
            grads = backward(out, tape)[bound[pname]].data

            def scalar(x):
                probe = dict(params)
                probe[pname] = x
                e = encode_images_batch(raw, probe, CFG)
                return e.global_embed.sum().item() + e.local_embed.sum().item()

            fd = finite_difference_grad(scalar, params[pname])
            denom = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-8)
            assert np.max(np.abs(grads - fd) / denom) < 1e-6, pname


class TestEncodeText:
    """One caption is a batch of one, padded to its own length."""

    def test_shape_contract(self):
        cfg = EncoderConfig(feature_dim=64, shared_dim=32, region_count=6,
                            max_words=12, text_raw_dim=24)
        p = init_params(cfg, ModelFlags(), 4)
        raw = np.random.default_rng(5).normal(size=(9, 24))
        enc = encode_texts_batch(raw[None], [9], p, cfg)
        assert enc.global_embed.shape == (1, 32)
        assert enc.local_embed.shape == (1, 6 * 32)
        assert enc.word_feats.shape == (1, 9, 64)
        assert enc.mask.tolist() == [[True] * 9]

    def test_single_token(self, params):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(1, CFG.text_raw_dim))
        enc = encode_texts_batch(raw[None], [1], params, CFG)
        assert enc.word_feats.shape == (1, 1, CFG.feature_dim)
        assert enc.mask.tolist() == [[True]]

    def test_batch_matches_single(self, params):
        rng = np.random.default_rng(8)
        lengths = [2, 5, 1]
        pad = max(lengths)
        raws = np.zeros((3, pad, CFG.text_raw_dim))
        tokens = [rng.normal(size=(n, CFG.text_raw_dim)) for n in lengths]
        for i, t in enumerate(tokens):
            raws[i, :len(t)] = t
        batch = encode_texts_batch(raws, np.array(lengths), params, CFG)
        for i, t in enumerate(tokens):
            single = encode_texts_batch(t[None], [len(t)], params, CFG)
            assert np.allclose(batch.global_embed.data[i], single.global_embed.data[0])
            # batches hold each sample's local embeddings as one region-major row
            assert np.allclose(batch.local_embed.data[i], single.local_embed.data[0])

    def test_length_zero_rejected(self, params):
        with pytest.raises((InputError, ShapeError)):
            encode_texts_batch(np.zeros((1, 0, CFG.text_raw_dim)), [0], params, CFG)

    def test_length_above_cap_rejected(self, params):
        n = CFG.max_words + 1
        with pytest.raises(InputError):
            encode_texts_batch(np.zeros((1, n, CFG.text_raw_dim)), [n], params, CFG)

    def test_shapes_depend_only_on_config(self, params):
        rng = np.random.default_rng(9)
        for scale in (1e-3, 1.0, 1e3):
            raw = rng.normal(size=(4, CFG.text_raw_dim)) * scale
            enc = encode_texts_batch(raw[None], [4], params, CFG)
            assert enc.global_embed.shape == (1, CFG.shared_dim)
            assert enc.local_embed.shape == (1, CFG.region_count * CFG.shared_dim)
