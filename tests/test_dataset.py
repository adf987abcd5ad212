"""Synthetic generator and dataset file format."""

import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmine.dataset import (SyntheticDataset, export_json, generate_synthetic_dataset,
                            identity_split, load_dataset, save_dataset, twin_groups,
                            twin_pairs)
from fpmine.encoders import EncoderConfig
from fpmine.errors import ConfigError, DataError

CFG = EncoderConfig(feature_dim=12, shared_dim=8, projection_dim=5, region_count=3,
                    max_words=10, image_raw_dim=6, text_raw_dim=7)


def gen(seed=0, identities=6, per_id=3, **kw):
    kw.setdefault("attribute_count", 5)
    kw.setdefault("min_hamming", 1)
    kw.setdefault("detail_count", 2)
    return generate_synthetic_dataset(seed, identities, per_id, CFG, **kw)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a, b = gen(seed=7), gen(seed=7)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.identity_id == sb.identity_id
            assert np.array_equal(sa.image_raw, sb.image_raw)
            assert np.array_equal(sa.text_raw, sb.text_raw)
        assert np.array_equal(a.identity_attributes, b.identity_attributes)

    def test_different_seeds_differ(self):
        a, b = gen(seed=0), gen(seed=1)
        assert not np.array_equal(a.samples[0].image_raw, b.samples[0].image_raw)

    def test_counts_and_labels(self):
        ds = gen(identities=4, per_id=5)
        assert len(ds.samples) == 20
        assert np.array_equal(np.unique(ds.labels()), np.arange(4))
        assert all(1 <= s.length <= CFG.max_words for s in ds.samples)

    def test_single_identity_rejected(self):
        with pytest.raises(ConfigError):
            gen(identities=1)

    @pytest.mark.parametrize("name,value", [
        ("identities", "abc"), ("identities", 2.7), ("per_id", 2.0), ("identities", True),
        ("attribute_count", "5"), ("flip_count", 1.5), ("detail_count", None),
        ("min_hamming", True), ("noise", "x"), ("text_noise", "0.1"),
        ("hard_negative_fraction", None), ("detail_strength", [0.2]),
        ("strong_token_keep", False), ("noise", float("nan")), ("text_noise", float("inf"))])
    def test_setting_of_the_wrong_type_rejected(self, name, value):
        with pytest.raises(ConfigError, match="must be (an integer|a finite real number)"):
            gen(**{name: value})

    def test_negative_min_hamming_rejected(self):
        # the dataset file stores it unsigned
        with pytest.raises(ConfigError, match="min_hamming"):
            gen(min_hamming=-1)

    def test_numpy_numbers_and_default_text_noise_accepted(self):
        ds = gen(identities=np.int64(3), noise=np.float64(0.1), text_noise=None)
        assert len(ds.samples) == 9

    def test_attribute_overflow_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(0, 4, 2, CFG, attribute_count=CFG.max_words + 1)

    def test_zero_noise_same_identity_same_attributes(self):
        ds = gen(noise=0.0, text_noise=0.0)
        # all samples of one identity share the latent attribute row
        for s in ds.samples:
            assert np.array_equal(
                ds.identity_attributes[s.identity_id],
                ds.identity_attributes[ds.samples[s.identity_id * 3].identity_id])

    def test_zero_noise_images_identical_within_identity(self):
        ds = gen(noise=0.0, text_noise=0.0, per_id=2)
        by_id = {}
        for s in ds.samples:
            by_id.setdefault(s.identity_id, []).append(s)
        for group in by_id.values():
            assert np.array_equal(group[0].image_raw, group[1].image_raw)

    def test_twin_fraction_and_flips(self):
        ds = gen(identities=40, per_id=1, hard_negative_fraction=0.5, flip_count=2,
                 attribute_count=8)
        pairs = twin_pairs(ds)
        assert len(pairs) > 0
        for twin, parent, flips in pairs:
            assert ds.twin_parent[twin] == parent
            assert len(flips) == 2
            same = ds.identity_attributes[twin] == ds.identity_attributes[parent]
            assert same.sum() == ds.attribute_count - 2
            # flips drawn from the detail attributes
            assert all(f >= ds.attribute_count - ds.detail_count for f in flips)

    def test_no_twins_when_fraction_zero(self):
        ds = gen(hard_negative_fraction=0.0)
        assert np.all(ds.twin_parent == -1)

    def test_attributes_are_signs(self):
        ds = gen()
        assert set(np.unique(ds.identity_attributes)) <= {-1.0, 1.0}


class TestSplit:
    def test_identity_disjoint(self):
        ds = gen(identities=10, per_id=4, hard_negative_fraction=0.3)
        train, val = identity_split(ds, 0.2, seed=3)
        labels = ds.labels()
        assert set(labels[train]) & set(labels[val]) == set()
        assert train.size + val.size == len(ds.samples)

    def test_twins_stay_together(self):
        ds = gen(identities=20, per_id=2, hard_negative_fraction=0.5)
        train, val = identity_split(ds, 0.25, seed=1)
        val_ids = set(ds.labels()[val])
        for twin, parent, _ in twin_pairs(ds):
            assert (twin in val_ids) == (parent in val_ids)

    def test_val_includes_a_twin_group_when_any(self):
        ds = gen(identities=20, per_id=2, hard_negative_fraction=0.4)
        if not twin_pairs(ds):
            pytest.skip("no twins drawn at this seed")
        for seed in range(5):
            _, val = identity_split(ds, 0.2, seed=seed)
            val_ids = set(ds.labels()[val])
            assert any(t in val_ids and p in val_ids for t, p, _ in twin_pairs(ds))

    def test_zero_fraction(self):
        ds = gen()
        train, val = identity_split(ds, 0.0)
        assert val.size == 0 and train.size == len(ds.samples)

    def test_groups_cover_all_identities(self):
        ds = gen(identities=15, per_id=1, hard_negative_fraction=0.4)
        flat = [i for g in twin_groups(ds) for i in g]
        assert sorted(flat) == list(range(15))


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        ds = gen(identities=5, per_id=2, hard_negative_fraction=0.4)
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.config == ds.config
        assert back.seed == ds.seed
        assert back.attribute_count == ds.attribute_count
        assert back.detail_count == ds.detail_count
        assert back.noise == ds.noise
        assert back.text_noise == ds.text_noise
        assert back.hard_negative_fraction == ds.hard_negative_fraction
        assert np.array_equal(back.identity_attributes, ds.identity_attributes)
        assert np.array_equal(back.twin_parent, ds.twin_parent)
        assert len(back.samples) == len(ds.samples)
        for a, b in zip(ds.samples, back.samples):
            assert a.identity_id == b.identity_id
            assert np.array_equal(a.image_raw, b.image_raw)
            assert np.array_equal(a.text_raw, b.text_raw)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTADATA" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_dataset(path)

    def test_truncation_rejected(self, tmp_path):
        ds = gen(identities=3, per_id=1)
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "absent.bin")

    def test_json_export_inspectable(self, tmp_path):
        ds = gen(identities=3, per_id=1)
        path = tmp_path / "data.json"
        export_json(ds, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "fpmine-dataset"
        assert doc["config"]["region_count"] == CFG.region_count
        assert len(doc["samples"]) == len(ds.samples)
        assert doc["samples"][0]["length"] == ds.samples[0].length


HEADER_END = 8 + 12 * 4 + 8 + 3 * 8  # magic, 12 counts and sizes, seed, 3 noise levels


@functools.lru_cache(maxsize=1)
def dataset_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.bin"
        save_dataset(gen(identities=3, per_id=2), path)
        return path.read_bytes()


def load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.bin"
        path.write_bytes(blob)
        return load_dataset(path)


class TestHeaderFuzz:
    """A corrupt FPMDSET1 header is a DataError, never a config or decoding error."""

    def test_zero_region_count_is_data_error(self):
        blob = bytearray(dataset_blob())
        blob[16:20] = struct.pack("<I", 0)  # third count: region_count
        with pytest.raises(DataError):
            load_bytes(bytes(blob))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_truncated_header(self, data):
        with pytest.raises(DataError):
            load_bytes(dataset_blob()[:data.draw(st.integers(0, HEADER_END - 1))])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_flipped_header(self, data):
        blob = bytearray(dataset_blob())
        blob[data.draw(st.integers(0, HEADER_END - 1))] ^= 1 << data.draw(st.integers(0, 7))
        # a flip in a field that sizes nothing (a seed, a noise level) still loads
        try:
            assert isinstance(load_bytes(bytes(blob)), SyntheticDataset)
        except DataError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=HEADER_END - 8, max_size=HEADER_END - 8))
    def test_garbage_header(self, garbage):
        blob = dataset_blob()
        with pytest.raises(DataError):
            load_bytes(blob[:8] + garbage + blob[HEADER_END:])
