"""Optimizer, training loop, checkpoints, gradcheck."""

import ctypes
import functools
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmine.dataset import generate_synthetic_dataset, identity_split
from fpmine.encoders import EncoderConfig
from fpmine.errors import ConfigError, DataError
from fpmine.model import Model, ModelFlags
from fpmine.sampling import balanced_batches
from fpmine.training import (AdamState, Checkpoint, TrainConfig, adam_step, gradcheck,
                             load_checkpoint, model_from_checkpoint, save_checkpoint, train)

CFG = EncoderConfig(feature_dim=12, shared_dim=6, projection_dim=5, region_count=3,
                    max_words=8, image_raw_dim=7, text_raw_dim=7)


def toy_dataset(seed=0, identities=6, per_id=4):
    return generate_synthetic_dataset(seed, identities, per_id, CFG,
                                      attribute_count=4, detail_count=1, flip_count=1,
                                      hard_negative_fraction=0.3, min_hamming=1)


def toy_config(**kw):
    kw.setdefault("epochs", 2)
    kw.setdefault("batch_size", 8)
    kw.setdefault("seed", 0)
    kw.setdefault("val_fraction", 0.2)
    return TrainConfig(**kw)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.zeros_like(params)
        out = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(out["w"], params["w"])

    def test_first_step_moves_against_gradient_sign(self):
        params = {"w": np.array([1.0, -1.0, 0.5])}
        grads = {"w": np.array([0.3, -0.7, 2.0])}
        state = AdamState.zeros_like(params)
        out = adam_step(params, grads, state, lr=0.01)
        moved = out["w"] - params["w"]
        assert np.all(np.sign(moved) == -np.sign(grads["w"]))

    def test_two_steps_match_decimal_oracle(self):
        # f(x) = x^2 from x0 = 1 with lr 0.1; trajectory computed once with
        # 50-digit Decimal arithmetic and frozen here
        params = {"x": np.array(1.0)}
        state = AdamState.zeros_like(params)
        for _ in range(2):
            grads = {"x": 2.0 * params["x"]}
            params = adam_step(params, grads, state, lr=0.1)
        assert float(params["x"]) == pytest.approx(0.80041222869179214523740594408, rel=1e-12)

    def test_intermediate_step_matches_oracle(self):
        params = {"x": np.array(1.0)}
        state = AdamState.zeros_like(params)
        params = adam_step(params, {"x": 2.0 * params["x"]}, state, lr=0.1)
        assert float(params["x"]) == pytest.approx(0.9000000004999999975, rel=1e-12)


def reference_adam_step(params, grads, m, v, t, lr):
    """The per-tensor Adam loop that ``adam_step`` replaced, updating ``m`` and ``v``."""
    out = {}
    for name, p in params.items():
        g = grads[name]
        m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
        v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
        m_hat = m[name] / (1.0 - 0.9 ** t)
        v_hat = v[name] / (1.0 - 0.999 ** t)
        out[name] = p - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return out


class TestFlatAdam:
    """``adam_step`` over one flat vector against the per-tensor reference loop."""

    @staticmethod
    def start(seed):
        rng = np.random.default_rng(seed)
        params = {"scalar": np.array(0.3), "vector": rng.normal(size=5),
                  "cube": rng.normal(size=(2, 3, 4))}
        zeros = {k: np.zeros_like(a) for k, a in params.items()}
        return rng, params, dict(zeros), dict(zeros)

    @staticmethod
    def draw(rng, params, zero):
        return {k: np.zeros_like(a) if zero else rng.normal(size=a.shape)
                for k, a in params.items()}

    @staticmethod
    def assert_same(a, b):
        assert a.keys() == b.keys()
        for k in a:
            assert a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes(), k

    @pytest.mark.parametrize("zero", [False, True])
    def test_twenty_steps_bit_for_bit(self, zero):
        rng, params, m, v = self.start(40)
        expected, state = params, AdamState.zeros_like(params)
        for t in range(1, 21):
            grads = self.draw(rng, params, zero)
            params = adam_step(params, grads, state, lr=0.01)
            expected = reference_adam_step(expected, grads, m, v, t, 0.01)
            self.assert_same(params, expected)
            self.assert_same(state.m, m)
            self.assert_same(state.v, v)
        assert state.t == 20

    def test_rebuilt_state_continues_bit_for_bit(self):
        # train() resumes from a checkpoint, whose tensors come back in sorted name order
        rng, params, _, _ = self.start(41)
        state = AdamState.zeros_like(params)
        for _ in range(10):
            params = adam_step(params, self.draw(rng, params, False), state, lr=0.01)
        rebuilt = AdamState({k: state.m[k].copy() for k in sorted(state.m)},
                            {k: state.v[k].copy() for k in sorted(state.v)}, state.t)
        resumed = params
        for _ in range(10):
            grads = self.draw(rng, params, False)
            params = adam_step(params, grads, state, lr=0.01)
            resumed = adam_step(resumed, grads, rebuilt, lr=0.01)
            self.assert_same(resumed, params)
        self.assert_same({k: rebuilt.m[k] for k in state.m}, state.m)
        self.assert_same({k: rebuilt.v[k] for k in state.v}, state.v)

    def test_params_and_grads_not_mutated(self):
        rng, params, _, _ = self.start(42)
        state = AdamState.zeros_like(params)
        for _ in range(3):
            grads = self.draw(rng, params, False)
            before = ({k: a.copy() for k, a in params.items()},
                      {k: a.copy() for k, a in grads.items()})
            out = adam_step(params, grads, state, lr=0.01)
            self.assert_same(params, before[0])
            self.assert_same(grads, before[1])
            assert not any(np.shares_memory(out[k], a) for k in out
                           for a in (*params.values(), *grads.values()))
            params = out


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=7)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ConfigError):
            TrainConfig(val_every=-1)

    def test_json_roundtrip(self):
        tc = toy_config(flags=ModelFlags(use_mining=False), learning_rate=0.01)
        back = TrainConfig.from_json(tc.to_json())
        assert back == tc


class TestTrain:
    def test_loss_decreases(self):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=6))
        steps = [r["total"] for r in result.log if r["type"] == "step"]
        assert steps[-1] < steps[0]

    def test_epochs_zero_returns_initialization(self):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=0))
        fresh = Model(ds.config, seed=0)
        assert result.checkpoint.step == 0
        for name, arr in fresh.params.items():
            assert np.array_equal(result.checkpoint.params[name], arr)

    def test_full_run_determinism_bit_identical(self):
        ds = toy_dataset()
        a = train(ds, toy_config(epochs=3))
        b = train(ds, toy_config(epochs=3))
        assert a.checkpoint.params.keys() == b.checkpoint.params.keys()
        for name in a.checkpoint.params:
            assert np.array_equal(a.checkpoint.params[name], b.checkpoint.params[name]), name
        assert [r for r in a.log] == [r for r in b.log]

    def test_different_seed_differs(self):
        ds = toy_dataset()
        a = train(ds, toy_config(seed=0))
        b = train(ds, toy_config(seed=1))
        assert any(not np.array_equal(a.checkpoint.params[n], b.checkpoint.params[n])
                   for n in a.checkpoint.params)

    def test_mining_disabled_never_produces_word_terms(self):
        ds = toy_dataset()
        result = train(ds, toy_config(flags=ModelFlags(use_mining=False)))
        for rec in result.log:
            if rec["type"] == "step":
                assert rec["matched"] == 0.0
                assert rec["mismatched"] == 0.0
                assert rec["rank_local_neg"] == 0.0

    def test_validation_records_emitted(self):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=2, val_every=1))
        vals = [r for r in result.log if r["type"] == "val"]
        assert len(vals) == 2
        assert set(vals[0]["r_at"]) == {1, 5, 10}

    def test_val_every_zero_never_validates(self):
        result = train(toy_dataset(), toy_config(epochs=2, val_every=0))
        assert not [r for r in result.log if r["type"] == "val"]

    def test_boundary_logged_when_learnable(self):
        ds = toy_dataset()
        result = train(ds, toy_config(flags=ModelFlags(learnable_boundary=True)))
        epochs = [r for r in result.log if r["type"] == "epoch"]
        assert all("boundary_tau" in r for r in epochs)

    def test_unbalanced_mode_trains(self):
        ds = toy_dataset()
        result = train(ds, toy_config(balanced_sampling=False))
        assert result.checkpoint.step > 0


class TestCheckpoint:
    def test_roundtrip_bytes_and_values(self, tmp_path):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=2))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(result.checkpoint, path)
        back = load_checkpoint(path)
        assert back.version == result.checkpoint.version
        assert back.encoder_config == result.checkpoint.encoder_config
        assert back.train_config == result.checkpoint.train_config
        assert back.step == result.checkpoint.step
        assert back.epoch == result.checkpoint.epoch
        assert back.adam_t == result.checkpoint.adam_t
        assert back.rng_state == result.checkpoint.rng_state
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(result.checkpoint, group), getattr(back, group)
            assert a.keys() == b.keys()
            for name in a:
                assert np.array_equal(a[name], b[name]), (group, name)

    def test_save_is_deterministic(self, tmp_path):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=1))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(result.checkpoint, p1)
        save_checkpoint(result.checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_equals_uninterrupted(self, tmp_path):
        ds = toy_dataset()
        straight = train(ds, toy_config(epochs=4))

        half = train(ds, toy_config(epochs=2))
        path = tmp_path / "half.bin"
        save_checkpoint(half.checkpoint, path)
        resumed = train(ds, toy_config(epochs=4), start=load_checkpoint(path))

        assert resumed.checkpoint.step == straight.checkpoint.step
        for name in straight.checkpoint.params:
            assert np.array_equal(resumed.checkpoint.params[name],
                                  straight.checkpoint.params[name]), name
        # step logs for the second half coincide too
        tail_a = [r for r in straight.log if r["type"] == "step"][half.checkpoint.step:]
        tail_b = [r for r in resumed.log if r["type"] == "step"]
        assert tail_a == tail_b

    def test_wrong_config_rejected_on_resume(self, tmp_path):
        ds = toy_dataset()
        other = generate_synthetic_dataset(
            1, 4, 2, EncoderConfig(feature_dim=10, shared_dim=4, projection_dim=3,
                                   region_count=3, max_words=8, image_raw_dim=5,
                                   text_raw_dim=5),
            attribute_count=4, detail_count=1, flip_count=1,
                                   min_hamming=1)
        result = train(ds, toy_config(epochs=1))
        with pytest.raises(ConfigError):
            train(other, toy_config(epochs=2), start=result.checkpoint)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_model_from_checkpoint_scores_like_result_model(self):
        ds = toy_dataset()
        result = train(ds, toy_config(epochs=1))
        rebuilt = model_from_checkpoint(result.checkpoint)
        s1 = result.model.score_matrix([ds.samples[0]], [ds.samples[1]], "full")
        s2 = rebuilt.score_matrix([ds.samples[0]], [ds.samples[1]], "full")
        assert np.array_equal(s1, s2)


ROOT = Path(__file__).resolve().parents[1]

# numpy loads first, so its OpenBLAS starts at the thread count of the environment and
# only the pin made when fpmine is imported can bring it to one thread
FIVE_EPOCHS = """
import dataclasses, sys
import numpy
from conftest import accept_config, accept_dataset
from fpmine.training import save_checkpoint, train
config = dataclasses.replace(accept_config(0, "full"), epochs=5)
save_checkpoint(train(accept_dataset(0), config).checkpoint, sys.argv[1])
"""

READ_THREADS = """
import numpy
from fpmine.numerics import blas_threads
print(blas_threads())
"""


def run_python(code: str, threads: int, *args: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestOneBlasThread:
    def test_import_pins_numpy_blas_to_one_thread(self):
        assert run_python(READ_THREADS, 2).strip() == "1"

    def test_checkpoints_do_not_depend_on_the_thread_count(self, tmp_path):
        # OpenBLAS rounds some training products differently at one and two threads
        paths = [tmp_path / f"threads{n}.bin" for n in (1, 2)]
        for n, path in zip((1, 2), paths):
            run_python(FIVE_EPOCHS, n, str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


# one epoch of the acceptance profile warms the heap up; the next 16 steps are counted
FAULTS_PER_STEP = """
import resource
from conftest import accept_config, accept_dataset
from fpmine import numerics, training
from fpmine.dataset import identity_split
from fpmine.model import Model
from fpmine.sampling import balanced_batches
ds, config = accept_dataset(0), accept_config(0, "full")
train_idx, _ = identity_split(ds, config.val_fraction, seed=0)
model = Model(ds.config, config.flags, seed=0)
state = training.AdamState.zeros_like(model.params)
warm_up, counted = (list(balanced_batches(ds, config.batch_size, epoch, include=train_idx))
                    for epoch in (0, 1))
faults = []
for plan in warm_up + counted[:16]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tape = numerics.GradTape()
    total, _, bound = model.batch_loss(ds, plan, tape)
    grads = numerics.backward(total, tape)
    model.params = training.adam_step(
        model.params, {name: grads[leaf].data for name, leaf in bound.items()}, state,
        lr=config.learning_rate)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[-16:]) / 16)
"""


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_training_step_reuses_freed_memory():
    # glibc gave each step's freed arrays back to the kernel: 234-347 faults per step
    assert float(run_python(FAULTS_PER_STEP, 1)) < 10


@functools.lru_cache(maxsize=1)
def checkpoint_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        save_checkpoint(train(toy_dataset(), toy_config(epochs=0)).checkpoint, path)
        return path.read_bytes()


def header_end(blob: bytes) -> int:
    """End of the magic, version, length and JSON header of an FPMCKPT1 file."""
    return 20 + struct.unpack("<Q", blob[12:20])[0]


def load_bytes(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        path.write_bytes(blob)
        return load_checkpoint(path)


class TestCheckpointHeaderFuzz:
    """A corrupt header is a DataError, never a raw decoding or lookup error."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_truncated_header(self, data):
        blob = checkpoint_blob()
        cut = data.draw(st.integers(0, header_end(blob) - 1))
        with pytest.raises(DataError):
            load_bytes(blob[:cut])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_flipped_header(self, data):
        blob = bytearray(checkpoint_blob())
        blob[data.draw(st.integers(0, header_end(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        # a flip that leaves a valid header of other values (a digit to a digit) loads
        try:
            assert isinstance(load_bytes(bytes(blob)), Checkpoint)
        except DataError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200))
    def test_garbage_header(self, garbage):
        blob = checkpoint_blob()
        head = blob[:12] + struct.pack("<Q", len(garbage)) + garbage
        with pytest.raises(DataError):
            load_bytes(head + blob[header_end(blob):])

    @pytest.mark.parametrize("header", [b"[]", b'"text"', b"{}", b"\xff\xfe", b'{"version": 1}'])
    def test_well_formed_but_wrong_header(self, header):
        blob = checkpoint_blob()
        with pytest.raises(DataError):
            load_bytes(blob[:12] + struct.pack("<Q", len(header)) + header
                       + blob[header_end(blob):])


def flip_name_bit(blob: bytes, name: bytes) -> bytes:
    """The checkpoint with one bit of a tensor name flipped (its last letter)."""
    at = blob.index(name, header_end(blob)) + len(name) - 1
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]


def edit_header(blob: bytes, old: bytes, new: bytes) -> bytes:
    header = blob[20:header_end(blob)]
    assert old in header
    header = header.replace(old, new)
    return blob[:12] + struct.pack("<Q", len(header)) + header + blob[header_end(blob):]


class TestCheckpointTensorTable:
    """The tensor table must hold exactly the parameters its header implies."""

    def test_intact_checkpoint_loads(self):
        assert isinstance(load_bytes(checkpoint_blob()), Checkpoint)

    @pytest.mark.parametrize("old,new", [(b'"projection_dim": 5', b'"projection_dim": 4'),
                                         (b'"identity_count": ', b'"identity_count": 1'),
                                         (b'"learnable_boundary": false',
                                          b'"learnable_boundary": true')])
    def test_header_edit_rejected(self, old, new):
        with pytest.raises(DataError):
            load_bytes(edit_header(checkpoint_blob(), old, new))

    @pytest.mark.parametrize("name", [b"param/img_embed_w", b"adam_m/mining_word_proj",
                                      b"adam_v/id_local_w"])
    def test_flipped_tensor_name_rejected(self, name):
        with pytest.raises(DataError):
            load_bytes(flip_name_bit(checkpoint_blob(), name))


class TestBranchIsolation:
    def test_disabled_mining_keeps_mining_params_frozen(self):
        ds = toy_dataset()
        result = train(ds, toy_config(flags=ModelFlags(use_mining=False)))
        fresh = Model(ds.config, ModelFlags(use_mining=False), seed=0)
        for name in ("mining_region_proj", "mining_word_proj"):
            assert np.array_equal(result.checkpoint.params[name], fresh.params[name])

    def test_disabled_global_keeps_global_branch_frozen(self):
        ds = toy_dataset()
        flags = ModelFlags(use_global=False)
        result = train(ds, toy_config(flags=flags))
        fresh = Model(ds.config, flags, seed=0)
        assert np.array_equal(result.checkpoint.params["img_global_w"],
                              fresh.params["img_global_w"])
        # but local branch trained
        assert not np.array_equal(result.checkpoint.params["img_local_w"],
                                  fresh.params["img_local_w"])


class TestGradCheck:
    def test_passes_on_toy_config(self):
        ds = toy_dataset()
        report = gradcheck(ds, toy_config(), tolerance=1e-5, coords_per_param=3)
        assert report.passed, report.to_json()
        assert report.max_rel_error <= 1e-5
        assert report.coords_checked > 0

    def test_covers_every_parameter_group(self):
        ds = toy_dataset()
        report = gradcheck(ds, toy_config(), coords_per_param=2)
        model = Model(ds.config, seed=0)
        assert set(report.per_param) == set(model.params)

    def test_learnable_boundary_included(self):
        ds = toy_dataset()
        report = gradcheck(ds, toy_config(flags=ModelFlags(learnable_boundary=True)),
                           coords_per_param=2)
        assert "boundary_tau" in report.per_param
        assert report.passed, report.to_json()
