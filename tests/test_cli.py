"""End-to-end command-line workflows, exit codes, manifests."""

import json
import re
import struct
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from fpmine.cli import (DATA_KEYS, ENCODER_KEYS, FLAG_KEYS, GEN_KEYS, MODEL_KEYS, TRAIN_KEYS,
                        _collect_settings, build_configs, build_parser, main, parse_config_file)
from fpmine.dataset import load_dataset, save_dataset, write_atomic
from fpmine.errors import DataError
from fpmine.evaluation import ABLATION_VARIANTS, variant_config
from fpmine.training import (_CKPT_VERSION, TrainConfig, gradcheck, load_checkpoint,
                             save_checkpoint, train)

CONFIG_KEYS = ENCODER_KEYS + TRAIN_KEYS + FLAG_KEYS + GEN_KEYS

# tiny profile so CLI runs stay fast: gen-data reads the first, train and ablate the second
DATA_CONFIG_TEXT = """
feature_dim = 12
shared_dim = 6
projection_dim = 5
region_count = 3
max_words = 8
image_raw_dim = 7
text_raw_dim = 7
attribute_count = 4
detail_count = 1
flip_count = 1
min_hamming = 1
"""
CONFIG_TEXT = """
epochs = 2
batch_size = 8
val_fraction = 0.25
"""


@pytest.fixture()
def data_config(tmp_path):
    path = tmp_path / "data.cfg"
    path.write_text(DATA_CONFIG_TEXT)
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture()
def data_dir(tmp_path, data_config):
    out = tmp_path / "data"
    code = main(["gen-data", "--seed", "3", "--identities", "6", "--per-identity", "4",
                 "--hard-negative-fraction", "0.4", "--config", data_config,
                 "--out", str(out)])
    assert code == 0
    return out


class TestConfigParsing:
    def test_key_value_format(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("epochs = 3\nlearning_rate = 0.01\nuse_mining = false\nseed=9\n")
        doc = parse_config_file(p)
        assert doc == {"epochs": 3, "learning_rate": 0.01, "use_mining": False, "seed": 9}

    def test_json_format_equivalent(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"epochs": 3, "learning_rate": 0.01}))
        assert parse_config_file(p) == {"epochs": 3, "learning_rate": 0.01}

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nepochs = 1  # tail comment\n")
        assert parse_config_file(p) == {"epochs": 1}

    def test_unknown_key_is_config_error_exit(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no_such_setting = 1\n")
        code = main(["train", "--config", str(p), "--data", "x.bin",
                     "--out", str(tmp_path / "run")])
        assert code == 1

    @pytest.mark.parametrize("key", ["beta1", "beta2", "adam_eps", "grad_clip_norm",
                                     "lr_decay_every", "lr_decay_factor",
                                     "word_loss_reduction", "extra_token_max",
                                     "extra_token_pool", "matched_slope", "mismatched_slope",
                                     "w_word", "w_identity", "w_ranking", "matched_bias",
                                     "mismatched_bias", "identity_local_weight",
                                     "ranking_margin", "ranking_local_weight",
                                     "ranking_localneg_weight"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = 1.0\n")
        for command in (["train", "--data", "x.bin"], ["gen-data"]):
            code = main([*command, "--config", str(p), "--out", str(tmp_path / "run")])
            assert code == 1
            assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (None, "config file not found"), ('{"epochs": ', "invalid JSON config"),
        ("[1, 2]", "must hold a JSON object"), ("epochs 3\n", "expected KEY = VALUE")],
        ids=["missing", "invalid-json", "json-array", "line-without-equals"])
    def test_bad_config_file_exit_1(self, tmp_path, capsys, text, message):
        p = tmp_path / "c.cfg"
        if text is not None:
            p.write_text(text)
        code = main(["train", "--config", str(p), "--data", "x.bin", "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_every_key_reaches_built_config(self, tmp_path):
        flat_defaults = self.flatten(*build_configs({}))
        assert len(CONFIG_KEYS) == len(set(CONFIG_KEYS))
        for key in CONFIG_KEYS:
            value = self.other(flat_defaults.get(key, 1))
            settings = {key: value, **({"use_mining": False} if key == "use_local" else {})}
            p = tmp_path / "c.cfg"
            p.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in settings.items()))
            built = self.flatten(*build_configs(parse_config_file(p)))
            assert built[key] == value != flat_defaults.get(key), key

    @staticmethod
    def flatten(encoder, tc, gen) -> dict:
        train = asdict(tc)
        return {**asdict(encoder), **train.pop("flags"), **train, **gen}

    @staticmethod
    def other(value):
        """A valid setting that differs from the default ``value``."""
        if isinstance(value, bool):
            return not value
        return value + 2 if isinstance(value, int) else value / 2

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"`([a-z_0-9]+)`", section.split("Keys:", 1)[1])
        assert sorted(listed) == sorted(CONFIG_KEYS)


class TestGenData:
    def test_outputs_and_manifest(self, data_dir):
        assert (data_dir / "dataset.bin").exists()
        assert (data_dir / "dataset.json").exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 3
        assert manifest["resolved_config"]["generator"]["identities"] == 6
        assert "dataset.bin" in manifest["outputs"]

    def test_deterministic_replay_from_manifest(self, tmp_path, data_config, data_dir):
        manifest = json.loads((data_dir / "manifest.json").read_text())
        gen = manifest["resolved_config"]["generator"]
        out2 = tmp_path / "data2"
        code = main(["gen-data", "--seed", str(gen["seed"]),
                     "--identities", str(gen["identities"]),
                     "--per-identity", str(gen["samples_per_identity"]),
                     "--hard-negative-fraction", str(gen["hard_negative_fraction"]),
                     "--config", data_config, "--out", str(out2)])
        assert code == 0
        assert (out2 / "dataset.bin").read_bytes() == (data_dir / "dataset.bin").read_bytes()

    def test_bad_generator_config_exit_1(self, tmp_path, data_config):
        code = main(["gen-data", "--identities", "1", "--config", data_config,
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_training_key_exit_1(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text(DATA_CONFIG_TEXT + CONFIG_TEXT)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'epochs'" in err
        assert not (tmp_path / "x" / "dataset.bin").exists()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, config_file, data_dir):
        run = tmp_path / "run"
        code = main(["train", "--config", config_file, "--data",
                     str(data_dir / "dataset.bin"), "--out", str(run)])
        assert code == 0
        assert (run / "checkpoint.bin").exists()
        log_lines = (run / "log.ndjson").read_text().strip().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert any(r["type"] == "step" for r in records)
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["resolved_config"]["train"]["epochs"] == 2
        assert manifest["blas_threads"] == 1  # pinned when fpmine is imported

        ev = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data", str(data_dir / "dataset.bin"), "--fusion", "full",
                     "--report", "--out", str(ev)])
        assert code == 0
        results = json.loads((ev / "results.json").read_text())
        assert set(results["r_at"]) == {"1", "5", "10"}
        report = json.loads((ev / "report.json").read_text())
        assert "mining_activity" in report

    def test_eval_report_over_one_identity_is_valid_json(self, tmp_path, capsys):
        # a validation split of one identity has no mismatched pair to take a mean over
        data, run, ev = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        assert main(["gen-data", "--identities", "3", "--per-identity", "4",
                     "--out", str(data)]) == 0
        assert main(["train", "--data", str(data / "dataset.bin"), "--epochs", "1",
                     "--batch-size", "4", "--val-fraction", "0.2", "--out", str(run)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data",
                         str(data / "dataset.bin"), "--report", "--out", str(ev)]) == 0
        assert "mining active on n/a of mismatched validation pairs" in capsys.readouterr().out

        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        activity = json.loads((ev / "report.json").read_text(),
                              parse_constant=refuse)["mining_activity"]
        assert activity["mismatched_active_fraction"] is None
        assert activity["mean_negative_mismatched"] is None
        assert 0.0 <= activity["matched_active_fraction"] <= 1.0

    def test_eval_report_scores_split_once(self, tmp_path, config_file, data_dir, monkeypatch):
        from fpmine.dataset import identity_split, load_dataset
        from fpmine.evaluation import (evaluate_retrieval, mining_activity,
                                       negative_evidence_report, planted_contradiction_pairs)
        from fpmine.model import Model
        from fpmine.training import model_from_checkpoint

        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--data",
                     str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        calls = []
        score_components = Model.score_components

        def counted(self, *args):
            calls.append(len(args[0]))
            return score_components(self, *args)

        monkeypatch.setattr(Model, "score_components", counted)
        ev = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data", str(data_dir / "dataset.bin"), "--report",
                     "--out", str(ev)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()

        # the same documents as scoring separately for recall and for mining activity
        ckpt = load_checkpoint(run / "checkpoint.bin")
        model, ds = model_from_checkpoint(ckpt), load_dataset(data_dir / "dataset.bin")
        _, val_idx = identity_split(ds, ckpt.train_config.val_fraction,
                                    seed=ckpt.train_config.seed)
        results = evaluate_retrieval(model, ds, val_idx, model.flags.fusion()).to_json()
        evidence = [negative_evidence_report(model, ds.samples[i], ds.samples[t])
                    for i, t in planted_contradiction_pairs(ds, val_idx)[:8]]
        report = {"mining_activity": mining_activity(model, ds, val_idx), "evidence": evidence}
        assert json.loads((ev / "results.json").read_text()) == json.loads(json.dumps(results))
        assert json.loads((ev / "report.json").read_text()) == json.loads(json.dumps(report))

    def test_eval_without_validation_split_scores_every_sample(self, tmp_path, config_file,
                                                               data_dir):
        run, ev = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--config", config_file, "--epochs", "1", "--val-fraction", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data", str(data_dir / "dataset.bin"), "--out", str(ev)]) == 0
        results = json.loads((ev / "results.json").read_text())
        count = len(load_dataset(data_dir / "dataset.bin").samples)
        assert results["query_count"] == results["gallery_count"] == count

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numerical_failure_exit_3(self, tmp_path, config_file, data_dir, capsys):
        # the overflow is reported once, as the failure, with no numpy warning before it
        code = main(["train", "--config", config_file, "--lr", "1e300",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1

    def test_epochs_zero_checkpoint_equals_init(self, tmp_path, config_file, data_dir):
        run = tmp_path / "run0"
        code = main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)])
        assert code == 0
        ckpt = load_checkpoint(run / "checkpoint.bin")
        assert ckpt.step == 0
        from fpmine.model import Model

        fresh = Model(ckpt.encoder_config, ckpt.train_config.flags, seed=ckpt.train_config.seed)
        for name, arr in fresh.params.items():
            assert np.array_equal(ckpt.params[name], arr)

    def test_branch_flags_map_to_variants(self, tmp_path, config_file):
        # each flag sets its one key over the config file, and only when it is given
        cases = [("--no-global", "use_global", False), ("--no-local", "use_local", False),
                 ("--no-mining", "use_mining", False),
                 ("--no-mining-mask", "use_mining_mask", False),
                 ("--no-local-neg-ranking", "use_local_neg_ranking", False),
                 ("--no-balanced-sample", "balanced_sampling", False),
                 ("--learnable-boundary", "learnable_boundary", True),
                 ("--lr=0.25", "learning_rate", 0.25), ("--epochs=0", "epochs", 0),
                 ("--batch-size=6", "batch_size", 6), ("--seed=4", "seed", 4),
                 ("--val-every=2", "val_every", 2), ("--val-fraction=0.5", "val_fraction", 0.5)]
        parser, paths = build_parser(), ["--data", "x.bin", "--out", str(tmp_path / "r")]
        base = _collect_settings(parser.parse_args(["train", "--config", config_file, *paths]),
                                 MODEL_KEYS)
        assert base == parse_config_file(Path(config_file))
        for flag, key, value in cases:
            args = parser.parse_args(["train", "--config", config_file, flag, *paths])
            settings = _collect_settings(args, MODEL_KEYS)
            assert settings == {**base, key: value}, flag
            built = TestConfigParsing.flatten(*build_configs(
                {**settings, "use_mining": False} if key == "use_local" else settings))
            assert built[key] == value, flag
        args = parser.parse_args(["gen-data", "--per-identity", "7", "--out", "d"])
        assert _collect_settings(args, DATA_KEYS) == {"samples_per_identity": 7}

    def test_missing_data_exit_2(self, tmp_path, config_file):
        code = main(["train", "--config", config_file, "--data",
                     str(tmp_path / "nope.bin"), "--out", str(tmp_path / "r")])
        assert code == 2

    def test_missing_checkpoint_exit_2(self, tmp_path, data_dir, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "checkpoint not found" in capsys.readouterr().err

    @pytest.mark.parametrize("grown", ["dataset", "checkpoint"])
    def test_trailing_byte_exit_2(self, tmp_path, config_file, data_dir, capsys, grown):
        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        files = {"dataset": data_dir / "dataset.bin", "checkpoint": run / "checkpoint.bin"}
        files[grown].write_bytes(files[grown].read_bytes() + b"\0")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(files["checkpoint"]),
                     "--data", str(files["dataset"]), "--out", str(tmp_path / "e")])
        assert code == 2
        assert f"trailing bytes in {grown}" in capsys.readouterr().err

    @pytest.mark.parametrize("spoiled", ["dataset", "checkpoint"])
    def test_non_finite_value_exit_2(self, tmp_path, config_file, data_dir, capsys, spoiled):
        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        if spoiled == "dataset":  # one NaN in one sample's image
            ds = load_dataset(data_dir / "dataset.bin")
            image = ds.samples[0].image_raw.copy()
            image[0, 0] = np.nan
            ds.samples[0] = replace(ds.samples[0], image_raw=image)
            save_dataset(ds, data_dir / "dataset.bin")
            command = ["train", "--config", config_file, "--out", str(tmp_path / "r2")]
        else:  # one NaN weight
            ckpt = load_checkpoint(run / "checkpoint.bin")
            ckpt.params["img_embed_w"][0, 0] = np.nan
            save_checkpoint(ckpt, run / "checkpoint.bin")
            command = ["eval", "--checkpoint", str(run / "checkpoint.bin"),
                       "--out", str(tmp_path / "e")]
        capsys.readouterr()
        assert main(command + ["--data", str(data_dir / "dataset.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"non-finite value in {spoiled}" in err
        assert "Traceback" not in err

    def test_unknown_tensor_prefix_is_data_error(self, tmp_path, config_file, data_dir):
        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        blob = (run / "checkpoint.bin").read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob.replace(b"param/img_embed_w", b"parax/img_embed_w"))
        with pytest.raises(DataError, match="unknown tensor entry 'parax/img_embed_w'"):
            load_checkpoint(bad)

    def test_corrupt_checkpoint_exit_2(self, tmp_path, data_dir):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", str(data_dir / "dataset.bin"),
                     "--out", str(tmp_path / "e")])
        assert code == 2

    @pytest.mark.parametrize("header", [b"{", b"\xff", b"[]", b'{"version": 1}'])
    def test_corrupt_checkpoint_header_exit_2(self, tmp_path, data_dir, header):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"FPMCKPT1" + struct.pack("<IQ", _CKPT_VERSION, len(header)) + header
                        + struct.pack("<I", 0))
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", str(data_dir / "dataset.bin"),
                     "--out", str(tmp_path / "e")])
        assert code == 2

    @pytest.mark.parametrize("corrupt", ["projection_dim", "tensor_name"])
    def test_checkpoint_unlike_its_header_exit_2(self, tmp_path, config_file, data_dir,
                                                 corrupt):
        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        blob = (run / "checkpoint.bin").read_bytes()
        if corrupt == "projection_dim":
            bad_blob = blob.replace(b'"projection_dim": 5', b'"projection_dim": 4')
        else:
            at = blob.index(b"param/img_embed_w") + len(b"param/img_embed_")
            bad_blob = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]
        assert len(bad_blob) == len(blob) and bad_blob != blob
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bad_blob)
        code = main(["eval", "--checkpoint", str(bad),
                     "--data", str(data_dir / "dataset.bin"),
                     "--out", str(tmp_path / "e")])
        assert code == 2

    def test_old_checkpoint_version_exit_2(self, tmp_path, config_file, data_dir, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", config_file, "--epochs", "0",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        blob = bytearray((run / "checkpoint.bin").read_bytes())
        for version in (1, 2, 3):
            blob[8:12] = struct.pack("<I", version)
            old = tmp_path / f"v{version}.bin"
            old.write_bytes(bytes(blob))
            code = main(["eval", "--checkpoint", str(old),
                         "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "e")])
            assert code == 2
            assert f"unsupported checkpoint version {version}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,line", [(["--lr", "nan"], ""), (["--lr", "inf"], ""),
                                            ([], "val_every = -1\n"), ([], "epochs = 1.5\n"),
                                            ([], "seed = 1.5\n"), ([], "batch_size = 8.0\n"),
                                            ([], "val_every = true\n")],
                             ids=["lr-nan", "lr-inf", "val-every-negative", "epochs-float",
                                  "seed-float", "batch-size-float", "val-every-bool"])
    def test_bad_train_setting_exit_1(self, tmp_path, data_dir, capsys, flags, line):
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG_TEXT + line)
        code = main(["train", "--config", str(config), *flags,
                     "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "r")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command,line", [
        (["train"], "feature_dim = 12.5\n"), (["train"], "identities = 9\n"),
        (["ablate"], "noise = 0.5\n"), (["gradcheck"], "region_count = 2\n")],
        ids=["train-encoder-key", "train-generator-key", "ablate-generator-key",
             "gradcheck-data-encoder-key"])
    def test_key_the_command_does_not_read_exit_1(self, tmp_path, data_dir, capsys,
                                                  command, line):
        config = tmp_path / "extra.cfg"
        config.write_text(CONFIG_TEXT + line)
        code = main([*command, "--config", str(config), "--data", str(data_dir / "dataset.bin"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and line.split(" =")[0] in err

    def test_negative_report_pairs_exit_1(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", "x.bin", "--data", "x.bin", "--report",
                     "--report-pairs", "-1", "--out", str(tmp_path / "e")])
        assert code == 1
        assert "--report-pairs" in capsys.readouterr().err

    def test_zero_region_count_dataset_exit_2(self, tmp_path, config_file, data_dir):
        blob = bytearray((data_dir / "dataset.bin").read_bytes())
        blob[16:20] = struct.pack("<I", 0)  # third header count: region_count
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        code = main(["train", "--config", config_file, "--data", str(bad),
                     "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize("lie", ["identity_id", "length", "twin_parent"])
    def test_dataset_unlike_its_header_exit_2(self, tmp_path, config_file, data_dir, lie):
        good = data_dir / "dataset.bin"
        blob = bytearray(good.read_bytes())
        counts = struct.unpack_from("<12I", blob, 8)
        n_id, n_attr = counts[0], counts[6]
        twins = 88 + n_id * n_attr * 8  # after magic, counts, seed, noise levels, attributes
        if lie == "identity_id":
            struct.pack_into("<I", blob, twins + 4 * n_id, n_id)  # the first sample's identity
        elif lie == "length":
            struct.pack_into("<I", blob, 8 + 4 * 5, 1)  # max_words 1, under every caption
        else:
            struct.pack_into("<i", blob, twins, n_id)  # identity 0's twin parent
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        if lie == "twin_parent":  # eval --report is what reads the twins
            run = tmp_path / "run"
            assert main(["train", "--config", config_file, "--epochs", "0",
                         "--data", str(good), "--out", str(run)]) == 0
            argv = ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--report"]
        else:
            argv = ["train", "--config", config_file]
        assert main(argv + ["--data", str(bad), "--out", str(tmp_path / "e")]) == 2

    def test_usage_error_exit_1(self):
        assert main(["train"]) == 1
        assert main(["eval", "--fusion", "sideways"]) == 1


class TestGradcheckCommand:
    def test_default_passes_exit_0(self, tmp_path, capsys):
        code = main(["gradcheck", "--tolerance", "1e-5", "--out", str(tmp_path / "gc")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out
        doc = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
        assert doc["passed"] is True

    def test_manifest_records_the_toy_data_settings(self, tmp_path):
        config = tmp_path / "gc.cfg"
        config.write_text("region_count = 2\nidentities = 3\n")
        code = main(["gradcheck", "--config", str(config), "--out", str(tmp_path / "gc")])
        assert code == 0
        resolved = json.loads((tmp_path / "gc" / "manifest.json").read_text())["resolved_config"]
        assert resolved["encoder"]["region_count"] == 2
        assert resolved["generator"] == {"identities": 3}

    def test_given_dataset_is_checked(self, tmp_path, data_dir, monkeypatch):
        from fpmine import cli

        checked = []

        def recording_gradcheck(dataset, config, **kw):
            checked.append(dataset)
            return gradcheck(dataset, config, **kw)

        monkeypatch.setattr(cli, "gradcheck", recording_gradcheck)
        path = data_dir / "dataset.bin"
        assert main(["gradcheck", "--data", str(path), "--out", str(tmp_path / "gc")]) == 0
        [dataset], given = checked, load_dataset(path)
        assert dataset.config == given.config and len(dataset.samples) == len(given.samples)
        for a, b in zip(dataset.samples, given.samples):
            assert np.array_equal(a.image_raw, b.image_raw)
            assert np.array_equal(a.text_raw, b.text_raw)
        resolved = json.loads((tmp_path / "gc" / "manifest.json").read_text())["resolved_config"]
        assert resolved["data"] == str(path)

    def test_impossible_tolerance_exit_3(self, tmp_path):
        code = main(["gradcheck", "--tolerance", "1e-18", "--out", str(tmp_path / "gc")])
        assert code == 3


class TestAblateCommand:
    def test_tiny_ablation_tables(self, tmp_path, config_file, data_dir):
        out = tmp_path / "abl"
        code = main(["ablate", "--config", config_file, "--epochs", "1",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(out)])
        assert code == 0
        text = (out / "ablation.txt").read_text()
        assert "global+local+mining" in text
        doc = json.loads((out / "ablation.json").read_text())
        names = [r["name"] for r in doc["branches"]]
        assert names == ["global", "local", "global+local", "local+mining",
                         "global+local+mining"]
        design = [r["name"] for r in doc["design"]]
        assert design == ["baseline", "no_local_neg_ranking", "no_mining_mask",
                          "no_balanced_sample", "learnable_boundary", "full"]

    def test_outputs_written_atomically(self, tmp_path, config_file, data_dir, monkeypatch):
        from fpmine import cli

        written = []

        def recording_write(path, data):
            written.append(Path(path).name)
            write_atomic(path, data)

        monkeypatch.setattr(cli, "write_atomic", recording_write)
        assert main(["ablate", "--config", config_file, "--epochs", "1",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "a")]) == 0
        assert {"manifest.json", "ablation.txt", "ablation.json"} <= set(written)

    def test_each_distinct_config_trains_once(self, tmp_path, config_file, data_dir,
                                              monkeypatch):
        from fpmine import training

        configs = []

        def recording_train(dataset, config):
            configs.append(config)
            return train(dataset, config)

        monkeypatch.setattr(training, "train", recording_train)
        assert main(["ablate", "--config", config_file, "--epochs", "1",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(tmp_path / "a")]) == 0
        assert len(configs) == len(set(configs)) == 9  # 11 rows: two pairs coincide


class TestEveryVariant:
    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_gen_data_train_eval_report(self, tmp_path, data_dir, variant):
        config = variant_config(TrainConfig(epochs=1, batch_size=8, val_fraction=0.25), variant)
        settings = {**asdict(config.flags), "balanced_sampling": config.balanced_sampling}
        path = tmp_path / "variant.cfg"
        path.write_text(CONFIG_TEXT + "".join(f"{k} = {json.dumps(v)}\n"
                                              for k, v in settings.items()))
        run, ev = tmp_path / "run", tmp_path / "eval"
        assert main(["train", "--config", str(path), "--epochs", "1",
                     "--data", str(data_dir / "dataset.bin"), "--out", str(run)]) == 0
        assert load_checkpoint(run / "checkpoint.bin").train_config == config
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data",
                     str(data_dir / "dataset.bin"), "--report", "--out", str(ev)]) == 0
        assert json.loads((ev / "results.json").read_text())["fusion"] == config.flags.fusion()
        assert "mining_activity" in json.loads((ev / "report.json").read_text())
