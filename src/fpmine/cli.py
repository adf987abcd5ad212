"""Command-line entry point: gen-data, train, eval, ablate, gradcheck.

Every command resolves its configuration (defaults < config file < CLI
flags), writes a replayable ``manifest.json`` into the run directory
before any output (``gen-data`` generates its dataset in memory first;
the others write it before any work), and exits with 0 on success, 1 on
configuration errors, 2 on data errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (export_json, generate_synthetic_dataset, identity_split,
                      load_dataset, save_dataset, write_atomic)
from .encoders import EncoderConfig
from .errors import ConfigError, DataError, FpmineError, InputError, NumericalError
from .evaluation import (ablation_suite, evaluate_with_activity, negative_evidence_report,
                         planted_contradiction_pairs)
from .model import FUSIONS, ModelFlags
from .numerics import blas_threads
from .training import (TrainConfig, gradcheck, load_checkpoint, model_from_checkpoint,
                       save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


# ------------------------------------------------------------- config loading

ENCODER_KEYS = tuple(f.name for f in fields(EncoderConfig))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "flags")
FLAG_KEYS = tuple(f.name for f in fields(ModelFlags))
GEN_KEYS = ("identities", "samples_per_identity", "attribute_count", "noise",
            "text_noise", "hard_negative_fraction", "flip_count", "detail_count",
            "detail_strength", "min_hamming", "strong_token_keep")
DATA_KEYS = ENCODER_KEYS + GEN_KEYS                  # read by gen-data
MODEL_KEYS = TRAIN_KEYS + FLAG_KEYS                  # read by train and ablate


def parse_config_file(path: Path) -> dict:
    """Load a JSON object or KEY = VALUE lines (values parsed as JSON literals)."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return doc
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY = VALUE")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            out[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            out[key.strip()] = value  # bare strings are allowed unquoted
    return out


def build_configs(settings: dict) -> tuple[EncoderConfig, TrainConfig, dict]:
    """Split settings, whose keys ``_collect_settings`` checked, into the three configs."""
    try:
        encoder = EncoderConfig(**{k: settings[k] for k in ENCODER_KEYS if k in settings})
        flags = ModelFlags(**{k: settings[k] for k in FLAG_KEYS if k in settings})
        tc = TrainConfig(flags=flags, **{k: settings[k] for k in TRAIN_KEYS if k in settings})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    gen = {k: settings[k] for k in GEN_KEYS if k in settings}
    return encoder, tc, gen


def _collect_settings(args, reads: tuple[str, ...]) -> dict:
    """Config file values under the CLI flags, each of which has its config key as its
    dest; a key the command does not read is an error."""
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(parse_config_file(Path(args.config)))
    settings.update((k, v) for k, v in vars(args).items() if k in reads)
    unread = set(settings) - set(reads)
    if unread:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unread)}")
    return settings


# ---------------------------------------------------------------- run plumbing

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return f"sha256:{h.hexdigest()}"


def write_manifest(run_dir: Path, command: str, resolved: dict, inputs: list[Path],
                   outputs: list[str], seed) -> None:
    """Atomically persist everything needed to replay this run."""
    run_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "command": command,
        "package_version": __version__,
        "resolved_config": resolved,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None and Path(p).exists()},
        "outputs": outputs,
        "seed": seed,
        "blas_threads": blas_threads(),
    }
    _write_json(run_dir / "manifest.json", doc)


def _write_json(path: Path, doc) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


# ------------------------------------------------------------------- commands

def cmd_gen_data(args) -> int:
    encoder, _tc, gen = build_configs(_collect_settings(args, DATA_KEYS))
    run_dir = Path(args.out)
    seed = int(args.seed)
    identities = gen.pop("identities", 50)
    per_identity = gen.pop("samples_per_identity", 10)
    resolved = {"encoder": asdict(encoder), "generator": {
        "seed": seed, "identities": identities, "samples_per_identity": per_identity, **gen}}
    # generated first: the generator checks its settings, and a bad one writes no manifest
    dataset = generate_synthetic_dataset(seed, identities, per_identity, encoder, **gen)
    write_manifest(run_dir, "gen-data", resolved, [Path(args.config)] if args.config else [],
                   ["dataset.bin", "dataset.json"], seed)
    save_dataset(dataset, run_dir / "dataset.bin")
    export_json(dataset, run_dir / "dataset.json")
    print(f"wrote {len(dataset.samples)} samples "
          f"({identities} identities) to {run_dir / 'dataset.bin'}")
    return EXIT_OK


def cmd_train(args) -> int:
    _encoder, tc, _gen = build_configs(_collect_settings(args, MODEL_KEYS))
    run_dir = Path(args.out)
    dataset = load_dataset(args.data)
    resolved = {"train": tc.to_json(), "data": str(args.data)}
    write_manifest(run_dir, "train", resolved,
                   [Path(args.data)] + ([Path(args.config)] if args.config else []),
                   ["checkpoint.bin", "log.ndjson"], tc.seed)
    result = train(dataset, tc)
    save_checkpoint(result.checkpoint, run_dir / "checkpoint.bin")
    write_atomic(run_dir / "log.ndjson",
                 "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in result.log))
    steps = result.checkpoint.step
    last_total = next((r["total"] for r in reversed(result.log) if r["type"] == "step"), None)
    print(f"trained {tc.epochs} epochs ({steps} steps); "
          f"final loss {last_total if last_total is not None else 'n/a'}; "
          f"checkpoint at {run_dir / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.report_pairs < 0:
        raise ConfigError(f"--report-pairs must be >= 0, got {args.report_pairs}")
    run_dir = Path(args.out)
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    trained, given = ckpt.encoder_config, dataset.config
    for name in ("region_count", "image_raw_dim", "text_raw_dim"):
        if getattr(given, name) != getattr(trained, name):
            raise ConfigError(f"the dataset's {name} is {getattr(given, name)}, but the "
                              f"checkpoint's is {getattr(trained, name)}")
    longest = max((s.length for s in dataset.samples), default=0)
    if longest > trained.max_words:
        raise ConfigError(f"the dataset holds a caption of {longest} words, but the "
                          f"checkpoint's max_words is {trained.max_words}")
    model = model_from_checkpoint(ckpt)
    fusion = args.fusion or model.flags.fusion()
    tc = ckpt.train_config
    resolved = {"checkpoint": str(args.checkpoint), "data": str(args.data),
                "fusion": fusion, "report": bool(args.report),
                "train": tc.to_json()}
    write_manifest(run_dir, "eval", resolved, [Path(args.checkpoint), Path(args.data)],
                   ["results.json"] + (["report.json"] if args.report else []), tc.seed)
    _train_idx, val_idx = identity_split(dataset, tc.val_fraction, seed=tc.seed)
    if val_idx.size == 0:
        val_idx = np.arange(len(dataset.samples))
    result, activity = evaluate_with_activity(model, dataset, val_idx, fusion)
    _write_json(run_dir / "results.json", result.to_json())
    print(f"{'fusion':<16}{'R@1':>8}{'R@5':>8}{'R@10':>8}")
    print(f"{fusion:<16}{result.r_at[1]:>8.2f}{result.r_at[5]:>8.2f}{result.r_at[10]:>8.2f}")
    if args.report:
        pairs = planted_contradiction_pairs(dataset, val_idx)
        evidence = []
        for img_idx, txt_idx in pairs[:args.report_pairs]:
            evidence.append(negative_evidence_report(
                model, dataset.samples[img_idx], dataset.samples[txt_idx]))
        _write_json(run_dir / "report.json",
                    {"mining_activity": activity, "evidence": evidence})
        active = activity["mismatched_active_fraction"]
        print(f"mining active on {'n/a' if active is None else f'{100 * active:.1f}%'} "
              f"of mismatched validation pairs; report at {run_dir / 'report.json'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    _encoder, tc, _gen = build_configs(_collect_settings(args, MODEL_KEYS))
    run_dir = Path(args.out)
    dataset = load_dataset(args.data)
    resolved = {"train": tc.to_json(), "data": str(args.data)}
    write_manifest(run_dir, "ablate", resolved,
                   [Path(args.data)] + ([Path(args.config)] if args.config else []),
                   ["ablation.txt", "ablation.json"], tc.seed)
    tables = ablation_suite(dataset, tc)
    text = tables.format_text()
    write_atomic(run_dir / "ablation.txt", text)
    _write_json(run_dir / "ablation.json", tables.to_json())
    print(text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    encoder, tc, gen = build_configs(
        _collect_settings(args, MODEL_KEYS if args.data else MODEL_KEYS + DATA_KEYS))
    run_dir = Path(args.out) if args.out else None
    if args.data:
        dataset, source = load_dataset(args.data), {"data": str(args.data)}
    else:  # the settings it read, before the pops below take the sizes out of gen
        source = {"encoder": asdict(encoder), "generator": dict(gen)}
        dataset = generate_synthetic_dataset(
            tc.seed, gen.pop("identities", 4), gen.pop("samples_per_identity", 3),
            replace(encoder, feature_dim=min(encoder.feature_dim, 16),
                    shared_dim=min(encoder.shared_dim, 8),
                    projection_dim=min(encoder.projection_dim, 6)),
            **{"noise": 0.25, **gen})
    report = gradcheck(dataset, tc, tolerance=args.tolerance)  # checks the tolerance first
    if run_dir is not None:
        write_manifest(run_dir, "gradcheck",
                       {"train": tc.to_json(), "tolerance": args.tolerance, **source},
                       [Path(p) for p in (args.data, args.config) if p],
                       ["gradcheck.json"], tc.seed)
        _write_json(run_dir / "gradcheck.json", report.to_json())
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: max relative error {report.max_rel_error:.3e} "
          f"(tolerance {report.tolerance:.1e}, {report.coords_checked} coordinates, "
          f"worst group {report.worst_param})")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


# --------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="fpmine",
                     description="Text-to-image retrieval with word-region "
                                 "false-positive mining (desk-scale).")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets a config key has that key as its dest and no default: the
    # settings take it over the config file only when it is given
    keyed = dict(default=argparse.SUPPRESS)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--identities", type=int, **keyed)
    g.add_argument("--per-identity", dest="samples_per_identity", type=int, **keyed)
    g.add_argument("--hard-negative-fraction", type=float, **keyed)
    g.add_argument("--noise", type=float, **keyed)
    g.add_argument("--config", help="JSON or KEY=VALUE settings file")
    g.add_argument("--out", required=True, help="run directory")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset file")
    t.add_argument("--config")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, **keyed)
    t.add_argument("--batch-size", type=int, **keyed)
    t.add_argument("--lr", dest="learning_rate", type=float, **keyed)
    t.add_argument("--seed", type=int, **keyed)
    t.add_argument("--val-every", type=int, **keyed)
    t.add_argument("--val-fraction", type=float, **keyed)
    for flag, key in (("--no-global", "use_global"), ("--no-local", "use_local"),
                      ("--no-mining", "use_mining"), ("--no-mining-mask", "use_mining_mask"),
                      ("--no-local-neg-ranking", "use_local_neg_ranking"),
                      ("--no-balanced-sample", "balanced_sampling")):
        t.add_argument(flag, dest=key, action="store_false", **keyed)
    t.add_argument("--learnable-boundary", action="store_true", **keyed)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint (text-to-image R@K)")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--fusion", choices=list(FUSIONS))
    e.add_argument("--report", action="store_true",
                   help="also write mining-activity and evidence report.json")
    e.add_argument("--report-pairs", type=int, default=8)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="run the branch and design ablation tables")
    a.add_argument("--config")
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--seed", type=int, **keyed)
    a.add_argument("--epochs", type=int, **keyed)
    a.set_defaults(func=cmd_ablate)

    c = sub.add_parser("gradcheck", help="check tape gradients against finite differences")
    c.add_argument("--config")
    c.add_argument("--tolerance", type=float, default=1e-5)
    c.add_argument("--data")
    c.add_argument("--out")
    c.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FpmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
