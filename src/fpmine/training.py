"""Optimization loop, Adam, checkpoints, and the gradient-check harness.

Runs are deterministic: (seed, config) fixes the parameter init, the
batch stream, and therefore the final checkpoint bit-for-bit on one
thread. Checkpoints are written at epoch boundaries; a resumed run
replays the remaining epochs exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import SyntheticDataset, _Reader, identity_split, write_atomic
from .encoders import EncoderConfig
from .errors import ConfigError, DataError, NumericalError
from .model import Model, ModelFlags, param_shapes
from .numerics import GradTape, backward
from .sampling import balanced_batches

_CKPT_MAGIC = b"FPMCKPT1"
_CKPT_VERSION = 4


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs beyond the dataset itself."""

    learning_rate: float = 0.001
    epochs: int = 45
    batch_size: int = 64
    seed: int = 0
    flags: ModelFlags = field(default_factory=ModelFlags)
    balanced_sampling: bool = True
    val_fraction: float = 0.1
    val_every: int = 0              # epochs between validation passes; 0 = never

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed", "val_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        if self.val_every < 0:
            raise ConfigError(f"val_every must be >= 0, got {self.val_every}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        doc["flags"] = ModelFlags(**doc["flags"])
        return cls(**doc)


def _flatten(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A fresh float64 vector holding ``arrays`` back to back, and each one's view of it."""
    flat = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    views, start = {}, 0
    for name, a in arrays.items():
        size = np.size(a)
        views[name] = flat[start:start + size].reshape(np.shape(a))
        start += size
    return flat, views


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter.

    Each moment is one flat float64 vector (``flat_m``, ``flat_v``), copied from the
    dicts given; ``m[name]`` and ``v[name]`` are views of it, which ``adam_step``
    updates in place."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    flat_m: np.ndarray = field(init=False, repr=False)
    flat_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.flat_m, self.m = _flatten(self.m)
        self.flat_v, self.v = _flatten(self.v)

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        zeros = {k: np.zeros(np.shape(v)) for k, v in params.items()}
        return cls(zeros, zeros, 0)


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, *, lr: float) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new parameter arrays.

    Per parameter: m <- beta1*m + (1-beta1)*g, v <- beta2*v + (1-beta2)*g^2,
    then p <- p - lr * m_hat / (sqrt(v_hat) + eps) with the bias-corrected
    m_hat = m / (1 - beta1^t) and v_hat = v / (1 - beta2^t), where t is the
    shared step counter after incrementing. The constants are Adam's
    published defaults: beta1 = 0.9, beta2 = 0.999, eps = 1e-8.

    The update runs once over the state's flat vectors, in the order of
    ``state.m``; the new parameters are views of one fresh vector, and no
    array of ``params`` or ``grads`` is written.

    A zero gradient leaves the parameter unchanged only while both moments
    are still zero (a fresh state). Once earlier steps have filled them, a
    zero gradient decays m by beta1 and v by beta2, and the parameter keeps
    moving along the remembered direction: for f(x) = x^2 from x = 1 at
    lr 0.1, one step gives 0.9 and a following zero-gradient step gives
    about 0.833.
    """
    state.t += 1
    t = state.t
    m, v = state.flat_m, state.flat_v
    g, _ = _flatten({name: grads[name] for name in state.m})
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    g *= g
    g *= 1.0 - _BETA2
    v += g
    step = m / (1.0 - _BETA1 ** t)
    denom = v / (1.0 - _BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += _EPS
    step *= lr
    step /= denom
    p, out = _flatten({name: params[name] for name in state.m})
    p -= step
    return {name: out[name] for name in params}


@dataclass
class Checkpoint:
    """Everything needed to resume a run bit-exactly at an epoch boundary."""

    version: int
    encoder_config: EncoderConfig
    train_config: TrainConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    step: int
    epoch: int
    rng_state: dict


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list[dict]
    model: Model


def train(dataset: SyntheticDataset, config: TrainConfig, *,
          start: Checkpoint | None = None) -> TrainResult:
    """Run (or resume) training; returns the checkpoint, log, and model.

    The log holds one JSON-ready record per step plus epoch/validation
    records. Aborts with NumericalError if the total loss goes non-finite.
    """
    from .evaluation import evaluate_retrieval  # local import: avoids a cycle

    train_idx, val_idx = identity_split(dataset, config.val_fraction, seed=config.seed)
    if train_idx.size == 0:
        raise ConfigError("empty training split")

    if start is not None and start.encoder_config != dataset.config:
        raise ConfigError("checkpoint was trained with a different encoder config")
    model = Model(dataset.config, config.flags, seed=config.seed,
                  params=None if start is None else {k: v.copy() for k, v in start.params.items()})
    state = (AdamState.zeros_like(model.params) if start is None
             else AdamState(start.adam_m, start.adam_v, start.adam_t))
    master = np.random.default_rng(config.seed)
    first_epoch = step = 0
    if start is not None:
        master.bit_generator.state = start.rng_state
        first_epoch, step = start.epoch, start.step

    log: list[dict] = []
    for epoch in range(first_epoch, config.epochs):
        epoch_seed = int(master.integers(2 ** 62))
        for plan in balanced_batches(dataset, config.batch_size, epoch_seed,
                                     include=train_idx, balanced=config.balanced_sampling):
            tape = GradTape()
            # an overflow shows as a non-finite loss, reported below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                total, report, bound = model.batch_loss(dataset, plan, tape)
                if not np.isfinite(report.total):
                    raise NumericalError(
                        f"total loss became non-finite at step {step}: {report.to_json()}")
                grad_tensors = backward(total, tape)
                grads = {name: np.asarray(grad_tensors[leaf].data)
                         for name, leaf in bound.items()}
                model.params = adam_step(model.params, grads, state, lr=config.learning_rate)
            step += 1
            log.append({"type": "step", "step": step, "epoch": epoch, **report.to_json()})
        epoch_record = {"type": "epoch", "epoch": epoch, "step": step,
                        "lr": config.learning_rate}
        if config.flags.learnable_boundary:
            epoch_record["boundary_tau"] = float(model.params["boundary_tau"])
        log.append(epoch_record)
        run_val = (config.val_every > 0 and (epoch + 1) % config.val_every == 0
                   and val_idx.size > 0)
        if run_val:
            result = evaluate_retrieval(model, dataset, val_idx, config.flags.fusion())
            log.append({"type": "val", "epoch": epoch, "step": step,
                        "fusion": result.fusion, "r_at": result.r_at})

    checkpoint = Checkpoint(
        version=_CKPT_VERSION,
        encoder_config=dataset.config,
        train_config=config,
        params={k: v.copy() for k, v in model.params.items()},
        adam_m={k: v.copy() for k, v in state.m.items()},
        adam_v={k: v.copy() for k, v in state.v.items()},
        adam_t=state.t,
        step=step,
        epoch=config.epochs,
        rng_state=master.bit_generator.state,
    )
    return TrainResult(checkpoint, log, model)


# ----------------------------------------------------------------- checkpoints

def _tensor_table(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    table = {}
    for prefix, group in (("param", ckpt.params), ("adam_m", ckpt.adam_m),
                          ("adam_v", ckpt.adam_v)):
        for name, arr in group.items():
            table[f"{prefix}/{name}"] = arr
    return table


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned little-endian binary with a name-indexed tensor table."""
    header = {
        "version": ckpt.version,
        "encoder_config": asdict(ckpt.encoder_config),
        "train_config": ckpt.train_config.to_json(),
        "adam_t": ckpt.adam_t,
        "step": ckpt.step,
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = bytearray()
    buf += _CKPT_MAGIC
    buf += struct.pack("<I", ckpt.version)
    buf += struct.pack("<Q", len(blob))
    buf += blob
    table = _tensor_table(ckpt)
    buf += struct.pack("<I", len(table))
    for name in sorted(table):
        arr = np.asarray(table[name], dtype="<f8", order="C")  # keeps 0-d shapes
        nameb = name.encode("utf-8")
        buf += struct.pack("<H", len(nameb))
        buf += nameb
        buf += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            buf += struct.pack("<I", d)
        buf += arr.tobytes()
    write_atomic(path, bytes(buf))


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    r = _Reader(path.read_bytes(), path, "checkpoint")
    if r.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
        raise DataError(f"not a checkpoint file (bad magic): {path}")
    (version,) = r.unpack("<I")
    if version != _CKPT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    (hlen,) = r.unpack("<Q")
    try:
        header = json.loads(r.read(hlen).decode("utf-8"))
        (count,) = r.unpack("<I")
        table: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = r.unpack("<H")
            name = r.read(nlen).decode("utf-8")
            (ndim,) = r.unpack("<B")
            table[name] = r.array("<f8", r.unpack(f"<{ndim}I"))
        if r.off != len(r.blob):
            raise DataError(f"trailing bytes in checkpoint: {path}")

        groups: dict[str, dict[str, np.ndarray]] = {"param": {}, "adam_m": {}, "adam_v": {}}
        for full, arr in table.items():
            prefix, _, name = full.partition("/")
            if prefix not in groups or not name:
                raise DataError(f"unknown tensor entry {full!r} in checkpoint")
            groups[prefix][name] = arr
        encoder_config = EncoderConfig(**header["encoder_config"])
        train_config = TrainConfig.from_json(header["train_config"])
        expected = param_shapes(encoder_config, train_config.flags).items()
        for prefix, group in groups.items():
            if diff := {name: arr.shape for name, arr in group.items()}.items() ^ expected:
                raise DataError(f"checkpoint tensor {prefix}/{min(diff)[0]} does not match "
                                f"the model its header describes: {path}")
        # JSON round-trips the PCG64 state ints losslessly (arbitrary precision)
        return Checkpoint(
            version=version,
            encoder_config=encoder_config,
            train_config=train_config,
            params=groups["param"],
            adam_m=groups["adam_m"],
            adam_v=groups["adam_v"],
            adam_t=header["adam_t"],
            step=header["step"],
            epoch=header["epoch"],
            rng_state=header["rng_state"],
        )
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # bad UTF-8, JSON, fields or values
        raise DataError(f"corrupt checkpoint header in {path}: {exc!r}") from exc


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    return Model(ckpt.encoder_config, ckpt.train_config.flags,
                 params={k: v.copy() for k, v in ckpt.params.items()},
                 seed=ckpt.train_config.seed)


# ------------------------------------------------------------------ gradcheck

@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    tolerance: float
    max_rel_error: float
    worst_param: str
    coords_checked: int
    per_param: dict[str, float]

    def to_json(self) -> dict:
        return asdict(self)


# gradcheck's central-difference step, its sampling seed, and the offsets it tries per
# coordinate before a kink-straddling probe counts as a failure
_GRADCHECK_H, _GRADCHECK_SEED, _GRADCHECK_ATTEMPTS = 1e-5, 0, 5


def gradcheck(dataset: SyntheticDataset, config: TrainConfig, *, tolerance: float = 1e-5,
              coords_per_param: int = 4) -> GradCheckReport:
    """Compare tape gradients of the batch loss against central differences.

    Random coordinates are sampled from every parameter group. Each
    coordinate is probed at a random offset from its current value, with
    the analytic gradient recomputed at the probe point; when a probe
    straddles a hinge/argmax kink (where one-sided differences disagree by
    construction) the coordinate is redrawn at a different offset, up to
    ``_GRADCHECK_ATTEMPTS`` times. A genuine gradient bug fails at every offset.
    """
    rng = np.random.default_rng(_GRADCHECK_SEED)
    model = Model(dataset.config, config.flags, seed=config.seed)
    batch = min(config.batch_size, 2 * (len(dataset.samples) // 2), 8)
    plan = next(iter(balanced_batches(dataset, batch, _GRADCHECK_SEED,
                                      balanced=config.balanced_sampling)))

    def with_coord(name: str, flat_index: int, value: float) -> dict[str, np.ndarray]:
        probe = {k: v.copy() for k, v in model.params.items()}
        probe[name].reshape(-1)[flat_index] = value
        return probe

    def loss_at(params: dict[str, np.ndarray]) -> float:
        t, _, _ = Model(dataset.config, config.flags, params=params,
                        seed=config.seed).batch_loss(dataset, plan, None)
        return t.item()

    def analytic_at(params: dict[str, np.ndarray], name: str, flat_index: int) -> float:
        probe_model = Model(dataset.config, config.flags, params=params, seed=config.seed)
        tape = GradTape()
        total, _, bound = probe_model.batch_loss(dataset, plan, tape)
        grads = backward(total, tape)
        return float(np.asarray(grads[bound[name]].data).reshape(-1)[flat_index])

    per_param: dict[str, float] = {}
    worst_name, worst = "", 0.0
    checked = 0
    for name, arr in model.params.items():
        size = arr.size
        picks = rng.choice(size, size=min(coords_per_param, size), replace=False)
        worst_here = 0.0
        for flat in picks:
            base = arr.reshape(-1)[int(flat)]
            best = np.inf
            for attempt in range(_GRADCHECK_ATTEMPTS):
                offset = 0.0 if attempt == 0 else float(rng.uniform(-0.03, 0.03))
                point = base + offset
                params = with_coord(name, int(flat), point)
                an = analytic_at(params, name, int(flat))
                up = loss_at(with_coord(name, int(flat), point + _GRADCHECK_H))
                down = loss_at(with_coord(name, int(flat), point - _GRADCHECK_H))
                fd = (up - down) / (2 * _GRADCHECK_H)
                rel = float(abs(an - fd) / max(abs(an), abs(fd), 1e-8))
                best = min(best, rel)
                if best <= tolerance:
                    break
            worst_here = max(worst_here, best)
            checked += 1
        per_param[name] = worst_here
        if worst_here >= worst:
            worst, worst_name = worst_here, name
    return GradCheckReport(bool(worst <= tolerance), tolerance, worst, worst_name,
                           checked, per_param)
