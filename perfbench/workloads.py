"""The three workloads: set-up, the measured loop, and the output checks.

Each workload drives fpmine's public API in-process and reaches every traced
function through its module attribute (``training.adam_step``, not a name
imported here), so the wrappers of a traced run see the same calls as the
untraced run makes.

An *operation* is a training step (``train``), one whole-split evaluation
(``gallery-eval``) or one single-caption lookup (``caption-lookup``). A run
repeats whole rounds of operations (an epoch of 16 steps, two evaluations,
one pass over every caption) until ``seconds`` have passed since the first
operation ended. The first operation is a warm-up: it is attempted and
checked like the others, but its times are left out of the metrics, because
it pays one-off costs (first touch of the evaluation's large buffers, lazy
BLAS start-up) that later operations do not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fpmine.dataset as dataset
import fpmine.evaluation as evaluation
import fpmine.numerics as numerics
import fpmine.sampling as sampling
import fpmine.training as training
from fpmine.encoders import EncoderConfig
from fpmine.errors import FpmineError
from fpmine.model import Model, ModelFlags

import reference as ref

# the acceptance profile of tests/conftest.py: hard-negative twins at 0.3,
# collision-free identity codes, faint pervasive details, captions <= 16 words
ENCODER = EncoderConfig(max_words=16)
PROFILE = dict(attribute_count=12, detail_count=2, detail_strength=0.2, flip_count=2,
               noise=0.12, text_noise=0.04, hard_negative_fraction=0.3, min_hamming=3)
BATCH = 64
STEPS_PER_EPOCH = 16

# full size / small size (the small size runs every check in seconds)
SIZES = {
    "train": {"full": dict(identities=60, per_id=10, min_epochs=2),
              "small": dict(identities=60, per_id=10, min_epochs=10)},
    "gallery-eval": {"full": dict(identities=60, per_id=10, train_epochs=6),
                     "small": dict(identities=30, per_id=10, train_epochs=6)},
    "caption-lookup": {"full": dict(identities=60, per_id=10, train_epochs=6, captions=200),
                       "small": dict(identities=20, per_id=10, train_epochs=8, captions=40)},
}
SETUP_REPEATS = 3        # set-up runs at least this often, and until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
SCORE_SAMPLE = 24        # queries whose program score rows are compared with the reference
GRAD_COORDS = 6          # coordinates probed by the central-difference check


def make_dataset(seed: int, identities: int, per_id: int):
    return dataset.generate_synthetic_dataset(seed, identities, per_id, ENCODER, **PROFILE)


@dataclass
class Outcome:
    """What the measured loop produced."""

    wall_ms: list[float] = field(default_factory=list)
    cpu_ms: list[float] = field(default_factory=list)
    failed: int = 0
    tape_nodes: int = 0
    clock: float = 0.0               # when the warm-up operation ended
    on_op: Callable[[int], None] | None = None  # called with each operation's index as it starts
    group: int = 1                   # consecutive operations that form one timing sample
    outputs: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.wall_ms)

    @property
    def timed_wall_ms(self) -> list[float]:
        return self.wall_ms[1:]

    @property
    def samples_ms(self) -> list[float]:
        """Timing samples: timed operations averaged over groups of ``group``."""
        w, g = self.timed_wall_ms, self.group
        return [sum(w[i:i + g]) / g for i in range(0, len(w) - g + 1, g)]

    @property
    def timed_cpu_ms(self) -> list[float]:
        return self.cpu_ms[1:]

    def running(self, seconds: float) -> bool:
        """True until one operation after the warm-up has run and ``seconds``
        have passed since the warm-up ended."""
        return len(self.wall_ms) < 2 or time.perf_counter() - self.clock < seconds


def _timed(outcome: Outcome, op):
    """Run one operation; a program error counts it as failed."""
    if outcome.on_op is not None:
        outcome.on_op(len(outcome.wall_ms))
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = op()
    except FpmineError:
        result = None
        outcome.failed += 1
    t1, c1 = time.perf_counter(), time.process_time()
    outcome.wall_ms.append((t1 - t0) * 1e3)
    outcome.cpu_ms.append((c1 - c0) * 1e3)
    if len(outcome.wall_ms) == 1:
        outcome.clock = t1
    return result


# ---------------------------------------------------------------------- train

class TrainWorkload:
    """Training steps on the acceptance profile: full model, fixed boundary."""

    name = "train"

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = SIZES[self.name][size]

    def setup(self):
        ds = make_dataset(self.seed, self.size["identities"], self.size["per_id"])
        train_idx, val_idx = dataset.identity_split(ds, 0.1, seed=self.seed)
        model = Model(ds.config, ModelFlags(), seed=self.seed)
        state = training.AdamState.zeros_like(model.params)
        return dict(ds=ds, train_idx=train_idx, val_idx=val_idx, model=model, state=state,
                    master=np.random.default_rng(self.seed))

    def _step(self, s, plan):
        tape = numerics.GradTape()
        total, report, bound = s["model"].batch_loss(s["ds"], plan, tape)
        grad_tensors = numerics.backward(total, tape)
        grads = {name: np.asarray(grad_tensors[leaf].data) for name, leaf in bound.items()}
        s["model"].params = training.adam_step(s["model"].params, grads, s["state"],
                                               lr=0.001)
        return report.total, len(tape)

    def measure(self, s, seconds: float, on_op=None) -> Outcome:
        out = Outcome(on_op=on_op)
        epoch_losses = []
        while len(epoch_losses) < self.size["min_epochs"] or out.running(seconds):
            epoch_seed = int(s["master"].integers(2 ** 62))
            plans = list(sampling.balanced_batches(s["ds"], BATCH, epoch_seed,
                                                   include=s["train_idx"]))
            if len(plans) < STEPS_PER_EPOCH:
                raise SystemExit(f"train: only {len(plans)} batches per epoch")
            losses = []
            for plan in plans[:STEPS_PER_EPOCH]:
                res = _timed(out, lambda: self._step(s, plan))
                if res is not None:
                    losses.append(res[0])
                    out.tape_nodes += res[1]
            epoch_losses.append(losses)
            s["last_plan"] = plans[0]
        out.outputs = epoch_losses
        return out

    def check(self, s, out: Outcome) -> dict:
        flat = [x for epoch in out.outputs for x in epoch]
        if not flat or not np.all(np.isfinite(flat)):
            raise ref.CheckFailed("train: a step loss is not finite")
        first, last = np.mean(out.outputs[0]), np.mean(out.outputs[-1])
        if not last < first:
            raise ref.CheckFailed(f"train: last epoch mean loss {last} is not below "
                                  f"the first epoch's {first}")
        model, ds, val_idx = s["model"], s["ds"], s["val_idx"]
        val = [ds.samples[i] for i in val_idx]
        comps = model.score_components(val, val)
        if not (comps["negative"] <= 0.0).all():
            raise ref.CheckFailed("train: s_neg > 0 on a validation pair under the fixed "
                                  "boundary")
        result = evaluation.evaluate_retrieval(model, ds, val_idx, "full")
        ids = np.array([x.identity_id for x in val])
        ref.check_recall(result, ids, ids, "train validation")
        coords = ref.check_gradients(*gradient_probes(model, ds, s["last_plan"], self.seed))
        return {"epochs": len(out.outputs), "val_r_at": result.r_at,
                "gradient_coords": coords}


def gradient_probes(model: Model, ds, plan, seed: int):
    """(loss_at, analytic_at, coords, rng) for ``reference.check_gradients``.

    Both functions take (parameter name, flat index, value) and rebuild the
    model with that one coordinate changed; coords are GRAD_COORDS seeded
    picks, one per parameter group.
    """
    rng = np.random.default_rng(seed + 7)
    base = {k: v.copy() for k, v in model.params.items()}

    def probe(name, flat, value):
        params = {k: v.copy() for k, v in base.items()}
        params[name].reshape(-1)[flat] = value
        return Model(model.config, model.flags, model.weights, params, seed=model.seed)

    def loss_at(name, flat, value):
        total, _, _ = probe(name, flat, value).batch_loss(ds, plan, None)
        return total.item()

    def analytic_at(name, flat, value):
        tape = numerics.GradTape()
        total, _, bound = probe(name, flat, value).batch_loss(ds, plan, tape)
        grads = numerics.backward(total, tape)
        return float(np.asarray(grads[bound[name]].data).reshape(-1)[flat])

    names = sorted(base)
    coords = []
    for i in rng.choice(len(names), size=GRAD_COORDS, replace=False):
        arr = base[names[i]]
        flat = int(rng.integers(arr.size))
        coords.append((names[i], flat, float(arr.reshape(-1)[flat])))
    return loss_at, analytic_at, coords, rng


# ------------------------------------------------------------------ retrieval

class _RetrievalWorkload:
    """Shared set-up: train on the workload's own dataset, then checkpoint it.

    The model goes through save_checkpoint / load_checkpoint /
    model_from_checkpoint, the route from ``fpmine train`` to ``fpmine eval``.
    """

    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.ckpt_path = work / f"{self.name}.ckpt"

    def setup(self):
        ds = make_dataset(self.seed, self.size["identities"], self.size["per_id"])
        config = training.TrainConfig(epochs=self.size["train_epochs"], batch_size=BATCH,
                                      seed=self.seed, val_fraction=0.0)
        result = training.train(ds, config)
        training.save_checkpoint(result.checkpoint, self.ckpt_path)
        loaded = training.load_checkpoint(self.ckpt_path)
        model = training.model_from_checkpoint(loaded)
        return dict(ds=ds, model=model, saved=result.checkpoint, loaded=loaded)

    def check_checkpoint(self, s) -> None:
        first = self.ckpt_path.read_bytes()
        again = self.ckpt_path.with_suffix(".again")
        training.save_checkpoint(s["loaded"], again)
        ref.check_checkpoint_roundtrip(s["saved"], s["loaded"], first, again.read_bytes(),
                                       s["model"].params)

    def reference_rows(self, s, gallery, captions):
        scorer = ref.ReferenceScorer(s["model"].params)
        return scorer.rows(scorer.images(gallery), captions)

    def check_program_scores(self, s, gallery, captions, fused, scale, what) -> None:
        rng = np.random.default_rng(self.seed + 11)
        pick = np.sort(rng.choice(len(captions), size=min(SCORE_SAMPLE, len(captions)),
                                  replace=False))
        program = s["model"].score_matrix(gallery, [captions[i] for i in pick], "full").T
        ref.check_scores(program, fused[pick], scale[pick], what)


class GalleryEvalWorkload(_RetrievalWorkload):
    """One evaluate_retrieval(..., fusion="full") over the whole generated split.

    After the warm-up, evaluations run in rounds of two, and each round's
    mean is one timing sample. Consecutive evaluations tend to alternate
    between a slow and a fast one (about 1.2 s and 0.9 s at n = 600 on a
    2-core box, the slow one with more system time for page faults), so the
    median of single evaluations falls in the gap between the two clusters
    and moves with their sizes; the median of pair means does not.
    """

    name = "gallery-eval"

    def measure(self, s, seconds: float, on_op=None) -> Outcome:
        out = Outcome(on_op=on_op, group=2)
        indices = np.arange(len(s["ds"].samples))

        def evaluate():
            return evaluation.evaluate_retrieval(s["model"], s["ds"], indices, "full")

        out.outputs.append(_timed(out, evaluate))
        while out.running(seconds):
            out.outputs.extend(_timed(out, evaluate) for _ in range(2))
        return out

    def check(self, s, out: Outcome) -> dict:
        self.check_checkpoint(s)
        samples = s["ds"].samples
        ids = np.array([x.identity_id for x in samples])
        fused, scale = self.reference_rows(s, samples, samples)
        self.check_program_scores(s, samples, samples, fused, scale, "gallery-eval scores")
        for result in out.outputs:
            if result is None:
                continue
            ref.check_rankings(result.rankings, fused, scale, "gallery-eval ranking")
            ref.check_recall(result, ids, ids, "gallery-eval")
        done = [r for r in out.outputs if r is not None]
        return {"gallery": len(samples), "r_at": done[0].r_at if done else None}


class CaptionLookupWorkload(_RetrievalWorkload):
    """Closed loop, one client: rank_gallery for one caption at a time."""

    name = "caption-lookup"

    def setup(self):
        s = super().setup()
        rng = np.random.default_rng(self.seed + 5)
        samples = s["ds"].samples
        s["gallery"] = list(samples)
        s["caption_idx"] = np.sort(rng.choice(len(samples), size=self.size["captions"],
                                              replace=False))
        return s

    def measure(self, s, seconds: float, on_op=None) -> Outcome:
        out = Outcome(on_op=on_op)
        model, gallery, samples = s["model"], s["gallery"], s["ds"].samples
        while out.running(seconds):
            for c in s["caption_idx"]:
                query = samples[c]
                out.outputs.append(_timed(out, lambda: evaluation.rank_gallery(
                    model, query, gallery, "full")))
        return out

    def check(self, s, out: Outcome) -> dict:
        self.check_checkpoint(s)
        gallery, samples = s["gallery"], s["ds"].samples
        captions = [samples[c] for c in s["caption_idx"]]
        fused, scale = self.reference_rows(s, gallery, captions)
        self.check_program_scores(s, gallery, captions, fused, scale, "caption-lookup scores")
        rounds = len(out.outputs) // len(captions)
        rows = np.tile(np.arange(len(captions)), rounds)
        done = np.array([r is not None for r in out.outputs])
        r1 = None
        if done.any():
            rankings = np.stack([r for r in out.outputs if r is not None])
            ref.check_rankings(rankings, fused[rows[done]], scale[rows[done]],
                               "caption-lookup ranking")
            gallery_ids = np.array([x.identity_id for x in gallery])
            query_ids = np.array([captions[i].identity_id for i in rows[done]])
            r1 = ref.recount_recall(rankings, query_ids, gallery_ids, 1)
            ref.check_far_above_chance(r1, query_ids, gallery_ids, "caption-lookup")
        return {"gallery": len(gallery), "captions": len(captions), "rounds": rounds,
                "r_at_1": r1}


WORKLOADS = {w.name: w for w in (TrainWorkload, GalleryEvalWorkload, CaptionLookupWorkload)}
