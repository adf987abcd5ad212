"""Spans and counters recorded by wrappers around fpmine's public functions.

Nothing inside the program is changed. ``install`` replaces each traced
function at the module (or class) attribute its callers resolve at call
time, e.g. ``fpmine.model.encode_images_batch`` for the model's encoder
calls and ``fpmine.numerics.matmul`` for every op, including ops that other
numerics functions and ``Tensor`` operators call. ``uninstall`` puts the
originals back.

Spans live in memory until ``Tracer.write`` dumps them at the end of a run.
There are two levels: *layer* spans (encoders, model, losses, training,
evaluation, sampling, dataset) and *op* spans (one per call of a numerics
primitive). Self time is a span's duration minus the time covered by its
child spans of the same level, so a layer's self time keeps the numerics
work it does directly (``model.batch_loss.self_ms`` holds the hinges, the
ranking terms and batch assembly) while an op's self time excludes the ops
it calls (``relu`` forwards to ``maximum``).
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

LAYER, OP = 0, 1

# numerics primitives, traced as numerics.op.<name>
NUMERIC_OPS = (
    "add", "sub", "mul", "div", "neg", "matmul", "transpose", "reshape",
    "reduce_sum", "reduce_max", "masked_max", "masked_min", "maximum", "minimum",
    "relu", "clamp", "sqrt", "exp", "log", "take_rows", "stack", "l2_normalize",
    "cosine", "dot", "mean", "max_pool_rows", "max_pool_cols", "logsumexp",
)


class Tracer:
    """In-memory span store with per-name totals for the current phase."""

    def __init__(self):
        self.phase = "setup"
        self.op_index = -1
        self.spans: list[tuple] = []      # (name, level, start_ns, end_ns, parent, op_index)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: list[int] = []        # span ids on the stack
        self._child_ns: list[list[int]] = []  # per open span: [layer-child ns, op-child ns]
        self.totals: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, ns, self_ns]
        self.counters: dict[tuple[str, str], float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, level: int) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((self.name_id(name), level, time.perf_counter_ns(), 0,
                           parent, self.op_index))
        self._open.append(sid)
        self._child_ns.append([0, 0])
        return sid

    def end(self, sid: int) -> None:
        end = time.perf_counter_ns()
        nid, level, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (nid, level, start, end, parent, op)
        self._open.pop()
        children = self._child_ns.pop()
        dur = end - start
        if self._child_ns:
            self._child_ns[-1][level] += dur
        key = (self.phase, self.names[nid])
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = [0, 0, 0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - children[level]  # only same-level children cover this span

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def record_max(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def total(self, name: str, phase: str = "measure") -> tuple[int, float, float]:
        """(calls, total ms, self ms) of one span name in one phase."""
        calls, ns, self_ns = self.totals.get((phase, name), (0, 0, 0))
        return calls, ns / 1e6, self_ns / 1e6

    def counter(self, name: str, phase: str = "measure") -> float:
        return self.counters.get((phase, name), 0.0)

    def write(self, path, meta: dict) -> None:
        """Dump every span as one JSON document (names are indexed once)."""
        doc = {"meta": meta, "names": self.names,
               "fields": ["name", "level", "start_ns", "end_ns", "parent", "op"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _span_wrapper(tracer: Tracer, name: str, level: int, fn, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args, kwargs)
        sid = tracer.begin(name, level)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    """Time each step of a generator as its own span, keeping it lazy."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            sid = tracer.begin(name, LAYER)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end(sid)
            yield item
    return wrapper


def _peak_alloc_wrapper(tracer: Tracer, name: str, fn):
    """Span, plus the tracemalloc peak inside the call during the warm-up.

    numpy reports its buffers to tracemalloc. Tracing every allocation
    nearly doubles the time of a single-caption lookup, so the peak is taken
    only in the warm-up operation, whose times the metrics leave out.
    """
    span = _span_wrapper(tracer, name, LAYER, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.phase != "warmup":
            return span(*args, **kwargs)
        tracemalloc.start()
        try:
            return span(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.record_max(name + ".peak_alloc_bytes", peak)
    return wrapper


def _count_images(tracer, args, kwargs):
    raws = args[0] if args else kwargs["raws"]
    tracer.count("encoders.images_encoded", raws.shape[0])


def _count_word_score_bytes(tracer, args, kwargs):
    # args: (self, images, texts, mining); the largest buffer is the
    # (n_img*K) x (n_txt*pad) word-region matrix, 8 bytes per entry
    images, texts = args[1], args[2]
    n_img, k, _ = images.region_feats.shape
    n_txt, pad = texts.word_feats.shape[0], texts.word_feats.shape[1]
    tracer.count("model.word_score_tensor.bytes", n_img * k * n_txt * pad * 8)


class Installed:
    """The replaced attributes, so they can be restored."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap fpmine's public functions at the attributes their callers use."""
    import fpmine.dataset as dataset
    import fpmine.encoders as encoders
    import fpmine.evaluation as evaluation
    import fpmine.losses as losses
    import fpmine.model as model
    import fpmine.numerics as numerics
    import fpmine.sampling as sampling
    import fpmine.training as training

    inst = Installed()
    for op in NUMERIC_OPS:
        inst.replace(numerics, op, _span_wrapper(tracer, f"numerics.op.{op}", OP,
                                                 getattr(numerics, op)))
    inst.replace(numerics, "backward",
                 _span_wrapper(tracer, "numerics.backward", LAYER, numerics.backward))

    for fn_name in ("encode_images_batch", "encode_texts_batch"):
        fn = getattr(encoders, fn_name)
        hook = _count_images if fn_name == "encode_images_batch" else None
        wrapped = _span_wrapper(tracer, f"encoders.{fn_name}", LAYER, fn, hook)
        inst.replace(encoders, fn_name, wrapped)   # encode_image / encode_text
        inst.replace(model, fn_name, wrapped)      # Model.batch_loss / score_components

    cls = model.Model
    for meth in ("batch_loss", "similarity_components", "score_matrix"):
        inst.replace(cls, meth, _span_wrapper(tracer, f"model.{meth}", LAYER,
                                              cls.__dict__[meth]))
    inst.replace(cls, "word_score_tensor",
                 _span_wrapper(tracer, "model.word_score_tensor", LAYER,
                               cls.__dict__["word_score_tensor"], _count_word_score_bytes))
    inst.replace(cls, "score_components",
                 _peak_alloc_wrapper(tracer, "model.score_components",
                                     cls.__dict__["score_components"]))

    inst.replace(losses, "mean_identity_loss",
                 _span_wrapper(tracer, "losses.mean_identity_loss", LAYER,
                               losses.mean_identity_loss))
    for fn_name in ("rank_rows", "recall_at_k", "evaluate_retrieval", "rank_gallery"):
        inst.replace(evaluation, fn_name, _span_wrapper(
            tracer, f"evaluation.{fn_name}", LAYER, getattr(evaluation, fn_name)))
    for fn_name in ("adam_step", "train", "save_checkpoint", "load_checkpoint",
                    "model_from_checkpoint"):
        inst.replace(training, fn_name, _span_wrapper(
            tracer, f"training.{fn_name}", LAYER, getattr(training, fn_name)))
    inst.replace(sampling, "balanced_batches",
                 _generator_wrapper(tracer, "sampling.balanced_batches",
                                    sampling.balanced_batches))
    inst.replace(dataset, "generate_synthetic_dataset", _span_wrapper(
        tracer, "dataset.generate_synthetic_dataset", LAYER,
        dataset.generate_synthetic_dataset))
    return inst
