"""Float64 tensors with reverse-mode automatic differentiation.

A ``GradTape`` records every primitive applied to tensors bound to it; one
backward sweep over the recorded list yields exact gradients for all
trainable leaves. The engine is deliberately small: dense arrays plus the
derivative rules the retrieval model actually needs.

Kink conventions are fixed so tests are deterministic:

* threshold ops (``maximum``/``minimum`` against a constant) take
  subgradient 0 exactly at the kink,
* argmax/argmin reductions route the whole gradient to the lowest tied
  index,
* cosine denominators are floored at ``NORM_EPS``, so zero vectors never
  divide by zero.
"""

from __future__ import annotations

import ctypes
import glob
import os
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, InputError, NumericalError, ShapeError

NORM_EPS = 1e-12


def _openblas(verb: str):
    """``openblas_<verb>_num_threads`` of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: dlopen returns its handle
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            fn = getattr(lib, name.format(verb), None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS uses, read from the library; None if it is not found."""
    getter = _openblas("get")
    if getter is None:
        return None
    getter.restype, getter.argtypes = ctypes.c_int, []
    return int(getter())


# BLAS runs on one thread. A second one doubles the CPU time of a training step and saves
# no wall time, and OpenBLAS rounds some products differently at one and two threads, so
# checkpoints would depend on the machine's core count. A BLAS without this setter keeps
# its own count, which blas_threads() then reports as None.
_setter = _openblas("set")
if _setter is not None:
    _setter.restype, _setter.argtypes = None, [ctypes.c_int]
    _setter(1)

# glibc's malloc keeps the memory a training step frees for the next one. By default it
# trims the top of the heap on free, so each step on the acceptance profile faulted its
# tape arrays in afresh: 234-347 minor faults per step. The heap now grows and trims 16 MiB
# beyond what it needs, and blocks under 1 MiB come from it: 1.0-2.2 faults per step (the
# pad alone 1.0-3.0, the threshold alone 293; a 256 MiB trim threshold on top changed
# nothing, so it is not set). Blocks of 1 MiB and up that do not fit the heap, such as
# evaluation's workspace, still come from mmap and go back on free. Thresholds of 256 KiB,
# 1 MiB and 4 MiB gave 1.4-2.7, 1.0-2.2 and 3.4 faults per step; 4 MiB also kept
# evaluation's workspace (an n = 600 evaluation took 650 faults, not 7000-9000). A C
# library without mallopt keeps its own policy.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.restype, _mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    _mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    _mallopt(_M_TOP_PAD, 16 << 20)

_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """Validate finiteness after every primitive (slow; meant for tests)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


def _check_finite(arr: np.ndarray, where: str) -> None:
    if arr.size and not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values produced by {where}")


class Tensor:
    """Read-only float64 array, optionally recorded on a GradTape.

    Immutable, except the value of an untaped op given ``out=``: that Tensor is a
    read-only view of the caller's buffer and changes when the caller rewrites it."""

    __slots__ = ("data", "tape", "tid")

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64)  # copy: tensors never alias caller memory
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        arr.setflags(write=False)
        self.data: np.ndarray = arr
        self.tape: "GradTape | None" = None
        self.tid: int = -1

    @classmethod
    def _raw(cls, arr: np.ndarray, tape: "GradTape | None" = None, tid: int = -1) -> "Tensor":
        arr = np.asarray(arr, dtype=np.float64)
        if _DEBUG_CHECKS:
            _check_finite(arr, "op")
        if arr.flags.writeable:  # op outputs and their views alike
            arr.setflags(write=False)
        t = object.__new__(cls)
        t.data = arr
        t.tape = tape
        t.tid = tid
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        kind = "leaf" if (self.tape is not None and self.tape._inputs[self.tid] == ()) else (
            "node" if self.tape is not None else "const")
        return f"Tensor(shape={self.shape}, {kind})"

    # arithmetic sugar; all gradients flow through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def max(self, axis: int = 0, keepdims: bool = False) -> "Tensor":
        return reduce_max(self, axis=axis, keepdims=keepdims)


class GradTape:
    """Ordered record of primitives for one reverse pass.

    Nodes are appended in execution order, which is already topological:
    every node's inputs precede it. Use from a single thread; evaluation
    without gradients simply runs ops on tensors that are not bound to
    any tape.

    ``backward`` releases the tape (drops its closures and leaves, which point
    back to it), so a dropped tape needs no cyclic garbage collection; ``len``
    still counts its nodes, and recording on it raises ContractError.
    """

    def __init__(self):
        self._inputs: list[tuple[int, ...]] = []
        self._backwards: list[Callable[[np.ndarray], tuple] | None] = []
        self._leaves: list[Tensor] = []

    def __len__(self) -> int:
        return len(self._inputs)

    def leaf(self, value) -> Tensor:
        """Register a trainable leaf; backward() always reports its gradient."""
        t = self._record(Tensor(value).data, (), None)
        self._leaves.append(t)
        return t

    def _record(self, arr: np.ndarray, inputs: Sequence[Tensor], backward) -> Tensor:
        if self._backwards is None:
            raise ContractError("tape was released by backward()")
        tid = len(self._inputs)
        self._inputs.append(tuple(t.tid for t in inputs))
        self._backwards.append(backward)
        return Tensor._raw(arr, self, tid)


def backward(loss: Tensor, tape: GradTape) -> dict[Tensor, Tensor]:
    """Reverse sweep from a scalar root; returns a gradient per trainable leaf.

    Leaves the root does not depend on get zero gradients. Raises
    ContractError if the root is not a scalar recorded on ``tape``, or if
    ``tape`` was already released (see ``GradTape``).
    """
    if loss.tape is not tape:
        raise ContractError("backward root is not recorded on this tape")
    if loss.shape != ():
        raise ContractError("backward root must be a scalar")
    if tape._backwards is None:
        raise ContractError("tape was released by an earlier backward()")
    adjoint: list[np.ndarray | None] = [None] * len(tape)
    adjoint[loss.tid] = np.ones((), dtype=np.float64)
    for tid in range(loss.tid, -1, -1):
        out_grad = adjoint[tid]
        if out_grad is None:
            continue
        bw = tape._backwards[tid]
        if bw is None:
            continue
        for in_tid, gin in zip(tape._inputs[tid], bw(out_grad)):
            if in_tid < 0 or gin is None:
                continue
            if adjoint[in_tid] is None:
                adjoint[in_tid] = gin
            else:
                adjoint[in_tid] = adjoint[in_tid] + gin
    result: dict[Tensor, Tensor] = {}
    for leaf in tape._leaves:
        g = adjoint[leaf.tid]
        if g is None:
            result[leaf] = Tensor._raw(np.zeros(leaf.shape))
        else:
            # np.array keeps 0-d shape (ascontiguousarray would promote to 1-d)
            result[leaf] = Tensor._raw(np.array(g, dtype=np.float64, order="C"))
    tape._backwards = tape._leaves = None
    return result


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _tape_of(*tensors: Tensor) -> GradTape | None:
    tape: GradTape | None = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands recorded on different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    g = np.asarray(grad)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def _emit(out: np.ndarray, inputs: Sequence[Tensor], bw) -> Tensor:
    """Record ``out`` on the tape of ``inputs`` with backward rule ``bw`` (the output's
    gradient -> one gradient per input), or return it untaped when no input is on a
    tape. Every op records through here: it computes only its value, and whatever only
    backward needs is computed inside ``bw``."""
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor._raw(out)
    return tape._record(out, inputs, bw)


def _into(out: np.ndarray | None, *inputs: Tensor) -> np.ndarray | None:
    """A view of the caller's ``out`` buffer for an op to write its value into (the
    op's Tensor then freezes the view, not the buffer, which the caller may reuse and
    may also pass as an input). Refused when an input is on a tape, whose backward
    would read values the caller overwrites."""
    if out is None:
        return None
    if _tape_of(*inputs) is not None:
        raise ContractError("out= is for untaped evaluation, not for ops on a tape")
    return out[...]


def add(a, b, out=None) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return _emit(np.add(a.data, b.data, out=_into(out, a, b)), (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return _emit(a.data - b.data, (a, b), bw)


def mul(a, b, out=None) -> Tensor:
    """``a * b``. An operand that is not a Tensor is a constant: it is used as it is (a
    boolean mask is not copied to float64) and gets no gradient."""
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        t, c = (b, a) if isinstance(b, Tensor) else (_as_tensor(a), b)
        c = np.asarray(c)
        return _emit(np.multiply(t.data, c, out=_into(out, t)), (t,),
                     lambda g: (_unbroadcast(g * c, t.shape),))
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _emit(np.multiply(ad, bd, out=_into(out, a, b)), (a, b), bw)


def weighted_sum(terms: Sequence, weights: Sequence[float] | None = None) -> Tensor:
    """``((w0 * t0 + w1 * t1) + w2 * t2) + ...`` over terms of one shape, as one node. The
    constant weights default to 1, and a weight of 1 leaves its term unmultiplied; a term
    that is not a Tensor is a constant with no input slot. Gradient: the output's times w."""
    weights = [1.0] * len(terms) if weights is None else list(weights)
    vals = [t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64) for t in terms]
    if not vals or len(weights) != len(vals) or any(v.shape != vals[0].shape for v in vals):
        raise ShapeError(f"weighted_sum of {[v.shape for v in vals]} with {len(weights)} weights")
    out = np.array(vals[0] if weights[0] == 1.0 else vals[0] * weights[0])  # never aliased
    for v, w in zip(vals[1:], weights[1:]):
        out += v if w == 1.0 else v * w
    taped = [(t, w) for t, w in zip(terms, weights) if isinstance(t, Tensor)]
    return _emit(out, [t for t, _ in taped],
                 lambda g: tuple(g if w == 1.0 else g * w for _, w in taped))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def bw(g):
        return _unbroadcast(g / bd, ad.shape), _unbroadcast(-g * ad / (bd * bd), bd.shape)

    return _emit(ad / bd, (a, b), bw)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _emit(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """2-D matrix product with gradients for both operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _emit(ad @ bd, (a, b), bw)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D tensor, got {a.shape}")
    return _emit(a.data.T, (a,), lambda g: (np.asarray(g).T,))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    orig = a.shape
    return _emit(np.reshape(a.data, shape), (a,), lambda g: (np.reshape(np.asarray(g), orig),))


def reduce_sum(a, axis=None, keepdims: bool = False, out=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    def bw(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, shape),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape),)

    return _emit(np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims, out=_into(out, a))),
                 (a,), bw)


def _max_along(a: Tensor, work: np.ndarray, axis: int, keepdims: bool,
               negate: bool = False) -> Tensor:
    """``np.max`` of ``work`` along ``axis`` as an op on ``a``, negated if ``negate`` (the
    min of ``a`` from ``work`` = -a). Only a tape takes the argmax: backward routes each
    slice's gradient to its lowest-index maximizer of ``work``."""
    out = np.max(work, axis=axis, keepdims=keepdims)
    if negate:
        out = -out
    idx = None if _tape_of(a) is None else np.expand_dims(np.argmax(work, axis=axis), axis)
    shape = a.shape

    def bw(g):
        buf = np.zeros(shape)
        np.put_along_axis(buf, idx, np.reshape(g, idx.shape), axis)
        return (buf,)

    return _emit(out, (a,), bw)


def reduce_max(a, axis: int = 0, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient routes to the lowest-index maximizer."""
    a = _as_tensor(a)
    if a.ndim == 0 or a.shape[axis] == 0:
        raise ShapeError(f"cannot reduce empty axis {axis} of shape {a.shape}")
    return _max_along(a, a.data, axis, keepdims)


def _masked_max(a, mask, axis: int, negate: bool = False) -> Tensor:
    """``masked_max``, or with ``negate`` ``masked_min`` as minus the masked max of -a."""
    a = _as_tensor(a)
    maskb = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    if not maskb.any(axis=axis).all():
        raise ContractError("masked max/min over a slice with no valid entries")
    work = np.where(maskb, -a.data if negate else a.data, -np.inf)
    return _max_along(a, work, axis, False, negate)


def masked_max(a, mask, axis: int) -> Tensor:
    """Max over entries where ``mask`` is True.

    ``mask`` is a constant boolean array broadcastable to ``a``; no gradient
    flows through it. A slice with no valid entry raises ContractError.
    """
    return _masked_max(a, mask, axis)


def masked_min(a, mask, axis: int) -> Tensor:
    """Min over entries where ``mask`` is True, one tape node; otherwise as ``masked_max``."""
    return _masked_max(a, mask, axis, negate=True)


def maximum(a, threshold: float) -> Tensor:
    """Elementwise max against a constant; subgradient 0 exactly at the kink."""
    a = _as_tensor(a)
    return _emit(np.maximum(a.data, threshold), (a,),
                 lambda g: (np.asarray(g) * (a.data > threshold),))


def minimum(a, threshold: float) -> Tensor:
    """Elementwise min against a constant; subgradient 0 exactly at the kink."""
    a = _as_tensor(a)
    return _emit(np.minimum(a.data, threshold), (a,),
                 lambda g: (np.asarray(g) * (a.data < threshold),))


def relu(a) -> Tensor:
    return maximum(a, 0.0)


def clamp(a, lo: float, hi: float) -> Tensor:
    return minimum(maximum(a, lo), hi)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def bw(g):
        # floor keeps 0 * (1/0) from producing NaN when upstream grad is 0
        return (np.asarray(g) * 0.5 / np.maximum(out, 1e-150),)

    return _emit(out, (a,), bw)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _emit(out, (a,), lambda g: (np.asarray(g) * out,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _emit(np.log(a.data), (a,), lambda g: (np.asarray(g) / a.data,))


def take_rows(a, indices) -> Tensor:
    """Gather along axis 0, or, given a tuple of index arrays, the cells ``a[i, j, ...]``
    of the leading axes; duplicate indices accumulate gradient."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    idx = tuple(idx) if isinstance(indices, tuple) else idx

    def bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, np.asarray(g))
        return (buf,)

    return _emit(a.data[idx], (a,), bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise ShapeError("stack of zero tensors")

    def bw(g):
        moved = np.moveaxis(np.asarray(g), axis, 0)
        return tuple(moved[i] for i in range(len(ts)))

    return _emit(np.stack([t.data for t in ts], axis=axis), ts, bw)


def l2_normalize(a, axis: int = -1, eps: float = NORM_EPS) -> Tensor:
    """Rows scaled to unit norm, with the denominator floored at ``eps``."""
    a = _as_tensor(a)
    ad = a.data
    n = np.sqrt(np.sum(ad * ad, axis=axis, keepdims=True))
    d = np.maximum(n, eps)
    out = ad / d

    def bw(g):
        g = np.asarray(g)
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return (np.where(n > eps, (g - out * inner) / d, g / eps),)

    return _emit(out, (a,), bw)


def _cosine_forward(a2, b2, groups: int, win: np.ndarray | None, work: np.ndarray | None):
    """Clamped cosines of the row pairs of (n * groups, d) ``a2`` and (m, d) ``b2``,
    maxed over each run of ``groups`` rows of ``a2``: ((n, m), norms). Computed as
    dot / |a_i| / |b_j| (normalized rows can miss 1.0 for identical rows), norms
    floored at NORM_EPS so zero rows yield 0. Dividing by |b_j| > 0 and clipping
    are monotone under rounding, so they commute with the max and run on the reduced
    array: the products are taken one group member at a time. An (n, m) ``win``
    receives the lowest-index member attaining each max of dot / |a_i|. A (2, n, m)
    ``work`` holds the maxima in ``work[0]`` and one member's products in ``work[1]``;
    without it both are allocated."""
    na = np.sqrt(np.sum(a2 * a2, axis=1))
    nb = np.sqrt(np.sum(b2 * b2, axis=1))
    da, db = np.maximum(na, NORM_EPS), np.maximum(nb, NORM_EPS)
    a3, da2 = a2.reshape((-1, groups, a2.shape[1])), da.reshape((-1, groups))
    out, t = (None, None) if work is None else work
    out = np.matmul(a3[:, 0], b2.T, out=out)
    out /= da2[:, :1]
    if t is None and groups > 1:
        t = np.empty_like(out)
    for k in range(1, groups):
        np.matmul(a3[:, k], b2.T, out=t)
        t /= da2[:, k:k + 1]
        if win is not None:  # k only rises, so a strict > keeps the lowest index
            np.maximum(win, (t > out).astype(win.dtype) * k, out=win)
        np.maximum(out, t, out=out)
    out /= db
    np.clip(out, -1.0, 1.0, out=out)
    return out, (na, da, nb, db)


def cosine(a, b) -> Tensor:
    """Cosine clamped to [-1, 1]: of two vectors (a scalar), or of every row pair
    of (n, d) and (m, d) stacks (an (n, m) matrix); ``max_cosine`` over groups of one.
    """
    return max_cosine(a, b, 1)


def max_cosine(a, b, groups: int, out=None) -> Tensor:
    """Max over each run of ``groups`` consecutive rows (last axis, any leading shape) of
    ``a`` of their clamped cosines with the rows of ``b`` (MaxSim), as in
    ``_cosine_forward``, with or without a tape: (n, K, d) ``a`` in groups of K and
    (m, L, d) ``b`` give (n, m, L), i.e. (rows of a / groups,) + ``b.shape[:-1]``; two
    vectors give a scalar. A tape keeps the winning member of each max, not the cosines;
    backward routes each max to the lowest-index maximizer, passes nothing through a
    clamped |cos| = 1 (the true gradient for parallel vectors) and drops a floored norm's
    own term. Untaped, a (2, n, rows of b) ``out`` is the workspace of ``_cosine_forward``:
    the result is a view of ``out[0]``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim == 0 or min(a.ndim, 2) != min(b.ndim, 2) or not 1 <= a.shape[-1] == b.shape[-1]
            or groups < 1 or a.size // a.shape[-1] % groups):
        raise ShapeError(f"cannot take cosines of {a.shape} rows, in groups of {groups}, "
                         f"with {b.shape} rows")
    a2, b2 = a.data.reshape((-1, a.shape[-1])), b.data.reshape((-1, b.shape[-1]))
    rows = (len(a2) // groups, len(b2))
    if out is not None and out.shape != (2,) + rows:
        raise ShapeError(f"max_cosine needs a {(2,) + rows} out, got {out.shape}")
    win = None if _tape_of(a, b) is None else np.zeros(rows, np.min_scalar_type(groups - 1))
    cos, (na, da, nb, db) = _cosine_forward(a2, b2, groups, win, _into(out, a, b))

    def bw(g):
        # Work only on the cells with gradient: the mining mask and the word hinges leave
        # well under 1 % of the word-score cells nonzero. Each cell goes to its winning row
        # r of a and lands in H, (rows of a) x (rows of b with gradient), so each side's
        # gradient takes one product with H.
        g = np.reshape(g, cos.shape)
        i, j = np.divmod(np.flatnonzero(g != 0), cos.shape[1])
        cc = cos[i, j]
        keep = np.abs(cc) < 1.0  # a clamped cosine passes no gradient
        i, j, cc = i[keep], j[keep], cc[keep]
        r, gc = i * groups + win[i, j], g[i, j]
        cols, jc = np.unique(j, return_inverse=True)
        bc, dbc = b2[cols], db[cols]
        H = np.zeros((len(a2), len(cols)))
        H[r, jc] = gc / (da[r] * dbc[jc])
        ca = np.where(na > NORM_EPS, 1.0 / (da * da), 0.0)  # a floored norm drops its own term
        cb = np.where(nb[cols] > NORM_EPS, 1.0 / (dbc * dbc), 0.0)
        ga = H @ bc - (np.bincount(r, gc * cc, len(a2)) * ca)[:, None] * a2
        gb = np.zeros(b2.shape)
        gb[cols] = H.T @ a2 - (np.bincount(jc, gc * cc, len(cols)) * cb)[:, None] * bc
        return ga.reshape(a.shape), gb.reshape(b.shape)

    return _emit(cos.reshape(rows[:1] + b.shape[:-1] if a.ndim > 1 else ()), (a, b), bw)


def linear(x, w, b=None) -> Tensor:
    """Dense layer ``x @ w.T + b``, bias optional. A (P, C) ``w`` maps (..., C) ``x`` to
    (..., P), one product over all rows of ``x``; a (K, P, C) ``w`` is K heads in one
    stacked matmul, head k applied to strip k of an (n, K, C) ``x`` or to a shared (n, C)
    ``x``, giving (n, K, P). ``b`` is ``w``'s shape without its last axis."""
    x, w, b = _as_tensor(x), _as_tensor(w), None if b is None else _as_tensor(b)
    if (w.ndim not in (2, 3) or x.ndim < 2 or x.shape[-1] != w.shape[-1]
            or w.ndim == 3 and x.shape[1:-1] not in ((), w.shape[:-2])
            or b is not None and b.shape != w.shape[:-1]):
        raise ShapeError(f"linear cannot apply {w.shape} weights to inputs {x.shape}")
    xd, wd, const_x = x.data, w.data, x.tape is None
    # all rows as (rows, C) for one (P, C) w; (K, n, C) per strip, or a shared (n, C)
    xk = (xd.reshape((-1, xd.shape[-1])) if wd.ndim == 2
          else xd.swapaxes(0, 1) if xd.ndim == 3 else xd)
    out = np.matmul(xk, wd.swapaxes(-1, -2))
    out = (out.reshape(xd.shape[:-1] + wd.shape[:1]) if wd.ndim == 2
           else np.ascontiguousarray(out.swapaxes(0, 1)))
    if b is not None:
        out += b.data

    def bw(g):
        g = np.reshape(g, (-1, wd.shape[0])) if wd.ndim == 2 else np.asarray(g)
        gk = g.swapaxes(0, 1) if wd.ndim == 3 else None  # (K, n, P)
        gw = (xk.T @ g).T if gk is None else np.matmul(gk.swapaxes(1, 2), xk)
        if const_x:  # an input no tape records, such as raw features, takes no gradient
            gx = None
        elif gk is None:
            gx = (g @ wd).reshape(xd.shape)
        else:
            gx = (np.matmul(gk, wd).swapaxes(0, 1) if xd.ndim == 3
                  else np.reshape(g, (xd.shape[0], -1)) @ wd.reshape((-1, xd.shape[1])))
        return (gx, gw) if b is None else (gx, gw, np.sum(g, axis=0))

    return _emit(out, (x, w) if b is None else (x, w, b), bw)


def cross_entropy(logits, labels) -> Tensor:
    """Mean over the rows of (n >= 1, classes) logits of logsumexp(z_i) - z_i[labels[i]].

    The row max is subtracted before exponentiating; the gradient is
    (softmax - onehot) / n.
    """
    z, labels = _as_tensor(logits), np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or z.shape[0] == 0 or labels.shape != z.shape[:1]:
        raise ShapeError(f"cross_entropy of {z.shape} logits with {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= z.shape[1]:
        raise InputError("label out of classifier range")
    zd, scale, rows = z.data, 1.0 / z.shape[0], np.arange(z.shape[0])
    m = np.max(zd, axis=1, keepdims=True)
    e = np.exp(zd - m)
    total = np.sum(e, axis=1, keepdims=True)
    out = np.sum((np.log(total) + m)[:, 0] - zd[rows, labels]) * scale

    def bw(g):
        d = e / total
        d[rows, labels] -= 1.0
        return (d * (np.asarray(g) * scale),)

    return _emit(out, (z,), bw)


def hardest_negative_hinge(sim, negatives, rows, cols, margin: float) -> Tensor:
    """Mean over pairs of a two-sided hinge against their hardest negatives.

    Pair p is cell (rows[p], cols[p]) of the (n, m) ``sim``, with score s;
    ``negatives`` is a constant boolean mask of the cells that may serve as
    negatives. The pair pays max(h - s + margin, 0) for h the largest
    negative in its row, and again for its column. A side without a
    negative costs 0 and passes no gradient; ties route to the lowest index.
    """
    s = _as_tensor(sim)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    if s.ndim != 2 or rows.ndim != 1 or rows.size == 0 or cols.shape != rows.shape:
        raise ShapeError(f"hardest_negative_hinge of {s.shape} at pairs {rows.shape}, {cols.shape}")
    sd, n, width = s.data, rows.size, s.shape[1]
    neg = np.broadcast_to(np.asarray(negatives, dtype=bool), sd.shape)
    work = np.where(neg, sd, -np.inf)
    # flat cells: each pair's hardest row negative, hardest column negative, the pair
    cells = np.concatenate([rows * width + np.argmax(work, axis=1)[rows],
                            np.argmax(work, axis=0)[cols] * width + cols, rows * width + cols])
    avail = np.concatenate([neg.any(axis=1)[rows], neg.any(axis=0)[cols]])
    picked = sd.reshape(-1)[cells]
    gap = picked[:2 * n] - np.concatenate([picked[2 * n:], picked[2 * n:]]) + margin
    side = np.maximum(gap, 0.0) * avail
    out = np.sum(side[:n] + side[n:]) * (1.0 / n)

    def bw(g):
        c = ((gap > 0) & avail) * (np.asarray(g) * (1.0 / n))
        weights = np.concatenate([c, -(c[:n] + c[n:])])
        return (np.bincount(cells, weights, minlength=sd.size).reshape(sd.shape),)

    return _emit(out, (s,), bw)


def _word_pairs(scores, mask, rows, cols, boundary):
    """The word hinges' checked arguments: Tensors, the pairs' cells, (pairs, L) rows, masks."""
    s, tau, mask = _as_tensor(scores), _as_tensor(boundary), np.asarray(mask, dtype=bool)
    cells = (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))
    if (s.ndim != 3 or mask.shape != s.shape[1:] or cells[0].ndim != 1
            or cells[1].shape != cells[0].shape or tau.ndim != 0):
        raise ShapeError(f"word hinge of {s.shape} scores with a {mask.shape} mask, pairs "
                         f"{cells[0].shape}, {cells[1].shape} and a {tau.shape} boundary")
    valid = mask[cells[1]]
    if not valid.any(axis=1).all():
        raise ContractError("a word hinge pair has no valid word")
    return s, tau, cells, s.data[cells], valid


def matched_word_hinge(scores, mask, rows, cols, bias: float, boundary=0.0) -> Tensor:
    """Mean over pairs of the mean over their valid words of max(bias - (s - boundary), 0).

    Pair p is cell (rows[p], cols[p]) of the (n, m, L) word ``scores``; the constant
    (m, L) ``mask`` marks each column's valid words. ``boundary`` is a float (a
    constant) or a scalar Tensor, which gets a gradient. No pairs cost 0.
    """
    s, tau, cells, x, valid = _word_pairs(scores, mask, rows, cols, boundary)
    if not len(x):
        return Tensor(0.0)
    n, validf, inv_len = len(x), valid.astype(np.float64), 1.0 / valid.sum(axis=1)
    x = bias - (x - tau.data)
    out = np.sum(np.sum(np.maximum(x, 0.0) * validf, axis=1) * inv_len) * (1.0 / n)

    def bw(g):
        gk = (np.broadcast_to(g * (1.0 / n), (n,)) * inv_len)[:, None] * validf * (x > 0.0)
        gs = np.zeros_like(s.data)
        np.add.at(gs, cells, -gk)
        return gs, _unbroadcast(gk, tau.shape)

    return _emit(out, (s, tau), bw)


def mismatched_word_hinge(scores, mask, rows, cols, bias: float, boundary=0.0) -> Tensor:
    """Mean over pairs of max(min_i s_i - min(boundary, 0) + bias, 0), the min taken over
    each pair's valid words; arguments as in ``matched_word_hinge``. Ties route to the
    lowest index; no gradient reaches the boundary at or above zero.
    """
    s, tau, cells, x, valid = _word_pairs(scores, mask, rows, cols, boundary)
    if not len(x):
        return Tensor(0.0)
    n, work = len(x), np.where(valid, -x, -np.inf)
    gap = -np.max(work, axis=1) - np.minimum(tau.data, 0.0) + bias
    out = np.sum(np.maximum(gap, 0.0)) * (1.0 / n)

    def bw(g):
        gk = np.broadcast_to(g * (1.0 / n), (n,)) * (gap > 0.0)
        gx = np.zeros(x.shape)
        np.put_along_axis(gx, np.argmax(work, axis=1)[:, None], gk[:, None], axis=1)
        gs = np.zeros_like(s.data)
        np.add.at(gs, cells, gx)
        return gs, _unbroadcast(-gk, tau.shape) * (tau.data < 0.0)

    return _emit(out, (s, tau), bw)


def dot(a, b) -> Tensor:
    return reduce_sum(mul(a, b))


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.size
    else:
        count = a.shape[axis]
    if count == 0:
        raise ShapeError("mean of an empty tensor")
    return mul(reduce_sum(a, axis=axis), 1.0 / count)


def max_pool_rows(m) -> Tensor:
    """Per-row maximum of a nonempty matrix (reduces over columns)."""
    m = _as_tensor(m)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"max_pool_rows requires a nonempty matrix, got {m.shape}")
    return reduce_max(m, axis=1)


def max_pool_cols(m) -> Tensor:
    """Per-column maximum of a nonempty matrix (reduces over rows)."""
    m = _as_tensor(m)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"max_pool_cols requires a nonempty matrix, got {m.shape}")
    return reduce_max(m, axis=0)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp built from primitives.

    The subtracted max cancels exactly in the gradient, so argmax routing
    never distorts the result.
    """
    a = _as_tensor(a)
    m = reduce_max(a, axis=axis, keepdims=True)
    s = add(log(reduce_sum(exp(sub(a, m)), axis=axis, keepdims=True)), m)
    if keepdims:
        return s
    return reshape(s, np.squeeze(s.data, axis=axis).shape)


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h) - f(x-h)) / 2h, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return grad


__all__ = [
    "NORM_EPS",
    "Tensor",
    "GradTape",
    "backward",
    "set_debug_checks", "blas_threads",
    "add", "sub", "mul", "weighted_sum", "div", "neg",
    "matmul", "transpose", "reshape",
    "reduce_sum", "reduce_max", "masked_max", "masked_min",
    "maximum", "minimum", "relu", "clamp",
    "sqrt", "exp", "log",
    "take_rows", "stack", "l2_normalize",
    "cosine", "max_cosine", "linear", "cross_entropy", "hardest_negative_hinge",
    "matched_word_hinge", "mismatched_word_hinge",
    "dot", "mean",
    "max_pool_rows", "max_pool_cols", "logsumexp",
    "finite_difference_grad",
]
