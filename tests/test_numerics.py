"""Tensor/tape engine: hand-value oracles, gradient checks, tape laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmine import numerics as nm
from fpmine.errors import ContractError, InputError, ShapeError
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad


def grad_of(fn, *arrays, h=1e-5):
    """Analytic gradients of fn(*tensors) w.r.t. every input array."""
    tape = GradTape()
    leaves = [tape.leaf(a) for a in arrays]
    out = fn(*leaves)
    grads = backward(out, tape)
    return [np.asarray(grads[leaf].data) for leaf in leaves]


def fd_of(fn, arrays, h=1e-5):
    """Finite-difference gradients of the same scalar function."""
    outs = []
    for i, a in enumerate(arrays):
        def scalar(x, i=i):
            args = [Tensor(arr) for arr in arrays]
            args[i] = Tensor(x)
            return fn(*args).item()
        outs.append(finite_difference_grad(scalar, np.asarray(a, dtype=float), h=h))
    return outs


def assert_grad_matches(fn, *arrays, tol=1e-6):
    analytic = grad_of(fn, *arrays)
    numeric = fd_of(fn, arrays)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n) / denom) < tol, (a, n)


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_immutable_copy(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_shape_invariant(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.size == 6


class TestMatmul:
    def test_identity(self):
        m = [[3.0, 4.0], [5.0, 6.0]]
        out = nm.matmul(Tensor(np.eye(2)), Tensor(m))
        assert np.array_equal(out.data, m)

    def test_hand_value(self):
        out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero(self):
        out = nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_non_2d(self):
        with pytest.raises(ShapeError):
            nm.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        assert_grad_matches(lambda x, y: nm.matmul(x, y).sum(), a, b)


class TestCosine:
    def test_identical(self):
        assert nm.cosine(Tensor([1.0, 0.0, 0.0]), Tensor([1.0, 0.0, 0.0])).item() == 1.0

    def test_orthogonal(self):
        assert nm.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        # (3,4)(4,3) = 24 over norms 5*5
        assert nm.cosine(Tensor([3.0, 4.0]), Tensor([4.0, 3.0])).item() == pytest.approx(0.96, abs=1e-15)

    def test_zero_vector_epsilon_floor(self):
        out = nm.cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0]))
        assert out.item() == 0.0  # no division by zero

    def test_range_clamped(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=5)
            assert -1.0 <= nm.cosine(Tensor(v), Tensor(v * 3.0)).item() <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nm.cosine(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert_grad_matches(nm.cosine, a, b)

    def test_row_stacks_against_raw_formula(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        got = nm.cosine(Tensor(a), Tensor(b)).data
        assert got.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                assert got[i, j] == pytest.approx(want, abs=1e-15)

    def test_row_stacks_identical_rows_exactly_one(self):
        m = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 0.0]])
        assert np.all(np.diag(nm.cosine(Tensor(m), Tensor(m)).data) == 1.0)

    def test_row_stacks_zero_row_and_clamp(self):
        a = np.array([[0.0, 0.0], [0.1, 0.1]])
        b = np.array([[1.0, 2.0], [3.0, 3.0]])
        out = nm.cosine(Tensor(a), Tensor(b)).data
        assert out[0].tolist() == [0.0, 0.0]
        assert np.all(np.abs(out) <= 1.0)
        assert out[1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_row_stack_width_mismatch(self):
        with pytest.raises(ShapeError):
            nm.cosine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            nm.cosine(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_row_stack_gradient(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        w = rng.normal(size=(3, 2))
        assert_grad_matches(lambda x, y: (nm.cosine(x, y) * w).sum(), a, b)

    def test_row_stack_gradient_zero_row(self):
        # a zero row sits on the norm floor: its gradient is b_j / (eps |b_j|)
        tape = GradTape()
        a = tape.leaf(np.zeros((1, 2)))
        b = tape.leaf([[3.0, 4.0]])
        grads = backward(nm.cosine(a, b).sum(), tape)
        assert np.allclose(grads[a].data, [[0.6 / nm.NORM_EPS, 0.8 / nm.NORM_EPS]])
        assert grads[b].data.tolist() == [[0.0, 0.0]]

    def test_row_stack_gradient_bit_identical_to_closed_form(self):
        # groups of one: the sparse rule written out. H is g / (|a_i| |b_j|) on the columns
        # that carry gradient; each row's and each column's sum of g * cos runs in cell order.
        rng = np.random.default_rng(6)
        a, b, w = rng.normal(size=(5, 4)), rng.normal(size=(4, 4)), rng.normal(size=(5, 4))
        a[1], a[2] = 0.0, 2.0 * b[0]                     # a floored norm and a clamped +1
        w[3, 1], w[:, 2] = 0.0, 0.0                      # cells and a column without gradient
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        da, db = np.maximum(na, nm.NORM_EPS), np.maximum(nb, nm.NORM_EPS)
        cos = np.clip(a @ b.T / da[:, None] / db, -1.0, 1.0)
        g = np.where(np.abs(cos) < 1.0, w, 0.0)
        assert g[2, 0] == 0.0 and w[2, 0] != 0.0
        cols = np.flatnonzero(g.any(axis=0))
        H, bc, dc = g[:, cols] / (da[:, None] * db[cols]), b[cols], db[cols]
        row_gcos = np.array([sum(g[i, j] * cos[i, j] for j in cols if g[i, j]) for i in range(5)])
        col_gcos = np.array([sum(g[i, j] * cos[i, j] for i in range(5) if g[i, j]) for j in cols])
        ca = np.where(na > nm.NORM_EPS, 1 / (da * da), 0.0)
        cb = np.where(nb[cols] > nm.NORM_EPS, 1 / (dc * dc), 0.0)
        ga = H @ bc - (row_gcos * ca)[:, None] * a
        gb = np.zeros_like(b)
        gb[cols] = H.T @ a - (col_gcos * cb)[:, None] * bc
        got = grad_of(lambda x, y: (nm.cosine(x, y) * w).sum(), a, b)
        np.testing.assert_array_equal(got[0], ga)
        np.testing.assert_array_equal(got[1], gb)
        # the dense rule it replaced sums the same terms in another order
        dense_ga = g @ (b / db[:, None]) / da[:, None]
        dense_ga -= (np.einsum("ij,ij->i", g, cos) * ca)[:, None] * a
        dense_gb = ((a / da[:, None]).T @ g).T / db[:, None]
        dense_gb -= (np.einsum("ij,ij->j", g, cos) * (1 / db ** 2))[:, None] * b
        np.testing.assert_allclose(got[0], dense_ga, rtol=1e-13)
        np.testing.assert_allclose(got[1], dense_gb, rtol=1e-13)

    def test_untaped_forward_holds_one_output_buffer(self):
        import tracemalloc

        rng = np.random.default_rng(5)
        a, b = Tensor(rng.normal(size=(600, 8))), Tensor(rng.normal(size=(400, 8)))
        tracemalloc.start()
        try:
            out = nm.cosine(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.data.nbytes

    def test_one_tape_node(self):
        tape = GradTape()
        a, b = tape.leaf(np.ones((2, 3))), tape.leaf(np.eye(3))
        nm.cosine(a, b)
        assert len(tape) == 3


class TestUntapedReduceMax:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(9)
        tied = rng.integers(-2, 3, size=(5, 4, 3)).astype(float)  # many ties per slice
        tied[:, 1] = tied[:, 0]
        return [rng.normal(size=(5, 4, 3)), tied, np.zeros((5, 4, 3))]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_values_equal_taped_forward(self, axis, keepdims):
        for x in self.inputs():
            untaped = nm.reduce_max(Tensor(x), axis=axis, keepdims=keepdims)
            taped = nm.reduce_max(GradTape().leaf(x), axis=axis, keepdims=keepdims)
            assert untaped.tape is None
            assert untaped.shape == taped.shape
            np.testing.assert_array_equal(untaped.data, taped.data)

    def test_allocates_only_its_output(self):
        import tracemalloc

        x = Tensor(np.random.default_rng(5).normal(size=(300, 6, 400)))
        tracemalloc.start()
        try:
            out = nm.reduce_max(x, axis=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.data.nbytes


def per_strip_heads(x, w, b):
    """The per-strip composition the stacked heads replaced: one head per strip, then stack."""
    k, p, c = w.shape
    heads = []
    for strip in range(k):
        ws = nm.take_rows(w, [strip]).reshape((p, c))
        bs = nm.take_rows(b, [strip]).reshape((p,))
        xs = x if x.ndim == 2 else nm.take_rows(x.reshape((x.shape[0] * k, c)),
                                                 np.arange(x.shape[0]) * k + strip)
        heads.append(nm.matmul(xs, ws.T) + bs)
    return nm.stack(heads, axis=1)


def composed_cross_entropy(logits, labels):
    """logsumexp minus the picked label logit, averaged: the composition cross_entropy replaced."""
    n, classes = logits.shape
    picked = nm.take_rows(logits.reshape((n * classes,)), np.arange(n) * classes + labels)
    return nm.mean(nm.sub(nm.logsumexp(logits, axis=1), picked))


def composed_hinge(sim, diff, rows, cols, margin):
    """Two masked maxes, three gathers and the relu/mean chain hardest_negative_hinge replaced."""
    width = sim.shape[1]
    pos = nm.take_rows(sim.reshape((sim.size,)), rows * width + cols)
    # a side without a negative takes the max of its whole line; its avail factor is 0
    hard_r = nm.take_rows(nm.masked_max(sim, diff | ~diff.any(axis=1, keepdims=True), axis=1),
                          rows)
    hard_c = nm.take_rows(nm.masked_max(sim, diff | ~diff.any(axis=0, keepdims=True), axis=0),
                          cols)
    side_r = nm.mul(nm.relu(nm.add(nm.sub(hard_r, pos), margin)), diff.any(axis=1)[rows] * 1.0)
    side_c = nm.mul(nm.relu(nm.add(nm.sub(hard_c, pos), margin)), diff.any(axis=0)[cols] * 1.0)
    return nm.mean(nm.add(side_r, side_c))


def composed_word_hinges(scores, mask, rows, cols, boundary):
    """The take_rows -> sub -> relu -> mul -> sum -> mean chain of the matched hinge and the
    masked_min chain of the mismatched one, at biases 0.001 and 0.15: (matched, mismatched),
    the compositions matched_word_hinge and mismatched_word_hinge replaced."""
    learnable = isinstance(boundary, Tensor)
    valid = mask[cols]
    word_rows = nm.take_rows(scores, (rows, cols))
    if learnable or boundary != 0.0:
        word_rows = nm.sub(word_rows, boundary)
    hinge = nm.relu(nm.sub(0.001, word_rows))
    matched = nm.mean(nm.mul(nm.mul(hinge, valid.astype(np.float64)).sum(axis=1),
                             1.0 / valid.sum(axis=1)))
    s_min = nm.masked_min(nm.take_rows(scores, (rows, cols)), valid, axis=1)
    if learnable or boundary != 0.0:
        s_min = nm.sub(s_min, nm.minimum(boundary, 0.0) if learnable else min(boundary, 0.0))
    return matched, nm.mean(nm.relu(nm.add(s_min, 0.15)))


def assert_same_op(new, old, *arrays):
    """Equal values and gradients (to 1e-12) of two scalar functions of the arrays."""
    np.testing.assert_allclose(new(*map(Tensor, arrays)).item(),
                               old(*map(Tensor, arrays)).item(), rtol=1e-12, atol=0)
    for gn, go in zip(grad_of(new, *arrays), grad_of(old, *arrays)):
        np.testing.assert_allclose(gn, go, rtol=1e-12, atol=1e-15)


def nodes_of(fn, *arrays):
    tape = GradTape()
    fn(*[tape.leaf(a) for a in arrays])
    return len(tape) - len(arrays)


def composed_max_cosine(a, b, groups):
    """cosine, reshape and region max: the composition max_cosine replaced."""
    return nm.cosine(a, b).reshape((a.shape[0] // groups, groups, b.shape[0])).max(axis=1)


class TestMaxCosine:
    @staticmethod
    def inputs(integer=False):
        rng = np.random.default_rng(25)
        a, b = rng.normal(size=(20, 6)), rng.normal(size=(7, 6))
        if integer:  # every dot product is exact, whatever order BLAS sums in
            a, b = np.round(a * 2), np.round(b * 2)
        a[1], b[4] = 0.0, 0.0                    # zero rows sit on the norm floor
        a[6], a[13] = 3.0 * b[0], -0.5 * b[2]    # cosines clamped at +1 and -1
        a[9] = a[8]                              # a tie inside a group of 4 (and of 20)
        return a, b

    @pytest.mark.parametrize("groups", [1, 4, 20])
    def test_forward_equals_composition(self, groups):
        # exact products: dividing by |b_j| and clipping after the max is exact too
        a, b = self.inputs(integer=True)
        assert set(nm.cosine(Tensor(a), Tensor(b)).data[[6, 13], [0, 2]]) == {1.0, -1.0}
        want = composed_max_cosine(Tensor(a), Tensor(b), groups).data
        untaped = nm.max_cosine(Tensor(a), Tensor(b), groups)
        taped = nm.max_cosine(GradTape().leaf(a), Tensor(b), groups)
        assert untaped.tape is None and taped.tape is not None
        np.testing.assert_array_equal(untaped.data, want)
        np.testing.assert_array_equal(taped.data, want)

    @pytest.mark.parametrize("groups", [1, 4, 20])
    def test_forward_on_rounded_products(self, groups):
        # one forward rule: taped and untaped agree bit for bit; both take an (n, d)
        # product per group member, which BLAS may round unlike the (n * groups, d) one
        a, b = self.inputs()
        want = composed_max_cosine(Tensor(a), Tensor(b), groups).data
        taped = nm.max_cosine(GradTape().leaf(a), b, groups).data
        np.testing.assert_array_equal(taped, nm.max_cosine(Tensor(a), Tensor(b), groups).data)
        np.testing.assert_allclose(taped, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("groups", [1, 4, 20])
    def test_gradient_equals_composition(self, groups):
        a, b = self.inputs()
        mix = np.random.default_rng(26).normal(size=(20 // groups, 7))
        assert_same_op(lambda x, y: (nm.max_cosine(x, y, groups) * mix).sum(),
                       lambda x, y: (composed_max_cosine(x, y, groups) * mix).sum(), a, b)

    def test_gradient(self):
        rng = np.random.default_rng(27)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        mix = rng.normal(size=(2, 3))
        assert_grad_matches(lambda x, y: (nm.max_cosine(x, y, 3) * mix).sum(), a, b)

    def test_ties_route_to_lowest_index(self):
        # rows 0 and 1 tie, rows 2 and 3 tie (parallel, different norms)
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        ga = grad_of(lambda x, y: nm.max_cosine(x, y, 2).sum(), a, np.array([[1.0, 1.0]]))[0]
        assert ga[0].any() and ga[2].any()
        assert not ga[1].any() and not ga[3].any()

    def test_shape_errors(self):
        for a, b, groups in ((np.ones((6, 3)), np.ones((2, 3)), 4),
                             (np.ones((6, 3)), np.ones((2, 3)), 0),
                             (np.ones((6, 3)), np.ones((2, 4)), 3),
                             (np.ones(6), np.ones((2, 6)), 1)):
            with pytest.raises(ShapeError):
                nm.max_cosine(Tensor(a), Tensor(b), groups)

    def test_untaped_forward_never_builds_the_slab(self):
        import tracemalloc

        rng = np.random.default_rng(28)
        a, b = Tensor(rng.normal(size=(600 * 6, 8))), Tensor(rng.normal(size=(400, 8)))
        tracemalloc.start()
        try:
            out = nm.max_cosine(a, b, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one region's products; the slab would be 6 outputs
        assert peak < 2.25 * out.data.nbytes

    def test_taped_forward_keeps_no_slab(self):
        import tracemalloc

        rng = np.random.default_rng(28)
        tape = GradTape()
        a, b = tape.leaf(rng.normal(size=(600 * 6, 8))), tape.leaf(rng.normal(size=(400, 8)))
        tracemalloc.start()
        try:
            out = nm.max_cosine(a, b, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # as untaped, plus a one-byte winner index and the mask that updates it
        assert peak < 3.0 * out.data.nbytes

    def test_one_tape_node(self):
        rng = np.random.default_rng(29)
        assert nodes_of(lambda x, y: nm.max_cosine(x, y, 2), rng.normal(size=(4, 3)),
                        rng.normal(size=(5, 3))) == 1

    def test_leading_axes_equal_reshaped_rows_bit_for_bit(self):
        # (n, K, d) regions against (m, L, d) words: the 2-D call on (n * K, d) and
        # (m * L, d) rows, reshaped to (n, m, L), taped (value and both gradients),
        # untaped, and written into a (2, n, m * L) out
        rng = np.random.default_rng(30)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(2, 6, 5))
        b[1, 2] = 2.0 * a[0, 1]                          # a clamped cosine
        mix = rng.normal(size=(3, 2, 6)) * (rng.random((3, 2, 6)) < 0.5)

        def flat(x, y):
            return nm.max_cosine(x.reshape((12, 5)), y.reshape((12, 5)), 4).reshape((3, 2, 6))

        new = nm.max_cosine(Tensor(a), Tensor(b), 4)
        assert new.shape == (3, 2, 6)
        assert new.data.tobytes() == flat(Tensor(a), Tensor(b)).data.tobytes()
        out = np.full((2, 3, 12), np.nan)
        into = nm.max_cosine(Tensor(a), Tensor(b), 4, out=out)
        assert into.shape == (3, 2, 6) and np.shares_memory(into.data, out[0])
        assert into.data.tobytes() == new.data.tobytes()
        taped = nm.max_cosine(GradTape().leaf(a), b, 4)
        assert taped.data.tobytes() == new.data.tobytes()
        for gn, go in zip(grad_of(lambda x, y: (nm.max_cosine(x, y, 4) * mix).sum(), a, b),
                          grad_of(lambda x, y: (flat(x, y) * mix).sum(), a, b)):
            assert gn.shape == go.shape and gn.tobytes() == go.tobytes()


def dense_max_cosine_grads(a, b, groups, g):
    """The dense backward rule ``max_cosine`` had before its sparse one: for each group
    member, a masked pass over every cell and two gemms."""
    win = np.zeros((len(a) // groups, len(b)), np.uint8)
    cos, (na, da, nb, db) = nm._cosine_forward(a, b, groups, win, None)
    g = g * (np.abs(cos) < 1.0)
    a3, da2 = a.reshape((-1, groups, a.shape[1])), da.reshape((-1, groups))
    ca = np.where(na > nm.NORM_EPS, 1.0 / (da * da), 0.0).reshape(da2.shape)
    cb = np.where(nb > nm.NORM_EPS, 1.0 / (db * db), 0.0)
    bs, ga, gb = b / db[:, None], np.empty(a3.shape), 0.0
    for k in range(groups):
        gk, ak, dak = g * (win == k), a3[:, k], da2[:, k:k + 1]
        ga[:, k] = gk @ bs / dak - (np.einsum("ij,ij->i", gk, cos) * ca[:, k])[:, None] * ak
        gb = gb + (ak / dak).T @ gk
    gb = gb.T / db[:, None] - (np.einsum("ij,ij->j", g, cos) * cb)[:, None] * b
    return ga.reshape(a.shape), gb


def rule_of(out):
    """The backward rule recorded for the op that made ``out``."""
    return out.tape._backwards[out.tid]


class TestSparseMaxCosineRule:
    """The backward rule works only on the cells with gradient; the dense rule it
    replaced (above) is the reference."""

    @staticmethod
    def inputs(groups):
        rng = np.random.default_rng(40)
        n, m, d = 12, 180, 5                       # 2160 cells
        a, b = rng.normal(size=(n * groups, d)), rng.normal(size=(m, d))
        a[3], b[7] = 0.0, 0.0                      # rows on the norm floor
        b[5], b[9] = [1.0, 2.0, 2.0, 0.0, 0.0], [0.0, 3.0, 0.0, 4.0, 0.0]
        a[groups], a[5 * groups] = 2.0 * b[5], -0.5 * b[9]      # cosines of exactly +-1
        if groups > 1:
            a[4 * groups + 1] = a[4 * groups]      # a tie between two regions
        return a, b

    @staticmethod
    def upstream(cells, n, m, seed=41):
        rng = np.random.default_rng(seed)
        g = np.zeros(n * m)
        g[rng.choice(n * m, size=cells, replace=False)] = rng.normal(size=cells)
        return g.reshape((n, m))

    @pytest.mark.parametrize("groups", [1, 6])
    @pytest.mark.parametrize("cells", [1, 4, 130, 2160])   # one cell, 0.2 %, 6 %, dense
    def test_equals_dense_rule(self, groups, cells):
        a, b = self.inputs(groups)
        g = self.upstream(cells, 12, 180)
        tape = GradTape()
        out = nm.max_cosine(tape.leaf(a), tape.leaf(b), groups)
        got = rule_of(out)(g)
        for x, want in zip(got, dense_max_cosine_grads(a, b, groups, g)):
            np.testing.assert_allclose(x, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
            assert np.array_equal(x == 0, want == 0)

    @pytest.mark.parametrize("groups", [1, 6])
    def test_special_cells(self, groups):
        # every floored, clamped and tied cell carries gradient
        a, b = self.inputs(groups)
        tape = GradTape()
        out = nm.max_cosine(tape.leaf(a), tape.leaf(b), groups)
        g = self.upstream(40, 12, 180)
        g[:, [5, 7, 9]] = 1.0
        g[:6] = 0.5
        if groups == 1:
            assert set(out.data[[1, 5], [5, 9]]) == {1.0, -1.0}
        got = rule_of(out)(g)
        for x, want in zip(got, dense_max_cosine_grads(a, b, groups, g)):
            np.testing.assert_allclose(x, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_clamped_cells_pass_nothing(self):
        a, b = self.inputs(1)
        tape = GradTape()
        out = nm.max_cosine(tape.leaf(a), tape.leaf(b), 1)
        g = np.zeros(out.shape)
        g[5, 9] = 3.0                              # clamped at -1
        ga, gb = rule_of(out)(g)
        assert out.data[5, 9] == -1.0
        assert not ga.any() and not gb.any()

    @pytest.mark.parametrize("groups", [1, 6])
    def test_no_gradient_gives_exact_zeros(self, groups):
        a, b = self.inputs(groups)
        tape = GradTape()
        out = nm.max_cosine(tape.leaf(a), tape.leaf(b), groups)
        ga, gb = rule_of(out)(np.zeros(out.shape))
        np.testing.assert_array_equal(ga, np.zeros_like(a))
        np.testing.assert_array_equal(gb, np.zeros_like(b))

    def test_tie_goes_to_the_lowest_region(self):
        a, b = self.inputs(6)
        tape = GradTape()
        out = nm.max_cosine(tape.leaf(a), tape.leaf(b), 6)
        g = np.zeros(out.shape)
        g[4] = 1.0                                 # image 4, whose regions 0 and 1 tie
        ga, _gb = rule_of(out)(g)
        assert ga[24].any() and not ga[25].any()

    def test_work_follows_the_gradient_not_the_matrix(self):
        # a one-cell gradient: beyond its two outputs, the rule allocates one byte per
        # cell (the scan for nonzero cells), so ten times the word rows adds only that
        import tracemalloc

        rng = np.random.default_rng(42)
        n, groups, d = 4, 6, 24
        a = rng.normal(size=(n * groups, d))
        excess = {}
        for m in (992, 9920):
            tape = GradTape()
            out = nm.max_cosine(tape.leaf(a), tape.leaf(rng.normal(size=(m, d))), groups)
            g, rule = np.zeros(out.shape), rule_of(out)
            g[1, 3] = 1.0
            tracemalloc.start()
            try:
                ga, gb = rule(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ga[6:12].any() and gb[3].any()
            excess[m] = peak - ga.nbytes - gb.nbytes
        assert excess[9920] <= excess[992] + n * (9920 - 992)


class TestLinear:
    """A dense layer: ``linear`` with a (P, C) weight."""

    @staticmethod
    def arrays(bias):
        rng = np.random.default_rng(24)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)
        return (x, w, b) if bias else (x, w)

    @pytest.mark.parametrize("bias", [True, False])
    def test_equals_matmul_chain_bit_for_bit(self, bias):
        mix = np.random.default_rng(25).normal(size=(5, 3))

        def chain(x, w, b=None):
            out = nm.matmul(x, nm.transpose(w))
            return out if b is None else out + b

        arrays = self.arrays(bias)
        new, old = nm.linear(*map(Tensor, arrays)), chain(*map(Tensor, arrays))
        assert new.data.tobytes() == old.data.tobytes()
        for gn, go in zip(grad_of(lambda *t: (nm.linear(*t) * mix).sum(), *arrays),
                          grad_of(lambda *t: (chain(*t) * mix).sum(), *arrays)):
            assert gn.tobytes() == go.tobytes()

    @pytest.mark.parametrize("bias", [True, False])
    def test_gradient(self, bias):
        mix = np.random.default_rng(26).normal(size=(5, 3))
        assert_grad_matches(lambda *t: (nm.linear(*t) * mix).sum(), *self.arrays(bias))

    @pytest.mark.parametrize("shapes", [((5, 4), (3, 5), None), ((5, 4), (3, 4), (4,)),
                                        ((2, 5, 4), (3, 5), None), ((4,), (3, 4), None),
                                        ((5, 4), (4,), None)])
    def test_shape_errors(self, shapes):
        x, w, b = (None if s is None else Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError):
            nm.linear(x, w, b)

    @pytest.mark.parametrize("bias", [True, False])
    def test_leading_axes_equal_flattened_call_bit_for_bit(self, bias):
        # (n, K, C) rows through a (P, C) weight: the 2-D call on the (n * K, C) rows,
        # reshaped back, in the value and in every gradient
        rng = np.random.default_rng(28)
        x, w, b = rng.normal(size=(5, 3, 4)), rng.normal(size=(2, 4)), rng.normal(size=2)
        arrays, mix = ((x, w, b) if bias else (x, w)), rng.normal(size=(5, 3, 2))

        def flat(x, *wb):
            return nm.linear(x.reshape((15, 4)), *wb).reshape((5, 3, 2))

        new, old = nm.linear(*map(Tensor, arrays)), flat(*map(Tensor, arrays))
        assert new.shape == (5, 3, 2) and new.data.tobytes() == old.data.tobytes()
        grads_new = grad_of(lambda *t: (nm.linear(*t) * mix).sum(), *arrays)
        grads_old = grad_of(lambda *t: (flat(*t) * mix).sum(), *arrays)
        assert len(grads_new) == len(arrays)
        for gn, go in zip(grads_new, grads_old):
            assert gn.shape == go.shape and gn.tobytes() == go.tobytes()

    @pytest.mark.parametrize("bias", [True, False])
    def test_one_tape_node(self, bias):
        assert nodes_of(nm.linear, *self.arrays(bias)) == 1

    @pytest.mark.parametrize("shapes", [((5, 4), (3, 4)), ((5, 2, 4), (2, 3, 4)),
                                        ((5, 4), (2, 3, 4))])
    def test_constant_input_gets_no_gradient(self, shapes):
        # raw features enter the embedding layers untaped; their product with g is waste
        rng = np.random.default_rng(27)
        x, w = (rng.normal(size=s) for s in shapes)
        g = rng.normal(size=(5,) + w.shape[:-1])
        grads = []
        for taped_x in (False, True):
            tape = GradTape()
            wt = tape.leaf(w)
            out = nm.linear(tape.leaf(x) if taped_x else Tensor(x), wt)
            grads.append(tape._backwards[out.tid](g))
        (gx_const, gw_const), (gx, gw) = grads
        assert gx_const is None and gx.shape == x.shape
        assert gw_const.tobytes() == gw.tobytes()


class TestStripHeads:
    """All K strip heads at once: ``linear`` with a (K, P, C) weight."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_per_strip_heads(self, shared):
        rng = np.random.default_rng(21)
        n, k, p, c = 5, 4, 3, 6
        x = rng.normal(size=(n, c) if shared else (n, k, c))
        w, b = rng.normal(size=(k, p, c)), rng.normal(size=(k, p))
        mix = rng.normal(size=(n, k, p))
        assert_same_op(lambda *t: (nm.linear(*t) * mix).sum(),
                       lambda *t: (per_strip_heads(*t) * mix).sum(), x, w, b)

    @pytest.mark.parametrize("shared", [False, True])
    def test_gradient(self, shared):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(3, 4) if shared else (3, 2, 4))
        w, b, mix = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3)), rng.normal(size=(3, 2, 3))
        assert_grad_matches(lambda *t: (nm.linear(*t) * mix).sum(), x, w, b)

    def test_hand_value(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])          # one sample, two strips
        w = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])        # strip 0 keeps x0, strip 1 x1
        out = nm.linear(Tensor(x), Tensor(w), Tensor([[10.0], [20.0]]))
        assert out.data.tolist() == [[[11.0], [24.0]]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nm.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))),
                      Tensor(np.ones((2, 5))))

    def test_one_tape_node(self):
        rng = np.random.default_rng(22)
        arrays = rng.normal(size=(4, 3, 5)), rng.normal(size=(3, 2, 5)), rng.normal(size=(3, 2))
        assert nodes_of(nm.linear, *arrays) == 1


class TestCrossEntropy:
    def test_matches_composition(self):
        rng = np.random.default_rng(23)
        labels = np.array([0, 3, 3, 1])
        assert_same_op(lambda z: nm.cross_entropy(z, labels),
                       lambda z: composed_cross_entropy(z, labels),
                       rng.normal(size=(4, 5)) * 4)

    def test_gradient_is_softmax_minus_onehot(self):
        z = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        soft[[0, 1], [2, 0]] -= 1.0
        np.testing.assert_allclose(grad_of(lambda t: nm.cross_entropy(t, [2, 0]), z)[0],
                                   soft / 2, rtol=0, atol=1e-15)

    def test_bad_labels(self):
        with pytest.raises(InputError):
            nm.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ShapeError):
            nm.cross_entropy(Tensor(np.zeros((2, 3))), [0])
        with pytest.raises(ShapeError):
            nm.cross_entropy(Tensor(np.zeros((0, 3))), [])

    def test_one_tape_node(self):
        assert nodes_of(lambda z: nm.cross_entropy(z, [1, 0]), np.ones((2, 3))) == 1


class TestHardestNegativeHinge:
    def test_matches_composition(self):
        rng = np.random.default_rng(24)
        diff = rng.random((6, 5)) < 0.6
        diff[2] = False                                    # a row without negatives
        diff[:, 4] = False                                 # a column without negatives
        rows, cols = np.array([0, 2, 3, 3, 5]), np.array([1, 0, 4, 2, 4])
        sim = rng.uniform(-0.5, 0.5, size=(6, 5))
        assert_same_op(lambda s: nm.hardest_negative_hinge(s, diff, rows, cols, 0.2),
                       lambda s: composed_hinge(s, diff, rows, cols, 0.2), sim)

    def test_ties_route_to_lowest_index(self):
        sim = np.array([[0.5, 0.3, 0.3],
                        [0.3, 0.5, 0.1],
                        [0.3, 0.1, 0.5]])
        diff = ~np.eye(3, dtype=bool)
        g = grad_of(lambda s: nm.hardest_negative_hinge(s, diff, [0], [0], 0.3), sim)[0]
        # row 0 ties at columns 1 and 2, column 0 at rows 1 and 2: the lower index wins
        assert g.tolist() == [[-2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_side_without_negative_costs_nothing(self):
        sim = np.array([[0.1, 0.9], [0.9, 0.1]])
        diff = np.array([[False, True], [False, False]])   # one negative, at (0, 1)
        # pair (1, 0): neither its row nor its column holds a negative
        assert nm.hardest_negative_hinge(Tensor(sim), diff, [1], [0], 0.2).item() == 0.0
        grad = grad_of(lambda s: nm.hardest_negative_hinge(s, diff, [1], [0], 0.2), sim)[0]
        assert not grad.any()
        none = np.zeros((2, 2), dtype=bool)
        assert nm.hardest_negative_hinge(Tensor(sim), none, [0, 1], [0, 1], 0.2).item() == 0.0
        grad = grad_of(lambda s: nm.hardest_negative_hinge(s, none, [0], [0], 0.2), sim)[0]
        assert not grad.any()

    def test_no_pairs_rejected(self):
        with pytest.raises(ShapeError):
            nm.hardest_negative_hinge(Tensor(np.zeros((2, 2))), np.ones((2, 2), bool), [], [], 0.2)

    def test_one_tape_node(self):
        diff = ~np.eye(3, dtype=bool)
        assert nodes_of(lambda s: nm.hardest_negative_hinge(s, diff, [0, 1], [0, 1], 0.2),
                        np.ones((3, 3))) == 1


def word_hinge_case(seed=32):
    """(3, 4, 5) word scores, a (4, 5) mask with padded words, and pairs that repeat a cell.
    Both hinges are active on the repeated pair; the mismatched one is idle on pair 1."""
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-0.2, 0.4, size=(3, 4, 5))
    mask = np.arange(5) < np.array([5, 3, 1, 4])[:, None]
    scores[:, ~mask] = -0.9        # padding below every valid word: the min must skip it
    return scores, mask, np.array([0, 1, 2, 2, 0, 1]), np.array([0, 1, 2, 3, 0, 3])


def assert_word_hinges_bitwise(scores, mask, rows, cols, boundary):
    """Both kernels equal their compositions bit for bit: value and the gradients of the
    scores and, for a Tensor boundary, of it. The gradients flow back from 0.3 times the
    hinge, so that each rounds its upstream gradient as its composition does."""
    kernels = (nm.matched_word_hinge, nm.mismatched_word_hinge)
    biases = (0.001, 0.15)
    for k, (kernel, bias) in enumerate(zip(kernels, biases)):
        def new(s, *tau):
            return kernel(s, mask, rows, cols, bias, *(tau or (boundary,)))

        def old(s, *tau):
            return composed_word_hinges(s, mask, rows, cols, *(tau or (boundary,)))[k]

        arrays = (scores,) + ((boundary.data,) if isinstance(boundary, Tensor) else ())
        assert np.array_equal(new(*map(Tensor, arrays)).data, old(*map(Tensor, arrays)).data)
        grads_new = grad_of(lambda *ts: nm.mul(new(*ts), 0.3), *arrays)
        grads_old = grad_of(lambda *ts: nm.mul(old(*ts), 0.3), *arrays)
        assert len(grads_new) == len(arrays)
        for gn, go in zip(grads_new, grads_old):
            assert np.array_equal(gn, go), kernel.__name__


class TestWordHinges:
    @pytest.mark.parametrize("tau", [-0.03, 0.04])
    def test_learnable_boundary_matches_composition(self, tau):
        scores, mask, rows, cols = word_hinge_case()
        assert_word_hinges_bitwise(scores, mask, rows, cols, Tensor(tau))

    @pytest.mark.parametrize("tau", [0.05, -0.02, 0.0])
    def test_fixed_boundary_matches_composition(self, tau):
        scores, mask, rows, cols = word_hinge_case()
        assert_word_hinges_bitwise(scores, mask, rows, cols, tau)

    def test_learnable_boundary_gets_gradient_below_zero_only(self):
        scores, mask, rows, cols = word_hinge_case()
        scores[...] = 0.1                      # every weakest word is 0.1: all pairs active
        for tau, want in ((-0.2, -1.0), (0.2, 0.0)):
            g = grad_of(lambda s, t: nm.mismatched_word_hinge(s, mask, rows, cols, 0.15, t),
                        scores, np.array(tau))[1]
            assert g == pytest.approx(want, abs=1e-15)

    def test_tie_for_weakest_word_routes_to_lowest_index(self):
        scores = np.array([[[0.2, -0.1, 0.3, -0.1, -0.5]]])
        mask = np.array([[True, True, True, True, False]])     # the -0.5 is padding
        g = grad_of(lambda s: nm.mismatched_word_hinge(s, mask, [0], [0], 0.15), scores)[0]
        assert g.tolist() == [[[0.0, 1.0, 0.0, 0.0, 0.0]]]
        for tau in (Tensor(-0.01), 0.0):
            assert_word_hinges_bitwise(scores, mask, [0], [0], tau)

    def test_no_pairs_cost_nothing(self):
        scores, mask, _, _ = word_hinge_case()
        for kernel in (nm.matched_word_hinge, nm.mismatched_word_hinge):
            assert kernel(Tensor(scores), mask, [], [], 0.1).item() == 0.0

    @pytest.mark.parametrize("bad", ["2-D scores", "mask shape", "pair shapes", "boundary"])
    def test_bad_shapes_raise(self, bad):
        scores, mask, rows, cols = word_hinge_case()
        args = {"2-D scores": (scores[0], mask[0], rows, cols, 0.0),
                "mask shape": (scores, mask[:3], rows, cols, 0.0),
                "pair shapes": (scores, mask, rows, cols[:2], 0.0),
                "boundary": (scores, mask, rows, cols, Tensor([0.1, 0.2]))}[bad]
        for kernel in (nm.matched_word_hinge, nm.mismatched_word_hinge):
            with pytest.raises(ShapeError):
                kernel(args[0], args[1], args[2], args[3], 0.1, args[4])

    def test_pair_without_valid_word_rejected(self):
        scores, mask, rows, cols = word_hinge_case()
        mask[1] = False
        for kernel in (nm.matched_word_hinge, nm.mismatched_word_hinge):
            with pytest.raises(ContractError):
                kernel(Tensor(scores), mask, rows, cols, 0.1)

    def test_one_tape_node(self):
        scores, mask, rows, cols = word_hinge_case()
        for kernel in (nm.matched_word_hinge, nm.mismatched_word_hinge):
            assert nodes_of(lambda s, t: kernel(s, mask, rows, cols, 0.1, t),
                            scores, np.array(-0.01)) == 1


class TestMaxPool:
    def test_rows_hand_value(self):
        out = nm.max_pool_rows(Tensor([[1.0, 5.0], [3.0, 2.0]]))
        assert out.data.tolist() == [5.0, 3.0]

    def test_single_element(self):
        assert nm.max_pool_rows(Tensor([[7.0]])).data.tolist() == [7.0]
        assert nm.max_pool_cols(Tensor([[7.0]])).data.tolist() == [7.0]

    def test_cols(self):
        out = nm.max_pool_cols(Tensor([[1.0, 5.0], [3.0, 2.0]]))
        assert out.data.tolist() == [3.0, 5.0]

    def test_tie_breaks_to_first_index(self):
        tape = GradTape()
        m = tape.leaf([[2.0, 2.0, 2.0]])
        out = nm.max_pool_rows(m).sum()
        g = backward(out, tape)[m].data
        assert g.tolist() == [[1.0, 0.0, 0.0]]

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            nm.max_pool_rows(Tensor(np.zeros((0, 3))))

    def test_gradient_away_from_ties(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 5))
        assert_grad_matches(lambda x: nm.max_pool_rows(x).sum(), m)
        assert_grad_matches(lambda x: nm.max_pool_cols(x).sum(), m)


class TestBackward:
    def test_non_scalar_root_rejected(self):
        tape = GradTape()
        a = tape.leaf([1.0, 2.0])
        with pytest.raises(ContractError):
            backward(a, tape)

    def test_root_from_other_tape_rejected(self):
        t1, t2 = GradTape(), GradTape()
        a = t1.leaf(2.0)
        with pytest.raises(ContractError):
            backward(a, t2)

    def test_mixed_tapes_rejected(self):
        t1, t2 = GradTape(), GradTape()
        with pytest.raises(ContractError):
            nm.add(t1.leaf(1.0), t2.leaf(2.0))

    def test_untouched_leaf_gets_zero(self):
        tape = GradTape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0, 4.0])
        loss = (a * a).sum()
        grads = backward(loss, tape)
        assert np.array_equal(grads[b].data, np.zeros(2))
        assert np.array_equal(grads[a].data, [2.0, 4.0])

    def test_fanout_accumulates(self):
        tape = GradTape()
        a = tape.leaf(3.0)
        loss = a * a + a * 2.0
        g = backward(loss, tape)[a].item()
        assert g == pytest.approx(2 * 3.0 + 2.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_linearity_on_random_tapes(self, seed):
        """backward(f + g) equals backward(f) + backward(g)."""
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(3, 3))

        def f(x):
            return (x * x).sum()

        def g(x):
            return nm.relu(x).sum() * 0.5

        tape = GradTape()
        x = tape.leaf(x0)
        both = backward(nm.add(f(x), g(x)), tape)[x].data

        tape_f = GradTape()
        xf = tape_f.leaf(x0)
        gf = backward(f(xf), tape_f)[xf].data
        tape_g = GradTape()
        xg = tape_g.leaf(x0)
        gg = backward(g(xg), tape_g)[xg].data
        assert np.allclose(both, gf + gg, rtol=0, atol=1e-12)


class TestTapeRelease:
    def test_backward_releases_and_keeps_length(self):
        tape = GradTape()
        a, b = tape.leaf([[1.0, 2.0]]), tape.leaf([[2.0, -1.0]])
        loss = nm.cosine(a, b).sum()
        backward(loss, tape)
        assert len(tape) == 4
        with pytest.raises(ContractError):
            backward(loss, tape)
        with pytest.raises(ContractError):
            nm.mul(a, 2.0)
        with pytest.raises(ContractError):
            tape.leaf(1.0)


class TestKinkConventions:
    def test_relu_zero_subgradient_at_kink(self):
        tape = GradTape()
        a = tape.leaf([0.0, -1.0, 1.0])
        g = backward(nm.relu(a).sum(), tape)[a].data
        assert g.tolist() == [0.0, 0.0, 1.0]

    def test_minimum_zero_subgradient_at_kink(self):
        tape = GradTape()
        a = tape.leaf([0.0, -1.0, 1.0])
        g = backward(nm.minimum(a, 0.0).sum(), tape)[a].data
        assert g.tolist() == [0.0, 1.0, 0.0]


class TestHelperOps:
    def test_take_rows_duplicates_accumulate(self):
        tape = GradTape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = nm.take_rows(a, [0, 0, 1]).sum()
        g = backward(out, tape)[a].data
        assert g.tolist() == [[2.0, 2.0], [1.0, 1.0]]

    def test_take_rows_cells_equal_flat_gather_bit_for_bit(self):
        # a tuple (i, j) gathers cells of the leading axes, as the flat rows i * m + j do;
        # a pair taken twice accumulates its gradient
        rng = np.random.default_rng(31)
        a, mix = rng.normal(size=(3, 4, 5)), rng.normal(size=(6, 5))
        i, j = np.array([2, 0, 2, 1, 2, 0]), np.array([3, 1, 3, 0, 1, 1])

        def flat(x):
            return nm.take_rows(x.reshape((12, 5)), i * 4 + j)

        assert nm.take_rows(Tensor(a), (i, j)).data.tobytes() == flat(Tensor(a)).data.tobytes()
        (gn,), (go,) = (grad_of(lambda x: (nm.take_rows(x, (i, j)) * mix).sum(), a),
                        grad_of(lambda x: (flat(x) * mix).sum(), a))
        assert gn.tobytes() == go.tobytes()
        np.testing.assert_array_equal(gn[2, 3], mix[0] + mix[2])
        np.testing.assert_array_equal(gn[0, 1], mix[1] + mix[5])

    def test_masked_max_ignores_invalid(self):
        m = Tensor([[1.0, 9.0], [5.0, 2.0]])
        mask = np.array([[True, False], [True, True]])
        out = nm.masked_max(m, mask, axis=1)
        assert out.data.tolist() == [1.0, 5.0]

    def test_masked_max_empty_slice_rejected(self):
        with pytest.raises(ContractError):
            nm.masked_max(Tensor([[1.0], [2.0]]), np.array([[False], [True]]), axis=1)

    def test_masked_min(self):
        m = Tensor([[1.0, -9.0], [5.0, 2.0]])
        mask = np.array([[True, False], [True, True]])
        assert nm.masked_min(m, mask, axis=1).data.tolist() == [1.0, 2.0]

    def test_stack_and_gradient(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        assert_grad_matches(lambda x, y: (nm.stack([x, y], axis=1) * 2.0).sum(), a, b)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(4, 6))
        out = nm.l2_normalize(Tensor(v), axis=-1)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0)

    def test_l2_normalize_gradient(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        assert_grad_matches(lambda x: (nm.l2_normalize(x, axis=-1) * w).sum(), v)

    def test_logsumexp_matches_numpy(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5)) * 10
        out = nm.logsumexp(Tensor(x), axis=1)
        expect = np.log(np.exp(x - x.max(1, keepdims=True)).sum(1)) + x.max(1)
        assert np.allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_logsumexp_gradient_is_softmax(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        tape = GradTape()
        t = tape.leaf(x)
        g = backward(nm.logsumexp(t, axis=0), tape)[t].data
        soft = np.exp(x - x.max())
        soft /= soft.sum()
        assert np.allclose(g, soft, atol=1e-12)

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        assert_grad_matches(lambda x, y: (x + y).sum(), a, b)
        assert_grad_matches(lambda x, y: (x * y).sum(), a, b)

    def test_reshape_transpose_gradient(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 4))
        assert_grad_matches(lambda x: (x.T.reshape((12,)) * np.arange(12.0)).sum(), a)

    def test_div_gradient(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3,))
        b = rng.normal(size=(3,)) + 3.0
        assert_grad_matches(lambda x, y: nm.div(x, y).sum(), a, b)

    def test_exp_log_sqrt_gradients(self):
        rng = np.random.default_rng(12)
        x = np.abs(rng.normal(size=4)) + 0.5
        assert_grad_matches(lambda t: nm.exp(t).sum(), x)
        assert_grad_matches(lambda t: nm.log(t).sum(), x)
        assert_grad_matches(lambda t: nm.sqrt(t).sum(), x)


class TestFiniteDifference:
    def test_quadratic_exact(self):
        grad = finite_difference_grad(lambda x: float((x ** 2).sum()), np.array([1.0, -2.0]))
        assert np.allclose(grad, [2.0, -4.0], atol=1e-9)


@pytest.mark.filterwarnings("ignore:divide by zero")
class TestDebugChecks:
    def test_debug_mode_catches_nonfinite_op(self):
        from fpmine.errors import NumericalError
        nm.set_debug_checks(True)
        try:
            with pytest.raises(NumericalError):
                nm.div(Tensor([1.0]), Tensor([0.0]))
        finally:
            nm.set_debug_checks(False)

    def test_non_debug_mode_allows(self):
        out = nm.div(Tensor([1.0]), Tensor([0.0]))
        assert np.isinf(out.data[0])


def _op_cases():
    """One call of every op in ``numerics.__all__`` (``linear`` in each of its modes, as
    ``linear:<mode>``); ``t`` wraps each array operand."""
    rng = np.random.default_rng(21)
    m, r, p = rng.normal(size=(4, 3)), rng.normal(size=3), np.abs(rng.normal(size=(4, 3))) + 0.1
    m[1, 2] = 0.0                                     # on the kink of relu
    mask = rng.random((4, 3)) < 0.6                   # no empty slice: every row has a True
    a, b = rng.normal(size=(8, 3)), rng.normal(size=(5, 3))
    x, w, hb = rng.normal(size=(4, 2, 3)), rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5))
    sq, neg = rng.normal(size=(4, 4)), ~np.eye(4, dtype=bool)
    ws, tau = rng.uniform(-0.3, 0.3, size=(2, 4, 3)), np.array(-0.05)  # (4, 3) mask
    return {
        "add": lambda t: nm.add(t(m), t(r)),
        "sub": lambda t: nm.sub(t(m), t(r)),
        "mul": lambda t: nm.mul(t(m), t(r)),
        "mul:constant": lambda t: nm.mul(mask, t(m)),
        "div": lambda t: nm.div(t(m), t(p)),
        "neg": lambda t: nm.neg(t(m)),
        "matmul": lambda t: nm.matmul(t(m), t(b.T)),
        "transpose": lambda t: nm.transpose(t(m)),
        "reshape": lambda t: nm.reshape(t(m), (3, 4)),
        "reduce_sum": lambda t: nm.reduce_sum(t(m), axis=1, keepdims=True),
        "reduce_max": lambda t: nm.reduce_max(t(m), axis=1),
        "masked_max": lambda t: nm.masked_max(t(m), mask, axis=1),
        "masked_min": lambda t: nm.masked_min(t(m), mask, axis=1),
        "maximum": lambda t: nm.maximum(t(m), 0.1),
        "minimum": lambda t: nm.minimum(t(m), 0.1),
        "relu": lambda t: nm.relu(t(m)),
        "clamp": lambda t: nm.clamp(t(m), -0.5, 0.5),
        "sqrt": lambda t: nm.sqrt(t(p)),
        "exp": lambda t: nm.exp(t(m)),
        "log": lambda t: nm.log(t(p)),
        "take_rows": lambda t: nm.take_rows(t(m), [2, 0, 2]),
        "stack": lambda t: nm.stack([t(m), t(p)], axis=1),
        "l2_normalize": lambda t: nm.l2_normalize(t(m)),
        "cosine": lambda t: nm.cosine(t(a), t(b)),
        "max_cosine": lambda t: nm.max_cosine(t(a), t(b), 4),
        "linear": lambda t: nm.linear(t(m), t(a), t(a[:, 0])),
        "linear:no-bias": lambda t: nm.linear(t(m), t(a)),
        "linear:rows": lambda t: nm.linear(t(x), t(a), t(a[:, 0])),
        "linear:per-strip": lambda t: nm.linear(t(x), t(w), t(hb)),
        "linear:shared": lambda t: nm.linear(t(x[:, 0]), t(w), t(hb)),
        "cross_entropy": lambda t: nm.cross_entropy(t(m), [0, 2, 1, 2]),
        "hardest_negative_hinge": lambda t: nm.hardest_negative_hinge(
            t(sq), neg, np.arange(4), np.arange(4), 0.2),
        "matched_word_hinge": lambda t: nm.matched_word_hinge(
            t(ws), mask, [0, 1, 1], [2, 0, 3], 0.001, t(tau)),
        "mismatched_word_hinge": lambda t: nm.mismatched_word_hinge(
            t(ws), mask, [0, 1, 1], [2, 0, 3], 0.15, t(tau)),
        "dot": lambda t: nm.dot(t(r), t(m[0])),
        "mean": lambda t: nm.mean(t(m), axis=0),
        "max_pool_rows": lambda t: nm.max_pool_rows(t(m)),
        "max_pool_cols": lambda t: nm.max_pool_cols(t(m)),
        "logsumexp": lambda t: nm.logsumexp(t(m), axis=0),
    }


NOT_OPS = {"NORM_EPS", "Tensor", "GradTape", "backward", "set_debug_checks",
           "blas_threads", "finite_difference_grad"}


def test_op_cases_cover_every_op():
    assert {name.split(":")[0] for name in _op_cases()} == set(nm.__all__) - NOT_OPS


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_untaped_op_equals_taped_bit_for_bit(name):
    case = _op_cases()[name]
    untaped = case(Tensor)
    tape = GradTape()
    taped = case(tape.leaf)
    assert untaped.tape is None and taped.tape is tape
    assert untaped.shape == taped.shape
    assert untaped.data.tobytes() == taped.data.tobytes()


def _out_cases():
    """The ops that can write into a caller's buffer: name -> (call with ``out``, the
    shape of ``out``); ``t`` wraps each array operand."""
    rng = np.random.default_rng(22)
    m, r = rng.normal(size=(4, 3)), rng.normal(size=3)
    a, b = rng.normal(size=(8, 3)), rng.normal(size=(5, 3))
    return {
        "add": (lambda t, out: nm.add(t(m), t(r), out=out), (4, 3)),
        "mul": (lambda t, out: nm.mul(t(m), t(r), out=out), (4, 3)),
        "minimum": (lambda t, out: nm.minimum(t(m), 0.1, out=out), (4, 3)),
        "mul:constant": (lambda t, out: nm.mul(t(m), m < 0.2, out=out), (4, 3)),
        "reduce_sum": (lambda t, out: nm.reduce_sum(t(m), axis=1, out=out), (4,)),
        "max_cosine": (lambda t, out: nm.max_cosine(t(a), t(b), 4, out=out), (2, 2, 5)),
    }


@pytest.mark.parametrize("name", sorted(_out_cases()))
def test_out_equals_fresh_value_bit_for_bit(name):
    case, shape = _out_cases()[name]
    out = np.full(shape, np.nan)  # nothing already in the buffer may leak into the value
    got = case(Tensor, out)
    assert got.data.tobytes() == case(Tensor, None).data.tobytes()
    # the value lives in the buffer, read-only through the Tensor and reusable by its owner
    assert np.shares_memory(got.data, out)
    assert out.flags.writeable and not got.data.flags.writeable


@pytest.mark.parametrize("name", sorted(_out_cases()))
def test_out_refused_on_a_tape(name):
    case, shape = _out_cases()[name]
    out = np.zeros(shape)
    with pytest.raises(ContractError):
        case(GradTape().leaf, out)
    assert not out.any()  # refused before anything was written


def test_max_cosine_out_shape_checked():
    with pytest.raises(ShapeError):
        nm.max_cosine(Tensor(np.ones((8, 3))), Tensor(np.ones((5, 3))), 4,
                      out=np.empty((2, 5, 2)))
