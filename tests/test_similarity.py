"""Similarity branches: hand oracles, invariants, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmine import numerics as nm
from fpmine.encoders import EmbeddingBundle
from fpmine.errors import ShapeError
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad
from fpmine.similarity import (MiningParams, global_similarity, local_similarity,
                               mined_evidence, mining_mask, negative_similarity, overall_similarity,
                               pair_breakdown, word_max_scores, word_region_scores)


def mining(theta, phi):
    return MiningParams(Tensor(theta), Tensor(phi))


class TestGlobalSimilarity:
    def test_identical(self):
        v = Tensor([1.0, 2.0, 3.0])
        assert global_similarity(v, Tensor([1.0, 2.0, 3.0])).item() == 1.0

    def test_orthogonal(self):
        assert global_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_cosine(self):
        assert global_similarity(Tensor([3.0, 4.0]), Tensor([4.0, 3.0])).item() \
            == pytest.approx(0.96, abs=1e-15)


class TestLocalSimilarity:
    def test_identical(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert local_similarity(Tensor(m), Tensor(m.copy())).item() == 1.0

    def test_k1_reduces_to_global(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        loc = local_similarity(Tensor(a), Tensor(b)).item()
        glb = global_similarity(Tensor(a[0]), Tensor(b[0])).item()
        assert loc == pytest.approx(glb, abs=1e-15)

    def test_against_flatten_cosine_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            got = local_similarity(Tensor(a), Tensor(b)).item()
            # independent oracle: explicit flatten then raw cosine formula
            fa, fb = a.reshape(-1), b.reshape(-1)
            want = float(fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb)))
            assert got == pytest.approx(want, abs=1e-12)

    def test_region_count_mismatch(self):
        with pytest.raises(ShapeError):
            local_similarity(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))


class TestWordRegionScores:
    def test_identity_projection_identical_features(self):
        # identity-padded projections, region feature == word feature -> score 1
        c, m = 4, 4
        theta = phi = np.eye(m, c)
        v = np.array([[1.0, 2.0, 3.0, 4.0]])
        e = v.T
        scores = word_region_scores(Tensor(v), Tensor(e), mining(theta, phi))
        assert scores.data.shape == (1, 1)
        assert scores.item() == pytest.approx(1.0, abs=1e-12)

    def test_projected_orthogonal(self):
        theta = phi = np.eye(2, 2)
        v = np.array([[1.0, 0.0]])
        e = np.array([[0.0], [1.0]])
        assert word_region_scores(Tensor(v), Tensor(e), mining(theta, phi)).item() == 0.0

    def test_2x2_against_per_pair_cosine_oracle(self):
        rng = np.random.default_rng(2)
        c, m, k, length = 5, 3, 2, 2
        theta, phi = rng.normal(size=(m, c)), rng.normal(size=(m, c))
        v, e = rng.normal(size=(k, c)), rng.normal(size=(c, length))
        got = word_region_scores(Tensor(v), Tensor(e), mining(theta, phi)).data
        for i in range(k):
            for j in range(length):
                pv, pe = theta @ v[i], phi @ e[:, j]
                want = float(pv @ pe / (np.linalg.norm(pv) * np.linalg.norm(pe)))
                assert got[i, j] == pytest.approx(want, abs=1e-12)

    def test_k1_identity_projection_equals_direct_cosine(self):
        # K=1, P=C, identity projections: scores equal raw-feature cosines
        rng = np.random.default_rng(3)
        c = 4
        v = rng.normal(size=(1, c))
        e = rng.normal(size=(c, 3))
        got = word_region_scores(Tensor(v), Tensor(e), mining(np.eye(c), np.eye(c))).data
        for j in range(3):
            want = nm.cosine(Tensor(v[0]), Tensor(e[:, j])).item()
            assert got[0, j] == pytest.approx(want, abs=1e-12)

    def test_entries_in_range(self):
        rng = np.random.default_rng(4)
        theta, phi = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        v, e = rng.normal(size=(4, 6)) * 10, rng.normal(size=(6, 5)) * 10
        scores = word_region_scores(Tensor(v), Tensor(e), mining(theta, phi)).data
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


class TestWordMaxScores:
    def test_column_enumeration(self):
        col = Tensor(np.array([[0.2], [-0.5], [0.7]]))
        assert word_max_scores(col).data.tolist() == [0.7]

    def test_k1_identity(self):
        row = Tensor(np.array([[0.3, -0.2, 0.9]]))
        assert word_max_scores(row).data.tolist() == [0.3, -0.2, 0.9]

    def test_all_negative_column(self):
        col = Tensor(np.array([[-0.4], [-0.1]]))
        assert word_max_scores(col).data.tolist() == [-0.1]


class TestMiningMask:
    def test_positive_zeroed(self):
        assert mining_mask(Tensor(0.5)).item() == 0.0

    def test_negative_passes(self):
        assert mining_mask(Tensor(-0.3)).item() == -0.3

    def test_boundary_zero(self):
        assert mining_mask(Tensor(0.0)).item() == 0.0

    def test_equals_min_with_zero_on_grid(self):
        grid = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
        out = mining_mask(Tensor(grid)).data
        assert np.array_equal(out, np.minimum(grid, 0.0))

    def test_gradient_sides(self):
        tape = GradTape()
        s = tape.leaf([-0.5, 0.5, 0.0])
        g = backward(mining_mask(s).sum(), tape)[s].data
        assert g.tolist() == [1.0, 0.0, 0.0]

    def test_shifted_boundary(self):
        # learnable-boundary form: scores below tau pass unchanged
        out = mining_mask(Tensor([0.05, 0.2, -0.1]), boundary=0.1).data
        assert np.allclose(out, [0.05, 0.0, -0.1])
        # and tau itself gets no gradient through the mask
        tape = GradTape()
        tau = tape.leaf(0.1)
        s = tape.leaf([0.05, 0.2, -0.1])
        grads = backward(mining_mask(s, boundary=tau).sum(), tape)
        assert grads[tau].item() == 0.0
        assert grads[s].data.tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("tau", [-0.05, 0.1, "tensor"])
    def test_boundary_mask_equals_product_with_float_mask(self, tau):
        # the bool keep mask is not copied to float64, but each entry is still the score
        # times 1.0 or 0.0, taped or not; bit for bit, so below zero a dropped score
        # must read -0.0
        grid = np.arange(-0.3, 0.3 + 1e-9, 1e-3)
        tau = Tensor(-0.05) if tau == "tensor" else tau
        keep = (grid < (tau.data if isinstance(tau, Tensor) else tau)).astype(np.float64)
        assert mining_mask(Tensor(grid), tau).data.tobytes() == (grid * keep).tobytes()
        tape = GradTape()
        s = tape.leaf(grid)
        up = np.linspace(-2.0, 2.0, grid.size)
        g = backward(nm.reduce_sum(nm.mul(mining_mask(s, tau), up)), tape)[s].data
        assert g.tobytes() == (up * keep).tobytes()


def chain_evidence(s, text_mask, use_mask, boundary):
    """The evidence as ``minimum``/``mul`` by the keep mask, then ``mul`` by a float word mask."""
    if use_mask:
        tau = boundary.data if isinstance(boundary, Tensor) else boundary
        s = nm.minimum(s, 0.0) if tau is boundary and tau == 0.0 else nm.mul(s, s.data < tau)
    return nm.mul(s, np.asarray(text_mask, dtype=np.float64)[None])


class TestMinedEvidence:
    """The evidence is one product with the boolean mask [s < tau] & [valid word]."""

    # (2, 3, 7) word scores: a grid over [-0.2, 0.2], each boundary below, +0.0 and -0.0
    scores = np.random.default_rng(3).permutation(np.concatenate(
        [np.linspace(-0.2, 0.2, 37), [-0.05, 0.05, 0.1, 0.0, -0.0]])).reshape(2, 3, 7)
    text_mask = np.arange(7)[None, :] < np.array([[7], [4], [1]])  # padded words

    @pytest.mark.parametrize("boundary", [Tensor(-0.05), Tensor(0.05), 0.1, -0.05, 0.0],
                             ids=["tensor-below-zero", "tensor-above-zero", "float-above",
                                  "float-below", "zero"])
    def test_one_multiply_equals_the_chain(self, boundary):
        for use_mask in (True, False):
            runs = []
            for rule in ("new", "chain"):
                tape = GradTape()
                s = tape.leaf(self.scores)
                local = tape.leaf(np.ones((2, 3)))
                before = len(tape)
                if rule == "new":
                    ev, neg, local_neg = mined_evidence(s, self.text_mask, local,
                                                        use_mask=use_mask, boundary=boundary)
                    assert len(tape) - before == 3  # the evidence is one node
                else:
                    ev = chain_evidence(s, self.text_mask, use_mask, boundary)
                    neg = nm.reduce_sum(ev, axis=2)
                    local_neg = nm.add(local, neg)
                up = np.linspace(-1.0, 1.0, ev.size).reshape(ev.shape)
                loss = nm.add(nm.reduce_sum(nm.mul(ev, up)), nm.reduce_sum(local_neg))
                grads = backward(loss, tape)
                runs.append((ev.data, neg.data, local_neg.data, grads[s].data))
            # equal, and bit for bit apart from the sign of a zero (min(-0.0, 0) is +0.0)
            for new, old in zip(*runs):
                assert np.array_equal(new, old)
                assert np.abs(new).tobytes() == np.abs(old).tobytes()


class TestNegativeSimilarity:
    def test_hand_sum(self):
        neg, local_neg = negative_similarity(Tensor([0.4, -0.2, -0.1]), Tensor(0.6))
        assert neg.item() == pytest.approx(-0.3, abs=1e-15)
        assert local_neg.item() == pytest.approx(0.3, abs=1e-15)

    def test_all_positive(self):
        neg, local_neg = negative_similarity(Tensor([0.4, 0.2]), Tensor(0.6))
        assert neg.item() == 0.0
        assert local_neg.item() == pytest.approx(0.6)

    def test_single_word_cancels(self):
        neg, local_neg = negative_similarity(Tensor([-1.0]), Tensor(1.0))
        assert neg.item() == -1.0
        assert local_neg.item() == 0.0

    def test_unmasked_variant_sums_raw(self):
        neg, _ = negative_similarity(Tensor([0.4, -0.2]), Tensor(0.0), use_mask=False)
        assert neg.item() == pytest.approx(0.2)


class TestOverallSimilarity:
    def test_hand_sum(self):
        # negative evidence -0.3 lifts into local_neg = 0.3
        assert overall_similarity(0.5, 0.6, 0.3).item() == pytest.approx(1.4, abs=1e-15)

    def test_no_evidence_doubles_local(self):
        s_l = 0.7
        out = overall_similarity(0.2, s_l, s_l).item()
        assert out == pytest.approx(0.2 + 2 * s_l)

    def test_all_zero(self):
        assert overall_similarity(0.0, 0.0, 0.0).item() == 0.0


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_word_permutation_leaves_negative_sum(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1, 1, size=6)
        neg0, _ = negative_similarity(Tensor(scores), Tensor(0.0))
        perm = rng.permutation(scores)
        neg1, _ = negative_similarity(Tensor(perm), Tensor(0.0))
        assert neg0.item() == pytest.approx(neg1.item(), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_region_permutation_leaves_word_max(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1, 1, size=(4, 5))
        base = word_max_scores(Tensor(scores)).data
        perm = word_max_scores(Tensor(scores[rng.permutation(4)])).data
        assert np.allclose(base, perm)

    def test_negative_sum_monotone_in_negative_score(self):
        scores = np.array([0.4, -0.2, -0.1])
        neg0, _ = negative_similarity(Tensor(scores), Tensor(0.0))
        lowered = scores.copy()
        lowered[1] -= 0.2  # strictly decrease a negative word score
        neg1, _ = negative_similarity(Tensor(lowered), Tensor(0.0))
        assert neg1.item() < neg0.item()
        # and overall similarity strictly decreases with it
        s0 = overall_similarity(0.5, 0.6, 0.6 + neg0.item()).item()
        s1 = overall_similarity(0.5, 0.6, 0.6 + neg1.item()).item()
        assert s1 < s0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_local_neg_never_exceeds_local(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1, 1, size=5)
        s_l = float(rng.uniform(-1, 1))
        _, local_neg = negative_similarity(Tensor(scores), Tensor(s_l))
        assert local_neg.item() <= s_l + 1e-15
        if np.all(scores >= 0):
            assert local_neg.item() == pytest.approx(s_l)


class TestSimilarityGradients:
    def fd_check(self, fn, arrays, tol=2e-6):
        tape = GradTape()
        leaves = [tape.leaf(a) for a in arrays]
        grads = backward(fn(*leaves), tape)
        for leaf, arr in zip(leaves, arrays):
            def scalar(x, leaf=leaf, arrays=arrays):
                subs = [x if a is arr else a for a in arrays]
                return fn(*[Tensor(s) for s in subs]).item()
            fd = finite_difference_grad(scalar, arr)
            a = grads[leaf].data
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
            assert np.max(np.abs(a - fd) / denom) < tol

    def test_full_mining_path_gradient(self):
        rng = np.random.default_rng(7)
        c, m, k, length = 6, 4, 3, 4
        v = rng.normal(size=(k, c))
        e = rng.normal(size=(c, length))
        theta = rng.normal(size=(m, c))
        phi = rng.normal(size=(m, c))

        def path(vt, et, th, ph):
            scores = word_region_scores(vt, et, MiningParams(th, ph))
            per_word = word_max_scores(scores)
            neg, local_neg = negative_similarity(per_word, Tensor(0.4))
            return overall_similarity(Tensor(0.3), Tensor(0.4), local_neg)

        self.fd_check(path, [v, e, theta, phi])

    def test_local_similarity_gradient(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        self.fd_check(lambda x, y: local_similarity(x, y), [a, b])


class TestPairBreakdown:
    def setup_method(self):
        rng = np.random.default_rng(9)
        k, p, c, length = 3, 4, 5, 6

        def bundle(parts, valid_len=None):
            return EmbeddingBundle(Tensor(rng.normal(size=p)), Tensor(rng.normal(size=(k, p))),
                                   Tensor(parts), valid_len)

        self.image = bundle(rng.normal(size=(k, c)))
        self.text = bundle(rng.normal(size=(c, length)), length)
        self.params = mining(rng.normal(size=(3, c)), rng.normal(size=(3, c)))

    def test_masked_scores_follow_boundary(self):
        b = pair_breakdown(self.image, self.text, self.params, boundary=0.1)
        # a word in [0, 0.1) is where the boundary rule and min(s, 0) differ
        assert np.any((b.word_scores >= 0.0) & (b.word_scores < 0.1))
        want = mining_mask(Tensor(b.word_scores), boundary=0.1).data
        assert b.to_json()["masked_word_scores"] == want.tolist()
        assert b.negative_score == pytest.approx(float(want.sum()), abs=1e-15)

    def test_masked_scores_raw_without_mask(self):
        b = pair_breakdown(self.image, self.text, self.params, use_mask=False)
        assert b.to_json()["masked_word_scores"] == b.word_scores.tolist()

    def test_argmax_regions_attain_word_max(self):
        b = pair_breakdown(self.image, self.text, self.params)
        scores = word_region_scores(self.image.raw_parts, self.text.raw_parts, self.params).data
        assert np.array_equal(scores[b.argmax_regions, np.arange(scores.shape[1])],
                              b.word_scores)
