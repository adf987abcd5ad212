"""Similarity branches: hand oracles, invariants, and gradient checks on the batched kernels.

A pair is a batch of one: the global and local branches are ``nm.cosine`` of rows, the
per-word scores ``nm.max_cosine`` of projected regions and words, and the evidence
``mined_evidence`` of (1, 1, L) scores.
"""

import numpy as np
import pytest
from conftest import one_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from fpmine import numerics as nm
from fpmine.dataset import generate_synthetic_dataset
from fpmine.encoders import EncoderConfig
from fpmine.errors import ShapeError
from fpmine.evaluation import negative_evidence_report
from fpmine.model import Model, ModelFlags
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad
from fpmine.similarity import MiningParams, fuse, mined_evidence, mining_mask, projected


def mining(theta, phi):
    return MiningParams(Tensor(theta), Tensor(phi))


def unit_rows(cosines) -> np.ndarray:
    """2-D unit rows whose cosines with (1, 0) are ``cosines``."""
    c = np.asarray(cosines, dtype=np.float64)
    return np.stack([c, np.sqrt(1.0 - c * c)], axis=-1)


def branches(global_score, local_score, local_negative):
    return {"global": global_score, "local": local_score, "local_negative": local_negative}


class TestGlobalSimilarity:
    def test_identical(self):
        v = Tensor([1.0, 2.0, 3.0])
        assert nm.cosine(v, Tensor([1.0, 2.0, 3.0])).item() == 1.0

    def test_orthogonal(self):
        assert nm.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_cosine(self):
        assert nm.cosine(Tensor([3.0, 4.0]), Tensor([4.0, 3.0])).item() \
            == pytest.approx(0.96, abs=1e-15)


class TestLocalSimilarity:
    """The local branch is the cosine of region-major (1, K * P) rows."""

    def test_identical(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, -1)
        assert nm.cosine(Tensor(m), Tensor(m.copy())).item() == 1.0

    def test_k1_reduces_to_global(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        loc = nm.cosine(Tensor(a), Tensor(b)).item()
        glb = nm.cosine(Tensor(a[0]), Tensor(b[0])).item()
        assert loc == pytest.approx(glb, abs=1e-15)

    def test_against_flatten_cosine_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
            got = nm.cosine(Tensor(a.reshape(1, -1)), Tensor(b.reshape(1, -1))).item()
            # independent oracle: explicit flatten then raw cosine formula
            fa, fb = a.reshape(-1), b.reshape(-1)
            want = float(fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb)))
            assert got == pytest.approx(want, abs=1e-12)

    def test_region_count_mismatch(self):
        # rows of 2 and 3 regions of 3 have different widths
        with pytest.raises(ShapeError):
            nm.cosine(Tensor(np.ones((1, 6))), Tensor(np.ones((1, 9))))


class TestWordRegionScores:
    def test_identity_projection_identical_features(self):
        # identity-padded projections, region feature == word feature -> score 1
        c, m = 4, 4
        theta = phi = np.eye(m, c)
        v = np.array([[1.0, 2.0, 3.0, 4.0]])
        scores = nm.cosine(*projected(Tensor(v), Tensor(v.copy()), mining(theta, phi))).data
        assert scores.shape == (1, 1)
        assert scores.item() == pytest.approx(1.0, abs=1e-12)

    def test_projected_orthogonal(self):
        theta = phi = np.eye(2, 2)
        v = np.array([[1.0, 0.0]])
        e = np.array([[0.0, 1.0]])
        assert nm.cosine(*projected(Tensor(v), Tensor(e), mining(theta, phi))).data.item() == 0.0

    def test_2x2_against_per_pair_cosine_oracle(self):
        rng = np.random.default_rng(2)
        c, m, k, length = 5, 3, 2, 2
        theta, phi = rng.normal(size=(m, c)), rng.normal(size=(m, c))
        v, e = rng.normal(size=(k, c)), rng.normal(size=(c, length))
        got = nm.cosine(*projected(Tensor(v), Tensor(e.T), mining(theta, phi))).data
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
        got = nm.cosine(*projected(Tensor(v), Tensor(e.T), mining(np.eye(c), np.eye(c)))).data
        for j in range(3):
            want = nm.cosine(Tensor(v[0]), Tensor(e[:, j])).item()
            assert got[0, j] == pytest.approx(want, abs=1e-12)

    def test_entries_in_range(self):
        rng = np.random.default_rng(4)
        theta, phi = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        v, e = rng.normal(size=(4, 6)) * 10, rng.normal(size=(6, 5)) * 10
        scores = nm.cosine(*projected(Tensor(v), Tensor(e.T), mining(theta, phi))).data
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


class TestWordMaxScores:
    """Each word's score is its max over the image's regions, ``nm.max_cosine``: one image
    of unit-row regions against one caption, so the cosines are the listed values."""

    def test_column_enumeration(self):
        word = Tensor([[[1.0, 0.0]]])
        got = nm.max_cosine(Tensor(unit_rows([[0.2, -0.5, 0.7]])), word, 3).data[0, 0]
        assert got.tolist() == pytest.approx([0.7], abs=1e-15)

    def test_k1_identity(self):
        region = Tensor([[[1.0, 0.0]]])
        got = nm.max_cosine(region, Tensor(unit_rows([[0.3, -0.2, 0.9]])), 1).data[0, 0]
        assert got.tolist() == pytest.approx([0.3, -0.2, 0.9], abs=1e-15)

    def test_all_negative_column(self):
        got = nm.max_cosine(Tensor(unit_rows([[-0.4, -0.1]])), Tensor([[[1.0, 0.0]]]), 2).data[0, 0]
        assert got.tolist() == pytest.approx([-0.1], abs=1e-15)


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
    """``mined_evidence`` of one pair: (1, 1, L) word scores and a (1, 1) local score."""

    def test_hand_sum(self):
        _, neg, local_neg = mined_evidence(*one_pair([0.4, -0.2, -0.1]), Tensor([[0.6]]))
        assert neg.item() == pytest.approx(-0.3, abs=1e-15)
        assert local_neg.item() == pytest.approx(0.3, abs=1e-15)

    def test_all_positive(self):
        _, neg, local_neg = mined_evidence(*one_pair([0.4, 0.2]), Tensor([[0.6]]))
        assert neg.item() == 0.0
        assert local_neg.item() == pytest.approx(0.6)

    def test_single_word_cancels(self):
        _, neg, local_neg = mined_evidence(*one_pair([-1.0]), Tensor([[1.0]]))
        assert neg.item() == -1.0
        assert local_neg.item() == 0.0

    def test_unmasked_variant_sums_raw(self):
        _, neg, _ = mined_evidence(*one_pair([0.4, -0.2]), Tensor([[0.0]]), use_mask=False)
        assert neg.item() == pytest.approx(0.2)


class TestOverallSimilarity:
    def test_hand_sum(self):
        # negative evidence -0.3 lifts into local_neg = 0.3
        assert fuse(branches(0.5, 0.6, 0.3), "full").item() == pytest.approx(1.4, abs=1e-15)

    def test_no_evidence_doubles_local(self):
        s_l = 0.7
        out = fuse(branches(0.2, s_l, s_l), "full").item()
        assert out == pytest.approx(0.2 + 2 * s_l)

    def test_all_zero(self):
        assert fuse(branches(0.0, 0.0, 0.0), "full").item() == 0.0


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_word_permutation_leaves_negative_sum(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1, 1, size=6)
        _, neg0, _ = mined_evidence(*one_pair(scores), Tensor([[0.0]]))
        perm = rng.permutation(scores)
        _, neg1, _ = mined_evidence(*one_pair(perm), Tensor([[0.0]]))
        assert neg0.item() == pytest.approx(neg1.item(), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_region_permutation_leaves_word_max(self, seed):
        rng = np.random.default_rng(seed)
        regions, words = rng.normal(size=(4, 3)), Tensor(rng.normal(size=(1, 5, 3)))
        base = nm.max_cosine(Tensor(regions), words, 4).data
        perm = nm.max_cosine(Tensor(regions[rng.permutation(4)]), words, 4).data
        assert np.allclose(base, perm)

    def test_negative_sum_monotone_in_negative_score(self):
        scores = np.array([0.4, -0.2, -0.1])
        _, neg0, _ = mined_evidence(*one_pair(scores), Tensor([[0.0]]))
        lowered = scores.copy()
        lowered[1] -= 0.2  # strictly decrease a negative word score
        _, neg1, _ = mined_evidence(*one_pair(lowered), Tensor([[0.0]]))
        assert neg1.item() < neg0.item()
        # and overall similarity strictly decreases with it
        s0 = fuse(branches(0.5, 0.6, 0.6 + neg0.item()), "full").item()
        s1 = fuse(branches(0.5, 0.6, 0.6 + neg1.item()), "full").item()
        assert s1 < s0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_local_neg_never_exceeds_local(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1, 1, size=5)
        s_l = float(rng.uniform(-1, 1))
        _, _, local_neg = mined_evidence(*one_pair(scores), Tensor([[s_l]]))
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
            # one image (1, K, C) and one caption (1, L, C)
            per_word = nm.max_cosine(*projected(vt, et, MiningParams(th, ph)), k)
            _, _, local_neg = mined_evidence(per_word, np.ones((1, length), dtype=bool),
                                             Tensor([[0.4]]))
            return fuse(branches(Tensor([[0.3]]), Tensor([[0.4]]), local_neg), "full").sum()

        self.fd_check(path, [v[None], np.ascontiguousarray(e.T)[None], theta, phi])

    def test_local_similarity_gradient(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        self.fd_check(lambda x, y: nm.cosine(x, y).sum(), [a.reshape(1, -1), b.reshape(1, -1)])


CFG = EncoderConfig(feature_dim=12, shared_dim=6, projection_dim=5, region_count=3,
                    max_words=8, image_raw_dim=7, text_raw_dim=7)


class TestPairBreakdown:
    """A pair's every similarity signal, per-word scores and evidence: its evidence report."""

    def setup_method(self):
        self.ds = generate_synthetic_dataset(0, 5, 3, CFG, attribute_count=4, detail_count=1,
                                             flip_count=1, hard_negative_fraction=0.4,
                                             min_hamming=1)

    def report(self, flags, txt, tau=None):
        model = Model(CFG, flags, seed=0)
        if tau is not None:
            model.params["boundary_tau"] = np.array(tau)
        return model, negative_evidence_report(model, self.ds.samples[0], self.ds.samples[txt])

    def test_masked_scores_follow_boundary(self):
        _, doc = self.report(ModelFlags(learnable_boundary=True), 3, tau=0.1)
        scores = np.array(doc["word_scores"])
        # a word in [0, 0.1) is where the boundary rule and min(s, 0) differ
        assert np.any((scores >= 0.0) & (scores < 0.1))
        want = mining_mask(Tensor(scores), boundary=0.1).data
        assert doc["masked_word_scores"] == want.tolist()
        assert doc["negative_score"] == pytest.approx(float(want.sum()), abs=1e-15)

    def test_masked_scores_raw_without_mask(self):
        _, doc = self.report(ModelFlags(use_mining_mask=False), 4)
        assert doc["masked_word_scores"] == doc["word_scores"]
        assert min(doc["word_scores"]) < 0.0  # a word the mask would have kept

    def test_argmax_regions_attain_word_max(self):
        model, doc = self.report(ModelFlags(), 4)
        bound = model.bind(None)
        images, texts = model._encode([self.ds.samples[0]], [self.ds.samples[4]], bound)
        regions, words = projected(images.region_feats, texts.word_feats,
                                   model.mining_params(bound))
        scores = nm.cosine(regions.data[0], words.data[0]).data  # (K, L)
        got = scores[doc["argmax_regions"], np.arange(scores.shape[1])]
        assert got.tolist() == pytest.approx(doc["word_scores"], abs=1e-12)
        assert np.array_equal(got, scores.max(axis=0))
