"""Loss objectives: hand oracles, boundary laws, gradient checks on the batched kernels.

One pair is a batch of one: the word hinges take its (1, 1, L) scores at cell (0, 0),
the ranking hinge a (2, 2) similarity matrix whose row 0 / column 0 hold the pair.
"""

import math

import numpy as np
import pytest
from conftest import PAIR_NEGATIVES, one_pair
from hypothesis import given, settings
from hypothesis import strategies as st
from test_numerics import composed_sum

from fpmine import numerics as nm
from fpmine.errors import ConfigError, ContractError, InputError
from fpmine.losses import LossWeights, mean_identity_loss, total_loss
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad

W = LossWeights()
MB, MMB = W.matched_bias, W.mismatched_bias


def pair_sim(s_matched, s_img_negtext, s_negimg_text):
    """The (2, 2) similarity matrix of one pair and its two negatives."""
    return Tensor([[s_matched, s_img_negtext], [s_negimg_text, s_matched]])


class TestMatchedWordLoss:
    def test_hand_value(self):
        # scores (0.5, -0.2): word hinges (0, 0.201) -> mean 0.1005
        out = nm.matched_word_hinge(*one_pair([0.5, -0.2]), [0], [0], MB)
        assert out.item() == pytest.approx(0.1005, abs=1e-15)

    def test_zero_when_all_clear_bias(self):
        assert nm.matched_word_hinge(*one_pair([0.001, 0.3, 0.9]), [0], [0], MB).item() == 0.0

    def test_single_negative_one(self):
        out = nm.matched_word_hinge(*one_pair([-1.0]), [0], [0], MB)
        assert out.item() == pytest.approx(1.001, abs=1e-15)

    def test_non_increasing_per_score(self):
        base = nm.matched_word_hinge(*one_pair([0.0, -0.1]), [0], [0], MB).item()
        raised = nm.matched_word_hinge(*one_pair([0.05, -0.1]), [0], [0], MB).item()
        assert raised <= base

    def test_empty_rejected(self):
        # a pair without a valid word has no mean to take
        with pytest.raises(ContractError):
            nm.matched_word_hinge(*one_pair(np.zeros(0)), [0], [0], MB)


class TestMismatchedWordLoss:
    def test_hand_value(self):
        # min(0.3, -0.05) = -0.05 -> max(-0.05 + 0.15, 0) = 0.1
        out = nm.mismatched_word_hinge(*one_pair([0.3, -0.05]), [0], [0], MMB)
        assert out.item() == pytest.approx(0.1, abs=1e-15)

    def test_zero_below_threshold(self):
        assert nm.mismatched_word_hinge(*one_pair([0.4, -0.2]), [0], [0], MMB).item() == 0.0

    def test_zero_min_value(self):
        out = nm.mismatched_word_hinge(*one_pair([0.0, 0.5]), [0], [0], MMB)
        assert out.item() == pytest.approx(0.15)

    def test_non_decreasing_in_min(self):
        lo = nm.mismatched_word_hinge(*one_pair([-0.1]), [0], [0], MMB).item()
        hi = nm.mismatched_word_hinge(*one_pair([0.0]), [0], [0], MMB).item()
        assert hi >= lo


class TestBoundaryLaws:
    def test_matched_zero_iff_min_above_threshold(self):
        # grid over s_min in [-0.3, 0.3]; matched loss zero <=> s_min >= 0.001
        grid = np.linspace(-0.3, 0.3, 601)
        for s_min in grid:
            # second word safely above bias
            zero = nm.matched_word_hinge(*one_pair([s_min, 0.25]), [0], [0], MB).item() == 0.0
            assert zero == (s_min >= 0.001 - 1e-12)

    def test_mismatched_zero_iff_min_below_threshold(self):
        grid = np.linspace(-0.3, 0.3, 601)
        for s_min in grid:
            out = nm.mismatched_word_hinge(*one_pair([s_min, 0.29]), [0], [0], MMB)
            assert (out.item() == 0.0) == (s_min <= -0.15 + 1e-12)

    def test_zero_sets_with_boundary(self):
        # selection is measured from tau, mined evidence from zero: matched
        # words clear tau + 0.001, the weakest mismatched word min(tau, 0) - 0.15;
        # the grid stays 0.004 clear of every target
        for tau in (-0.1, -0.02, 0.02, 0.1, 0.3):
            for s in np.arange(-0.5, 0.5, 0.01) + 0.005:
                m = nm.matched_word_hinge(*one_pair([s, 0.9]), [0], [0], MB, tau).item()
                mm = nm.mismatched_word_hinge(*one_pair([s, 0.9]), [0], [0], MMB, tau).item()
                assert (m == 0.0) == (s >= tau + 0.001)
                assert (mm == 0.0) == (s <= min(tau, 0.0) - 0.15)

    def test_gap_band_never_both_zero(self):
        # inside (-0.15, 0.001) no score can satisfy both hinges
        for s in np.linspace(-0.1499, 0.0009, 97):
            m = nm.matched_word_hinge(*one_pair([s]), [0], [0], MB).item()
            mm = nm.mismatched_word_hinge(*one_pair([s]), [0], [0], MMB).item()
            assert not (m == 0.0 and mm == 0.0)


class TestIdentityLoss:
    """``mean_identity_loss`` on one embedding row is that sample's identity loss."""

    def test_uniform_logits_log_classes(self):
        # zero embedding keeps logits uniform -> ln(C)
        w = np.ones((7, 3))
        out = mean_identity_loss(Tensor([[0.0, 0.0, 0.0]]), [3], Tensor(w))
        assert out.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_confident_correct_class_near_zero(self):
        # true logit 20 ahead of 3 zeros -> loss < 1e-8
        w = np.zeros((4, 2))
        w[1] = [20.0, 0.0]
        out = mean_identity_loss(Tensor([[1.0, 0.0]]), [1], Tensor(w))
        assert 0.0 < out.item() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            mean_identity_loss(Tensor([[1.0]]), [5], Tensor(np.ones((3, 1))))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)[None]
        w = rng.normal(size=(6, 5))

        tape = GradTape()
        xt, wt = tape.leaf(x), tape.leaf(w)
        grads = backward(mean_identity_loss(xt, [2], wt), tape)
        for leaf, arr, rebuild in (
                (xt, x, lambda z: mean_identity_loss(Tensor(z), [2], Tensor(w))),
                (wt, w, lambda z: mean_identity_loss(Tensor(x), [2], Tensor(z)))):
            fd = finite_difference_grad(lambda z: rebuild(z).item(), arr)
            a = grads[leaf].data
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
            assert np.max(np.abs(a - fd) / denom) < 1e-6

    def test_mean_identity_matches_single(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        labels = np.array([0, 4, 2, 1])
        batched = mean_identity_loss(Tensor(xs), labels, Tensor(w)).item()
        singles = [mean_identity_loss(Tensor(xs[i:i + 1]), labels[i:i + 1], Tensor(w)).item()
                   for i in range(4)]
        assert batched == pytest.approx(float(np.mean(singles)), abs=1e-12)


class TestRankingLoss:
    """``hardest_negative_hinge`` on one pair: its score against both negatives."""

    def test_hand_value(self):
        out = nm.hardest_negative_hinge(pair_sim(0.9, 0.5, 0.8), PAIR_NEGATIVES, [0], [0],
                                        W.ranking_margin)
        assert out.item() == pytest.approx(0.1, abs=1e-15)

    def test_all_equal_gives_two_margins(self):
        out = nm.hardest_negative_hinge(pair_sim(0.4, 0.4, 0.4), PAIR_NEGATIVES, [0], [0],
                                        W.ranking_margin)
        assert out.item() == pytest.approx(0.4, abs=1e-15)

    def test_satisfied_hinge_zero(self):
        out = nm.hardest_negative_hinge(pair_sim(0.9, 0.6, 0.65), PAIR_NEGATIVES, [0], [0], 0.2)
        assert out.item() == 0.0

    def test_asymmetry_of_negative_slots(self):
        a, b, c, d = (nm.hardest_negative_hinge(pair_sim(*s), PAIR_NEGATIVES, [0], [0],
                                                margin).item()
                      for *s, margin in ((0.5, 0.45, 0.1, 0.2), (0.5, 0.1, 0.45, 0.2),
                                         (0.5, 0.45, 0.2, 0.2), (0.5, 0.2, 0.45, 0.3)))
        assert a == pytest.approx(b)  # symmetric only because the form is a sum
        assert c != pytest.approx(d)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        sim = pair_sim(*rng.uniform(-0.5, 0.5, size=3)).data
        tape = GradTape()
        leaf = tape.leaf(sim)
        grads = backward(nm.hardest_negative_hinge(leaf, PAIR_NEGATIVES, [0], [0], 0.2), tape)
        fd = finite_difference_grad(lambda x: nm.hardest_negative_hinge(
            Tensor(x), PAIR_NEGATIVES, [0], [0], 0.2).item(), sim)
        assert np.allclose(grads[leaf].data, fd, atol=1e-7)


class TestTotalLoss:
    def test_report_matches_weighted_sum(self):
        total, report = total_loss(Tensor(0.1), Tensor(0.2), Tensor(0.3),
                                   Tensor(0.4), Tensor(0.5), Tensor(0.6), W)
        expect = (0.1 + 0.2) + 0.3 + (0.4 + 0.5 * 0.5 + 0.25 * 0.6)
        assert total.item() == pytest.approx(expect, abs=1e-12)
        assert report.total == pytest.approx(expect, abs=1e-12)
        assert report.matched == pytest.approx(0.1)
        assert report.rank_local_neg == pytest.approx(0.6)

    def test_all_terms_nonnegative_from_model_path(self):
        for value in (0.0, 0.3):
            _, report = total_loss(*(Tensor(value),) * 6, W)
            for term in (report.matched, report.mismatched, report.identity,
                         report.rank_global, report.rank_local, report.rank_local_neg):
                assert term >= 0.0

    @pytest.mark.parametrize("disabled", [(), (0, 1), (3,), (4, 5)],
                             ids=["all", "no-word-terms", "no-global", "no-local"])
    def test_two_weighted_sum_nodes_equal_the_add_mul_chain(self, disabled):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        runs = []
        for rule in ("new", "chain"):
            tape = GradTape()
            terms = [0.0 if i in disabled else tape.leaf(v) for i, v in enumerate(values)]
            before = len(tape)
            if rule == "new":
                total, _ = total_loss(*terms, W)
                assert len(tape) - before == 2
            else:
                ranking = composed_sum(terms[3:], [1.0, W.ranking_local_weight,
                                                   W.ranking_localneg_weight])
                total = composed_sum(terms[:3] + [ranking])
            grads = backward(total, tape)
            runs.append([total.data] + [grads[t].data for t in terms if isinstance(t, Tensor)])
        assert [a.tobytes() for a in runs[0]] == [b.tobytes() for b in runs[1]]

    def test_ranking_family_weights(self):
        total, _ = total_loss(0.0, 0.0, 0.0, Tensor(1.0), Tensor(1.0), Tensor(1.0), W)
        assert total.item() == pytest.approx(1.0 + 0.5 + 0.25)


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(ranking_margin=-0.1)

    def test_defaults(self):
        assert W.matched_bias == 0.001
        assert W.mismatched_bias == 0.15
        assert W.identity_local_weight == 0.5
        assert W.ranking_margin == 0.2
        assert W.ranking_local_weight == 0.5
        assert W.ranking_localneg_weight == 0.25


class TestLossGradients:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_word_losses_match_fd_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-0.9, 0.9, size=5)
        # resample until clear of hinge kinks and min ties
        for _ in range(100):
            near_m = np.any(np.abs(W.matched_bias - scores) < 1e-3)
            smin = scores.min()
            gap = np.partition(scores, 1)[1] - smin
            near_mm = abs(smin + W.mismatched_bias) < 1e-3 or gap < 1e-3
            if not (near_m or near_mm):
                break
            scores = rng.uniform(-0.9, 0.9, size=5)

        for fn, bias in ((nm.matched_word_hinge, MB), (nm.mismatched_word_hinge, MMB)):
            tape = GradTape()
            leaf = tape.leaf(scores)
            grads = backward(fn(*one_pair(leaf), [0], [0], bias), tape)[leaf].data
            fd = finite_difference_grad(
                lambda x: fn(*one_pair(x), [0], [0], bias).item(), scores)
            assert np.allclose(grads, fd, atol=1e-6), fn.__name__
