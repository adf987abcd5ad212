"""Retrieval protocol: ranking, Recall@K oracles, reports."""

import numpy as np
import pytest

from fpmine.dataset import generate_synthetic_dataset, identity_split
from fpmine.encoders import EncoderConfig
from fpmine.errors import ConfigError, InputError
from fpmine.evaluation import (evaluate_retrieval, mining_activity,
                               negative_evidence_report, planted_contradiction_pairs,
                               rank_gallery, rank_rows, recall_at_k)
from fpmine.model import Model, ModelFlags

CFG = EncoderConfig(feature_dim=12, shared_dim=6, projection_dim=5, region_count=3,
                    max_words=8, image_raw_dim=7, text_raw_dim=7)


def toy_dataset(seed=0, identities=5, per_id=3, hard=0.4):
    return generate_synthetic_dataset(seed, identities, per_id, CFG,
                                      attribute_count=4, detail_count=1, flip_count=1,
                                      hard_negative_fraction=hard, min_hamming=1)


def brute_force_recall(scores, query_ids, gallery_ids, k):
    """Independent oracle: full sort per query with explicit tie rules."""
    hits = 0
    for q in range(scores.shape[0]):
        order = sorted(range(scores.shape[1]), key=lambda g: (-scores[q, g], g))
        if any(gallery_ids[g] == query_ids[q] for g in order[:k]):
            hits += 1
    return 100.0 * hits / scores.shape[0]


class TestRankRows:
    def test_descending(self):
        out = rank_rows(np.array([0.1, 0.9, 0.5]))
        assert out.tolist() == [1, 2, 0]

    def test_tie_breaks_to_lower_index(self):
        out = rank_rows(np.array([0.5, 0.7, 0.7, 0.2]))
        assert out.tolist() == [1, 2, 0, 3]

    def test_permutation_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=12)
            out = rank_rows(scores)
            assert sorted(out.tolist()) == list(range(12))

    def test_narrow_equal_to_int64_argsort(self):
        # rank_rows re-sorts only the tied rows, so mix them with untied ones; +0.0 and
        # -0.0 compare equal, so a row of both is tied too
        rng = np.random.default_rng(1)
        signed_zeros = np.where(rng.random(40) < 0.5, 0.0, -0.0)
        rows = np.vstack([rng.choice([0.0, 0.25, 0.5, 1.0], size=(7, 40)),
                          rng.normal(size=(5, 40)), signed_zeros, np.full(40, 0.3)])
        scores = rows[rng.permutation(len(rows))]
        out = rank_rows(scores)
        assert out.dtype == np.min_scalar_type(40 - 1) == np.uint8
        want = np.argsort(-scores, axis=-1, kind="stable")
        assert want.dtype == np.int64
        assert np.array_equal(out, want)
        for row, want_row in zip(scores, want):  # one row, as rank_gallery passes it
            assert np.array_equal(rank_rows(row), want_row)

    def test_uint16_past_256_items(self):
        # a gallery of 300: indices up to 299 need uint16; rankings and R@K as int64's
        rng = np.random.default_rng(2)
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(12, 300))
        gids, qids = rng.integers(0, 40, size=300), rng.integers(0, 40, size=12)
        out = rank_rows(scores)
        assert out.dtype == np.uint16
        want = np.argsort(-scores, axis=-1, kind="stable")
        assert np.array_equal(out, want)
        for k in (1, 5, 10, 300):
            got = recall_at_k(out, qids, gids, k)
            assert got == recall_at_k(want, qids, gids, k)
            assert got == brute_force_recall(scores, qids, gids, k)

    def test_result_json_unchanged_by_narrow_rankings(self):
        ds = toy_dataset()
        result = evaluate_retrieval(Model(CFG, seed=0), ds, np.arange(9), "full")
        assert result.rankings.dtype == np.min_scalar_type(9 - 1)
        wide = result.to_json()["rankings"]
        assert wide == result.rankings.astype(np.int64).tolist()
        assert all(type(i) is int for row in wide for i in row)
        gallery = rank_gallery(Model(CFG, seed=0), ds.samples[0], ds.samples[:9], "full")
        assert gallery.dtype == np.min_scalar_type(9 - 1) and gallery.shape == (9,)


class TestRankGallery:
    def test_single_item_gallery(self):
        ds = toy_dataset()
        model = Model(CFG, seed=0)
        out = rank_gallery(model, ds.samples[0], [ds.samples[1]], "full")
        assert out.tolist() == [0]

    def test_empty_gallery_rejected(self):
        ds = toy_dataset()
        with pytest.raises(InputError):
            rank_gallery(Model(CFG, seed=0), ds.samples[0], [], "full")

    def test_five_item_case_matches_brute_force(self):
        ds = toy_dataset(seed=3)
        model = Model(CFG, seed=1)
        gallery = [ds.samples[i] for i in range(5)]
        query = ds.samples[6]
        ranked = rank_gallery(model, query, gallery, "full")
        scores = model.score_matrix(gallery, [query], "full")[:, 0]
        oracle = sorted(range(5), key=lambda g: (-scores[g], g))
        assert ranked.tolist() == oracle


class TestRecallAtK:
    def test_perfect_model(self):
        rankings = np.array([[0, 1], [1, 0]])
        ids = np.array([7, 9])
        assert recall_at_k(rankings, ids, ids, 1) == 100.0

    def test_reversed_ranking_relevant_last(self):
        g = 12
        rankings = np.arange(g)[None, :]
        gallery_ids = np.zeros(g, dtype=int)
        gallery_ids[-1] = 5
        assert recall_at_k(rankings, np.array([5]), gallery_ids, 10) == 0.0
        assert recall_at_k(rankings, np.array([5]), gallery_ids, 12) == 100.0

    def test_k_validation(self):
        with pytest.raises(InputError):
            recall_at_k(np.array([[0]]), np.array([0]), np.array([0]), 0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(8, 15))
        rankings = rank_rows(scores)
        qids = rng.integers(0, 4, size=8)
        gids = rng.integers(0, 4, size=15)
        vals = [recall_at_k(rankings, qids, gids, k) for k in (1, 5, 10)]
        assert vals[0] <= vals[1] <= vals[2] <= 100.0

    def test_random_ranking_expectation_k_over_g(self):
        # one relevant item in a gallery of G under uniform random ranking:
        # E[R@K] = K/G; 10k Monte-Carlo trials within +-2 points
        rng = np.random.default_rng(2)
        g, k, trials = 20, 5, 10_000
        hits = 0
        for _ in range(trials):
            scores = rng.normal(size=(1, g))
            rankings = rank_rows(scores)
            gallery_ids = np.zeros(g, dtype=int)
            gallery_ids[rng.integers(g)] = 1
            hits += recall_at_k(rankings, np.array([1]), gallery_ids, k) / 100.0
        rate = 100.0 * hits / trials
        assert abs(rate - 100.0 * k / g) < 2.0

    def test_equals_brute_force_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nq = int(rng.integers(1, 50))
            ng = int(rng.integers(1, 50))
            # coarse score grid forces plenty of ties
            scores = rng.choice(np.linspace(-1, 1, 9), size=(nq, ng))
            qids = rng.integers(0, 6, size=nq)
            gids = rng.integers(0, 6, size=ng)
            rankings = rank_rows(scores)
            for k in (1, 5, 10):
                got = recall_at_k(rankings, qids, gids, k)
                want = brute_force_recall(scores, qids, gids, k)
                assert got == want


class TestEvaluateRetrieval:
    def test_result_invariants(self):
        ds = toy_dataset()
        model = Model(CFG, seed=0)
        idx = np.arange(len(ds.samples))
        result = evaluate_retrieval(model, ds, idx, "full")
        assert result.query_count == result.gallery_count == len(ds.samples)
        assert result.r_at[1] <= result.r_at[5] <= result.r_at[10] <= 100.0
        for row in result.rankings:
            assert sorted(row.tolist()) == list(range(len(ds.samples)))

    def test_full_fusion_matches_recomputed_sum(self):
        ds = toy_dataset()
        model = Model(CFG, seed=0)
        idx = np.arange(9)
        samples = [ds.samples[i] for i in idx]
        result = evaluate_retrieval(model, ds, idx, "full")
        comps = model.score_components(samples, samples)
        recomputed = (comps["global"] + comps["local"]
                      + comps["local"] + comps["negative"]).T
        assert np.array_equal(result.rankings, rank_rows(recomputed))

    def test_empty_split_rejected(self):
        ds = toy_dataset()
        with pytest.raises(InputError):
            evaluate_retrieval(Model(CFG, seed=0), ds, [], "full")

    def test_negative_word_evidence_never_raises_rank(self):
        # adding strictly negative evidence to one gallery item cannot move
        # it above its no-evidence rank position
        rng = np.random.default_rng(4)
        base = rng.normal(size=(1, 10))
        target = 3
        penalized = base.copy()
        penalized[0, target] -= 0.37  # a strictly negative masked word sum
        rank_before = rank_rows(base)[0].tolist().index(target)
        rank_after = rank_rows(penalized)[0].tolist().index(target)
        assert rank_after >= rank_before


class TestMiningActivity:
    def test_disabled_branch_reports_inactive(self):
        ds = toy_dataset()
        model = Model(CFG, ModelFlags(use_mining=False), seed=0)
        out = mining_activity(model, ds, np.arange(6))
        assert out["enabled"] is False
        assert out["mismatched_active_fraction"] == 0.0

    def test_fractions_in_unit_range(self):
        ds = toy_dataset()
        model = Model(CFG, seed=0)
        out = mining_activity(model, ds, np.arange(9))
        assert 0.0 <= out["mismatched_active_fraction"] <= 1.0
        assert 0.0 <= out["matched_active_fraction"] <= 1.0
        assert out["mean_negative_mismatched"] <= 0.0


class TestNegativeEvidenceReport:
    def test_untrained_model_report_well_formed(self):
        ds = toy_dataset()
        model = Model(CFG, seed=0)
        img, txt = ds.samples[0], ds.samples[4]
        doc = negative_evidence_report(model, img, txt)
        assert doc["matched"] == (img.identity_id == txt.identity_id)
        assert len(doc["words"]) == txt.length
        for w in doc["words"]:
            assert -1.0 <= w["score"] <= 1.0
            assert -2.0 <= w["masked"] <= 0.0
            assert 0 <= w["argmax_region"] < CFG.region_count
            if w["score"] >= 0:
                assert w["masked"] == 0.0
            else:
                assert w["masked"] == pytest.approx(w["score"])
        assert doc["negative_score"] == pytest.approx(
            sum(w["masked"] for w in doc["words"]))
        assert doc["local_negative_score"] == pytest.approx(
            doc["local_score"] + doc["negative_score"])
        assert doc["overall_score"] == pytest.approx(
            doc["global_score"] + doc["local_score"] + doc["local_negative_score"])

    def test_one_word_region_scoring_per_report(self, monkeypatch):
        import fpmine.similarity as similarity

        calls = []
        kernel = similarity.projected

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(similarity, "projected", counted)
        ds = toy_dataset()
        doc = negative_evidence_report(Model(CFG, seed=0), ds.samples[0], ds.samples[4])
        assert len(calls) == 1
        assert doc["masked_word_scores"] == [w["masked"] for w in doc["words"]]
        assert doc["argmax_regions"] == [w["argmax_region"] for w in doc["words"]]

    def test_masked_field_follows_learned_boundary(self):
        ds = toy_dataset()
        model = Model(CFG, ModelFlags(learnable_boundary=True), seed=0)
        model.params["boundary_tau"] = np.array(0.1)
        doc = negative_evidence_report(model, ds.samples[0], ds.samples[4])
        for w in doc["words"]:
            assert w["masked"] == (w["score"] if w["score"] < 0.1 else 0.0)

    def test_json_serializable(self):
        import json

        ds = toy_dataset()
        doc = negative_evidence_report(Model(CFG, seed=0), ds.samples[0], ds.samples[1])
        json.dumps(doc)


class TestPlantedPairs:
    def test_pairs_are_cross_twin(self):
        ds = toy_dataset(identities=10, per_id=2, hard=0.5)
        idx = np.arange(len(ds.samples))
        pairs = planted_contradiction_pairs(ds, idx)
        if not pairs:
            pytest.skip("no twins at this seed")
        from fpmine.dataset import twin_pairs

        links = {(t, p) for t, p, _ in twin_pairs(ds)}
        links |= {(p, t) for t, p in links}
        for img_idx, txt_idx in pairs:
            a = ds.samples[img_idx].identity_id
            b = ds.samples[txt_idx].identity_id
            assert (a, b) in links

    def test_restricted_to_split(self):
        ds = toy_dataset(identities=10, per_id=2, hard=0.5)
        _, val = identity_split(ds, 0.3, seed=0)
        for img_idx, txt_idx in planted_contradiction_pairs(ds, val):
            assert img_idx in val and txt_idx in val
