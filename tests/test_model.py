"""Batched model path vs batches of one and numpy oracles, plus flag semantics."""

import itertools
from dataclasses import fields

import numpy as np
import pytest
from test_numerics import composed_sum, dense_max_cosine_grads

from fpmine import losses as ls
from fpmine import model as model_module
from fpmine import numerics as nm
from fpmine.dataset import generate_synthetic_dataset
from fpmine.encoders import EncoderConfig, encode_images_batch, encode_texts_batch
from fpmine.errors import ConfigError
from fpmine.evaluation import ABLATION_VARIANTS, rank_rows, variant_config
from fpmine.model import FUSIONS, Model, ModelFlags, init_params
from fpmine.numerics import GradTape, Tensor, backward
from fpmine.sampling import balanced_batches
from fpmine.similarity import fuse
from fpmine.training import TrainConfig

CFG = EncoderConfig(feature_dim=12, shared_dim=6, projection_dim=5, region_count=3,
                    max_words=8, image_raw_dim=7, text_raw_dim=7)


def toy_dataset(seed=0, identities=4, per_id=3):
    return generate_synthetic_dataset(seed, identities, per_id, CFG,
                                      attribute_count=4, detail_count=1,
                                      flip_count=1, hard_negative_fraction=0.3,
                                      min_hamming=1)


class TestFlags:
    def test_mining_requires_local(self):
        with pytest.raises(ConfigError):
            ModelFlags(use_global=True, use_local=False, use_mining=True)

    def test_some_branch_required(self):
        with pytest.raises(ConfigError):
            ModelFlags(use_global=False, use_local=False, use_mining=False)

    def test_natural_fusion(self):
        assert ModelFlags().fusion() == "full"
        assert ModelFlags(use_mining=False).fusion() == "global+local"
        assert ModelFlags(use_global=False, use_mining=False).fusion() == "local"
        assert ModelFlags(use_local=False, use_mining=False).fusion() == "global"
        assert ModelFlags(use_global=False).fusion() == "local+mining"


class TestInitParams:
    def test_same_seed_same_params_across_variants(self):
        a = init_params(CFG, ModelFlags(), seed=3)
        b = init_params(CFG, ModelFlags(use_mining=False), seed=3)
        for name in b:
            assert np.array_equal(a[name], b[name])

    def test_boundary_only_when_learnable(self):
        assert "boundary_tau" not in init_params(CFG, ModelFlags(), seed=0)
        p = init_params(CFG, ModelFlags(learnable_boundary=True), seed=0)
        assert p["boundary_tau"].shape == ()
        assert p["boundary_tau"] == 0.0


class TestComponentsAgainstPairOps:
    """The batched similarity matrices must equal each pair scored as a batch of one."""

    def setup_method(self):
        self.ds = toy_dataset()
        self.model = Model(CFG, seed=1)
        self.images = [self.ds.samples[i] for i in (0, 3, 7)]
        self.texts = [self.ds.samples[i] for i in (1, 4, 8, 10)]

    def test_matrices_match_pair_breakdowns(self):
        comps = self.model.score_components(self.images, self.texts)
        for i, img_s in enumerate(self.images):
            for j, txt_s in enumerate(self.texts):
                one = self.model.score_components([img_s], [txt_s])
                for name in ("global", "local", "negative", "local_negative"):
                    assert comps[name][i, j] == pytest.approx(one[name].item(), abs=1e-10), name
                full = comps["global"][i, j] + comps["local"][i, j] + comps["local_negative"][i, j]
                assert full == pytest.approx(fuse(one, "full").item(), abs=1e-10)

    def test_word_scores_match_pair_path(self):
        bound = self.model.bind(None)
        mining = self.model.mining_params(bound)
        scores = self.model.word_score_tensor(
            *self.model._encode(self.images, self.texts, bound), mining).data
        for i, img_s in enumerate(self.images):
            for j, txt_s in enumerate(self.texts):
                per_word = self.model.word_score_tensor(
                    *self.model._encode([img_s], [txt_s], bound), mining).data[0, 0]
                got = scores[i, j, :txt_s.length]
                assert np.allclose(got, per_word, atol=1e-10)

    def test_fusion_recomputed_independently(self):
        comps = self.model.score_components(self.images, self.texts)
        fused = self.model.score_matrix(self.images, self.texts, "full")
        expect = comps["global"] + comps["local"] + comps["local"] + comps["negative"]
        assert np.allclose(fused, expect, atol=1e-12)

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ConfigError):
            self.model.score_matrix(self.images, self.texts, "everything")

    def test_disabled_branch_fusion_rejected(self):
        model = Model(CFG, ModelFlags(use_mining=False), seed=1)
        with pytest.raises(ConfigError):
            model.score_matrix(self.images, self.texts, "full")


class TestBatchLossAgainstReference:
    """The vectorized batch loss must equal a reassembly from pairs scored one at a time."""

    def reference_loss(self, model, ds, plan):
        bound = model.bind(None)
        mining = model.mining_params(bound)
        w = model.weights
        samples = ds.samples

        def word_hinge(hinge, bias, img_idx, txt_idx):
            images, texts = model._encode([samples[img_idx]], [samples[txt_idx]], bound)
            scores = model.word_score_tensor(images, texts, mining)
            return hinge(scores, texts.mask, [0], [0], bias).item()

        l_m = float(np.mean([word_hinge(nm.matched_word_hinge, w.matched_bias, i, t)
                             for i, t in plan.matched]))
        l_mm = float(np.mean([word_hinge(nm.mismatched_word_hinge, w.mismatched_bias, i, t)
                              for i, t in plan.mismatched]))

        img_idx = sorted({i for i, _ in plan.matched} | {i for i, _ in plan.mismatched})
        txt_idx = sorted({t for _, t in plan.matched} | {t for _, t in plan.mismatched})
        # each sample encoded alone, as both an image and a caption
        enc = {g: model._encode([samples[g]], [samples[g]], bound)
               for g in set(img_idx) | set(txt_idx)}

        def ce(emb, label, key):
            return ls.mean_identity_loss(emb, [label], bound[key]).item()

        l_id = (
            np.mean([ce(enc[i][0].global_embed, samples[i].identity_id, "id_global_w")
                     for i in img_idx])
            + np.mean([ce(enc[t][1].global_embed, samples[t].identity_id, "id_global_w")
                       for t in txt_idx])
            + w.identity_local_weight * (
                np.mean([ce(enc[i][0].local_embed, samples[i].identity_id, "id_local_w")
                         for i in img_idx])
                + np.mean([ce(enc[t][1].local_embed, samples[t].identity_id, "id_local_w")
                           for t in txt_idx])))

        sims = {branch: np.zeros((len(img_idx), len(txt_idx)))
                for branch in ("global", "local", "local_negative")}
        for a, i in enumerate(img_idx):
            for b_, t in enumerate(txt_idx):
                one = model.score_components([samples[i]], [samples[t]])
                for branch, m in sims.items():
                    m[a, b_] = one[branch].item()

        img_labels = np.array([samples[i].identity_id for i in img_idx])
        txt_labels = np.array([samples[t].identity_id for t in txt_idx])
        ipos = {g: i for i, g in enumerate(img_idx)}
        tpos = {g: i for i, g in enumerate(txt_idx)}

        def rank_term(matrix):
            vals = []
            for i, t in plan.matched:
                a, b_ = ipos[i], tpos[t]
                pos = matrix[a, b_]
                neg_t = matrix[a][txt_labels != img_labels[a]].max()
                neg_i = matrix[:, b_][img_labels != txt_labels[b_]].max()
                vals.append(max(w.ranking_margin - pos + neg_t, 0.0)
                            + max(w.ranking_margin - pos + neg_i, 0.0))
            return float(np.mean(vals))

        l_rg = rank_term(sims["global"])
        l_rl = rank_term(sims["local"])
        l_rln = rank_term(sims["local_negative"])
        total = (l_m + l_mm) + l_id + (l_rg + w.ranking_local_weight * l_rl
                                       + w.ranking_localneg_weight * l_rln)
        return total, dict(matched=l_m, mismatched=l_mm, identity=l_id,
                           rank_global=l_rg, rank_local=l_rl, rank_local_neg=l_rln)

    def test_batch_loss_matches_per_pair_reference(self):
        ds = toy_dataset(seed=2, identities=4, per_id=3)
        model = Model(CFG, seed=5)
        plan = next(iter(balanced_batches(ds, 6, seed=1)))
        total, report, _ = model.batch_loss(ds, plan, None)
        ref_total, ref = self.reference_loss(model, ds, plan)
        assert report.matched == pytest.approx(ref["matched"], abs=1e-10)
        assert report.mismatched == pytest.approx(ref["mismatched"], abs=1e-10)
        assert report.identity == pytest.approx(ref["identity"], abs=1e-10)
        assert report.rank_global == pytest.approx(ref["rank_global"], abs=1e-10)
        assert report.rank_local == pytest.approx(ref["rank_local"], abs=1e-10)
        assert report.rank_local_neg == pytest.approx(ref["rank_local_neg"], abs=1e-10)
        assert total.item() == pytest.approx(ref_total, abs=1e-9)

    def test_mining_disabled_zeroes_its_terms(self):
        ds = toy_dataset(seed=3)
        model = Model(CFG, ModelFlags(use_mining=False), seed=4)
        plan = next(iter(balanced_batches(ds, 6, seed=2)))
        _, report, _ = model.batch_loss(ds, plan, None)
        assert report.matched == 0.0
        assert report.mismatched == 0.0
        assert report.rank_local_neg == 0.0
        assert report.identity > 0.0
        # and the components have no negative evidence at all
        comps = model.score_components([ds.samples[0]], [ds.samples[1]])
        assert "negative" not in comps

    def test_localneg_ranking_flag(self):
        ds = toy_dataset(seed=4)
        model = Model(CFG, ModelFlags(use_local_neg_ranking=False), seed=4)
        plan = next(iter(balanced_batches(ds, 6, seed=2)))
        _, report, _ = model.batch_loss(ds, plan, None)
        assert report.rank_local_neg == 0.0
        assert report.matched > 0.0 or report.mismatched >= 0.0

    def test_gradients_flow_to_all_used_params(self):
        ds = toy_dataset(seed=6)
        model = Model(CFG, seed=7)
        plan = next(iter(balanced_batches(ds, 6, seed=4)))
        tape = GradTape()
        total, _, bound = model.batch_loss(ds, plan, tape)
        grads = backward(total, tape)
        nonzero = {name for name, leaf in bound.items()
                   if np.any(grads[leaf].data != 0.0)}
        for expected in ("img_embed_w", "txt_embed_w", "mining_region_proj",
                         "mining_word_proj", "id_global_w", "id_local_w"):
            assert expected in nonzero


class TestLearnableBoundarySignal:
    """tau trains only through the word hinges, and their push on it turns at zero."""

    def setup_method(self):
        self.ds = toy_dataset(seed=7)
        self.plan = next(iter(balanced_batches(self.ds, 6, seed=5)))

    def at(self, tau):
        model = Model(CFG, ModelFlags(learnable_boundary=True), seed=8)
        model.params["boundary_tau"] = np.array(tau)
        tape = GradTape()
        total, report, bound = model.batch_loss(self.ds, self.plan, tape)
        return report, backward(total, tape)[bound["boundary_tau"]].item()

    def test_zero_boundary_equals_fixed_model(self):
        _, fixed, _ = Model(CFG, seed=8).batch_loss(self.ds, self.plan, None)
        report, _ = self.at(0.0)
        assert report == fixed

    def test_push_changes_sign_at_zero(self):
        _, fixed, _ = Model(CFG, seed=8).batch_loss(self.ds, self.plan, None)
        grads_above = []
        for tau in (0.01, 0.2, 0.5, 0.7):
            report, grad = self.at(tau)
            # above zero the mismatched target stays at -bias/slope ...
            assert report.mismatched == fixed.mismatched
            grads_above.append(grad)
        # ... so only the matched hinge acts, and it can only lower tau; the
        # untrained matched words all score above 0.2 on this plan
        assert grads_above[:2] == [0.0, 0.0]
        assert 0.0 < grads_above[2] < grads_above[3]
        for tau in (-0.01, -0.05):
            report, grad = self.at(tau)
            assert report.mismatched > fixed.mismatched
            assert grad < 0.0


class TestWordHingesAgainstNumpyOracle:
    """Batched word hinges and identity term vs numpy written apart from fpmine.

    The oracle starts from the word-score tensor that ``word_score_tensor``
    returns for the batch's images and captions, and their text mask, so it
    checks the hinge, mean and cross-entropy arithmetic, under a
    learnable boundary on both sides of zero.
    """

    PLANS = ((2, 1, 5), (5, 3, 6), (7, 5, 8))  # (dataset seed, plan seed, model seed)

    @staticmethod
    def oracle(model, ds, plan, tau):
        w = model.weights
        img_idx = sorted({i for i, _ in plan.matched} | {i for i, _ in plan.mismatched})
        txt_idx = sorted({t for _, t in plan.matched} | {t for _, t in plan.mismatched})
        bound = model.bind(None)
        images, texts = model._encode([ds.samples[i] for i in img_idx],
                                      [ds.samples[t] for t in txt_idx], bound)
        scores = model.word_score_tensor(images, texts, model.mining_params(bound)).data
        mask = texts.mask

        def per_pair(pairs, fn):
            vals = []
            for i, t in pairs:
                words = scores[img_idx.index(i), txt_idx.index(t)][mask[txt_idx.index(t)]]
                vals.append(fn(words))
            return float(np.mean(vals))

        matched = per_pair(plan.matched, lambda s: np.mean(
            np.maximum(w.matched_bias - (s - tau), 0.0)))
        mismatched = per_pair(plan.mismatched, lambda s: max(
            s.min() - min(tau, 0.0) + w.mismatched_bias, 0.0))

        def ce(x, labels, weight):
            logits = x @ weight.T
            top = logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
            return float(np.mean(lse - logits[np.arange(len(labels)), labels]))

        bound = model.bind(None)
        p = model.params
        img_raw = np.stack([ds.samples[i].image_raw for i in img_idx])
        lengths = np.array([ds.samples[t].length for t in txt_idx])
        txt_raw = np.zeros((len(txt_idx), lengths.max(), CFG.text_raw_dim))
        for row, t in enumerate(txt_idx):
            txt_raw[row, :lengths[row]] = ds.samples[t].text_raw
        images = encode_images_batch(img_raw, bound, CFG)
        texts = encode_texts_batch(txt_raw, lengths, bound, CFG)
        img_ids = np.array([ds.samples[i].identity_id for i in img_idx])
        txt_ids = np.array([ds.samples[t].identity_id for t in txt_idx])
        flat = CFG.region_count * CFG.shared_dim
        identity = (ce(images.global_embed.data, img_ids, p["id_global_w"])
                    + ce(texts.global_embed.data, txt_ids, p["id_global_w"])
                    + w.identity_local_weight * (
                        ce(images.local_embed.data.reshape(-1, flat), img_ids, p["id_local_w"])
                        + ce(texts.local_embed.data.reshape(-1, flat), txt_ids,
                             p["id_local_w"])))
        return matched, mismatched, identity

    # the hinges average over pairs, hence the "-mean" in each case's name
    @pytest.mark.parametrize("tau", [-0.05, -0.01, 0.01, 0.2], ids="{}-mean".format)
    def test_batch_loss_matches_oracle(self, tau):
        for ds_seed, plan_seed, model_seed in self.PLANS:
            ds = toy_dataset(seed=ds_seed)
            plan = next(iter(balanced_batches(ds, 6, seed=plan_seed)))
            model = Model(CFG, ModelFlags(learnable_boundary=True), seed=model_seed)
            model.params["boundary_tau"] = np.array(tau)
            _, report, _ = model.batch_loss(ds, plan, None)
            matched, mismatched, identity = self.oracle(model, ds, plan, tau)
            assert report.matched == pytest.approx(matched, rel=1e-12, abs=1e-12)
            assert report.mismatched == pytest.approx(mismatched, rel=1e-12, abs=1e-12)
            assert report.identity == pytest.approx(identity, rel=1e-12, abs=1e-12)


def valid_flag_sets():
    sets = []
    for values in itertools.product((True, False), repeat=len(fields(ModelFlags))):
        try:
            sets.append(ModelFlags(*values))
        except ConfigError:
            pass
    return sets


class TestGradientsAgainstDenseMaxCosineRule:
    """``batch_loss`` leaf gradients under the sparse ``max_cosine`` backward equal those
    of the dense rule it replaced, to 1e-13 of each tensor's largest entry."""

    @staticmethod
    def dense_rule(real):
        def max_cosine(a, b, groups, out=None):
            res = real(a, b, groups, out)
            if res.tape is not None:
                a2, b2 = a.data.reshape((-1, a.shape[-1])), b.data.reshape((-1, b.shape[-1]))

                def bw(g):
                    g = np.reshape(g, (len(a2) // groups, len(b2)))
                    ga, gb = dense_max_cosine_grads(a2, b2, groups, g)
                    return ga.reshape(a.shape), gb.reshape(b.shape)

                res.tape._backwards[res.tid] = bw
            return res

        return max_cosine

    @staticmethod
    def leaf_grads(model, ds, plan):
        tape = GradTape()
        total, _, bound = model.batch_loss(ds, plan, tape)
        grads = backward(total, tape)
        return {name: grads[leaf].data for name, leaf in bound.items()}

    @pytest.mark.parametrize("flags", valid_flag_sets(), ids=lambda f: "".join(
        str(int(getattr(f, x.name))) for x in fields(f)))
    def test_leaf_gradients(self, monkeypatch, flags):
        ds = toy_dataset(seed=2)
        model = Model(CFG, flags, seed=5)
        for plan in list(balanced_batches(ds, 6, seed=1))[:2]:
            sparse = self.leaf_grads(model, ds, plan)
            with monkeypatch.context() as m:
                m.setattr(nm, "max_cosine", self.dense_rule(nm.max_cosine))
                dense = self.leaf_grads(model, ds, plan)
            assert any(g.any() for g in dense.values())
            for name, g in dense.items():
                np.testing.assert_allclose(sparse[name], g, rtol=0,
                                           atol=1e-13 * np.abs(g).max(), err_msg=name)


# tape nodes of one toy batch per ablation variant, exactly: a change that adds or removes
# nodes updates these counts, and with them the figure ROADMAP tracks.
TAPE_NODES = {"global": 31, "local": 33, "global+local": 42, "local+mining": 42,
              "global+local+mining": 51, "baseline": 42, "no_local_neg_ranking": 50,
              "no_mining_mask": 51, "no_balanced_sample": 51, "learnable_boundary": 52,
              "full": 51}

# the head parameters of each similarity branch, which a variant without it never applies
BRANCH_HEADS = {"local": ("img_local_w", "img_local_b", "txt_local_w", "txt_local_b"),
                "global": ("img_global_w", "img_global_b", "txt_global_w", "txt_global_b")}


class TestTapeSize:
    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_batch_loss_tape_nodes_bounded(self, variant):
        ds = toy_dataset(seed=2)
        plan = next(iter(balanced_batches(ds, 6, seed=1)))
        tape = GradTape()
        flags = variant_config(TrainConfig(), variant).flags
        Model(CFG, flags, seed=5).batch_loss(ds, plan, tape)
        assert len(tape) == TAPE_NODES[variant]

    @pytest.mark.parametrize("variant,off", [("global", "local"), ("local", "global"),
                                             ("local+mining", "global")])
    def test_disabled_branch_heads_not_applied(self, variant, off):
        ds = toy_dataset(seed=2)
        plan = next(iter(balanced_batches(ds, 6, seed=1)))
        tape = GradTape()
        flags = variant_config(TrainConfig(), variant).flags
        total, _, bound = Model(CFG, flags, seed=5).batch_loss(ds, plan, tape)
        heads = {bound[name].tid for name in BRANCH_HEADS[off]}
        assert not any(heads.intersection(inputs) for inputs in tape._inputs)
        grads = backward(total, tape)  # their leaves still get (zero) gradients
        assert all(not grads[bound[name]].data.any() for name in BRANCH_HEADS[off])

    def test_identity_term_equals_the_add_mul_chain(self):
        ds = toy_dataset(seed=2)
        samples = ds.samples[:6]
        labels = np.array([s.identity_id for s in samples])
        ce = ls.mean_identity_loss

        def chain(model, images, texts, bound):
            terms = []
            if model.flags.use_global:
                terms += [ce(images.global_embed, labels, bound["id_global_w"]),
                          ce(texts.global_embed, labels, bound["id_global_w"])]
            if model.flags.use_local:
                local = composed_sum([ce(images.local_embed, labels, bound["id_local_w"]),
                                      ce(texts.local_embed, labels, bound["id_local_w"])])
                terms.append(nm.mul(local, model.weights.identity_local_weight))
            return composed_sum(terms)

        # two nodes per identity loss, then the local pair (if any) and the outer sum
        for variant, nodes in (("full", 10), ("global", 5), ("local", 6)):
            model = Model(CFG, variant_config(TrainConfig(), variant).flags, seed=5)
            runs = []
            for rule in ("new", "chain"):
                tape = GradTape()
                bound = model.bind(tape)
                images, texts = model._encode(samples, samples, bound)
                before = len(tape)
                if rule == "new":
                    total = model._identity_term(images, texts, labels, labels, bound)
                    assert len(tape) - before == nodes, variant
                else:
                    total = chain(model, images, texts, bound)
                grads = backward(total, tape)
                runs.append([total.data] + [grads[leaf].data for leaf in bound.values()])
            assert [a.tobytes() for a in runs[0]] == [b.tobytes() for b in runs[1]], variant

    def test_dropped_tape_freed_without_cyclic_gc(self):
        import gc
        import weakref

        ds = toy_dataset(seed=2)
        plan = next(iter(balanced_batches(ds, 6, seed=1)))
        gc.disable()
        try:
            tape = GradTape()
            total, _, bound = Model(CFG, seed=5).batch_loss(ds, plan, tape)
            grads = backward(total, tape)
            ref = weakref.ref(tape)
            del tape, total, bound, grads
            assert ref() is None
        finally:
            gc.enable()

    def test_score_components_are_read_only(self):
        ds = toy_dataset()
        comps = Model(CFG, seed=1).score_components(ds.samples[:3], ds.samples[3:7])
        assert comps.keys() == {"global", "local", "negative", "local_negative"}
        for name, arr in comps.items():
            assert not arr.flags.writeable, name


class TestBlockedScoring:
    """Evaluation scores images in blocks of at most SCORE_BLOCK_BYTES of slab."""

    @staticmethod
    def row_bytes(texts):
        # one image's (n_txt * pad) float64 word scores
        return len(texts) * max(s.length for s in texts) * 8

    def setup_method(self):
        self.ds = toy_dataset(identities=5, per_id=3)
        # sample 11 last: alone in a block, BLAS would score it by gemv, which rounds
        # some of its entries unlike the gemm of a larger block
        self.images = [self.ds.samples[i] for i in (0, 2, 3, 5, 6, 8, 9, 12, 14, 13, 11)]
        self.texts = [self.ds.samples[i] for i in (1, 4, 7, 10, 13, 3, 0)]

    def score(self, model, monkeypatch, budget):
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", budget)
        return (model.score_components(self.images, self.texts),
                model.score_matrix(self.images, self.texts, model.flags.fusion()))

    @pytest.mark.parametrize("flags", [ModelFlags(), ModelFlags(use_mining=False),
                                       ModelFlags(learnable_boundary=True)])
    # 3+3+3+2 images (ragged); 2+2+2+2+2, then images 9 and 10 (the last block starts
    # one image early, so no block holds a lone image); or a budget for one image, which
    # blocks take as two
    @pytest.mark.parametrize("rows", [3, 2, 1])
    def test_blocks_match_one_block(self, monkeypatch, flags, rows):
        model = Model(CFG, flags, seed=3)
        if flags.learnable_boundary:
            model.params["boundary_tau"] = np.array(0.1)
        whole, whole_fused = self.score(model, monkeypatch, 1 << 40)
        row_bytes = self.row_bytes(self.texts)
        blocked, fused = self.score(model, monkeypatch, rows * row_bytes + row_bytes // 2)
        assert blocked.keys() == whole.keys()
        for name, arr in blocked.items():
            assert arr.shape == whole[name].shape, name
            assert not arr.flags.writeable, name
            assert np.array_equal(arr, whole[name]), name
        assert np.array_equal(fused, whole_fused)
        assert np.array_equal(rank_rows(fused.T), rank_rows(whole_fused.T))

    @pytest.mark.parametrize("flags,tau", [
        (ModelFlags(), None), (ModelFlags(use_mining_mask=False), None),
        (ModelFlags(learnable_boundary=True), 0.1), (ModelFlags(learnable_boundary=True), -0.05),
        (ModelFlags(use_mining=False), None)], ids=["full", "no_mask", "tau+", "tau-", "no_mining"])
    def test_equals_untaped_similarity_components(self, monkeypatch, flags, tau):
        # blocked scoring in the workspace, bit for bit the whole split's untaped forward
        model = Model(CFG, flags, seed=3)
        if tau is not None:
            model.params["boundary_tau"] = np.array(tau)
        blocked, _ = self.score(model, monkeypatch, 3 * self.row_bytes(self.texts))
        bound = model.bind(None)
        want, _ = model.similarity_components(*model._encode(self.images, self.texts, bound),
                                              bound)
        assert blocked.keys() == want.keys()
        for name, t in want.items():
            assert np.array_equal(blocked[name], t.data), name

    def test_ragged_block_sees_no_stale_workspace(self, monkeypatch):
        # NaN in every fresh buffer (workspace and outputs): the two-image last block
        # reads none of what the full blocks left in the workspace
        model = Model(CFG, seed=3)
        whole, _ = self.score(model, monkeypatch, 1 << 40)
        full = np.full
        monkeypatch.setattr(np, "empty", lambda shape, *args, **kwargs: full(shape, np.nan))
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", 3 * self.row_bytes(self.texts))
        blocked = model.score_components(self.images, self.texts)  # 3+3+3+2 images
        monkeypatch.undo()
        for name, arr in blocked.items():
            assert np.array_equal(arr, whole[name]), name

    def test_pair_in_last_block_matches_pair_breakdown(self, monkeypatch):
        model = Model(CFG, seed=3)
        comps, _ = self.score(model, monkeypatch, 2 * self.row_bytes(self.texts))
        bound = model.bind(None)
        i, j = len(self.images) - 1, 2  # in the last block, images 9 and 10
        one = model.score_components([self.images[i]], [self.texts[j]])
        for name in ("global", "local", "negative", "local_negative"):
            assert comps[name][i, j] == pytest.approx(one[name].item(), abs=1e-12), name
        length = self.texts[j].length
        last = model._encode(self.images[i - 1:], self.texts, bound)
        alone = model._encode([self.images[i]], [self.texts[j]], bound)
        np.testing.assert_allclose(
            model.word_score_tensor(*last, model.mining_params(bound)).data[1, j, :length],
            model.word_score_tensor(*alone, model.mining_params(bound)).data[0, 0],
            rtol=0, atol=1e-12)

    def test_peak_allocation_is_outputs_plus_blocks(self, monkeypatch):
        # 160 x 160 pairs: the whole (n, n * pad) word-score array is 1.6 MB, twice
        # the outputs. A block's working set is the two workspace arrays the size of
        # its word scores (the running region max, where the evidence is then made in
        # place, and one region's products), plus its (rows, n) local rows, 1/pad of
        # one such array, and its projected regions: a slack of a quarter of the budget.
        import tracemalloc

        ds = toy_dataset(identities=10, per_id=16)
        model = Model(CFG, seed=1)
        small, large = 1 << 15, 1 << 17
        peaks = {}
        for budget in (small, large):
            monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", budget)
            tracemalloc.start()
            try:
                comps = model.score_components(ds.samples, ds.samples)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        outputs = sum(arr.nbytes for arr in comps.values())
        assert peaks[small] < outputs + self.row_bytes(ds.samples) * len(ds.samples) / 2
        assert peaks[large] - peaks[small] <= (2 + 1 / 4) * (large - small)

    def test_learnable_boundary_mask_costs_no_float_copy(self, monkeypatch):
        # the boundary's keep mask is a bool array, 1/8 of a block's word scores; its
        # float64 copy added about 0.6 of a block to the peak here (1.1 at n = 600)
        import tracemalloc

        ds = toy_dataset(identities=10, per_id=16)
        budget = 1 << 17
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", budget)
        peaks = []
        for flags in (ModelFlags(), ModelFlags(learnable_boundary=True)):
            model = Model(CFG, flags, seed=1)
            tracemalloc.start()
            try:
                model.score_components(ds.samples, ds.samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= budget / 8
