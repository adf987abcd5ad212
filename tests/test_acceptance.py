"""Acceptance suite: every criterion at its stated tolerance.

Heavy criteria share trained runs through the session-scoped cache in
conftest. One PASS/FAIL line per criterion is printed in the terminal
summary.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPT_SEEDS, PAIR_NEGATIVES, accept_config, one_pair
from fpmine import losses as ls
from fpmine import numerics as nm
from fpmine.dataset import twin_pairs
from fpmine.encoders import EncoderConfig
from fpmine.evaluation import (evaluate_retrieval, mining_activity,
                               negative_evidence_report, planted_contradiction_pairs,
                               rank_rows, recall_at_k)
from fpmine.losses import LossWeights
from fpmine.numerics import GradTape, Tensor, backward, finite_difference_grad
from fpmine.similarity import MiningParams, fuse, mined_evidence, mining_mask, projected
from fpmine.training import save_checkpoint, train

W = LossWeights()


# --------------------------------------------------------------- criterion 1

def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


def check_path(fn, arrays, tol=1e-5, h=5e-4):
    """Tape gradient vs finite differences for every input of a scalar path.

    The difference quotient is Richardson's four-point stencil,
    (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h, whose truncation error
    is O(h^4): at this larger h the round-off in f stays well below the
    tolerance even on gradient components of 1e-7.
    """
    tape = GradTape()
    leaves = [tape.leaf(a) for a in arrays]
    out = fn(*leaves)
    grads = backward(out, tape)
    worst = 0.0
    for i, (leaf, arr) in enumerate(zip(leaves, arrays)):
        def scalar(x, i=i):
            probe = [Tensor(a) for a in arrays]
            probe[i] = Tensor(x)
            return fn(*probe).item()
        fd = (4 * finite_difference_grad(scalar, arr, h=h)
              - finite_difference_grad(scalar, arr, h=2 * h)) / 3
        worst = max(worst, float(rel_err(np.asarray(grads[leaf].data), fd).max()))
    return worst


def make_paths(rng):
    """Non-kink random instances for every similarity path and loss, one pair a batch of one."""
    k, c, m, length, p = 3, 6, 4, 4, 5
    margin = 1e-3
    all_words = np.ones((1, length), dtype=bool)

    def vec(n, lo=0.5, hi=1.5):
        v = rng.normal(size=n)
        return v * rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-9)

    def cosine_inputs():
        while True:
            a, b = vec(p), vec(p)
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            if abs(cos) < 0.99:
                return [a, b]

    def local_inputs():
        # each image's and caption's K local embeddings as one region-major row
        while True:
            a, b = rng.normal(size=(k, p)), rng.normal(size=(k, p))
            fa, fb = a.reshape(-1), b.reshape(-1)
            cos = fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb))
            if abs(cos) < 0.99:
                return [fa[None], fb[None]]

    def fpm_inputs():
        # scores away from the clamp, column-wise max gaps, mask kinks, and
        # the hinge kinks of both word losses; one (1, K, C) image, one (1, L, C) caption
        while True:
            v = rng.normal(size=(k, c))
            e = rng.normal(size=(c, length))
            theta = rng.normal(size=(m, c))
            phi = rng.normal(size=(m, c))
            words = np.ascontiguousarray(e.T)
            scores = nm.cosine(*projected(Tensor(v), Tensor(words),
                                          MiningParams(Tensor(theta), Tensor(phi)))).data
            if np.max(np.abs(scores)) > 0.99:
                continue
            col_sorted = np.sort(scores, axis=0)
            if length > 1 and np.min(col_sorted[-1] - col_sorted[-2]) < margin:
                continue
            per_word = scores.max(axis=0)
            if np.min(np.abs(per_word)) < margin:
                continue
            if np.min(np.abs(W.matched_bias - per_word)) < margin:
                continue
            smin = per_word.min()
            others = np.sort(per_word)
            if length > 1 and others[1] - others[0] < margin:
                continue
            if abs(smin + W.mismatched_bias) < margin:
                continue
            return [v[None], words[None], theta, phi]

    def scores_fn(v, e, theta, phi):
        weights = np.linspace(0.5, 1.5, k * length).reshape(k, 1, length)
        return (nm.cosine(*projected(v, e, MiningParams(theta, phi))) * weights).sum()

    def neg_chain_fn(v, e, theta, phi):
        per_word = nm.max_cosine(*projected(v, e, MiningParams(theta, phi)), k)
        _, _, local_neg = mined_evidence(per_word, all_words, Tensor([[0.37]]))
        return fuse({"global": Tensor([[0.21]]), "local": Tensor([[0.37]]),
                     "local_negative": local_neg}, "full").sum()

    def mask_fn(v, e, theta, phi):
        per_word = nm.max_cosine(*projected(v, e, MiningParams(theta, phi)), k)
        return mining_mask(per_word).sum()

    def matched_fn(v, e, theta, phi):
        per_word = nm.max_cosine(*projected(v, e, MiningParams(theta, phi)), k)
        return nm.matched_word_hinge(per_word, all_words, [0], [0], W.matched_bias)

    def mismatched_fn(v, e, theta, phi):
        per_word = nm.max_cosine(*projected(v, e, MiningParams(theta, phi)), k)
        return nm.mismatched_word_hinge(per_word, all_words, [0], [0], W.mismatched_bias)

    def identity_inputs():
        return [rng.normal(size=p)[None], rng.normal(size=(6, p))]

    def ranking_inputs():
        # one (2, 2) similarity matrix: the pair, its negative caption and image
        while True:
            s = rng.uniform(-0.8, 0.8, size=3)
            if (abs(W.ranking_margin - s[0] + s[1]) > margin
                    and abs(W.ranking_margin - s[0] + s[2]) > margin):
                return [np.array([[s[0], s[1]], [s[2], s[0]]])]

    def ranking_fn(sim):
        return nm.hardest_negative_hinge(sim, PAIR_NEGATIVES, [0], [0], W.ranking_margin)

    def combined_fn(sim):
        r = ranking_fn(sim)
        return nm.add(nm.add(r, nm.mul(r, W.ranking_local_weight)),
                      nm.mul(r, W.ranking_localneg_weight))

    return [
        ("global similarity", cosine_inputs, nm.cosine),
        ("local similarity", local_inputs, lambda a, b: nm.cosine(a, b).sum()),
        ("word-region scores", fpm_inputs, scores_fn),
        ("mining mask chain", fpm_inputs, mask_fn),
        ("negative-evidence fusion", fpm_inputs, neg_chain_fn),
        ("matched word loss", fpm_inputs, matched_fn),
        ("mismatched word loss", fpm_inputs, mismatched_fn),
        ("identity loss", identity_inputs,
         lambda x, w: ls.mean_identity_loss(x, [2], w)),
        ("ranking loss", ranking_inputs, ranking_fn),
        ("combined ranking", ranking_inputs, combined_fn),
    ]


def make_boundary_path(rng):
    """Both word hinges on per-word scores, with a learnable boundary tau.

    tau lies on either side of zero, away from the kink of min(tau, 0);
    scores stay clear of both shifted hinge kinks and of ties for the min.
    """
    length, margin = 4, 1e-3

    def boundary_inputs():
        while True:
            scores = rng.uniform(-0.25, 0.6, size=length)
            tau = rng.uniform(-0.1, 0.1)
            ordered = np.sort(scores)
            if abs(tau) < margin or ordered[1] - ordered[0] < margin:
                continue
            if np.min(np.abs(W.matched_bias - (scores - tau))) < margin:
                continue
            if abs(ordered[0] - min(tau, 0.0) + W.mismatched_bias) < margin:
                continue
            return [scores, np.asarray(tau)]

    def boundary_fn(scores, tau):
        pair = one_pair(scores)
        return nm.add(nm.matched_word_hinge(*pair, [0], [0], W.matched_bias, tau),
                      nm.mismatched_word_hinge(*pair, [0], [0], W.mismatched_bias, tau))

    return ("word losses with learnable boundary", boundary_inputs, boundary_fn)


def make_strip_heads_path(rng):
    """All K strip heads at once, on per-strip (image) and shared (text) inputs."""
    n, k, c, p = 3, 3, 4, 2

    def heads_inputs():
        return [rng.normal(size=(n, k, c)), rng.normal(size=(n, c)),
                rng.normal(size=(k, p, c)), rng.normal(size=(k, p))]

    mix = np.linspace(-1.0, 1.0, n * k * p).reshape(n, k, p)

    def heads_fn(per_strip, shared, w, b):
        return nm.add((nm.linear(per_strip, w, b) * mix).sum(),
                      (nm.linear(shared, w, b) * mix[::-1]).sum())

    return ("strip heads", heads_inputs, heads_fn)


def make_dense_layer_path(rng):
    """One dense layer, with and without its bias, as the embeddings, projections and
    identity classifiers use it."""
    n, c, p = 4, 5, 3

    def dense_inputs():
        return [rng.normal(size=(n, c)), rng.normal(size=(p, c)), rng.normal(size=p)]

    mix = np.linspace(0.5, 1.5, n * p).reshape(n, p)

    def dense_fn(x, w, b):
        return nm.add((nm.linear(x, w, b) * mix).sum(), (nm.linear(x, w) * mix[::-1]).sum())

    return ("dense layer", dense_inputs, dense_fn)


def make_max_cosine_path(rng):
    """Max-over-regions cosine, away from the clamp and from ties for each max."""
    n, k, m, d, margin = 2, 3, 3, 4, 1e-3

    def max_cosine_inputs():
        while True:
            a, b = rng.normal(size=(n * k, d)), rng.normal(size=(m, d))
            cos = nm.cosine(Tensor(a), Tensor(b)).data
            top = np.sort(cos.reshape(n, k, m), axis=1)
            if np.abs(cos).max() < 0.99 and (top[:, -1] - top[:, -2]).min() > margin:
                return [a, b]

    mix = np.linspace(0.5, 1.5, n * m).reshape(n, m)

    def max_cosine_fn(a, b):
        return (nm.max_cosine(a, b, k) * mix).sum()

    return ("max-over-regions cosine", max_cosine_inputs, max_cosine_fn)


def test_criterion_1_gradient_suite(acceptance_record):
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    paths = make_paths(rng)
    points_per_path = 100 // len(paths) + 1
    # own stream: the points drawn for the paths above stay as they were
    paths.append(make_boundary_path(np.random.default_rng(20240502)))
    paths.append(make_strip_heads_path(np.random.default_rng(20240503)))
    paths.append(make_max_cosine_path(np.random.default_rng(20240504)))
    paths.append(make_dense_layer_path(np.random.default_rng(20240505)))
    worst = 0.0
    worst_path = ""
    for name, sampler, fn in paths:
        for _ in range(points_per_path):
            err = check_path(fn, sampler())
            if err > worst:
                worst, worst_path = err, name
    elapsed = time.perf_counter() - started
    acceptance_record(
        "criterion 1 (gradient suite)",
        worst <= 1e-5 and elapsed < 60.0,
        f"max rel err {worst:.2e} on '{worst_path}', "
        f"{points_per_path * len(paths)} points in {elapsed:.1f}s")


def test_gradient_check_resolves_a_small_wrong_gradient():
    """A backward off by 3e-5 relative, three times criterion 1's tolerance, fails it."""
    _, sampler, fn = make_max_cosine_path(np.random.default_rng(20240504))

    def skewed(a, b):
        out = fn(a, b)
        return nm._emit(out.data, (out,), lambda g: (g * (1.0 + 3e-5),))

    arrays = sampler()
    assert check_path(fn, arrays) <= 1e-5 < check_path(skewed, arrays)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_loss_boundary_laws(acceptance_record):
    grid = np.arange(-300, 301) * 0.001  # 601 points over [-0.3, 0.3]
    ok = True
    for s_min in grid:
        matched = nm.matched_word_hinge(*one_pair([s_min, 0.25]), [0], [0], W.matched_bias)
        if (matched.item() == 0.0) != bool(s_min >= 0.001):
            ok = False
            break
        mismatched = nm.mismatched_word_hinge(*one_pair([s_min, 0.29]), [0], [0],
                                              W.mismatched_bias)
        mismatched_zero = mismatched.item() == 0.0
        if mismatched_zero != bool(s_min <= -0.15):
            ok = False
            break
    acceptance_record("criterion 2 (loss boundary laws)", ok,
                      "zero sets match s>=0.001 and s<=-0.15 exactly on the 601-point grid")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_mask_law(acceptance_record):
    grid = np.arange(-1000, 1001) * 0.001
    out = mining_mask(Tensor(grid)).data
    exact = np.array_equal(out, np.minimum(grid, 0.0))
    acceptance_record("criterion 3 (mask law)", exact,
                      "mining_mask == min(., 0) exactly on the 1e-3 grid over [-1, 1]")


# --------------------------------------------------------------- criterion 4

def brute_force_recall(scores, query_ids, gallery_ids, k):
    hits = 0
    for q in range(scores.shape[0]):
        order = sorted(range(scores.shape[1]), key=lambda g: (-scores[q, g], g))
        if any(gallery_ids[g] == query_ids[q] for g in order[:k]):
            hits += 1
    return 100.0 * hits / scores.shape[0]


def test_criterion_4_recall_oracle(acceptance_record):
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        nq = int(rng.integers(1, 51))
        ng = int(rng.integers(1, 51))
        scores = rng.choice(np.linspace(-1, 1, 7), size=(nq, ng))
        qids = rng.integers(0, 8, size=nq)
        gids = rng.integers(0, 8, size=ng)
        rankings = rank_rows(scores)
        for k in (1, 5, 10):
            if recall_at_k(rankings, qids, gids, k) != brute_force_recall(
                    scores, qids, gids, k):
                ok = False
    acceptance_record("criterion 4 (recall oracle)", ok,
                      "recall_at_k equals brute force on 200 random instances, exact")


# --------------------------------------------------------------- criterion 5

def variant_r1(trained_runs, variant):
    values = []
    for seed in ACCEPT_SEEDS:
        result = trained_runs.run(variant, seed)
        ds, val_idx = trained_runs.dataset(seed)
        r = evaluate_retrieval(result.model, ds, val_idx, result.model.flags.fusion())
        values.append(r.r_at[1])
    return values


def test_criterion_5_branch_ablation(acceptance_record, trained_runs):
    r_global = variant_r1(trained_runs, "global")
    r_gl = variant_r1(trained_runs, "global+local")
    r_full = variant_r1(trained_runs, "full")
    med_g = float(np.median(r_global))
    med_gl = float(np.median(r_gl))
    med_full = float(np.median(r_full))

    ordering = med_full >= med_gl >= med_g
    strict_gap = med_full >= med_gl + 1.0

    activity = []
    for seed in ACCEPT_SEEDS:
        ds, val_idx = trained_runs.dataset(seed)
        model = trained_runs.run("full", seed).model
        activity.append(mining_activity(model, ds, val_idx)["mismatched_active_fraction"])
    med_activity = float(np.median(activity))
    fallback = med_activity >= 0.20

    budget_ok = trained_runs.train_seconds < 600.0
    detail = (f"medians R@1 global={med_g:.1f} g+l={med_gl:.1f} full={med_full:.1f}; "
              f"gap={med_full - med_gl:.1f}pt"
              + ("" if strict_gap else
                 f"; strict gap not met -> mining active on "
                 f"{100 * med_activity:.0f}% of mismatched val pairs (needs >= 20%)")
              + f"; training used {trained_runs.train_seconds:.0f}s CPU")
    acceptance_record("criterion 5 (branch ablation)",
                      ordering and (strict_gap or fallback) and budget_ok, detail)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_design_ablation(acceptance_record, trained_runs):
    med_full = float(np.median(variant_r1(trained_runs, "full")))
    med_no_mask = float(np.median(variant_r1(trained_runs, "no_mining_mask")))
    med_no_lnr = float(np.median(variant_r1(trained_runs, "no_local_neg_ranking")))
    no_improvement = (med_no_mask <= med_full + 0.5) and (med_no_lnr <= med_full + 0.5)
    full_at_least_no_mask = med_full >= med_no_mask
    acceptance_record(
        "criterion 6 (mining-design ablation)",
        no_improvement and full_at_least_no_mask,
        f"medians R@1 full={med_full:.1f} no-mask={med_no_mask:.1f} "
        f"no-localneg-rank={med_no_lnr:.1f} (ablations may not beat full by > 0.5pt)")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_learnable_boundary(acceptance_record, trained_runs):
    taus = []
    for seed in ACCEPT_SEEDS:
        result = trained_runs.run("learnable_boundary", seed)
        taus.append(float(result.checkpoint.params["boundary_tau"]))
    worst = max(abs(t) for t in taus)
    acceptance_record("criterion 7 (learnable boundary stays near zero)",
                      worst <= 0.05,
                      f"per-seed tau = {[round(t, 4) for t in taus]}, max |tau| = {worst:.4f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(acceptance_record, trained_runs, tmp_path):
    seed = ACCEPT_SEEDS[0]
    ds, val_idx = trained_runs.dataset(seed)
    a = trained_runs.run("full", seed)  # the cached run: still two separate train calls
    b = train(ds, accept_config(seed, "full"))
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a.checkpoint, pa)
    save_checkpoint(b.checkpoint, pb)
    bits_equal = pa.read_bytes() == pb.read_bytes()
    ra = evaluate_retrieval(a.model, ds, val_idx, "full").r_at
    rb = evaluate_retrieval(b.model, ds, val_idx, "full").r_at
    acceptance_record("criterion 8 (determinism)",
                      bits_equal and ra == rb,
                      f"checkpoints bit-identical={bits_equal}, R@K identical={ra == rb}")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_evidence_report(acceptance_record, trained_runs):
    seeds_with_evidence = 0
    details = []
    for seed in ACCEPT_SEEDS:
        ds, val_idx = trained_runs.dataset(seed)
        model = trained_runs.run("full", seed).model
        pairs = planted_contradiction_pairs(ds, val_idx)
        assert pairs, "validation split must contain a planted twin pair"
        found = 0
        for img_idx, txt_idx in pairs:
            doc = negative_evidence_report(model, ds.samples[img_idx],
                                           ds.samples[txt_idx])
            if any(w["masked"] < 0.0 for w in doc["words"]):
                found += 1
        if found > 0:
            seeds_with_evidence += 1
        details.append(f"seed {seed}: {found}/{len(pairs)} planted pairs flagged")
    acceptance_record("criterion 9 (planted-pair evidence)",
                      seeds_with_evidence >= 2,
                      "; ".join(details))
