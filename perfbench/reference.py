"""Output checks, including a numpy reference scorer written apart from fpmine.

The scorer reads only the model's parameter arrays and the raw samples, and
follows the definitions in the project README:

* image: strip features f_k = W_e x_k + b_e; local embeddings
  l_k = W_l[k] f_k + b_l[k]; global embedding W_g max_k(f_k) + b_g;
* text: word features f_w = W_e x_w + b_e; pooled p = max_w(f_w) over the
  caption's words; local embeddings l_k = W_l[k] p + b_l[k]; global
  embedding W_g p + b_g;
* global and local similarities are cosines (local over the concatenated
  K local embeddings), clamped to [-1, 1];
* word score s_w = max_k cos(P_r f_k, P_w f_w), clamped to [-1, 1]; with the
  fixed boundary the evidence is s_neg = sum_w min(s_w, 0);
* full fusion = global + local + (local + s_neg).

No check compares against stored output of the program.
"""

from __future__ import annotations

import numpy as np

# agreement of the program's fused scores with the reference, relative to the
# size of the terms being summed (a fused score near zero is a sum of terms of
# size ~1, so its own magnitude is not the scale of its round-off)
SCORE_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _unit(x: np.ndarray) -> np.ndarray:
    norm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    return x / np.maximum(norm, 1e-12)


def _cos_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.clip(_unit(a) @ _unit(b).T, -1.0, 1.0)


class ReferenceScorer:
    """Full-fusion scores from raw samples and a parameter dictionary."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.p = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def images(self, samples) -> dict[str, np.ndarray]:
        p = self.p
        raws = np.stack([s.image_raw for s in samples])              # (N, K, D)
        feats = np.einsum("nkd,cd->nkc", raws, p["img_embed_w"]) + p["img_embed_b"]
        local = np.einsum("kqc,nkc->nkq", p["img_local_w"], feats) + p["img_local_b"]
        glob = feats.max(axis=1) @ p["img_global_w"].T + p["img_global_b"]
        regions = _unit(np.einsum("nkc,mc->nkm", feats, p["mining_region_proj"]))
        return {"global": glob, "local": local.reshape(len(samples), -1),
                "regions": regions}

    def caption(self, sample) -> dict[str, np.ndarray]:
        p = self.p
        feats = sample.text_raw @ p["txt_embed_w"].T + p["txt_embed_b"]   # (L, C)
        pooled = feats.max(axis=0)
        local = np.einsum("kqc,c->kq", p["txt_local_w"], pooled) + p["txt_local_b"]
        glob = p["txt_global_w"] @ pooled + p["txt_global_b"]
        words = _unit(feats @ p["mining_word_proj"].T)                  # (L, M)
        return {"global": glob, "local": local.reshape(-1), "words": words}

    def rows(self, images: dict, captions) -> tuple[np.ndarray, np.ndarray]:
        """(fused scores, term scale), both (n_captions, n_images)."""
        n_img, k, m = images["regions"].shape
        regions = images["regions"].reshape(n_img * k, m)
        fused = np.empty((len(captions), n_img))
        scale = np.empty((len(captions), n_img))
        for row, sample in enumerate(captions):
            cap = self.caption(sample)
            g = _cos_matrix(cap["global"][None], images["global"])[0]
            loc = _cos_matrix(cap["local"][None], images["local"])[0]
            words = np.clip(cap["words"] @ regions.T, -1.0, 1.0)
            best = words.reshape(len(cap["words"]), n_img, k).max(axis=2)
            s_neg = np.minimum(best, 0.0).sum(axis=0)
            fused[row] = g + loc + (loc + s_neg)
            scale[row] = np.abs(g) + 2.0 * np.abs(loc) + np.abs(s_neg)
        return fused, scale


def check_scores(program: np.ndarray, reference: np.ndarray, scale: np.ndarray,
                 what: str) -> None:
    """Program scores agree with the reference within SCORE_RTOL of the term scale."""
    err = np.abs(program - reference)
    bad = err > SCORE_RTOL * np.maximum(scale, 1e-12)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise CheckFailed(f"{what}: score ({i}, {j}) is {program[i, j]!r}, reference "
                          f"{reference[i, j]!r} ({int(bad.sum())} entries disagree)")


def check_rankings(rankings: np.ndarray, reference: np.ndarray, scale: np.ndarray,
                   what: str) -> None:
    """Each row is a permutation, best first under the reference scorer.

    Neighbours may be out of order only by the score tolerance (near-ties).
    """
    rankings = np.asarray(rankings)
    n = reference.shape[1]
    if rankings.shape != reference.shape:
        raise CheckFailed(f"{what}: rankings have shape {rankings.shape}, "
                          f"expected {reference.shape}")
    if not (np.sort(rankings, axis=1) == np.arange(n)).all():
        raise CheckFailed(f"{what}: a ranking is not a permutation of the gallery")
    ordered = np.take_along_axis(reference, rankings, axis=1)
    tol = SCORE_RTOL * np.take_along_axis(scale, rankings, axis=1)
    rises = ordered[:, 1:] - ordered[:, :-1] > np.maximum(tol[:, 1:], tol[:, :-1])
    if rises.any():
        q, pos = np.argwhere(rises)[0]
        raise CheckFailed(f"{what}: query {q} ranks a higher-scoring image after "
                          f"position {pos} ({int(rises.sum())} inversions)")


def recount_recall(rankings: np.ndarray, query_ids, gallery_ids, k: int) -> float:
    """R@K by brute force: one query at a time, one gallery item at a time."""
    hits = 0
    for q, row in enumerate(np.asarray(rankings).tolist()):
        want = int(query_ids[q])
        for g in row[:k]:
            if int(gallery_ids[g]) == want:
                hits += 1
                break
    return 100.0 * hits / len(rankings)


def chance_r1(query_ids, gallery_ids) -> float:
    """Expected R@1 of a random ranking, in percent."""
    gallery_ids = np.asarray(gallery_ids)
    return 100.0 * float(np.mean([np.mean(gallery_ids == q) for q in query_ids]))


def check_far_above_chance(r1: float, query_ids, gallery_ids, what: str) -> None:
    """R@1 must close at least half the gap between chance and 100."""
    chance = chance_r1(query_ids, gallery_ids)
    floor = chance + 0.5 * (100.0 - chance)
    if not r1 >= floor:
        raise CheckFailed(f"{what}: R@1 {r1:.2f} is not far above chance "
                          f"{chance:.2f} (needs >= {floor:.2f})")


def check_recall(result, query_ids, gallery_ids, what: str) -> None:
    """Reported R@K equals a brute-force recount; R@1 <= R@5 <= R@10; R@1 >> chance."""
    for k, reported in result.r_at.items():
        recount = recount_recall(result.rankings, query_ids, gallery_ids, k)
        if recount != reported:
            raise CheckFailed(f"{what}: R@{k} reported {reported}, recounted {recount}")
    r = result.r_at
    if not r[1] <= r[5] <= r[10]:
        raise CheckFailed(f"{what}: R@1/5/10 = {r[1]}/{r[5]}/{r[10]} are not ordered")
    check_far_above_chance(r[1], query_ids, gallery_ids, what)


def check_checkpoint_roundtrip(saved, loaded, path_bytes: bytes, resaved_bytes: bytes,
                               params: dict[str, np.ndarray]) -> None:
    """The checkpoint survives save -> load -> save bit for bit."""
    if resaved_bytes != path_bytes:
        raise CheckFailed("checkpoint: re-saving the loaded checkpoint changes the file")
    for group in ("params", "adam_m", "adam_v"):
        a, b = getattr(saved, group), getattr(loaded, group)
        if sorted(a) != sorted(b):
            raise CheckFailed(f"checkpoint: {group} names differ after the round trip")
        for name in a:
            if a[name].shape != b[name].shape or a[name].tobytes() != b[name].tobytes():
                raise CheckFailed(f"checkpoint: {group}/{name} changed in the round trip")
    for field in ("adam_t", "step", "epoch", "rng_state", "encoder_config", "train_config"):
        if getattr(saved, field) != getattr(loaded, field):
            raise CheckFailed(f"checkpoint: {field} changed in the round trip")
    for name, arr in params.items():
        if arr.tobytes() != saved.params[name].tobytes():
            raise CheckFailed(f"checkpoint: model_from_checkpoint changed {name}")


def check_gradients(loss_at, analytic_at, coords, rng: np.random.Generator,
                    h: float = 1e-6, rtol: float = 1e-5, atol: float = 1e-8,
                    attempts: int = 4) -> int:
    """Central differences of the batch loss agree with the tape gradient.

    ``coords`` is a list of (name, flat index, value). A coordinate passes
    when |analytic - fd| <= atol + rtol * max(|analytic|, |fd|) at its value
    or, if a hinge or argmax kink lies within h of it, at one of a few
    nearby probe points (the analytic gradient is recomputed there). A wrong
    gradient fails at every probe. The absolute floor keeps round-off on
    tiny components from failing a pure relative test. Returns how many
    coordinates were checked.
    """
    for name, flat, value in coords:
        worst = None
        for attempt in range(attempts):
            point = value if attempt == 0 else value + float(rng.uniform(-0.02, 0.02))
            an = analytic_at(name, flat, point)
            fd = (loss_at(name, flat, point + h) - loss_at(name, flat, point - h)) / (2 * h)
            err = abs(an - fd)
            if err <= atol + rtol * max(abs(an), abs(fd)):
                worst = None
                break
            worst = (an, fd)
        if worst is not None:
            raise CheckFailed(f"gradient: {name}[{flat}] tape {worst[0]!r} vs central "
                              f"difference {worst[1]!r} at every probe")
    return len(coords)
