"""Shows that the benchmark's output checks pass on real output and can fail.

Runs each workload at the small size, checks its real output, then hands
each check a deliberately corrupted copy and expects it to be rejected.
Takes under a minute on 2 cores:

    python3 perfbench/selftest.py

Exits 0 when every check accepted the real output and caught every
corruption, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace

from run import OUT, ROOT

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SEED = 0
SECONDS = 0.5


def expect_caught(what: str, check) -> bool:
    try:
        check()
    except ref.CheckFailed as exc:
        print(f"caught    {what}: {exc}")
        return True
    print(f"MISSED    {what}")
    return False


def run(cls):
    wl = cls(SEED, "small", OUT)
    state = wl.setup()
    out = wl.measure(state, SECONDS)
    wl.check(state, out)
    print(f"passed    {wl.name}: real output")
    return wl, state, out


def train_cases() -> list[bool]:
    wl, s, out = run(workloads.TrainWorkload)
    nan = replace(out, outputs=[list(e) for e in out.outputs])
    nan.outputs[-1][0] = float("nan")
    flat = replace(out, outputs=[out.outputs[-1]] + out.outputs[1:-1] + [out.outputs[0]])
    loss_at, analytic_at, coords, rng = workloads.gradient_probes(
        s["model"], s["ds"], s["last_plan"], SEED)
    return [
        expect_caught("train: a non-finite step loss", lambda: wl.check(s, nan)),
        expect_caught("train: a loss that does not fall", lambda: wl.check(s, flat)),
        expect_caught("train: a tape gradient 1% off", lambda: ref.check_gradients(
            loss_at, lambda *a: 1.01 * analytic_at(*a) + 1e-6, coords, rng)),
    ]


def gallery_cases() -> list[bool]:
    wl, s, out = run(workloads.GalleryEvalWorkload)
    r = out.outputs[0]
    swapped = r.rankings.copy()
    swapped[0, [0, -1]] = swapped[0, [-1, 0]]
    repeated = r.rankings.copy()
    repeated[0, 1] = repeated[0, 0]
    samples = s["ds"].samples
    ids = np.array([x.identity_id for x in samples])
    fused, scale = wl.reference_rows(s, samples, samples)
    shuffled = np.random.default_rng(1).permuted(np.tile(np.arange(len(ids)), (len(ids), 1)),
                                                  axis=1)
    chance = replace(r, rankings=shuffled,
                     r_at={k: ref.recount_recall(shuffled, ids, ids, k) for k in r.r_at})
    flipped = copy.deepcopy(s["loaded"])
    name = sorted(flipped.params)[0]
    flipped.params[name].reshape(-1)[0] = np.nextafter(flipped.params[name].reshape(-1)[0], 1)
    return [
        expect_caught("gallery-eval: best and worst image swapped", lambda: wl.check(
            s, replace(out, outputs=[replace(r, rankings=swapped)]))),
        expect_caught("gallery-eval: a ranking that repeats an image", lambda: wl.check(
            s, replace(out, outputs=[replace(r, rankings=repeated)]))),
        expect_caught("gallery-eval: R@1 miscounted by one point", lambda: wl.check(
            s, replace(out, outputs=[replace(r, r_at={**r.r_at, 1: r.r_at[1] + 1.0})]))),
        expect_caught("gallery-eval: a random ranking with honest R@K",
                      lambda: ref.check_recall(chance, ids, ids, "random ranking")),
        expect_caught("gallery-eval: scores off by a relative 1e-7",
                      lambda: ref.check_scores(fused * (1 + 1e-7), fused, scale, "scores")),
        expect_caught("checkpoint: one parameter one ulp off after loading",
                      lambda: wl.check_checkpoint(dict(s, loaded=flipped))),
    ]


def lookup_cases() -> list[bool]:
    wl, s, out = run(workloads.CaptionLookupWorkload)
    reversed_one = list(out.outputs)
    reversed_one[3] = reversed_one[3][::-1].copy()
    return [expect_caught("caption-lookup: one ranking reversed", lambda: wl.check(
        s, replace(out, outputs=reversed_one)))]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    results = train_cases() + gallery_cases() + lookup_cases()
    print(f"{sum(results)}/{len(results)} corruptions caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
