"""Gradient tape in five minutes.

Records a few tensor ops on a tape, runs one backward pass, and checks
the result against central finite differences.
"""

import numpy as np

from fpmine import GradTape, Tensor, backward, cosine, finite_difference_grad

rng = np.random.default_rng(0)

# trainable leaves live on a tape; constants are plain tensors
tape = GradTape()
w = tape.leaf(rng.normal(size=(3, 4)))
x = Tensor(rng.normal(size=(4, 1)))

h = (w @ x).reshape((3,))
target = Tensor([1.0, 0.0, -1.0])
score = cosine(h, target)
print(f"cosine(w @ x, target) = {score.item():+.4f}")

grads = backward(score, tape)
analytic = grads[w].numpy()


def score_at(m):
    hh = (Tensor(m) @ x).reshape((3,))
    return cosine(hh, target).item()


numeric = finite_difference_grad(score_at, w.numpy())
worst = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8))
print(f"analytic vs finite-difference gradient: max relative error {worst:.2e}")
print("gradient of the cosine w.r.t. the weight matrix:")
print(np.round(analytic, 4))
