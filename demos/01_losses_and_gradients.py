#!/usr/bin/env python3
# Tour of the loss zoo on one small batch: values, analytic gradients, and a
# finite-difference spot check.

import numpy as np

from mlclab import (
    ContrastiveBatch,
    LossConfig,
    contrastive_loss,
    finite_difference_gradient,
    logit_loss,
)

rng = np.random.default_rng(0)

# a batch of 6 instances, 4 embedding dims, 3 labels, plus label prototypes
z = rng.normal(size=(6, 4))
y = np.array([
    [1, 0, 0],
    [1, 1, 0],
    [0, 1, 0],
    [0, 1, 1],
    [0, 0, 1],
    [1, 0, 1],
], dtype=np.int8)
prototypes = rng.normal(size=(3, 4))
batch = ContrastiveBatch(z=z, y=y, prototypes=prototypes)
cfg = LossConfig()  # tau = 0.1; the regularizer is chosen by id (reg vs reg-noreg)

print("contrastive losses on the same batch:")
for loss_id in ("base", "proto", "mulsupcon", "msc", "reg-noreg", "reg"):
    bundle = contrastive_loss(loss_id, batch, cfg)
    grad_norm = np.linalg.norm(bundle.d_z)
    print(f"  {loss_id:10s} value={bundle.loss_value:9.5f}  |dZ|={grad_norm:8.4f}")

print("\nlogit losses on random scores:")
logits = rng.normal(size=(6, 3))
for loss_id in ("bce", "asy", "zlpr"):
    res = logit_loss(loss_id, logits, y, cfg)
    print(f"  {loss_id:5s} value={res.loss_value:9.5f}")

# every analytic gradient in the package is backed by this oracle
bundle = contrastive_loss("base", batch, cfg)
fd = finite_difference_gradient(
    lambda zz: contrastive_loss(
        "base", ContrastiveBatch(z=zz, y=y, prototypes=prototypes), cfg).loss_value,
    z,
)
print(f"\nfinite-difference check of the jaccard-weighted loss:")
print(f"  max |analytic - central difference| = {np.abs(bundle.d_z - fd).max():.2e}")
