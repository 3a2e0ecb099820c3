#!/usr/bin/env python3
# How the gate regularizer works: when a positive pair's softmax score
# exceeds its normalized attraction weight, the pair's gradient coefficient
# flips sign and starts acting like a negative pair. The regularizer detects
# this (the "gate" opens) and cancels exactly the surplus, clamping the
# combined coefficient at zero.

import numpy as np

from mlclab import ContrastiveBatch, LossConfig, contrastive_loss, prr, reg_term
from mlclab.verification import gate_report, minimum_residual, pair_gates

# two nearly identical instances sharing a label, prototypes rotated away:
# the pair (0, 1) saturates its softmax score
z = np.array([
    [1.0, 0.0],
    [0.999, 0.02],
    [-1.0, 0.5],
    [0.3, -1.0],
])
y = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int8)
prototypes = np.array([[0.2, 0.9], [-0.9, -0.2]])
batch = ContrastiveBatch(z=z, y=y, prototypes=prototypes)

cfg = LossConfig()
bundle = contrastive_loss("reg", batch, cfg)
gates = pair_gates(bundle)

print("positive pairs (anchor, pool index, gate = -weight + score):")
for i, k, g, c in zip(*gates):
    state = "OPEN  (clamped)" if g > 0 else "closed"
    print(f"  anchor {i} -> pool {k}:  gate {g:+.4f}  combined {c:+.4f}  {state}")

print(f"\nbatch PRR (fraction of open gates): {prr(gates.value):.3f}")

# the independent per-anchor recomputation agrees with the engine
report = gate_report(batch, cfg, "reg")
print(f"independent clamp check, max deviation: {report.clamp_max_dev:.2e}")

# distance from the stationarity condition (scores equal to weights on
# positives, zero on negatives); softmax keeps the negative part positive
print(f"minimum-condition residual: {minimum_residual(bundle.spec, bundle.sigma):.4f}")

# at the shared minimum the regularizer contributes nothing: pass
# score = weight and watch the term vanish
spec = bundle.spec
res = reg_term(batch, spec, np.where(spec.positive_mask, spec.lam_norm, 0.0), cfg)
print(f"regularizer value at the shared minimum: {abs(res.value_per_anchor).max():.1f}")
print(f"regularizer gradient at the shared minimum: {np.abs(res.d_z).max():.1f}")
