#!/usr/bin/env python3
"""Relaxation of the envelope PCA from the all-? state.

The ?-density under the envelope PCA started from all-? bounds the
probability that the game outcome is still undetermined after that many
layers of information.  It drains to zero for every p > 0 on the ring; the
drain is slower for smaller p.
"""

import numpy as np

from percgame import pca
from percgame.symbols import QUES

N = 512
SEEDS = np.arange(20)

print("steps:", "  ".join(f"{t:>7d}" for t in (0, 50, 100, 200, 400, 800, 1600)))
for p in (0.3, 0.2, 0.1, 0.05):
    rings = np.full((len(SEEDS), N), QUES, dtype=np.int8)
    mean = pca.trajectory_stats("F", rings, p, 1600, SEEDS)[:, ::50, 1].mean(axis=0)
    picks = [mean[t // 50] for t in (0, 50, 100, 200, 400, 800, 1600)]
    print(f"p={p:<5}", "  ".join(f"{v:7.4f}" for v in picks))

print()
print("comparison of the two-valued chains: hard-core PCA marginal vs exact")
for p in (0.2, 0.5):
    cells = np.zeros((len(SEEDS), N), dtype=np.int8)
    for t in range(400):
        cells = pca.step("A", cells, p, SEEDS, t)
    from percgame import exact
    print(f"p={p}: density of 0 after 400 steps {(cells == 0).mean():.4f}, "
          f"stationary pi_0 = {exact.matrix_P(p).pi[0]:.4f}")
