#!/usr/bin/env python3
"""Draws die out in two dimensions but persist in three.

Boundary sensitivity = fraction of environments where the all-0 and all-1
boundary conditions give different outcomes at the origin, a lower-bound
proxy for the draw probability.  On z2 it decays with the slab depth for
every p > 0.  On the oriented even sublattice of Z^3 at small p it
plateaus: the depth-K boundary keeps deciding the origin no matter how far
away it is, which is exactly the hard-core phase memory of the doubling
graph Z^2 at activity 1/p - 1.
"""

import numpy as np

import percgame as pg
from percgame import solver

SEEDS = np.arange(150)

print("z2, ring 64, p = 0.10 (activity 9: unique Gibbs phase on Z)")
for K in (25, 50, 100, 200, 400):
    r = solver.boundary_sensitivity(pg.z2(), K, (64,), 0.10, SEEDS)
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

# the closed bits do not depend on the depth or the boundary: every depth at
# one p reads them from one cache, which hashes each layer once
EVEN3 = pg.even_sublattice(3)
TORUS = solver.SlabIndex(EVEN3, (32, 32))

print("even(3), torus 32^2, p = 0.05 (activity 19: ordered hard-core phase on Z^2)")
closed = solver.ClosedLayers(TORUS, 0.05, SEEDS)
for K in (20, 40, 60):
    r = solver.boundary_sensitivity(EVEN3, K, (32, 32), 0.05, SEEDS, closed=closed)
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

print("even(3), torus 32^2, p = 0.45 (dense closing: game ends quickly)")
closed = solver.ClosedLayers(TORUS, 0.45, SEEDS)
for K in (20, 60):
    r = solver.boundary_sensitivity(EVEN3, K, (32, 32), 0.45, SEEDS, closed=closed)
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

print()
print("draw-density profile on even(3) at p = 0.05 (all-? boundary)")
for depth, frac, se, n in solver.draw_density_profile(
        EVEN3, 60, (32, 32), 0.05, SEEDS[:50], depths=[10, 20, 40, 60]):
    print(f"  depth {depth:>3}: ?-fraction on layer 0 = {frac:.3f} +- {se:.3f}")
