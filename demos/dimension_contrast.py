#!/usr/bin/env python3
"""Draws die out in two dimensions but persist in three.

Boundary sensitivity = fraction of environments where the all-0 and all-1
boundary conditions give different outcomes at the origin, a lower-bound
proxy for the draw probability.  On z2 it decays with the slab depth for
every p > 0.  On the oriented even sublattice of Z^3 at small p it
plateaus: the depth-K boundary keeps deciding the origin no matter how far
away it is, which is exactly the hard-core phase memory of the doubling
graph Z^2 at activity 1/p - 1.

The standard oriented zd(3) has no layer automorphism, so the paper's
reduction to a doubling graph does not apply there; the slab solver needs
none.  Its rows, at two torus sizes next to even(3)'s, are numbers only.
"""

import numpy as np

import percgame as pg
from percgame import solver

SEEDS = np.arange(150)

# every depth at one p is read off one bit-sliced sweep of the deepest slab
print("z2, ring 64, p = 0.10 (activity 9: unique Gibbs phase on Z)")
DEPTHS = (25, 50, 100, 200, 400)
_, results = solver.draw_scan(solver.SlabIndex(pg.z2(), (64,)), 0.10, SEEDS, DEPTHS)
for K, r in zip(DEPTHS, results):
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

EVEN3 = pg.even_sublattice(3)
TORUS = solver.SlabIndex(EVEN3, (32, 32))

print("even(3), torus 32^2, p = 0.05 (activity 19: ordered hard-core phase on Z^2)")
DEPTHS = (20, 40, 60)
_, results = solver.draw_scan(TORUS, 0.05, SEEDS, DEPTHS)
for K, r in zip(DEPTHS, results):
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

for L in (15, 30):
    print(f"zd(3), torus {L}^2, p = 0.05 (no layer automorphism)")
    _, results = solver.draw_scan(solver.SlabIndex(pg.zd(3), (L, L)), 0.05, SEEDS, DEPTHS)
    for K, r in zip(DEPTHS, results):
        print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

print("even(3), torus 32^2, p = 0.45 (dense closing: game ends quickly)")
DEPTHS = (20, 60)
_, results = solver.draw_scan(TORUS, 0.45, SEEDS, DEPTHS)
for K, r in zip(DEPTHS, results):
    print(f"  depth {K:>3}: sensitivity {r.fraction:.3f} +- {r.stderr:.3f}")

print()
print("draw-density profile on even(3) at p = 0.05 (all-? boundary)")
for depth, frac, se, n in solver.draw_scan(TORUS, 0.05, SEEDS[:50], [10, 20, 40, 60])[0]:
    print(f"  depth {depth:>3}: ?-fraction on layer 0 = {frac:.3f} +- {se:.3f}")
