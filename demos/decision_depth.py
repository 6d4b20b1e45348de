#!/usr/bin/env python3
"""Decision depth of the origin on z2 triangles.

The origin of a depth-n triangle is decided at depth d when its values
under the all-0 and the all-1 boundaries at depth d agree: the two-valued
rule is antimonotone, so every boundary further out gives a value between
them.  The paper's z2 theorem (no draws, an ergodic PCA) makes this depth
finite almost surely; it grows as p falls towards 0.

``solver.win_origins`` tries the depths 8, 16, 32, 64, 100 and 200 below
n = 400 and decides the rest at 400.  The two boundaries, once they agree,
agree at every larger depth, so for each p the share of 1000 seeds not
decided by depth d is the tail P(decision depth > d), printed at each
depth tried.
"""

import numpy as np

from percgame import solver

N = 400
seeds = np.arange(1000)
ps = (0.05, 0.1, 0.2, 0.5)
_, depths = solver.win_origins(N, ps, seeds)
# the rounds stop early once too few seeds are decided; a depth beyond the
# last seed decided below N may not have been tried
tried = [d for d in solver.stop_depths(N) if d <= depths[depths < N].max()]
print("p      " + "".join(f"{'> ' + str(d):>9}" for d in tried))
for p, row in zip(ps, depths):
    print(f"{p:<6} " + "".join(f"{(row > d).mean():>9.3f}" for d in tried))
print(f"(seeds still undecided at depth {tried[-1]} are decided at {N})")
