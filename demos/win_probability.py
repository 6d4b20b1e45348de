#!/usr/bin/env python3
"""First-player win probability: Monte Carlo against the closed form.

The probability that the first player wins (or the origin is closed) is
(1 + sqrt(p / (4 - 3p))) / 2.  The empirical frequency comes from solving
the two-valued recursion on a depth-400 triangle with an all-0 boundary:
by ergodicity the boundary choice is forgotten at that depth.  Most origins
are decided far sooner, where the all-0 and the all-1 boundaries agree,
which is where the all-? boundary leaves them definite
(``solver.win_origins``; see decision_depth.py).

Also writes the exact curve (win probability and its conditional-on-open
version) as CSV; the conditional curve exceeds 1/2 exactly for p < 1/3 and
peaks at p = (2 - sqrt(3))/3 = 0.0893...
"""

import csv

import numpy as np

from percgame import exact, solver

seeds = np.arange(400)
ps = (0.1, 0.2, 0.3, 0.5, 0.7)
# the origins of the depth-400 all-0 sweep, each decided at the first depth
# where the all-? sweep leaves it definite
origins, _ = solver.win_origins(400, ps, seeds)
print("p      empirical   exact       z-score")
for p, origin in zip(ps, origins):
    emp = (origin == 0).mean()
    ref = exact.win_probability(p)
    se = np.sqrt(emp * (1 - emp) / seeds.size)
    print(f"{p:<6} {emp:<11.5f} {ref:<11.5f} {(emp - ref) / se:+.2f}")

with open("win_curve.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["p", "win_probability", "conditional_win_probability"])
    for row in exact.win_curve_rows(np.linspace(0.001, 0.999, 200)):
        w.writerow([f"{v:.8f}" for v in row])
print("wrote win_curve.csv")

grid = np.arange(1, 10_000) * 1e-4
vals = [exact.conditional_win_probability(float(p)) for p in grid]
print(f"conditional win peaks at p = {grid[int(np.argmax(vals))]:.4f} "
      f"(exact (2-sqrt(3))/3 = {(2 - np.sqrt(3)) / 3:.6f})")
