#!/usr/bin/env python3
"""Outcome maps of the percolation game on a triangular region.

Solves the game on {x in Z_+^2 : x1 + x2 <= 200} with draws declared on the
diagonal, and writes one PPM per closing probability.  Blue = first player
wins, green = first player loses, red = draw, black = closed site.  At
p = 0.1 large drawn regions survive; at p = 0.2 they are sparse.
"""

from percgame import solver

N = 200
SEED = 7

for p in (0.1, 0.2):
    outcome = solver.solve_triangle(N, solver.AllQuestion(), p, SEED)
    path = f"outcomes_p{p:g}.ppm"
    solver.render_outcomes(outcome, path)
    counts = outcome.counts()
    total = sum(counts.values())
    print(f"p={p}: wrote {path}")
    for k, v in counts.items():
        print(f"    {k:>6}: {v:6d}  ({v / total:.1%})")
