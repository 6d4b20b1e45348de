#!/usr/bin/env python3
"""The game recursion IS Glauber dynamics: a pathwise walkthrough.

Solving the two-valued game recursion layer by layer down a slab, and
mapping layer k onto vertex class (k mod m) of the doubling torus, produces
exactly the configuration sequence of the hard-core class-update chain
driven by the same open/closed bits.  This script runs both sides
separately (the game by lifting sites and applying the family's move set,
the chain on the torus adjacency) and confirms they agree bit for bit —
on the square lattice, the even sublattice of Z^3, the non-bipartite
subset-increment game (triangular doubling graph, three classes), the
hexagonal and diamond-cubic families, and the extended variant where a
move to phi(x) is allowed and occupied vertices are forced to vacate.
"""

import percgame as pg
from percgame import glauber

CASES = [
    (pg.z2(), (32,), 40, 0.3),
    (pg.even_sublattice(3), (12, 12), 24, 0.2),
    (pg.subset_increment(3), (9, 9), 24, 0.25),
    (pg.binomial_family(3, 1), (9, 9), 24, 0.3),
    (pg.binomial_family(4, 1), (4, 4, 4), 16, 0.3),
    (pg.bcc_lattice(4), (4, 4, 4), 16, 0.3),
    (pg.even_sublattice_extended(3), (12, 12), 24, 0.5),
]

for fam, sizes, depth, p in CASES:
    variant = "extended" if fam.has_A2_prime else "standard"
    results = [glauber.game_glauber_coupling_check(fam, depth, sizes, p, seed, variant)
               for seed in range(10)]
    ok = sum(r.ok for r in results)
    torus = glauber.build_doubling_torus(fam, sizes)
    print(f"{fam.name:<14} {variant:<8} torus {torus.n_vertices:>4} vertices "
          f"(degree {torus.degree}, {torus.q} classes), depth {depth}: "
          f"{ok}/10 seeds exact")
