#!/usr/bin/env python3
"""The exact backbone: every closed-form identity checked to tolerance.

* The stationary law of the hard-core PCA is the 2-state Markov chain with
  the explicit transition matrix P(p); pushing its cylinders through one
  PCA step returns them unchanged.
* P = Q^2, where Q is the transfer-matrix chain of the hard-core model on
  Z at activity 1/p - 1: one PCA step is two Glauber half-steps.
* F = R0 o D and G = R1 o D as exact ring kernels; the target-game PCA is
  flip o stavskaya.
* The ?-weight of a configuration never increases under the deterministic
  CA D, and drops exactly by mu(1?1).
"""

import numpy as np

from percgame import exact, pca

print("matrix P at p = 0.5:")
mm = exact.matrix_P(0.5)
print(np.round(mm.T, 6), "stationary", np.round(mm.pi, 6))

print("\nstationarity of the pushforward (words up to length 6):")
for p in (0.1, 0.5, 0.9):
    dev = exact.markov_pushforward_deviation("A", p, exact.matrix_P(p), 6)
    print(f"  p={p}: max |A_p mu - mu| over cylinders = {dev:.2e}")

print("\nP = Q^2 across p:")
worst = 0.0
for p in np.arange(0.1, 0.95, 0.1):
    q = exact.matrix_Q(1 / p - 1)
    worst = max(worst, float(np.abs(q.T @ q.T - exact.matrix_P(float(p)).T).max()))
print(f"  max entrywise deviation {worst:.2e}")

print("\nkernel factorizations on rings n = 4..6:")
ps = (0.25, 0.5, 0.75)  # each check takes every p in one call
for n in (4, 5, 6):
    dF = pca.composition_check("F", n, ps).max()
    dG = pca.composition_check("G", n, ps).max()
    st = pca.stavskaya_identity_check(ps, n).all()
    print(f"  n={n}: |F - R0oD| = {dF:.1e}, |G - R1oD| = {dG:.1e}, "
          f"B = flip o stavskaya: {st}")

print("\nweight system on rings (exact rational arithmetic):")
for n in (5, 6, 7):
    rep = exact.weight_identities_check(n)
    print(f"  {rep.summary()}")

print("\nweights of individual ? symbols:")
for word, pos in (("1?1", 1), ("10??1", 2), ("10??1", 3)):
    print(f"  {word} position {pos}: symmetric weight {exact.symmetric_weight(word, pos)}")
