"""Percolation games on directed lattices.

Simulation and exact analysis of two-player token games on random site
environments: backward-induction outcome fields, the associated
one-dimensional PCAs over {0,?,1}, closed-form stationary laws, and the
hard-core Glauber correspondence on doubling graphs.
"""

from .exact import (MarkovMeasure, conditional_win_probability,
                    gibbs_exact, kernel_stationarity_check, matrix_P, matrix_Q,
                    pushforward_cylinder, symmetric_weight,
                    weight_identities_check, win_probability)
from .glauber import (build_doubling_torus, class_update, coupling_mismatches,
                      game_glauber_coupling_check, run_chains, sweep_chain)
from .lattice import (GraphFamily, IsoMap, bcc_lattice, binomial_family,
                      doubling_map, even_sublattice, even_sublattice_extended,
                      family_from_name, layer_of, out_neighbors, phi,
                      subset_increment, verify_axioms, verify_isomorphism, z2,
                      zd)
from .pca import local_rule, stavskaya_identity_check, step, trajectory_stats
from .solver import (AllOne, AllQuestion, AllZero, Checkerboard, Explicit,
                     Sampled, SlabIndex, boundary_sensitivity, draw_density_profile,
                     draw_scan, render_outcomes, solve_triangle)
from .symbols import ONE, QUES, ZERO, format_word, parse_word

__version__ = "0.1.0"
