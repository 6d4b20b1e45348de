"""Hard-core Glauber class updates on doubling-graph tori, and the pathwise
coupling between the slab game recursion and the class-update chain.

A doubling torus is the finite quotient of a family's directed lattice by
its layer automorphism, with the transverse directions wrapped: a cycle for
z2, a (d-1)-dimensional grid torus for even(d), a bcc torus for bcc(d), the
triangular torus for subset(3), the hexagonal torus for binomial(3,1) and
the diamond-cubic torus for binomial(4,1).  Layers of a slab land on the
vertex classes W_0..W_{m-1} in cyclic order.

Class update of W_i at closing probability p: each vertex of W_i
independently becomes 0 if any neighbor is occupied, and otherwise becomes
1 with probability 1-p.  The stationary activity is lambda = 1/p - 1.  In
the extended variant a vertex occupied before the update is forced to 0
first (stationary activity lambda = 1 - p < 1).

Randomness: a free-running chain uses one uniform per vertex per update,
tag (sweep, class); the coupled chain driven by a game environment uses
the tag-0 closedness of the slab site (vertex coords..., layer), which is
exactly what the game recursion consumes.

The coupling (the paper's dimension reduction): the two-valued game
recursion on a slab equals, layer by layer and path by path, the class
updates of the coupled chain on the doubling torus.  ``coupling_mismatches``
checks this exactly for a batch of seeds.  This module holds no game rule
and no move table: the game side is ``solver.slab_layers``, the slab
reference, which derives its own move table from the lattice, site by
site, and never reads the index's out-table (``SlabIndex.nbr_pos``,
``nbr_layer_delta``) or its undirected adjacency, which the Glauber side
runs on.  A seed enters only through the hash: one array call per layer
for the tag-0 uniforms, which both sides read, and for the boundary
values (tag 1), for all seeds at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (below, check_probability, check_seeds, closed_threshold,
                        finish_class_tags, hash_prefix)
from .solver import Sampled, SlabIndex, slab_layers
from .symbols import ONE, ZERO
from .workers import parallel_seed_map

VARIANTS = ("standard", "extended")


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant


class IncompatibleSizesError(ValueError):
    pass


def build_doubling_torus(family: GraphFamily, sizes) -> SlabIndex:
    """Finite torus quotient of the doubling graph, with its class partition.

    Sizes must respect the family's membership constraint (even for
    parity-constrained lattices, multiples of the residue period for
    subset/binomial kinds).
    """
    lattice.check_phi(family)
    try:
        sizes = lattice.validate_torus_sizes(family, sizes)
    except ValueError as e:
        raise IncompatibleSizesError(str(e)) from None
    return SlabIndex(family, sizes)


def checkerboard_config(torus: SlabIndex, occupied_class: int) -> np.ndarray:
    """Extremal configuration occupying exactly one vertex class."""
    vals = np.zeros(torus.n_vertices, dtype=np.int8)
    vals[torus.class_members[occupied_class % torus.q]] = ONE
    return vals


def _update_class(values: np.ndarray, sel: np.ndarray, nbr_cols: np.ndarray,
                  open_: np.ndarray, extended: bool) -> None:
    """The class-update rule, in place, on 0/1 int8 values (``open_``
    bool) or on bit lanes (``open_`` words of the same type):
    ``values[sel] = open_ & ~(OR of neighbors [| values[sel] if extended])``.

    ``values`` has the vertex axis first, (V, ...); ``nbr_cols`` are the
    neighbors of ``sel``, (deg, len(sel)); ``open_`` (len(sel), ...) is set
    where the vertex's uniform is >= p."""
    blocked = values[sel] if extended else values[nbr_cols[0]]
    for col in (nbr_cols if extended else nbr_cols[1:]):
        blocked |= values[col]
    np.invert(blocked, out=blocked)
    blocked &= open_
    values[sel] = blocked


def class_update(torus: SlabIndex, values: np.ndarray, class_i: int,
                 p: float, variant: str, uniforms: np.ndarray) -> np.ndarray:
    """One class update of a 0/1 configuration; `uniforms` has one entry per
    class-i vertex (trailing axis), broadcast against leading axes of
    `values`.  A p outside [0, 1], NaN included, raises ``ValueError``."""
    _check_variant(variant)
    sel = torus.class_members[class_i % torus.q]
    out = np.array(values, dtype=np.int8, copy=True)
    open_ = np.broadcast_to(uniforms >= check_probability(p), out.shape[:-1] + sel.shape)
    _update_class(np.moveaxis(out, -1, 0), sel, torus.neighbors[sel].T,
                  np.moveaxis(open_, -1, 0), variant == "extended")
    return out


def run_chains(torus: SlabIndex, p: float, variant: str, sweeps: int,
               seeds, init="even", record_every: int = 1):
    """Alternating class updates over a batch of seeds.

    init: 'even' / 'odd' (checkerboard states), 'empty', or an explicit
    (V,) 0/1 array.  Vertex v in class i at sweep t draws uniform(seed,
    coords of v, tag=(t, i)).  Returns (record_sweeps, occupations
    (S, R, m)).

    The seeds run in contiguous chunks through ``parallel_seed_map``, one
    chunk per worker process once the call hashes enough words (PERC_THREADS
    caps the workers), and each chunk in balanced blocks (sizes differ by
    at most one) of at most 64 seeds, one ``_chain_chunk`` call each; the
    occupations are concatenated in seed order.  Each seed's chain depends
    on its own hash alone, so they do not depend on the chunking.
    """
    _check_variant(variant)
    seeds = check_seeds(seeds)
    for name, n in (("sweeps", sweeps), ("record_every", record_every)):
        if n < 1:
            raise ValueError(f"run_chains needs {name} >= 1, got {n}")
    if isinstance(init, str) and init in ("even", "odd", "empty"):
        init = (np.zeros(torus.n_vertices, dtype=np.int8) if init == "empty"
                else checkerboard_config(torus, int(init == "odd")))
    base = np.asarray(init)
    if base.shape != (torus.n_vertices,) or not np.isin(base, (ZERO, ONE)).all():
        raise ValueError(f"init must be 'even', 'odd', 'empty' or a 0/1 array of shape "
                         f"({torus.n_vertices},)")
    block_fn = functools.partial(_chain_chunk, torus, closed_threshold(p),
                                 variant == "extended", sweeps, record_every, base)

    def chunk_fn(chunk):  # one worker's seeds, in lane blocks
        return [block_fn(block) for block in np.array_split(chunk, -(-chunk.size // 64))]

    chunks = parallel_seed_map(chunk_fn, seeds, sweeps * torus.n_vertices * seeds.size)
    runs = [run for chunk in chunks for run in chunk]
    return runs[0][0], np.concatenate([occ for _, occ in runs])


def _chain_chunk(torus: SlabIndex, threshold: int, extended: bool, sweeps: int,
                 record_every: int, base: np.ndarray, seeds: np.ndarray):
    """``run_chains`` on one block of at most 64 seeds, from the 0/1
    configuration ``base``.

    The hash prefix (seed and coordinate words) of every vertex is computed
    once, in one class-major (V, S) table, as ``SlabIndex`` lists the
    vertices class by class.  A sweep finishes the (t, i) tags of all rows
    in row blocks (``sitefield.finish_class_tags``), decides ``uniform >=
    p`` on each block's hash words while it is in the cache, and packs the
    open bits of the whole sweep once; each class update reads its own
    rows of them.  The configuration is bit-sliced, one uint64 word per
    vertex, (V,): seed s is bit s, and the lanes from S to 63 stay 0.  The
    open bits are packed into the same lanes (lane s is bit s % 8 of byte
    s // 8 of the packed bytes); an occupation is the count of set lanes /
    class size.
    """
    members, starts = torus.class_members, torus.class_starts
    lanes = np.uint64((1 << seeds.size) - 1)
    values = np.where(base == ONE, lanes, np.uint64(0))
    prefix = np.ascontiguousarray(hash_prefix(seeds, torus.coords).T)
    hashed, scratch = np.empty_like(prefix), np.empty_like(prefix)
    nbr_cols = [np.ascontiguousarray(torus.neighbors[sel].T) for sel in members]
    # closed bits, one 64-lane word per vertex; the lanes from S on stay False
    closed = np.zeros((torus.n_vertices, 64), dtype=bool)
    record_sweeps, occs = [], []
    for t in range(sweeps):
        for lo, hi, h in finish_class_tags(prefix, t, starts, out=hashed, tmp=scratch):
            below(h, threshold, out=closed[lo:hi, :seeds.size])
        open_ = np.packbits(closed.reshape(-1), bitorder="little").view(np.uint64) ^ lanes
        for sel, cols, a, b in zip(members, nbr_cols, starts, starts[1:]):
            _update_class(values, sel, cols, open_[a:b], extended)
        if (t + 1) % record_every == 0 or t == sweeps - 1:
            record_sweeps.append(t + 1)
            occs.append(np.stack(
                [np.unpackbits(values[mem, None].view(np.uint8), axis=-1, count=seeds.size,
                               bitorder="little").sum(axis=0) / len(mem)
                 for mem in members], axis=1))
    return np.array(record_sweeps), np.stack(occs, axis=1)


def staggered_difference(occupations: np.ndarray) -> np.ndarray:
    """rho(W_0) - rho(W_1) along the last class axis (bipartite order
    parameter; only meaningful for m = 2)."""
    return occupations[..., 0] - occupations[..., 1]


def sweep_chain(torus: SlabIndex, p: float, variant: str, sweeps: int,
                seed: int, init="even", record_every: int = 1):
    """Single-seed chain; returns rows for the
    'sweep,class,occupation,staggered_diff' schema."""
    ts, occ = run_chains(torus, p, variant, sweeps, [seed], init, record_every)
    rows = []
    for r, t in enumerate(ts):
        diff = float(occ[0, r, 0] - occ[0, r, 1]) if torus.q == 2 else None
        for c in range(torus.q):
            rows.append((int(t), c, float(occ[0, r, c]), diff))
    return rows


# -- the game <-> Glauber coupling -------------------------------------------


@dataclass
class CouplingReport:
    family: GraphFamily
    depth: int
    sizes: tuple[int, ...]
    p: float
    seed: int
    variant: str
    layers_checked: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _coupling_variant(family: GraphFamily, variant: Optional[str]) -> str:
    """The class-update variant the coupling runs: extended for (A2'),
    standard for (A2), unless asked for; refused where its assumption fails."""
    lattice.check_phi(family)
    if variant is None:
        variant = "extended" if family.has_A2_prime else "standard"
    _check_variant(variant)
    if variant == "standard" and not family.has_A2:
        raise ValueError(f"{family.name} does not satisfy the standard assumptions")
    if variant == "extended" and not family.has_A2_prime:
        raise ValueError(f"{family.name} does not satisfy the extended assumptions")
    return variant


_SEED_CHUNK = 256  # seeds per array pass of the coupling check


@functools.lru_cache(maxsize=64)
def _coupling_torus(family: GraphFamily, sizes: tuple) -> SlabIndex:
    """The doubling torus of the Glauber side, built once per (family, sizes)."""
    return build_doubling_torus(family, sizes)


def _coupled_mismatches(torus: SlabIndex, depth: int, p: float, seeds: np.ndarray,
                        variant: str) -> np.ndarray:
    """Both sides of the coupling on (seeds, class vertices) arrays; the
    mismatch count of each seed.  Game side: ``slab_layers`` under the
    ``Sampled(0.5)`` boundary.  Glauber side: its boundary layers placed on
    their classes, then on each layer k below, the class update of class
    k mod m on the uniforms that the game side decided layer k on."""
    sigma = np.zeros((seeds.size, torus.n_vertices), dtype=np.int8)
    mismatches = np.zeros(seeds.size, dtype=np.int64)
    for k, u, values in slab_layers(torus, depth, Sampled(0.5), p, seeds):
        c = k % torus.q
        if u is None:
            sigma[:, torus.class_members[c]] = values
        else:
            sigma = class_update(torus, sigma, c, p, variant, u)
            mismatches += (sigma[:, torus.class_members[c]] != values).sum(axis=1)
    return mismatches


def coupling_mismatches(family: GraphFamily, depth: int, sizes, p: float, seeds,
                        variant: Optional[str] = None) -> np.ndarray:
    """Mismatch count, per seed, of the exact pathwise identity
    sigma_k(v) = gamma(f_k^{-1}(v)) at every layer k from depth-1 down to 0.

    gamma is the two-valued game recursion on the slab, ``solver.slab_layers``
    under a sampled boundary, run on a move table derived from the lattice
    itself (site coordinates, the move set applied directly); sigma is the
    class-update chain on the doubling torus, driven by the identical
    closed/open bits.  Any mismatch indicates an indexing inconsistency
    between the move set, the quotient map and the torus.
    """
    variant = _coupling_variant(family, variant)
    check_probability(p)
    seeds = check_seeds(seeds)
    torus = _coupling_torus(family, tuple(sizes))
    # seeds in chunks, so that memory stays O(chunk x vertices) for any batch
    chunks = np.split(seeds, range(_SEED_CHUNK, seeds.size, _SEED_CHUNK))
    return np.concatenate([_coupled_mismatches(torus, depth, p, chunk, variant)
                           for chunk in chunks])


def game_glauber_coupling_check(family: GraphFamily, depth: int, sizes,
                                p: float, seed: int,
                                variant: Optional[str] = None) -> CouplingReport:
    """The coupling identity for one seed (see :func:`coupling_mismatches`)."""
    variant = _coupling_variant(family, variant)
    mismatches = coupling_mismatches(family, depth, sizes, p, [seed], variant)
    return CouplingReport(family, depth, tuple(int(s) for s in sizes), p, seed,
                          variant, depth, int(mismatches[0]))


# -- small graphs for exact stationarity tests --------------------------------


def cycle_graph(n: int):
    """(neighbors, classes): the n-cycle with parity classes (n even)."""
    if n % 2:
        raise ValueError("cycle needs even length for a bipartition")
    nbrs = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    classes = [[i for i in range(n) if i % 2 == 0], [i for i in range(n) if i % 2 == 1]]
    return nbrs, classes


def _patch(rows: int, cols: int, steps, q: int):
    """Open rows x cols patch with an edge along each step, both ways, and
    the classes (i + j) mod q."""
    nbrs = [[a * cols + b for di, dj in steps for a, b in ((i + di, j + dj), (i - di, j - dj))
             if 0 <= a < rows and 0 <= b < cols] for i in range(rows) for j in range(cols)]
    classes = [[i * cols + j for i in range(rows) for j in range(cols) if (i + j) % q == c]
               for c in range(q)]
    return nbrs, classes


def grid_graph(rows: int, cols: int):
    """Open-boundary grid with parity classes."""
    return _patch(rows, cols, ((1, 0), (0, 1)), 2)


def triangular_patch(rows: int, cols: int):
    """Open patch of the triangular lattice (edges east, north, northeast),
    with the three-coloring classes (i + j) mod 3."""
    return _patch(rows, cols, ((0, 1), (1, 0), (1, 1)), 3)
