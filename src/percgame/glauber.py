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
checks this exactly for a batch of seeds.  Its game side is an oracle that
derives its own move table from the lattice, site by site (``_oracle_table``,
built once per (family, sizes)).  It never reads the index's out-table
(``SlabIndex.nbr_pos``, ``nbr_layer_delta``), its undirected adjacency or
its coordinate map, which the Glauber side runs on; it checks only that
both list the class vertices in the same order.  A seed enters only through
the hash: one array call per layer for the tag-0 uniforms, which both sides
read, and for the boundary values (tag 1), for all seeds at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (below, check_p, check_probability, check_seeds, closed_threshold,
                        finish_tag, hash_below, hash_prefix, hash_uniforms)
from .solver import SlabIndex
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
    if not family.has_phi:
        raise lattice.UnsupportedFamilyError("zd(d>=3) has no doubling graph")
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


def independence_violations(torus: SlabIndex, values: np.ndarray) -> int:
    """Number of (directed) occupied-occupied adjacencies."""
    occ = values[..., torus.neighbors].max(axis=-1)
    return int(((values == ONE) & (occ == ONE)).sum())


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
    `values`."""
    _check_variant(variant)
    sel = torus.class_members[class_i % torus.q]
    out = np.array(values, dtype=np.int8, copy=True)
    open_ = np.broadcast_to(uniforms >= check_p(p), out.shape[:-1] + sel.shape)
    _update_class(np.moveaxis(out, -1, 0), sel, torus.neighbors[sel].T,
                  np.moveaxis(open_, -1, 0), variant == "extended")
    return out


def _pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Bool (n, 64 W) -> (n, W) uint64 words; lane s is bit s % 8 of byte s // 8."""
    return np.packbits(bits.reshape(-1), bitorder="little").view(np.uint64).reshape(len(bits), -1)


def run_chains(torus: SlabIndex, p: float, variant: str, sweeps: int,
               seeds, init="even", record_every: int = 1):
    """Alternating class updates over a batch of seeds.

    init: 'even' / 'odd' (checkerboard states), 'empty', or an explicit
    (V,) 0/1 array.  Vertex v in class i at sweep t draws uniform(seed,
    coords of v, tag=(t, i)).  Returns (record_sweeps, occupations
    (S, R, m)).

    The seeds run in contiguous chunks through ``parallel_seed_map``, one
    chunk per forked worker once the call hashes enough words (PERC_THREADS
    caps the workers); each seed's chain depends on its own hash alone, so
    the occupations do not depend on the chunking.
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
    chunk_fn = functools.partial(_chain_chunk, torus, closed_threshold(check_probability(p)),
                                 variant == "extended", sweeps, record_every, base)
    runs = parallel_seed_map(chunk_fn, seeds, sweeps * torus.n_vertices * seeds.size)
    return runs[0][0], np.concatenate([occ for _, occ in runs])


def _chain_chunk(torus: SlabIndex, threshold: int, extended: bool, sweeps: int,
                 record_every: int, base: np.ndarray, seeds: np.ndarray):
    """``run_chains`` on one chunk of seeds, from the 0/1 configuration
    ``base``.

    Each class's hash prefix (seed and coordinate words) is computed once;
    a sweep finishes only the (t, i) tag and decides ``uniform >= p`` on
    the hash words (see ``sitefield``).  The configuration is bit-sliced,
    (V, ceil(S / 64)) uint64 words: seed s is bit s % 64 of word s // 64,
    and the padding lanes stay 0.  A class update packs the open bits into
    the same lanes; an occupation is the count of set lanes / class size.
    With one word per vertex the update runs on the (V,) view of the
    words, whose gathers are faster than those of (V, 1) rows.
    """
    members = torus.class_members
    n_lanes = -(-seeds.size // 64) * 64
    lanes = _pack_lanes(np.arange(n_lanes)[None] < seeds.size)
    values = lanes * (base[:, None] == ONE)
    rows = values[:, 0] if values.shape[1] == 1 else values  # (V,) or (V, W), a view
    prefixes = [np.ascontiguousarray(hash_prefix(seeds, torus.coords[sel]).T)
                for sel in members]
    nbr_cols = [np.ascontiguousarray(torus.neighbors[sel].T) for sel in members]
    hashed = [np.empty_like(pre) for pre in prefixes]
    scratch = [np.empty_like(pre) for pre in prefixes]
    # closed bits, seed-padded to whole words; the padding stays False
    closed = [np.zeros((len(sel), n_lanes), dtype=bool) for sel in members]
    record_sweeps, occs = [], []

    def record(t):
        record_sweeps.append(t)
        occs.append(np.stack(
            [np.unpackbits(values[mem].view(np.uint8), axis=-1, count=seeds.size,
                           bitorder="little").sum(axis=0) / len(mem)
             for mem in members], axis=1))

    for t in range(sweeps):
        for i in range(torus.q):
            h = finish_tag(prefixes[i], (t, i), out=hashed[i], tmp=scratch[i])
            below(h, threshold, out=closed[i][:, :seeds.size])
            open_ = (_pack_lanes(closed[i]) ^ lanes).reshape((-1,) + rows.shape[1:])
            _update_class(rows, members[i], nbr_cols[i], open_, extended)
        if (t + 1) % record_every == 0 or t == sweeps - 1:
            record(t + 1)
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


@dataclass(frozen=True)
class _OracleTable:
    """The game side's own view of the slab, per vertex class c: the class
    vertices' torus coordinates, sorted, and their out-moves grouped by
    layer delta, as (delta, targets) with ``targets[i, j]`` the position,
    within the class of layer c + delta, of vertex i's j-th move of that
    delta."""

    verts: tuple[np.ndarray, ...]
    moves: tuple[tuple[tuple[int, np.ndarray], ...], ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _oracle_table(family: GraphFamily, sizes: tuple[int, ...]) -> _OracleTable:
    """The coupling oracle's move table, derived site by site from the
    lattice alone.

    Each vertex of class c is lifted to its slab site on layer c, the
    family's move set is applied to that site, and every target is wrapped
    onto the torus and looked up in a coordinate -> position map built here
    from ``lattice.torus_vertices``.  phi shifts layers by m and keeps
    transverse coordinates, so the table of layer c holds on every layer
    k = c (mod m).  The seed never enters: the table is built once per
    (family, sizes).
    """
    q = family.torus_classes
    by_class: list[list[tuple[int, ...]]] = [[] for _ in range(q)]
    for t in lattice.torus_vertices(family, sizes):
        by_class[lattice.torus_class(family, t)].append(t)
    where = {t: (c, i) for c, verts in enumerate(by_class) for i, t in enumerate(verts)}
    moves = []
    for c, verts in enumerate(by_class):
        deltas, targets = [], []
        for t in verts:
            row_delta, row_target = [], []
            for y in lattice.out_neighbors(family, lattice.lift_site(family, t, c)):
                delta = lattice.layer_of(family, y) - c
                cls, i = where[lattice.wrap_tcoord(lattice.transverse_coord(family, y), sizes)]
                if cls != (c + delta) % q:
                    raise AssertionError(
                        f"{family.name}: a move from {t} leaves its layer's class")
                row_delta.append(delta)
                row_target.append(i)
            deltas.append(row_delta)
            targets.append(row_target)
        delta, target = np.array(deltas), np.array(targets, dtype=np.int64)
        # sorted moves of translated sites keep their order, so every vertex
        # of a class has the same layer delta in each move column
        if (delta != delta[0]).any():
            raise AssertionError(f"{family.name}: class {c} layer deltas differ by vertex")
        moves.append(tuple((dl, _frozen(np.ascontiguousarray(target[:, delta[0] == dl])))
                           for dl in sorted(set(delta[0].tolist()))))
    verts = tuple(_frozen(np.array(v, dtype=np.int64)) for v in by_class)
    return _OracleTable(verts, tuple(moves))


def _coupled_mismatches(table: _OracleTable, torus: SlabIndex, depth: int,
                        p: float, seeds: np.ndarray, variant: str) -> np.ndarray:
    """Both sides of the coupling, top-down over layers depth-1..0, on
    (seeds, class vertices) arrays; the mismatch count of each seed.

    Layer k's tag-0 uniforms are hashed once, on the oracle's coordinates,
    and both sides read them.  Game side: the two-valued recursion on the
    oracle's table.  Boundary layers depth..depth+m-1 are 1 where the tag-1
    uniform is below 1/2; on a layer below, a closed site (uniform below p)
    is 0, and an open site is 1 iff every move target is 0.  Glauber side:
    the class update of class k mod m with the same uniforms, from the
    boundary layers placed on their classes.  Only the m + 1 layers that
    moves reach are kept.
    """
    m = len(table.verts)

    def site_coords(k):
        verts = table.verts[k % m]
        return np.concatenate([verts, np.full((len(verts), 1), k, dtype=np.int64)], axis=1)

    gamma = {k: hash_below(seeds, site_coords(k), 1, 0.5) for k in range(depth, depth + m)}
    sigma = np.zeros((seeds.size, torus.n_vertices), dtype=np.int8)
    for k, value in gamma.items():
        sigma[:, torus.class_members[k % m]] = value
    mismatches = np.zeros(seeds.size, dtype=np.int64)
    for k in range(depth - 1, -1, -1):
        c = k % m
        u = hash_uniforms(seeds, site_coords(k), 0)
        value = u >= p
        for delta, targets in table.moves[c]:
            value &= ~gamma[k + delta][:, targets].any(axis=-1)
        gamma[k] = value
        del gamma[k + m]
        sigma = class_update(torus, sigma, c, p, variant, u)
        mismatches += (sigma[:, torus.class_members[c]] != value).sum(axis=1)
    return mismatches


def coupling_mismatches(family: GraphFamily, depth: int, sizes, p: float, seeds,
                        variant: Optional[str] = None) -> np.ndarray:
    """Mismatch count, per seed, of the exact pathwise identity
    sigma_k(v) = gamma(f_k^{-1}(v)) at every layer k from depth-1 down to 0.

    gamma is the two-valued game recursion on the slab, run on a move table
    that the oracle derives from the lattice itself (site coordinates, the
    move set applied directly); sigma is the class-update chain on the
    doubling torus, driven by the identical closed/open bits.  Any mismatch
    indicates an indexing inconsistency between the move set, the quotient
    map and the torus.
    """
    variant = _coupling_variant(family, variant)
    check_probability(p)
    seeds = check_seeds(seeds)
    torus = _coupling_torus(family, tuple(sizes))
    table = _oracle_table(family, torus.sizes)
    if len(table.verts) != torus.q or not all(
            np.array_equal(a, b) for a, b in zip(table.verts, torus.verts_by_class)):
        raise AssertionError("the oracle and the torus order the class vertices differently")
    # seeds in chunks, so that memory stays O(chunk x vertices) for any batch
    chunks = np.split(seeds, range(_SEED_CHUNK, seeds.size, _SEED_CHUNK))
    return np.concatenate([_coupled_mismatches(table, torus, depth, p, chunk, variant)
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
