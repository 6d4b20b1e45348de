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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (SiteField, below, closed_threshold, finish_tag,
                        hash_prefix, hash_uniforms)
from .solver import SlabIndex
from .symbols import ONE, ZERO

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
    if not (family.has_A2 or family.has_A2_prime):
        raise lattice.UnsupportedFamilyError("zd(d>=3) has no doubling graph")
    try:
        sizes = lattice.validate_torus_sizes(family, sizes)
    except ValueError as e:
        raise IncompatibleSizesError(str(e)) from None
    return SlabIndex(family, sizes)


def checkerboard_config(torus: SlabIndex, occupied_class: int) -> np.ndarray:
    """Extremal configuration occupying exactly one vertex class."""
    vals = np.zeros(torus.n_vertices, dtype=np.int8)
    vals[torus.class_members[occupied_class % torus.m]] = ONE
    return vals


def independence_violations(torus: SlabIndex, values: np.ndarray) -> int:
    """Number of (directed) occupied-occupied adjacencies."""
    occ = values[..., torus.neighbors].max(axis=-1)
    return int(((values == ONE) & (occ == ONE)).sum())


def _update_class(values: np.ndarray, sel: np.ndarray, nbr_cols: np.ndarray,
                  open_: np.ndarray, extended: bool) -> None:
    """The class-update rule, in place.

    ``values`` is a 0/1 int8 configuration with the vertex axis first,
    shape (V, ...); ``sel`` the class's vertices; ``nbr_cols`` their
    neighbors, shape (deg, len(sel)); ``open_`` (len(sel), ...) bool, True
    where the vertex's uniform is >= p.  A vertex becomes 1 iff it is open
    and no neighbor is occupied (extended: and it was empty).
    """
    blocked = values[nbr_cols[0]]
    for col in nbr_cols[1:]:
        blocked |= values[col]
    allowed = blocked == ZERO
    allowed &= open_
    if extended:
        allowed &= values[sel] == ZERO
    values[sel] = allowed


def class_update(torus: SlabIndex, values: np.ndarray, class_i: int,
                 p: float, variant: str, uniforms: np.ndarray) -> np.ndarray:
    """One class update of a 0/1 configuration; `uniforms` has one entry per
    class-i vertex (trailing axis), broadcast against leading axes of
    `values`."""
    _check_variant(variant)
    sel = torus.class_members[class_i % torus.m]
    out = np.array(values, dtype=np.int8, copy=True)
    open_ = np.broadcast_to(uniforms >= p, out.shape[:-1] + sel.shape)
    _update_class(np.moveaxis(out, -1, 0), sel, torus.neighbors[sel].T,
                  np.moveaxis(open_, -1, 0), variant == "extended")
    return out


def run_chains(torus: SlabIndex, p: float, variant: str, sweeps: int,
               seeds, init="even", record_every: int = 1):
    """Alternating class updates over a batch of seeds.

    init: 'even' / 'odd' (checkerboard states), 'empty', or an explicit
    (V,) array.  Vertex v in class i at sweep t draws uniform(seed, coords
    of v, tag=(t, i)).  Returns (record_sweeps, occupations (S, R, m)).

    Each class's hash prefix (seed and coordinate words) is computed once;
    a sweep finishes only the (t, i) tag and decides ``uniform >= p`` on
    the hash words (see ``sitefield``).  The configuration is kept
    vertex-major, (V, S), so that neighbor gathers copy whole rows.
    """
    _check_variant(variant)
    extended = variant == "extended"
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if isinstance(init, str):
        base = {"even": lambda: checkerboard_config(torus, 0),
                "odd": lambda: checkerboard_config(torus, 1),
                "empty": lambda: np.zeros(torus.n_vertices, dtype=np.int8)}[init]()
    else:
        base = np.asarray(init, dtype=np.int8)
    values = np.broadcast_to(base, (seeds.size, torus.n_vertices)).T.copy()
    members = torus.class_members
    prefixes = [np.ascontiguousarray(hash_prefix(seeds, torus.coords[sel]).T)
                for sel in members]
    nbr_cols = [np.ascontiguousarray(torus.neighbors[sel].T) for sel in members]
    hashed = [np.empty_like(pre) for pre in prefixes]
    scratch = [np.empty_like(pre) for pre in prefixes]
    open_ = [np.empty(pre.shape, dtype=bool) for pre in prefixes]
    threshold = closed_threshold(p)
    record_sweeps = []
    occs = []

    def record(t):
        record_sweeps.append(t)
        occs.append(np.stack(
            [(values[mem] == ONE).mean(axis=0) for mem in members], axis=1))

    for t in range(sweeps):
        for i in range(torus.m):
            h = finish_tag(prefixes[i], (t, i), out=hashed[i], tmp=scratch[i])
            np.logical_not(below(h, threshold, out=open_[i]), out=open_[i])
            _update_class(values, members[i], nbr_cols[i], open_[i], extended)
        if (t + 1) % record_every == 0 or t == sweeps - 1:
            record(t + 1)
    return np.array(record_sweeps), np.stack(occs, axis=1)


def staggered_difference(occupations: np.ndarray) -> np.ndarray:
    """rho(W_0) - rho(W_1) along the last class axis (bipartite order
    parameter; only meaningful for m = 2)."""
    return occupations[..., 0] - occupations[..., 1]


def sweep_chain(torus: SlabIndex, p: float, variant: str, sweeps: int,
                field: SiteField, init="even", record_every: int = 1):
    """Single-seed chain; returns rows for the
    'sweep,class,occupation,staggered_diff' schema."""
    ts, occ = run_chains(torus, p, variant, sweeps, [field.seed], init, record_every)
    rows = []
    for r, t in enumerate(ts):
        diff = float(occ[0, r, 0] - occ[0, r, 1]) if torus.m == 2 else None
        for c in range(torus.m):
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


def _game_recursion_on_slab(family: GraphFamily, index: SlabIndex, depth: int,
                            field: SiteField) -> dict:
    """Site-by-site two-valued game recursion, independent of the torus
    adjacency tables: every site is lifted to its lattice coordinates and
    the family's move set is applied directly.

    Boundary layers depth..depth+m-1 take the tag-1 Bernoulli(1/2) values.
    Returns {layer: value array over the layer's class vertices}.
    """
    m = family.m
    sizes = index.sizes
    gamma: dict[int, np.ndarray] = {}
    for layer in range(depth, depth + m):
        verts = index.verts_by_class[layer % index.q]
        vals = np.empty(verts.shape[0], dtype=np.int8)
        for i, t in enumerate(verts):
            u = field.uniform_at(tuple(int(c) for c in t) + (layer,), 1)
            vals[i] = ONE if u < 0.5 else ZERO
        gamma[layer] = vals
    for k in range(depth - 1, -1, -1):
        verts = index.verts_by_class[k % index.q]
        vals = np.empty(verts.shape[0], dtype=np.int8)
        for i, t in enumerate(verts):
            tt = tuple(int(c) for c in t)
            if field.uniform_at(tt + (k,), 0) < field.p:
                vals[i] = ZERO
                continue
            x = lattice.lift_site(family, tt, k)
            win = ONE
            for y in lattice.out_neighbors(family, x):
                ky = lattice.layer_of(family, y)
                ty = lattice.wrap_tcoord(lattice.transverse_coord(family, y), sizes)
                pos = index.pos[ty]
                if gamma[ky][pos] != ZERO:
                    win = ZERO
                    break
            vals[i] = win
        gamma[k] = vals
    return gamma


def game_glauber_coupling_check(family: GraphFamily, depth: int, sizes,
                                p: float, seed: int,
                                variant: Optional[str] = None) -> CouplingReport:
    """Exact pathwise identity sigma_k(v) = gamma(f_k^{-1}(v)).

    Runs the two-valued game recursion on the slab (site coordinates, move
    set applied directly) and, sharing the identical closed/open bits, the
    class-update chain on the doubling torus; checks equality at every
    layer k from depth-1 down to 0.  Any mismatch indicates an indexing
    inconsistency between the move set, the quotient map and the torus.
    """
    if variant is None:
        variant = "extended" if family.has_A2_prime else "standard"
    _check_variant(variant)
    if variant == "standard" and not family.has_A2:
        raise ValueError(f"{family.name} does not satisfy the standard assumptions")
    if variant == "extended" and not family.has_A2_prime:
        raise ValueError(f"{family.name} does not satisfy the extended assumptions")
    field = SiteField(seed, p, family)
    torus = build_doubling_torus(family, sizes)
    gamma = _game_recursion_on_slab(family, torus, depth, field)

    sigma = np.zeros(torus.n_vertices, dtype=np.int8)
    for layer in range(depth, depth + family.m):
        sigma[torus.class_members[layer % torus.m]] = gamma[layer]
    mismatches = 0
    for k in range(depth - 1, -1, -1):
        c = k % torus.m
        u = hash_uniforms(np.asarray(seed), torus.layer_site_coords(k), 0)
        sigma = class_update(torus, sigma, c, p, variant, u)
        mismatches += int((sigma[torus.class_members[c]] != gamma[k]).sum())
    return CouplingReport(family, depth, tuple(torus.sizes), p, seed, variant,
                          depth, mismatches)


# -- small graphs for exact stationarity tests --------------------------------


def cycle_graph(n: int):
    """(neighbors, classes): the n-cycle with parity classes (n even)."""
    if n % 2:
        raise ValueError("cycle needs even length for a bipartition")
    nbrs = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    classes = [[i for i in range(n) if i % 2 == 0], [i for i in range(n) if i % 2 == 1]]
    return nbrs, classes


def grid_graph(rows: int, cols: int):
    """Open-boundary grid with parity classes."""
    def vid(i, j):
        return i * cols + j

    nbrs = [[] for _ in range(rows * cols)]
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < rows and 0 <= b < cols:
                    nbrs[vid(i, j)].append(vid(a, b))
    classes = [[vid(i, j) for i in range(rows) for j in range(cols) if (i + j) % 2 == 0],
               [vid(i, j) for i in range(rows) for j in range(cols) if (i + j) % 2 == 1]]
    return nbrs, classes


def triangular_patch(rows: int, cols: int):
    """Open patch of the triangular lattice (edges east, north, northeast),
    with the three-coloring classes (i + j) mod 3."""
    def vid(i, j):
        return i * cols + j

    nbrs = [[] for _ in range(rows * cols)]
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)):
                a, b = i + di, j + dj
                if 0 <= a < rows and 0 <= b < cols:
                    nbrs[vid(i, j)].append(vid(a, b))
    classes = [[vid(i, j) for i in range(rows) for j in range(cols)
                if (i + j) % 3 == c] for c in range(3)]
    return nbrs, classes
