"""Backward induction for percolation-game outcomes on finite regions.

Two region shapes:

* the z2 triangle {x in Z_+^2 : x1 + x2 <= n}, with the boundary condition
  on the diagonal x1 + x2 = n (``triangle_sweep``, ``solve_triangle``);
* the slab of layers S_0 .. S_{depth+m-1} of any supported family, with the
  transverse directions wrapped into the torus of a ``SlabIndex`` and the
  boundary condition on the top m layers (``slab_layers``, ``slab_sweep``;
  ``sliced_sweep`` for many depths at once).

Every sweep applies one game rule, ``play``, to (zero, one) bit pairs
(closed -> 0; else 1 if all out-values are 0, 0 if some is 1, ? otherwise);
under a {0,1}-valued boundary every pair stays two-valued.  Sites are
processed in decreasing layer order, so a layer depends only on those above.

Randomness/tag conventions: the open/closed bit of a slab site with
(wrapped) transverse coordinates t on layer k is the tag-0 uniform of the
coordinate tuple t + (k,); triangle sites use their plane coordinates
(x1, x2).  Sampled boundary values use tag 1 on the same coordinates.

A site's closed bit depends on neither the depth of a sweep nor its
boundary, so each is hashed once per run: ``draw_scan`` reads every depth
and boundary of a draw-scan off one ``sliced_sweep`` (the bits of two
uint64 words per site and seed), and ``triangle_sweep`` applies the
threshold of every p of its sequence to the same hash words.  Nor does it
depend on the sweep's state, so the triangle sweep hashes ahead: one
``hash_words`` call takes the run of diagonals k, k - 1, ... that fits in
about ``CHAIN_BLOCK`` words (one diagonal if it alone is larger), and each
diagonal reads its columns of the batch.  The sliced sweep holds the same
budget per hash array: it runs its seeds in blocks of at most
``CHAIN_BLOCK`` // n_class, and hashes each layer site-major, (n_class, S),
from its class's sites, packed once, and the block's seed states, mixed
once (``LayerSites``).

The sliced sweep gives each seed three lanes per depth, one per boundary
(?, 0 and 1), on subset(d) and even_ext(d), whose moves may advance two
layers.  On every other family, a graded one (every move advances one
layer: z2, zd(d), even(d), bcc(d), binomial(d, r)), it sweeps the all-?
boundary alone, one lane per depth, and derives the all-0 and all-1
values on layer 0 from the all-? value and the parity of the depth.
That is exact: the value of a layer-0 site is a monotone function of the
boundary values at an even depth and an antimonotone one at an odd depth,
on which the three-valued rule decides exactly the sites that the
boundary does not (see ``sliced_sweep``).  Up to 8 seeds share a word, so
the rule runs on a third of the words at 21 depths.

Two sweeps run their seeds in contiguous chunks through
``workers.parallel_seed_map``, one chunk per worker process once the call
has enough work: ``sliced_sweep``, and the depth-n ``triangle_sweep`` of
the seeds that the rounds of ``win_origins``, run in the caller, leave
undecided.  Each seed's bits come from its own hash, so no output depends
on the chunking.

The triangle sweep yields its diagonals one at a time (``_diagonals``):
``triangle_sweep`` keeps the origins, ``solve_triangle`` every site.  A z2
triangle is graded too (every move advances one diagonal), so
``win_origins`` decides the origin of a depth-n triangle wherever the
all-? sweep of its first d diagonals leaves it definite, at each depth d
of ``stop_depths(n)``, and only the seeds undecided at every such depth
take the full sweep.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (CHAIN_BLOCK, LayerSites, below, check_probability, check_seeds,
                        closed_threshold, hash_below, hash_uniforms, hash_words)
from .symbols import ONE, QUES, ZERO, pair_bytes, pair_symbols, planes
from .workers import SLICED_CALL_WORDS, SLICED_FORK_MIN_WORDS, parallel_seed_map

# -- boundary specifications --------------------------------------------------


@dataclass(frozen=True)
class AllQuestion:
    pass


@dataclass(frozen=True)
class AllZero:
    pass


@dataclass(frozen=True)
class AllOne:
    pass


@dataclass(frozen=True)
class Checkerboard:
    """Boundary value = parity of the site's coordinate sum."""


@dataclass(frozen=True)
class Sampled:
    """iid Bernoulli(q) boundary (value 1 with probability q), drawn from
    the tag-1 uniforms of the boundary sites."""

    q: float = 0.5


@dataclass(frozen=True)
class Explicit:
    """Arbitrary {0,1} boundary values: an (n+1,) array on a triangle
    (indexed by x2), or {layer: (n_class,) array} on a slab."""

    values: object


Boundary = Union[AllQuestion, AllZero, AllOne, Checkerboard, Sampled, Explicit]


class BoundaryShapeError(ValueError):
    pass


# -- the game rule and boundary values ----------------------------------------


def play(zero, one, targets):
    """The game rule, in place, on (zero, one) pairs, ? = (0, 0), 0 = (1, 0)
    and 1 = (0, 1), in bool arrays or lane by lane in unsigned words.  On
    entry ``zero`` holds the closed bits, every lane bit set for a closed
    site; ``targets`` yields each move's target pairs, shaped like ``zero``:

        zero = closed | OR(one[target]),   one = ~closed & AND(zero[target])

    A pair with zero = ~one stays so: one rule serves both recursions."""
    np.invert(zero, out=one)
    for target_zero, target_one in targets:
        zero |= target_one
        one &= target_zero
    return zero, one


_CONSTANT = {AllQuestion: QUES, AllZero: ZERO, AllOne: ONE}


def _boundary_layer(boundary: Boundary, layer: int, coords: np.ndarray, parity,
                    explicit, seeds: np.ndarray) -> np.ndarray:
    """The (zero, one) pair, (2, S, n) bool, of one boundary layer whose n
    sites have the hashing coordinates ``coords``; ``parity()`` and
    ``explicit()`` return their checkerboard and explicit (n,) values."""
    shape = (seeds.size, coords.shape[0])
    if type(boundary) in _CONSTANT:
        vals = np.int8(_CONSTANT[type(boundary)])
    elif isinstance(boundary, Sampled):
        if not 0.0 <= boundary.q <= 1.0:
            raise BoundaryShapeError(f"sampled boundary needs q in [0, 1], got q = {boundary.q}")
        vals = hash_below(seeds, coords, 1, boundary.q).view(np.int8)
    elif isinstance(boundary, (Checkerboard, Explicit)):
        try:
            vals = np.asarray(parity() if isinstance(boundary, Checkerboard) else explicit())
        except (KeyError, TypeError):
            raise BoundaryShapeError(f"explicit boundary missing layer {layer}") from None
        if vals.shape != shape[1:]:
            raise BoundaryShapeError(
                f"layer {layer} boundary needs shape {shape[1:]}, got {vals.shape}")
        if not np.isin(vals, (ZERO, ONE)).all():  # before any cast: 0.5 is no 0
            raise BoundaryShapeError("boundary values must be 0/1")
    else:
        raise BoundaryShapeError(f"unsupported boundary {boundary!r}")
    return planes(np.broadcast_to(vals, shape))


# -- triangle solver ---------------------------------------------------------


def _diag_coords(k: int, low: int = None) -> np.ndarray:
    """The (x1, x2) sites of diagonal k, x1 + x2 = k, by x2; or those of the
    diagonals k, k - 1, ..., low, one after the other."""
    low = k if low is None else low
    sizes = np.arange(k + 1, low, -1)
    starts = np.cumsum(sizes) - sizes
    j = np.arange(sizes.sum(), dtype=np.int64) - np.repeat(starts, sizes)
    return np.stack([np.repeat(np.arange(k, low - 1, -1), sizes) - j, j], axis=1)


def _thresholds(p) -> list[int]:
    """The closed thresholds of a non-empty 1-d sequence of probabilities,
    each in [0, 1]."""
    ps = np.asarray(p, dtype=np.float64)
    if ps.ndim != 1 or ps.size == 0:
        raise ValueError(f"p must be a non-empty 1-d sequence, got shape {ps.shape}")
    return [closed_threshold(float(q)) for q in ps]


def _diagonals(n: int, boundary: Boundary, thresholds, seeds: np.ndarray):
    """The triangle sweep of every p, diagonal by diagonal, as ``slab_layers``
    is the slab's layer by layer: (k, h, lanes) for k = n, ..., 0, with
    ``h`` the (S, k+1) hash words that diagonal k was decided on (None on
    the boundary diagonal n; a site is closed where ``below(h, threshold)``)
    and ``lanes`` its (zero, one) words, (2, W, S, k+1) uint8, bit i % 8
    of word i // 8 holding p_i (``_lane_symbols``).  Both are views that
    the next diagonals overwrite.

    In rows of n + 1 words, a diagonal's targets are the words above at the
    same flat index and the next, so the rule runs on flat arrays.  The
    diagonals are hashed in batches (see the module docstring); the buffers
    hold S·max(n, CHAIN_BLOCK // S) words each."""
    top = _boundary_layer(boundary, n, _diag_coords(n), lambda: np.full(n + 1, n % 2),
                          lambda: boundary.values, seeds)
    n_words = -(-len(thresholds) // 8)
    # diagonal k in slot k mod 2
    slots = np.empty((2, 2, n_words, seeds.size, n + 1), dtype=np.uint8)
    flat = slots.reshape(2, 2, -1)
    # per slot, the rule's arguments: its (zero, one) words and, as targets,
    # the other slot's words at the same flat index and at the next one
    rules = [(*cur[:, :-1], (tuple(nxt[:, :-1]), tuple(nxt[:, 1:])))
             for cur, nxt in zip(flat, flat[::-1])]
    for word in range(n_words):  # every lane of a word takes the boundary
        slots[n % 2, :, word] = top.view(np.uint8) * np.uint8(
            (1 << min(8, len(thresholds) - 8 * word)) - 1)
    yield n, None, slots[n % 2, ..., :n + 1]
    # batches of diagonals high, high - 1, ..., low of at most CHAIN_BLOCK // S
    # sites, or of one diagonal if it is larger; the hash words of a batch
    # and their scratch are (S, sites), and a diagonal's words are its columns
    budget = CHAIN_BLOCK // seeds.size
    words, tmp = np.empty((2, seeds.size * max(n, budget)), dtype=np.uint64)
    high = n - 1
    while high >= 0:
        low, size = high, high + 1
        while low > 0 and size + low <= budget:
            size, low = size + low, low - 1
        batch = (seeds.size, size)
        h_batch = hash_words(seeds, _diag_coords(high, low), 0,
                             out=words[:seeds.size * size].reshape(batch),
                             tmp=tmp[:seeds.size * size].reshape(batch))
        start = 0
        for k in range(high, low - 1, -1):
            h, start = h_batch[:, start:start + k + 1], start + k + 1
            # each p's closed bits fill its lane: the first p of a word
            # writes it whole, the others pass through the hash scratch,
            # free by now
            for i, threshold in enumerate(thresholds):
                word, bit = divmod(i, 8)
                lane_words = slots[k % 2, 0, word, :, :k + 1]
                if bit:
                    c = below(h, threshold,
                              out=tmp.view(bool)[:h.size].reshape(h.shape)).view(np.uint8)
                    lane_words |= np.multiply(c, np.uint8(1 << bit), out=c)
                else:
                    below(h, threshold, out=lane_words.view(bool))
            play(*rules[k % 2])
            yield k, h, slots[k % 2, ..., :k + 1]
        high = low - 1


def _lane_symbols(lanes: np.ndarray, n_p: int) -> np.ndarray:
    """The (P, S, m) int8 symbols of the (2, W, S, m) lane words of ``_diagonals``."""
    bits = np.unpackbits(lanes, axis=1, count=n_p, bitorder="little")
    return pair_symbols(pair_bytes(bits[0], bits[1]))


def triangle_sweep(n: int, boundary: Boundary, p, seeds) -> np.ndarray:
    """The origin values, (P, S), of the triangular region for a batch of
    seeds and a non-empty 1-d sequence of probabilities ``p``.  Every
    diagonal is hashed once, and each p's closed bits are read off the same
    hash words."""
    seeds = check_seeds(seeds)
    thresholds = _thresholds(p)
    for _, _, lanes in _diagonals(n, boundary, thresholds, seeds):
        pass
    return _lane_symbols(lanes[..., :1], len(thresholds))[..., 0]


# -- win-curve origins: certified early stop -----------------------------------

def stop_depths(n: int) -> list[int]:
    """The depths below n at which ``win_origins`` tries to decide the
    origins of depth-n triangles: 8, 16, 32, ... below n/4, then n/4 and
    n/2 (8, 16, 32, 64, 100, 200 at n = 400); none below 8, and none at
    all unless the depth-8 triangle holds at most a quarter of the sites
    of the depth-n one (n >= 17).

    The rounds at n/4 and n/2 come last so that a seed the doubling
    rounds leave is almost always decided by n/2: a seed left for the
    depth-n sweep pays for its n diagonals, whose overhead per diagonal
    hardly depends on the seed count."""
    if 4 * 8 * 9 > n * (n + 1):
        return []
    depths, d = {8}, 16
    while d < n // 4:
        depths.add(d)
        d *= 2
    return sorted(depths | {x for x in (n // 4, n // 2) if x > 8})


def win_origins(n: int, p, seeds):
    """The origin values of ``triangle_sweep(n, AllZero(), p, seeds)``,
    (P, S), and the depth at which each (p, seed) was decided, (P, S).

    At each of ``stop_depths(n)`` one all-? ``triangle_sweep`` of the first
    d diagonals runs for the seeds still undecided at some p, and a pair
    whose origin is not ? there is decided at depth d, with that value.
    That is exact, by the argument of ``sliced_sweep``: every path from the
    origin to diagonal d has length d, so its two-valued value is a
    monotone (d even) or antimonotone (d odd) function of the values on
    diagonal d, and the all-? sweep leaves it ? exactly where its values
    under the all-0 and the all-1 boundaries differ; a definite value holds
    under every boundary, the depth-n sweep's diagonal d among them.  The
    seeds left undecided take the depth-n ``triangle_sweep`` itself,
    through ``parallel_seed_map``, and are decided at depth n.  A round that
    decides a smaller share of its seeds than the next round's share of the
    depth-n triangle's sites ends the rounds early, so that runs in which
    almost no seed stops (p near 0) pay for one small round only.  So each
    later round hashes at most the words its predecessor saved the full
    sweep, and a run hashes at most S·(n(n+1)/2 + d(d+1)/2) words, d the
    first of ``stop_depths(n)``: 1.25 times the full sweep at most.
    """
    seeds = check_seeds(seeds)
    values = np.zeros((len(_thresholds(p)), seeds.size), dtype=np.int8)
    depths = np.full(values.shape, n, dtype=np.int64)
    undecided = np.ones(values.shape, dtype=bool)
    live = np.arange(seeds.size)  # the seeds undecided at some p
    schedule = stop_depths(n)
    for d, nxt in zip(schedule, schedule[1:] + [n]):
        origin = triangle_sweep(d, AllQuestion(), p, seeds[live])
        decided = undecided[:, live] & (origin != QUES)
        values[:, live] = np.where(decided, origin, values[:, live])
        depths[:, live] = np.where(decided, d, depths[:, live])
        undecided[:, live] &= ~decided
        swept, live = live.size, live[undecided[:, live].any(axis=0)]
        if not live.size or (swept - live.size) * n * (n + 1) < swept * nxt * (nxt + 1):
            break
    if live.size:
        full = np.concatenate(parallel_seed_map(
            functools.partial(triangle_sweep, n, AllZero(), p), seeds[live],
            live.size * n * (n + 1) // 2), axis=1)
        values[:, live] = np.where(undecided[:, live], full, values[:, live])
    return values, depths


@dataclass
class TriangleOutcome:
    n: int
    values: np.ndarray  # (n+1, n+1) int8, -1 outside the region
    closed: np.ndarray  # (n+1, n+1) bool: tag-0 uniform < p inside the region

    def counts(self) -> dict:
        """Site counts with the rendering precedence (closed beats value)."""
        inside = self.values >= 0
        closed = self.closed & inside
        return {
            "closed": int(closed.sum()),
            "win": int(((self.values == ZERO) & inside & ~closed).sum()),
            "loss": int(((self.values == ONE) & ~closed).sum()),
            "draw": int(((self.values == QUES) & ~closed).sum()),
        }


def solve_triangle(n: int, boundary: Boundary, p: float, seed: int) -> TriangleOutcome:
    """Game outcomes on the z2 triangle of side n under the given boundary,
    each site closed with probability p (its tag-0 uniform below p), from
    one sweep that hashes each site once."""
    seeds, thresholds = check_seeds(seed), _thresholds([p])
    values = np.full((n + 1, n + 1), -1, dtype=np.int8)
    closed = np.zeros((n + 1, n + 1), dtype=bool)
    for k, h, lanes in _diagonals(n, boundary, thresholds, seeds):
        coords = _diag_coords(k)
        values[coords[:, 0], coords[:, 1]] = _lane_symbols(lanes, 1)[0, 0]
        # closedness is a property of the site; on the boundary diagonal
        # it does not enter the recursion (values there are imposed) but
        # does drive rendering and counts
        closed[coords[:, 0], coords[:, 1]] = (hash_below(seed, coords, 0, p) if h is None
                                              else below(h[0], thresholds[0]))
    return TriangleOutcome(n, values, closed)


# -- slab solver --------------------------------------------------------------


class SlabIndex:
    """The doubling torus of a family, indexed for the slab solver and the
    Glauber chains.

    Vertices are listed class by class, sorted within a class: vertex i has
    torus coordinates ``coords[i]`` and class ``classes[i]``; class c holds
    the vertices ``class_members[c]``, ``class_starts[c]`` to
    ``class_starts[c + 1] - 1``, whose coordinates are
    ``verts_by_class[c]``.  Layer k of a slab occupies class k mod q, and
    ``origin_pos`` is the position of the origin within class 0.

    The directed out-table gives, per class, each out-move's target as a
    position within the target class (``nbr_pos``, one column per move) and
    a layer delta (``nbr_layer_delta``); it is derived by lifting a
    representative site of each class and applying the family's move set.
    """

    def __init__(self, family: GraphFamily, sizes):
        self.family = family
        self.sizes = lattice.validate_torus_sizes(family, sizes)
        self.q = family.torus_classes
        by_class: list[list[tuple[int, ...]]] = [[] for _ in range(self.q)]
        for t in lattice.torus_vertices(family, self.sizes):
            by_class[lattice.torus_class(family, t)].append(t)
        counts = [len(v) for v in by_class]
        self.coords = np.array([t for v in by_class for t in v], dtype=np.int64)
        self.classes = np.repeat(np.arange(self.q), counts)
        self.class_starts = np.concatenate([[0], np.cumsum(counts)])
        self.class_members = [np.arange(a, b)
                              for a, b in zip(self.class_starts, self.class_starts[1:])]
        self.verts_by_class = [self.coords[sel] for sel in self.class_members]
        # position within its class of every vertex, by torus coordinates
        slot = np.full(self.sizes, -1, dtype=np.int64)
        slot[tuple(self.coords.T)] = np.concatenate([np.arange(n) for n in counts])
        self.nbr_pos: list[np.ndarray] = []
        self.nbr_layer_delta: list[np.ndarray] = []
        for c, deltas in enumerate(lattice.out_offset_table(family, self.sizes)):
            dt = np.array([d for d, _ in deltas], dtype=np.int64)
            target = (self.verts_by_class[c][:, None, :] + dt) % self.sizes
            self.nbr_pos.append(slot[tuple(np.moveaxis(target, -1, 0))])
            self.nbr_layer_delta.append(np.array([dl for _, dl in deltas]))
        origin = tuple(0 for _ in self.sizes)
        if lattice.torus_class(family, origin) != 0:
            raise AssertionError("origin must sit in class 0")
        self.origin_pos = int(slot[origin])

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        """(V, degree) undirected adjacency.  By (A2) the in-moves of a
        vertex mirror its out-moves, so its neighbors are its out-targets,
        less the phi move of even_ext: a layer jump of m, back to the vertex
        itself, which is no edge."""
        rows = []
        for c, (pos, dl) in enumerate(zip(self.nbr_pos, self.nbr_layer_delta)):
            edge = dl % self.q != 0
            rows.append(pos[:, edge] + self.class_starts[(c + dl[edge]) % self.q])
        return np.concatenate(rows)

    @property
    def graded(self) -> bool:
        """Whether every move advances exactly one layer, as on z2, zd(d),
        even(d), bcc(d) and binomial(d, r); subset(d) and even_ext(d) have
        moves that advance more."""
        return all((dl == 1).all() for dl in self.nbr_layer_delta)

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def degree(self) -> int:
        return self.neighbors.shape[1]

    def neighbor_lists(self) -> list[list[int]]:
        return [sorted(set(row)) for row in self.neighbors.tolist()]

    def class_lists(self) -> list[list[int]]:
        return [m.tolist() for m in self.class_members]

    def class_size(self, c: int) -> int:
        return self.verts_by_class[c % self.q].shape[0]


@dataclass(frozen=True)
class _MoveTable:
    """The slab reference's own view of a torus, per vertex class c: the
    class vertices' torus coordinates, sorted, and their out-moves grouped
    by layer delta, as (delta, targets) with ``targets[i, j]`` the position,
    within the class of layer c + delta, of vertex i's j-th move of that
    delta."""

    verts: tuple[np.ndarray, ...]
    moves: tuple[tuple[tuple[int, np.ndarray], ...], ...]

    def site_coords(self, k: int) -> np.ndarray:
        """Hashing coordinates (t..., k) of the layer-k sites."""
        verts = self.verts[k % len(self.verts)]
        return np.concatenate([verts, np.full((len(verts), 1), k, dtype=np.int64)], axis=1)


@functools.lru_cache(maxsize=64)
def _move_table(family: GraphFamily, sizes: tuple[int, ...]) -> _MoveTable:
    """The move table of ``slab_layers``, derived site by site from the
    lattice alone.

    Each vertex of class c is lifted to its slab site on layer c, the
    family's move set is applied to that site, and every target is wrapped
    onto the torus and looked up in a coordinate -> position map built here
    from ``lattice.torus_vertices``.  A shift of q layers (phi, or the
    diagonal translation of zd) keeps transverse coordinates and moves, so
    the table of layer c holds on every layer k = c (mod q).  The seed
    never enters: the table is built once per (family, sizes).
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
        moves.append(tuple((dl, np.ascontiguousarray(target[:, delta[0] == dl]))
                           for dl in sorted(set(delta[0].tolist()))))
    verts = tuple(np.array(v, dtype=np.int64) for v in by_class)
    for a in (*verts, *(targets for by_delta in moves for _, targets in by_delta)):
        a.flags.writeable = False  # the cache shares them
    return _MoveTable(verts, tuple(moves))


def slab_layers(index: SlabIndex, depth: int, boundary: Boundary, p: float, seeds):
    """The layers of the slab of one depth under any boundary, top down:
    (k, u, values) for k = depth + m - 1, ..., 0, with ``u`` the (S, n)
    tag-0 uniforms that layer k was decided on (None on the boundary layers
    k >= depth; a site is closed where u < p) and ``values`` its (S, n)
    int8 symbols.

    The slab reference: its sites and moves come from ``_move_table``, never
    from the index's out-table; of the index it checks only the order of
    the class vertices.  A layer is held site-major as the pair bytes of
    its sites, which one ``np.take`` gathers whole, and only the m + 1
    layers that moves reach are held.
    """
    seeds = check_seeds(seeds)
    p, m = check_probability(p), index.family.m
    table = _move_table(index.family, index.sizes)
    if len(table.verts) != index.q or not all(
            np.array_equal(a, b) for a, b in zip(table.verts, index.verts_by_class)):
        raise AssertionError("the move table and the index order the class vertices differently")
    # per class: the target rows of its moves, a layer delta at a time
    moves = [[(d, targets.T.ravel()) for d, targets in by_delta] for by_delta in table.moves]
    layers = {}
    for k in range(depth + m - 1, -1, -1):
        coords, u = table.site_coords(k), None
        if k >= depth:
            pair = _boundary_layer(
                boundary, k, coords,
                lambda: np.array([sum(lattice.lift_site(index.family, t, k)) % 2
                                  for t in coords[:, :-1]], dtype=np.int8),
                lambda: boundary.values[k], seeds)
            layers[k] = np.ascontiguousarray(pair_bytes(*pair).T)
        else:
            u = hash_uniforms(seeds, coords, 0)
            zero = np.less(u.T, p, out=np.empty(u.shape[::-1], dtype=bool))
            targets = []
            for d, rows in moves[k % len(moves)]:  # each move's pairs, split off their pair bytes
                gathered = np.take(layers[k + d], rows, axis=0).reshape((-1,) + zero.shape)
                targets += zip((gathered >> 1).view(bool), (gathered & 1).view(bool))
            layers[k] = pair_bytes(*play(zero, np.empty_like(zero), targets))
            del layers[k + m]
        yield k, u, pair_symbols(layers[k]).T


def slab_sweep(index: SlabIndex, depth: int, boundary: Boundary, p: float, seeds):
    """Solve a slab of one depth under any boundary for a batch of seeds:
    layers 0..m-1 of ``slab_layers``, {layer: (S, n_class) int8}.  With a
    constant boundary, the per-depth reference of ``sliced_sweep``."""
    return {k: values.copy() for k, _, values in slab_layers(index, depth, boundary, p, seeds)
            if k < index.family.m}


# -- draw-scan: every depth and boundary in one bit-sliced sweep ---------------

DEPTHS_PER_SWEEP = 64 // 3  # 3 boundaries x 21 depths in the bits of a word

class _Lanes:
    """Where a sliced sweep of ``depths`` keeps each seed, depth and
    boundary in the bits of its words.

    A seed has B lanes per depth, lane B·i + b holding depth i under
    boundary b: B = 3, the boundaries ?, 0 and 1, on a family with moves
    that skip a layer; B = 1, the all-? boundary alone, on a graded family.
    ``slots`` = min(8, 64 // (B·len(depths))) seeds share a word, seed
    slot j in the bits of residue j mod ``slots``, lane l in bit
    l·slots + j; a block's seed w·slots + j has slot j of word w.  Every
    bit of a word belongs to a slot, and a closed seed sets all of its
    slot's bits.  The bits past the last lane are never fixed, so they
    hold the all-? slab of the deepest depth, and ``unpack`` drops them.

    A word takes its closed bits from one byte per slot (``pack``), so it
    has at most 8 slots.  ``unpack`` lays each seed of layer 0 out in the
    3i + b lanes of ``sliced_sweep``, and leaves the bits past them 0."""

    # (x * _GATHER) >> 56 moves bit 0 of byte j of x to bit j
    _GATHER = np.uint64(0x0102040810204080)

    def __init__(self, graded: bool, depths, layers: int):
        self.per_depth = 1 if graded else 3
        self.n_lanes = self.per_depth * len(depths)
        self.slots = min(8, 64 // self.n_lanes)
        self.slot_bytes = np.uint64((1 << 8 * self.slots) - 1)
        self.slot_zero = np.uint64(sum(1 << b for b in range(0, 64, self.slots)))

        def masks(ques):
            """The boundary zero and one bits of the depths whose ? lanes
            have the bits ``ques``, and the bits of every other lane."""
            if self.per_depth == 1:
                return np.uint64(0), np.uint64(0), ~np.uint64(ques)
            to_zero, to_one = ques << self.slots, ques << 2 * self.slots  # lanes 3i + 1, 3i + 2
            return np.uint64(to_zero), np.uint64(to_one), ~np.uint64(ques | to_zero | to_one)

        # per layer k < layers: the masks of the depths <= k, whose lanes
        # take their boundary values on layer k
        ques_at = [0] * layers  # the bits of the ? lanes of the depths K = k
        for i, K in enumerate(depths):
            ques_at[K] |= (1 << self.slots) - 1 << self.per_depth * i * self.slots
        cumulative = list(itertools.accumulate(ques_at, operator.or_))
        by_ques = {b: masks(b) for b in set(cumulative)}
        self.fixed = [by_ques[b] for b in cumulative]
        # in the 3i + b lanes: the ? lanes of every depth and of the odd depths
        self.ques = np.uint64(sum(1 << 3 * i for i in range(len(depths))))
        self.odd = np.uint64(sum(1 << 3 * i for i, K in enumerate(depths) if K % 2))

    def views(self, flags: np.ndarray, n: int, w: int, s: int):
        """The closed flags of a layer's ``n`` sites and ``s`` seeds, ``w``
        words a site, in a uint8 buffer of n·slots·w + 8 bytes or more
        that holds site i's flag of seed c in byte i·slots·w + c (0 past
        the last seed): the (n, s) bool view that ``below`` writes, and
        ``pack``'s view, per word the eight bytes from its first slot's,
        little-endian (the 8 bytes past the flags cover the last word's)."""
        closed = flags[:n * self.slots * w].view(bool).reshape(n, -1)[:, :s]
        words = np.ndarray((n * w,), dtype="<u8", buffer=flags, strides=(self.slots,))
        return closed, words

    def pack(self, flag_words: np.ndarray, z: np.ndarray) -> None:
        """The zero words ``z`` of a layer from ``pack``'s view of its
        flags (``views``): the bits of each closed seed's slot set."""
        z = z.reshape(-1)
        np.bitwise_and(flag_words, self.slot_bytes, out=z)  # the word's own slots
        z *= self._GATHER
        z >>= np.uint64(56)
        z *= self.slot_zero

    def unpack(self, z: np.ndarray, o: np.ndarray, zero: np.ndarray, one: np.ndarray,
               tmp: np.ndarray, tmp2: np.ndarray) -> None:
        """The rows ``zero`` and ``one``, (s, n), of a block's layer-0 words
        ``z`` and ``o``, (n, W); ``tmp`` and ``tmp2`` are scratch of the
        rows' shape."""
        stride = 3 // self.per_depth  # of the lanes in a row
        for j in range(min(self.slots, zero.shape[0])):
            # lane l moves from bit l·slots + j to bit l·stride: all lanes by
            # one shift where the two strides are equal
            moves = {}
            for l in range(self.n_lanes):
                shift = l * (self.slots - stride) + j
                moves[shift] = moves.get(shift, 0) | 1 << l * stride
            for words, rows in ((z, zero[j::self.slots]), (o, one[j::self.slots])):
                words, part = words[:, :rows.shape[0]].T, tmp[j::self.slots]
                rows.fill(0)
                for shift, bits in moves.items():
                    np.right_shift(words, np.uint64(shift), out=part)
                    part &= np.uint64(bits)
                    rows |= part
        if self.per_depth == 1:
            # a definite all-? lane 3i is also the all-0 and all-1 lanes
            # 3i + 1 and 3i + 2; where it is ?, the all-0 lane is 1 at an
            # odd depth and 0 at an even one, the all-1 lane the other way
            even = np.bitwise_and(np.invert(np.bitwise_or(zero, one, out=tmp), out=tmp),
                                  self.ques, out=tmp)
            odd = np.bitwise_and(even, self.odd, out=tmp2)
            even ^= odd
            zero *= np.uint64(7)
            one *= np.uint64(7)
            for to_zero, to_one in ((even, odd), (odd, even)):  # lanes 3i + 1, then 3i + 2
                even <<= np.uint64(1)
                odd <<= np.uint64(1)
                zero |= to_zero
                one |= to_one


def _sliced_chunk(index: SlabIndex, sites, lanes: _Lanes, threshold: int, top: int,
                  seeds: np.ndarray, zero: np.ndarray, one: np.ndarray) -> None:
    """The (zero, one) words of ``sliced_sweep`` for ``seeds``, into the
    rows ``zero`` and ``one``, in balanced blocks, from the class sites, the
    lane layout and the closed threshold; the sweep's hashed layers are
    0 .. top - 1."""
    m, q = index.family.m, index.q
    n_class = max(map(index.class_size, range(q)))
    blocks = np.array_split(seeds, -(-seeds.size // max(1, CHAIN_BLOCK // n_class)))
    # the first block is the largest: its hash arrays hold (n_class, s)
    # words, its layer arrays (n_class, W) words, W = ceil(s / slots)
    size, packed = n_class * blocks[0].size, n_class * -(-blocks[0].size // lanes.slots)
    ring = np.empty((m + 1, 2 * packed), dtype=np.uint64)  # layer k in row k mod (m + 1)
    gathered = np.empty(2 * packed, dtype=np.uint64)
    words, tmp = np.empty((2, size), dtype=np.uint64)
    flags = np.empty(lanes.slots * packed + 8, dtype=np.uint8)  # see _Lanes.views
    lo = 0
    for block in blocks:
        s, states = block.size, LayerSites.seed_states(block)
        w = -(-s // lanes.slots)
        flags.fill(0)
        views = [lanes.views(flags, n, w, s) for n in map(index.class_size, range(q))]

        def layer(k):  # (2, n_class, W): the zero and the one words, site-major
            return ring[k % (m + 1), :2 * index.class_size(k) * w].reshape(2, -1, w)

        for k in range(top + m - 1, -1, -1):
            z, o = layer(k)
            fz, fo, free = lanes.fixed[k]
            if k >= top:  # a boundary layer, every lane fixed or ?
                z.fill(fz)
                o.fill(fo)
                continue
            c, n = k % q, z.shape[0]
            h = sites[c].hash_words(states, k, 0, out=words[:n * s].reshape(n, s),
                                    tmp=tmp[:n * s].reshape(n, s))
            closed, flag_words = views[c]
            below(h, threshold, out=closed)
            lanes.pack(flag_words, z)
            # mode="clip": the default "raise" would buffer the output
            play(z, o, (np.take(layer(k + int(dl)), index.nbr_pos[c][:, j], axis=1,
                                mode="clip", out=gathered[:2 * n * w].reshape(2, n, w))
                        for j, dl in enumerate(index.nbr_layer_delta[c])))
            if ~free:  # the lanes of the depths <= k take their boundary values
                z &= free
                o &= free
                if fz | fo:
                    z |= fz
                    o |= fo
        n = z.shape[0]
        lanes.unpack(z, o, zero[lo:lo + s], one[lo:lo + s],
                     words[:n * s].reshape(s, n), tmp[:n * s].reshape(s, n))
        lo += s


def sliced_sweep(index: SlabIndex, p: float, seeds, depths):
    """Layer-0 values of the slabs of up to 21 depths under the all-?,
    all-0 and all-1 boundaries, from one sweep of the deepest slab: (zero,
    one), (S, n_class) uint64 each, whose bit 3i + b holds depth
    ``depths[i]`` under boundary b (?, 0, 1) as a bit pair, ? = (0, 0),
    0 = (1, 0), 1 = (0, 1), under the rule of ``play``; on layer k each
    bit whose depth is <= k takes its boundary value.  The bits past
    3·len(depths) are 0.

    On a graded family (``SlabIndex.graded``: every move advances one
    layer) only the all-? boundary is swept, one lane per depth, and on
    layer 0 the all-0 and all-1 lanes of depth K are derived from the
    all-? lane: both copy a definite value, and where it is ?, the all-0
    lane is 1 and the all-1 lane 0 for odd K, the other way round for
    even K.  That is exact.  Every path from a layer-0 site to the
    boundary layer K has length K, and an open site's rule is the NOR of
    its targets, so the site's two-valued value is a monotone function f
    of the boundary values for even K and an antimonotone one for odd K.
    The rule is De Morgan-closed, so on the all-? boundary it evaluates a
    monotone circuit at all-?, and that is exact: the site is ? iff
    f(all-0) != f(all-1), and a definite value is f of every boundary.  At
    K = 1 an open site with all-0 targets is 1, whence the parity.  On
    subset(d) and even_ext(d), whose moves may skip a layer, the three
    boundaries are swept, three lanes per depth.  A seed's lanes are its
    slot, and min(8, 64 // lanes) seeds share a word (3 at 21 depths on a
    graded family, 1 on the others), so the gathers, the rule and the
    boundary masks run on ceil(S / slots) words per site (``_Lanes``).

    The seeds run in contiguous chunks through ``parallel_seed_map``, one
    chunk per worker process (PERC_THREADS caps the workers), and each chunk
    writes its own rows of the words, in memory that the workers share, so
    no words are pickled or concatenated.  The sweep's work, against
    ``workers.SLICED_FORK_MIN_WORDS`` per worker, is its hashed words less
    ``workers.SLICED_CALL_WORDS`` per hashed layer, the fixed cost of the
    layer call that every worker makes.  Each chunk runs in balanced blocks
    (sizes differ by at most one) of at most ``CHAIN_BLOCK`` // n seeds, n
    the size of the largest class, so that a block's hash arrays hold at
    most ``CHAIN_BLOCK`` words each.  A block's seed states are mixed once,
    and each layer is hashed site-major, and its closed flags set every bit
    of their seeds' slots.  The bits depend on neither the chunking nor
    the blocking.

    Its ring of layers has ``family.m`` + 1 rows (layer k in row k mod
    (m + 1)); the vertex classes, layer k on class k mod q, come from
    ``SlabIndex.q``.  The two differ only on zd(d >= 3): m = 2, q = d.
    """
    seeds = check_seeds(seeds)
    if not 0 < len(depths) <= DEPTHS_PER_SWEEP or min(depths) < 0:
        raise ValueError(f"a sliced sweep takes 1 to {DEPTHS_PER_SWEEP} depths >= 0, got {depths}")
    m, q, top = index.family.m, index.q, max(depths)
    threshold = closed_threshold(p)
    # the sites of the hashed layers 0 .. top - 1, by class
    sites = [LayerSites(index.verts_by_class[c], range(c, top, q)) for c in range(q)]
    lanes = _Lanes(index.graded, depths, top + m)
    work = seeds.size * sum(index.class_size(k % q) for k in range(top)) - SLICED_CALL_WORDS * top
    # the words live in memory that forked workers share: each chunk writes
    # its own rows, so no words cross a pipe
    words = np.frombuffer(mmap.mmap(-1, 16 * seeds.size * index.class_size(0)), np.uint64)
    zero, one = words.reshape(2, seeds.size, -1)

    def chunk_fn(rows):  # a contiguous run of seed indices
        lo, hi = rows[0], rows[-1] + 1
        _sliced_chunk(index, sites, lanes, threshold, top, seeds[lo:hi], zero[lo:hi], one[lo:hi])

    parallel_seed_map(chunk_fn, np.arange(seeds.size), work, SLICED_FORK_MIN_WORDS)
    return zero, one


def profile_depths(m: int, k_max: int) -> list[int]:
    """The default depths of a draw-density profile: from m to k_max in
    about 20 steps, k_max included."""
    return sorted(set(range(m, k_max + 1, max(1, k_max // 20))) | {k_max})


@dataclass
class SensitivityResult:
    disagree: np.ndarray  # per-seed bool at the origin

    @property
    def fraction(self) -> float:
        return float(self.disagree.mean())

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.fraction * (1 - self.fraction) / self.disagree.size))


def draw_scan(index: SlabIndex, p: float, seeds, depths):
    """Per depth, a draw-density profile row (depth, q_fraction, stderr,
    n_seeds), q_fraction being the seed mean of the layer-0 ?-fraction under
    the all-? boundary, and a ``SensitivityResult`` (do the all-0 and all-1
    boundaries disagree at the origin), from one sliced sweep per 21 depths,
    each forked over the seeds once it has enough work (``sliced_sweep``).

    On subset(3), whose doubling torus (the triangular lattice) has three
    classes, the sensitivity dips at every depth K = 2 (mod 3), where both
    constant boundaries mostly give the origin 0: with 64 seeds at p = 0.05
    on 12^2 or 24^2, depths 48..53 read 0.922, 0.922, 0, 0.922, 0.922, 0,
    and q_fraction stays at 0.95.  The dip is not exact: on 24^2 it reads
    0.016 and 0.031 at p = 0.1, 0.078 and 0.094 at p = 0.2.
    """
    seeds = check_seeds(seeds)
    rows, results, n_seeds = [], [], seeds.size
    for lo in range(0, len(depths), DEPTHS_PER_SWEEP):
        chunk = depths[lo:lo + DEPTHS_PER_SWEEP]
        zero, one = sliced_sweep(index, p, seeds, chunk)
        origin = one[:, index.origin_pos].copy()
        # the ?-bits, then each depth's ?-bit, overwrite the words in place
        ques = np.invert(np.bitwise_or(zero, one, out=zero), out=zero)
        for i, K in enumerate(chunk):
            bit = np.bitwise_and(ques, np.uint64(1 << 3 * i), out=one)
            frac = np.count_nonzero(bit, axis=1) / ques.shape[1]
            rows.append((int(K), float(frac.mean()), float(frac.std(ddof=1) / np.sqrt(n_seeds))
                         if n_seeds > 1 else 0.0, n_seeds))
            differ = origin >> np.uint64(3 * i + 1) ^ origin >> np.uint64(3 * i + 2)
            results.append(SensitivityResult((differ & np.uint64(1)).astype(bool)))
    return rows, results


def draw_density_profile(index: SlabIndex, p: float, seeds, k_max: int):
    """The profile rows of ``draw_scan`` at ``profile_depths(m, k_max)``.
    For each seed, the layer-0 ?-set shrinks as the depth grows, so
    q_fraction does not increase along the rows."""
    return draw_scan(index, p, seeds, profile_depths(index.family.m, k_max))[0]


def boundary_sensitivity(index: SlabIndex, p: float, seeds, depth: int) -> SensitivityResult:
    """The sensitivity result of ``draw_scan`` at one depth, on any family:
    the slab needs no layer automorphism, so zd(d) runs too."""
    return draw_scan(index, p, seeds, [depth])[1][0]


# -- rendering -----------------------------------------------------------------

COLOR_CLOSED = (0, 0, 0)
COLOR_WIN = (0, 0, 255)
COLOR_LOSS = (0, 160, 0)
COLOR_DRAW = (220, 0, 0)
COLOR_OUTSIDE = (255, 255, 255)


def outcome_image(outcome: TriangleOutcome) -> np.ndarray:
    """RGB image of a triangle outcome; row 0 is x2 = n, column x1."""
    n = outcome.n
    img = np.empty((n + 1, n + 1, 3), dtype=np.uint8)
    img[:] = COLOR_OUTSIDE
    vals = outcome.values[:, ::-1].T  # (row = n - x2, col = x1)
    closed = outcome.closed[:, ::-1].T
    img[vals == ZERO] = COLOR_WIN
    img[vals == ONE] = COLOR_LOSS
    img[vals == QUES] = COLOR_DRAW
    img[closed] = COLOR_CLOSED
    return img


def write_ppm(path, img: np.ndarray):
    """Binary P6 PPM."""
    img = np.asarray(img, dtype=np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def render_outcomes(outcome: TriangleOutcome, path) -> None:
    """First player win = blue, loss = green, draw = red, closed = black,
    outside the region = white."""
    write_ppm(path, outcome_image(outcome))
