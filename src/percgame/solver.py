"""Backward induction for percolation-game outcomes on finite regions.

Two region shapes:

* the z2 triangle {x in Z_+^2 : x1 + x2 <= n}, with the boundary condition
  on the diagonal x1 + x2 = n (``triangle_sweep``, ``solve_triangle``);
* the slab of layers S_0 .. S_{depth+m-1} of any supported family, with the
  transverse directions wrapped into the torus of a ``SlabIndex`` and the
  boundary condition on the top m layers (``slab_sweep``).

With the ``AllQuestion`` boundary the three-valued recursion is used
(closed -> 0; else 1 if all out-values are 0, 0 if some out-value is 1,
? otherwise); every other boundary is {0,1}-valued and the two-valued
recursion applies.  Sites are processed in decreasing layer order, so a
layer depends only on layers above it.

Randomness/tag conventions: the open/closed bit of a slab site with
(wrapped) transverse coordinates t on layer k is the tag-0 uniform of the
coordinate tuple t + (k,); triangle sites use their plane coordinates
(x1, x2).  Sampled boundary values use tag 1 on the same coordinates.

Closed bits are computed once per run.  A site's tag-0 uniform is a pure
function of (seed, site): it does not depend on the depth of a sweep, on
its boundary or on p.  So every slab sweep of a run at one p (each depth of
``draw_density_profile``, both boundaries of ``boundary_sensitivity``)
reads its closed bits from one ``ClosedLayers`` cache, which hashes each
layer once and fixes the index, p and seeds of the experiments that take
it; and ``triangle_sweep`` over a sequence of p hashes each
diagonal once and applies every p's threshold to the same hash words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (SiteField, below, closed_threshold, hash_below, hash_uniforms,
                        hash_words)
from .symbols import ONE, QUES, ZERO

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


# -- the recursion rule and boundary values ----------------------------------


def recurse(closed: np.ndarray, nbrs, three: bool) -> np.ndarray:
    """The game rule on a batch of sites, as an int8 array.

    ``nbrs`` is a sequence of out-neighbor value arrays, one per move, each
    shaped like ``closed``.  A closed site is 0.  An open site is 1 if every
    out-value is 0; otherwise it is 0 if some out-value is 1, and ? if none
    is.  The two-valued recursion (``three`` False) has no ?: an open site
    that is not 1 is 0.
    """
    first, *rest = nbrs
    all_win = first == ZERO
    for v in rest:
        all_win &= v == ZERO
    if not three:
        all_win &= ~closed
        return all_win.view(np.int8)
    lost = first == ONE
    for v in rest:
        lost |= v == ONE
    lost |= closed
    # with ZERO, ONE, QUES = 0, 1, 2: (1 + not all_win) * not lost, on the
    # masks viewed as 0/1 int8 (a nested np.where with scalar branches made
    # the three-valued rule about 8x slower)
    np.invert(all_win, out=all_win)
    vals = np.add(all_win.view(np.int8), np.int8(ONE))
    np.invert(lost, out=lost)
    vals *= lost.view(np.int8)
    return vals


_CONSTANT = {AllQuestion: QUES, AllZero: ZERO, AllOne: ONE}


def _boundary_layer(boundary: Boundary, layer: int, coords: np.ndarray, parity,
                    explicit, seeds: np.ndarray):
    """(S, n) values of one boundary layer whose n sites have the hashing
    coordinates ``coords``; ``parity()`` and ``explicit()`` return their
    checkerboard and explicit (n,) values."""
    shape = (seeds.size, coords.shape[0])
    if type(boundary) in _CONSTANT:
        return np.full(shape, _CONSTANT[type(boundary)], dtype=np.int8)
    if isinstance(boundary, Sampled):
        return hash_below(seeds, coords, 1, boundary.q).view(np.int8)
    if isinstance(boundary, Checkerboard):
        vals = parity()
    elif isinstance(boundary, Explicit):
        try:
            vals = explicit()
        except (KeyError, TypeError):
            raise BoundaryShapeError(f"explicit boundary missing layer {layer}") from None
    else:
        raise BoundaryShapeError(f"unsupported boundary {boundary!r}")
    vals = np.asarray(vals, dtype=np.int8)
    if vals.shape != shape[1:]:
        raise BoundaryShapeError(
            f"layer {layer} boundary needs shape {shape[1:]}, got {vals.shape}")
    if not np.isin(vals, (ZERO, ONE)).all():
        raise BoundaryShapeError("boundary values must be 0/1")
    return np.broadcast_to(vals, shape).copy()


# -- triangle solver ---------------------------------------------------------


def _diag_coords(k: int) -> np.ndarray:
    j = np.arange(k + 1, dtype=np.int64)
    return np.stack([k - j, j], axis=1)  # (x1, x2) with x1 + x2 = k


def triangle_sweep(n: int, boundary: Boundary, p, seeds,
                   keep_all: bool = False, closed_out: Optional[dict] = None):
    """Solve the triangular region for a batch of seeds.

    Returns (origin values (S,), rows) where rows[k] is the (S, k+1) value
    array of diagonal k if keep_all, else None.  ``p`` may also be a 1-d
    sequence of probabilities: every diagonal is then hashed once and each
    p's closed bits are read off the same hash words, and the origin values
    are (P, S) and rows[k] is (P, S, k+1).  With keep_all, a dict passed as
    ``closed_out`` receives the closed bits of each diagonal k = 0..n, shaped
    as rows[k] (diagonal n is hashed for them; its values are imposed).
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    ps = np.asarray(p, dtype=np.float64)
    if ps.ndim > 1 or ps.size == 0:
        raise ValueError(f"p must be a probability or a non-empty 1-d sequence, "
                         f"got shape {ps.shape}")
    thresholds = [closed_threshold(float(q)) for q in ps.reshape(-1)]
    three = isinstance(boundary, AllQuestion)
    top = _boundary_layer(boundary, n, _diag_coords(n),
                          lambda: np.full(n + 1, n % 2), lambda: boundary.values,
                          seeds)
    vals = [top] * len(thresholds)

    def stacked(arrays):
        return arrays[0] if ps.ndim == 0 else np.stack(arrays)

    rows = {n: stacked(vals)} if keep_all else None
    if keep_all and closed_out is not None:
        h = hash_words(seeds, _diag_coords(n), 0)
        closed_out[n] = stacked([below(h, t) for t in thresholds])
    # diagonal k < n has k + 1 <= n sites: one flat buffer each for the
    # hash words, their scratch and the closed bits, viewed as (S, k+1)
    words = np.empty(seeds.size * n, dtype=np.uint64)
    tmp = np.empty_like(words)
    closed = np.empty(words.size, dtype=bool)
    for k in range(n - 1, -1, -1):
        shape, size = (seeds.size, k + 1), seeds.size * (k + 1)
        h = hash_words(seeds, _diag_coords(k), 0, out=words[:size].reshape(shape),
                       tmp=tmp[:size].reshape(shape))
        for i, threshold in enumerate(thresholds):
            c = below(h, threshold, out=closed[:size].reshape(shape))
            vals[i] = recurse(c, (vals[i][:, :-1], vals[i][:, 1:]), three)
        if keep_all:
            rows[k] = stacked(vals)
            if closed_out is not None:
                closed_out[k] = stacked([below(h, t) for t in thresholds])
    return stacked([v[:, 0] for v in vals]), rows


@dataclass
class TriangleOutcome:
    n: int
    values: np.ndarray  # (n+1, n+1) int8, -1 outside the region
    closed: np.ndarray  # (n+1, n+1) bool; False on the boundary diagonal

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


def solve_triangle(n: int, boundary: Boundary, field: SiteField) -> TriangleOutcome:
    """Game outcomes on the z2 triangle of side n under the given boundary."""
    closed_rows = {}
    _, rows = triangle_sweep(n, boundary, field.p, [field.seed], keep_all=True,
                             closed_out=closed_rows)
    values = np.full((n + 1, n + 1), -1, dtype=np.int8)
    closed = np.zeros((n + 1, n + 1), dtype=bool)
    for k, arr in rows.items():
        coords = _diag_coords(k)
        values[coords[:, 0], coords[:, 1]] = arr[0]
        # closedness is a property of the site; on the boundary diagonal
        # it does not enter the recursion (values there are imposed) but
        # does drive rendering and counts
        closed[coords[:, 0], coords[:, 1]] = closed_rows[k][0]
    return TriangleOutcome(n, values, closed)


# -- slab solver --------------------------------------------------------------


class SlabIndex:
    """The doubling torus of a family, indexed for the slab solver and the
    Glauber chains.

    Vertices are listed class by class, sorted within a class: vertex i has
    torus coordinates ``coords[i]`` and class ``classes[i]``; class c holds
    the vertices ``class_members[c]``, whose coordinates are
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
        self._start = np.concatenate([[0], np.cumsum(counts)])
        self.class_members = [np.arange(a, b) for a, b in zip(self._start, self._start[1:])]
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
            rows.append(pos[:, edge] + self._start[(c + dl[edge]) % self.q])
        return np.concatenate(rows)

    @property
    def m(self) -> int:
        return self.q

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

    def layer_site_coords(self, k: int) -> np.ndarray:
        """Hashing coordinates (t..., k) of the layer-k sites."""
        verts = self.verts_by_class[k % self.q]
        return np.concatenate(
            [verts, np.full((verts.shape[0], 1), k, dtype=np.int64)], axis=1)

    def checkerboard_values(self, k: int) -> np.ndarray:
        fam = self.family
        vals = np.empty(self.class_size(k % self.q), dtype=np.int8)
        for i, t in enumerate(self.verts_by_class[k % self.q]):
            site = lattice.lift_site(fam, tuple(int(c) for c in t), k)
            vals[i] = sum(site) % 2
        return vals


def _slab_boundary(index: SlabIndex, boundary: Boundary, k_top: int,
                   m: int, seeds: np.ndarray):
    """Boundary values on layers k_top .. k_top+m-1, each (S, n_class)."""
    return {layer: _boundary_layer(
                boundary, layer, index.layer_site_coords(layer),
                lambda: index.checkerboard_values(layer),
                lambda: boundary.values[layer], seeds)
            for layer in range(k_top, k_top + m)}


class ClosedLayers:
    """The closed bits of the slab sites of one index, p and seed vector.

    A site's closed bit is its tag-0 uniform below p, which depends on
    neither the depth of a sweep nor its boundary, so every sweep of a run
    at this p reads its layers from one instance.  ``closed[k]`` is the
    (S, n_class) bool mask of layer k.  Layer k is hashed on its first
    read, with one ``hash_uniforms`` call into a reused uniforms buffer of
    its class, and kept bit-packed: the layers 0 .. depth-1 take
    depth * S * n_class / 8 bytes.
    """

    def __init__(self, index: SlabIndex, p: float, seeds):
        self.index = index
        self.p = float(p)
        self.seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        self._packed: dict[int, np.ndarray] = {}
        # one uniforms buffer per class, reused by every layer of the class,
        # so that the allocator does not hand its pages back and fault them
        # in again at each layer (whether it does depends on the heap layout)
        self._uniforms: list[Optional[np.ndarray]] = [None] * index.q

    def __getitem__(self, k: int) -> np.ndarray:
        c = k % self.index.q
        shape = (self.seeds.size, self.index.class_size(c))
        if k not in self._packed:
            if self._uniforms[c] is None:
                self._uniforms[c] = np.empty(shape)
            u = hash_uniforms(self.seeds, self.index.layer_site_coords(k), 0,
                              out=self._uniforms[c])
            self._packed[k] = np.packbits((u < self.p).T)
        # packed site-major: the mask is the transpose of a C-ordered
        # (n_class, S) array, the layout slab_sweep works in
        bits = np.unpackbits(self._packed[k], count=shape[0] * shape[1])
        return bits.view(bool).reshape(shape[::-1]).T

    def check(self, index: SlabIndex, p: float, seeds: np.ndarray) -> None:
        """Raise ValueError unless this cache was built for exactly this
        index, p and seed vector."""
        if index is not self.index:
            raise ValueError("closed layers were built for another SlabIndex")
        if float(p) != self.p:
            raise ValueError(f"closed layers were built for p={self.p}, not p={p}")
        if not np.array_equal(seeds, self.seeds):
            raise ValueError("closed layers were built for another seed vector")


def slab_sweep(index: SlabIndex, depth: int, boundary: Boundary, p: float,
               seeds, record_layers=None, closed: Optional[ClosedLayers] = None):
    """Solve a slab for a batch of seeds.

    Returns {layer: (S, n_class) int8}; always contains layers 0..m-1, plus
    any layers listed in record_layers.  ``closed`` shares the closed bits
    with other sweeps of the same index, p and seeds.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if closed is None:
        closed = ClosedLayers(index, p, seeds)
    else:
        closed.check(index, p, seeds)
    m = index.family.m
    three = isinstance(boundary, AllQuestion)
    top = _slab_boundary(index, boundary, depth, m, seeds)
    keep = set(range(m)) | set(record_layers or ())
    out = {k: v for k, v in top.items() if k in keep}
    # the sweep runs site-major, on (n_class, S) arrays: gathering a move's
    # targets copies whole rows, and every array the rule combines, the
    # closed bits included, has the same layout
    layers = {k: np.ascontiguousarray(v.T) for k, v in top.items()}
    for k in range(depth - 1, -1, -1):
        c = k % index.q
        pos = index.nbr_pos[c]
        nbrs = [np.take(layers[k + int(dl)], pos[:, j], axis=0)
                for j, dl in enumerate(index.nbr_layer_delta[c])]
        vals = recurse(closed[k].T, nbrs, three)
        layers[k] = vals
        if k in keep:
            out[k] = np.ascontiguousarray(vals.T)
        layers.pop(k + m, None)
    return out


# -- derived experiments -------------------------------------------------------


def draw_density_profile(closed: ClosedLayers, k_max: int, depths=None):
    """Mean ?-fraction on layer 0 under the all-? boundary, per depth, on
    the index, p and seeds of ``closed``, whose closed bits every depth reads.

    Returns rows (depth, q_fraction, stderr, n_seeds).  For a fixed seed the
    layer-0 ?-set shrinks pointwise as the depth grows, so q_fraction is
    non-increasing along the rows for each individual seed.
    """
    index, p, seeds = closed.index, closed.p, closed.seeds
    if depths is None:
        step = max(1, k_max // 20)
        depths = sorted(set(list(range(index.family.m, k_max + 1, step)) + [k_max]))
    rows = []
    for K in depths:
        layers = slab_sweep(index, K, AllQuestion(), p, seeds, closed=closed)
        frac = (layers[0] == QUES).mean(axis=1)  # per seed
        rows.append((K, float(frac.mean()),
                     float(frac.std(ddof=1) / np.sqrt(seeds.size)) if seeds.size > 1 else 0.0,
                     int(seeds.size)))
    return rows


@dataclass
class SensitivityResult:
    disagree: np.ndarray  # per-seed bool at the origin

    @property
    def fraction(self) -> float:
        return float(self.disagree.mean())

    @property
    def stderr(self) -> float:
        q = self.fraction
        return float(np.sqrt(q * (1 - q) / self.disagree.size))


def boundary_sensitivity(closed: ClosedLayers, depth: int) -> SensitivityResult:
    """Fraction of seeds where the all-0 and all-1 boundary solutions
    disagree at the origin, on the index, p and seeds of ``closed``
    (two-valued recursion, shared randomness: both sweeps read its bits)."""
    index, p, seeds = closed.index, closed.p, closed.seeds
    family = index.family
    if not (family.has_A2 or family.has_A2_prime):
        raise ValueError(f"{family.name} does not satisfy the layer-automorphism assumption")
    zero = slab_sweep(index, depth, AllZero(), p, seeds, closed=closed)[0][:, index.origin_pos]
    one = slab_sweep(index, depth, AllOne(), p, seeds, closed=closed)[0][:, index.origin_pos]
    return SensitivityResult(zero != one)


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
