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

A site's closed bit depends on neither the depth of a sweep nor its
boundary, so each is hashed once per run: ``draw_scan`` reads every depth
and boundary of a draw-scan off one ``sliced_sweep`` (the bits of two
uint64 words per site), and ``triangle_sweep`` applies the threshold of
every p of its sequence to the same hash words.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import (below, check_p, closed_threshold, hash_below, hash_uniforms,
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


def triangle_sweep(n: int, boundary: Boundary, p, seeds, keep_all: bool = False):
    """Solve the triangular region for a batch of seeds and a non-empty 1-d
    sequence of probabilities ``p``.  Every diagonal is hashed once, and
    each p's closed bits are read off the same hash words.

    Returns (origin values (P, S), rows).  If keep_all, rows[k] is the pair
    (values, closed) of diagonal k: its (P, S, k+1) values and, for k < n,
    its (P, S, k+1) closed bits (None on the boundary diagonal k = n, which
    the sweep does not hash).  Otherwise rows is None.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    ps = np.asarray(p, dtype=np.float64)
    if ps.ndim != 1 or ps.size == 0:
        raise ValueError(f"p must be a non-empty 1-d sequence, got shape {ps.shape}")
    thresholds = [closed_threshold(float(q)) for q in ps]
    three = isinstance(boundary, AllQuestion)
    top = _boundary_layer(boundary, n, _diag_coords(n),
                          lambda: np.full(n + 1, n % 2), lambda: boundary.values,
                          seeds)
    vals = [top] * len(thresholds)
    rows = {n: (np.stack(vals), None)} if keep_all else None
    # diagonal k < n has k + 1 <= n sites: one flat buffer each for the
    # hash words, their scratch and the closed bits, viewed as (S, k+1)
    words = np.empty(seeds.size * n, dtype=np.uint64)
    tmp = np.empty_like(words)
    closed = np.empty(words.size, dtype=bool)
    for k in range(n - 1, -1, -1):
        shape, size = (seeds.size, k + 1), seeds.size * (k + 1)
        h = hash_words(seeds, _diag_coords(k), 0, out=words[:size].reshape(shape),
                       tmp=tmp[:size].reshape(shape))
        kept = []
        for i, threshold in enumerate(thresholds):
            c = below(h, threshold, out=closed[:size].reshape(shape))
            vals[i] = recurse(c, (vals[i][:, :-1], vals[i][:, 1:]), three)
            if keep_all:
                kept.append(c.copy())
        if keep_all:
            rows[k] = (np.stack(vals), np.stack(kept))
    return np.stack([v[:, 0] for v in vals]), rows


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
    each site closed with probability p (its tag-0 uniform below p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _, rows = triangle_sweep(n, boundary, [p], [seed], keep_all=True)
    values = np.full((n + 1, n + 1), -1, dtype=np.int8)
    closed = np.zeros((n + 1, n + 1), dtype=bool)
    for k, (vals, bits) in rows.items():
        coords = _diag_coords(k)
        values[coords[:, 0], coords[:, 1]] = vals[0, 0]
        # closedness is a property of the site; on the boundary diagonal
        # it does not enter the recursion (values there are imposed) but
        # does drive rendering and counts
        closed[coords[:, 0], coords[:, 1]] = (hash_below(seed, coords, 0, p) if bits is None
                                              else bits[0, 0])
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


def slab_sweep(index: SlabIndex, depth: int, boundary: Boundary, p: float,
               seeds, record_layers=None):
    """Solve a slab of one depth under any boundary for a batch of seeds;
    with a constant boundary, the per-depth reference of ``sliced_sweep``.

    Returns {layer: (S, n_class) int8}; always contains layers 0..m-1, plus
    any layers listed in record_layers.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    p, m = check_p(p), index.family.m
    three = isinstance(boundary, AllQuestion)
    layers = _slab_boundary(index, boundary, depth, m, seeds)
    keep = set(range(m)) | set(record_layers or ())
    out = {k: v for k, v in layers.items() if k in keep}
    for k in range(depth - 1, -1, -1):
        c = k % index.q
        u = hash_uniforms(seeds, index.layer_site_coords(k), 0)
        nbrs = [np.take(layers[k + int(dl)], pos, axis=1)
                for dl, pos in zip(index.nbr_layer_delta[c], index.nbr_pos[c].T)]
        layers[k] = recurse(u < p, nbrs, three)
        if k in keep:
            out[k] = layers[k]
        layers.pop(k + m, None)
    return out


# -- draw-scan: every depth and boundary in one bit-sliced sweep ---------------

DEPTHS_PER_SWEEP = 64 // 3  # 3 boundaries x 21 depths in the bits of a word
SEED_BLOCK = 32  # seeds swept at once; bounds the layer, gather and hash buffers


def sliced_sweep(index: SlabIndex, p: float, seeds, depths):
    """Layer-0 values of the slabs of up to 21 depths under the all-?,
    all-0 and all-1 boundaries, from one sweep of the deepest slab: (zero,
    one), (S, n_class) uint64 each, whose bit 3i + b holds depth
    ``depths[i]`` under boundary b (?, 0, 1) as a bit pair, ? = (0, 0),
    0 = (1, 0), 1 = (0, 1).  One rule serves both recursions (a two-valued
    pair has zero = ~one), and on layer k each bit whose depth is <= k
    takes its boundary value:

        zero = closed | OR(one[target]),   one = ~closed & AND(zero[target])
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    if not 0 < len(depths) <= DEPTHS_PER_SWEEP or min(depths) < 0:
        raise ValueError(f"a sliced sweep takes 1 to {DEPTHS_PER_SWEEP} depths >= 0, got {depths}")
    m, q, top, threshold = index.family.m, index.q, max(depths), closed_threshold(p)
    # per layer k: the boundary zero and one bits of the depths <= k, and all their bits
    fixed = [[np.uint64(sum(w << 3 * i for i, K in enumerate(depths) if K <= k))
              for w in (2, 4, 7)] for k in range(top + m)]
    size = max(map(index.class_size, range(q))) * min(SEED_BLOCK, seeds.size)
    ring = np.empty((m + 1, 2 * size), dtype=np.uint64)  # layer k in row k mod (m + 1)
    gathered, words, tmp = (np.empty(n, dtype=np.uint64) for n in (2 * size, size, size))
    closed = np.empty(size, dtype=bool)
    zero, one = np.empty((2, seeds.size, index.class_size(0)), dtype=np.uint64)
    for lo in range(0, seeds.size, SEED_BLOCK):
        block = seeds[lo:lo + SEED_BLOCK]
        s = block.size

        def layer(k):  # (2, n_class, s): the zero and the one words, site-major
            return ring[k % (m + 1), :2 * index.class_size(k) * s].reshape(2, -1, s)

        for k in range(top + m - 1, -1, -1):
            z, o = layer(k)
            c, n = k % q, z.shape[0]
            if k < top:
                h = hash_words(block, index.layer_site_coords(k), 0,
                               out=words[:n * s].reshape(s, n), tmp=tmp[:n * s].reshape(s, n))
                np.copyto(z, below(h, threshold, out=closed[:n * s].reshape(s, n)).T)
                np.negative(z, out=z)  # a closed site's words are all ones
                np.invert(z, out=o)
                for j, dl in enumerate(index.nbr_layer_delta[c]):
                    # mode="clip": the default "raise" would buffer the output
                    gz, go = np.take(layer(k + int(dl)), index.nbr_pos[c][:, j], axis=1,
                                     mode="clip", out=gathered[:2 * n * s].reshape(2, n, s))
                    z |= go
                    o &= gz
            fz, fo, f = fixed[k]
            if f:
                np.bitwise_or(z & ~f, fz, out=z)
                np.bitwise_or(o & ~f, fo, out=o)
        zero[lo:lo + s], one[lo:lo + s] = z.T, o.T
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
    boundaries disagree at the origin), from one sliced sweep per 21 depths.
    """
    rows, results, n_seeds = [], [], int(np.size(seeds))
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
    """The sensitivity result of ``draw_scan`` at one depth, on a family
    with a layer automorphism."""
    if not index.family.has_phi:
        raise ValueError(f"{index.family.name} does not satisfy the layer-automorphism assumption")
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
