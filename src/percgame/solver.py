"""Backward induction for percolation-game outcomes on finite regions.

Two region shapes:

* ``Triangle2D(n)``: the planar region {x in Z_+^2 : x1 + x2 <= n}, with the
  boundary condition living on the diagonal x1 + x2 = n (z2 only);
* ``Slab(depth, sizes)``: layers S_0 .. S_{depth+m-1} of any supported
  family, with the transverse directions wrapped into a torus of the given
  sizes and the boundary condition on the top m layers.

With the ``AllQuestion`` boundary the three-valued recursion is used
(closed -> 0; else 1 if all out-values are 0, 0 if some out-value is 1,
? otherwise); every other boundary is {0,1}-valued and the two-valued
recursion applies.  Sites are processed in decreasing layer order, so a
layer depends only on layers above it.

Randomness/tag conventions: the open/closed bit of a slab site with
(wrapped) transverse coordinates t on layer k is the tag-0 uniform of the
coordinate tuple t + (k,); triangle sites use their plane coordinates
(x1, x2).  Sampled boundary values use tag 1 on the same coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import lattice
from .lattice import GraphFamily
from .sitefield import SiteField, hash_below, hash_uniforms
from .symbols import ONE, QUES, ZERO

# -- region and boundary specifications -------------------------------------


@dataclass(frozen=True)
class Triangle2D:
    n: int


@dataclass(frozen=True)
class Slab:
    depth: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))


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
    the field's tag-1 uniforms, or a custom draw(field, layer, coords)."""

    q: float = 0.5
    draw: Optional[Callable] = None


@dataclass(frozen=True)
class Explicit:
    """Explicit {0,1} boundary values: an (n+1,) array for Triangle2D
    (indexed by x2), or {layer: per-vertex array} for Slab."""

    values: object


Boundary = Union[AllQuestion, AllZero, AllOne, Checkerboard, Sampled, Explicit]


@dataclass(frozen=True)
class RegionSpec:
    shape: Union[Triangle2D, Slab]
    boundary: Boundary


class BoundaryShapeError(ValueError):
    pass


def _is_three_valued(boundary: Boundary) -> bool:
    return isinstance(boundary, AllQuestion)


# -- triangle solver ---------------------------------------------------------


def _diag_coords(k: int) -> np.ndarray:
    j = np.arange(k + 1, dtype=np.int64)
    return np.stack([k - j, j], axis=1)  # (x1, x2) with x1 + x2 = k


def _triangle_boundary(boundary: Boundary, n: int, seeds: np.ndarray) -> np.ndarray:
    S = seeds.size
    if isinstance(boundary, AllQuestion):
        return np.full((S, n + 1), QUES, dtype=np.int8)
    if isinstance(boundary, AllZero):
        return np.zeros((S, n + 1), dtype=np.int8)
    if isinstance(boundary, AllOne):
        return np.ones((S, n + 1), dtype=np.int8)
    if isinstance(boundary, Checkerboard):
        return np.full((S, n + 1), n % 2, dtype=np.int8)
    if isinstance(boundary, Sampled):
        if boundary.draw is not None:
            raise BoundaryShapeError("custom Sampled.draw is only supported via solve_region")
        u = hash_uniforms(seeds, _diag_coords(n), 1)
        return (u < boundary.q).astype(np.int8)
    if isinstance(boundary, Explicit):
        vals = np.asarray(boundary.values, dtype=np.int8)
        if vals.shape != (n + 1,):
            raise BoundaryShapeError(f"triangle boundary needs shape ({n + 1},)")
        if not np.isin(vals, (ZERO, ONE)).all():
            raise BoundaryShapeError("explicit boundary values must be 0/1")
        return np.broadcast_to(vals, (S, n + 1)).copy()
    raise BoundaryShapeError(f"unsupported boundary {boundary!r}")


def _rule_binary(closed: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    win_forced = (left == ZERO) & (right == ZERO)
    return np.where(closed, ZERO, win_forced.astype(np.int8))


def _rule_ternary(closed: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    any_loss = (left == ONE) | (right == ONE)
    all_win = (left == ZERO) & (right == ZERO)
    inner = np.where(all_win, np.int8(ONE), np.int8(QUES))
    return np.where(closed | any_loss, np.int8(ZERO), inner)


def triangle_sweep(n: int, boundary: Boundary, p: float, seeds,
                   keep_all: bool = False):
    """Solve the triangular region for a batch of seeds.

    Returns (origin values (S,), rows) where rows[k] is the (S, k+1) value
    array of diagonal k if keep_all, else None.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    three = _is_three_valued(boundary)
    rule = _rule_ternary if three else _rule_binary
    vals = _triangle_boundary(boundary, n, seeds)
    rows = {n: vals} if keep_all else None
    for k in range(n - 1, -1, -1):
        closed = hash_below(seeds, _diag_coords(k), 0, p)
        vals = rule(closed, vals[:, :-1], vals[:, 1:])
        if keep_all:
            rows[k] = vals
    return vals[:, 0], rows


@dataclass
class TriangleOutcome:
    family: GraphFamily
    n: int
    p: float
    seed: int
    boundary: Boundary
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

    def origin_value(self) -> int:
        return int(self.values[0, 0])


@dataclass
class SlabOutcome:
    family: GraphFamily
    sizes: tuple[int, ...]
    depth: int
    p: float
    seed: int
    boundary: Boundary
    index: "SlabIndex"
    layers: dict  # layer -> (n_class,) int8 values

    def layer_values(self, k: int) -> np.ndarray:
        return self.layers[k]

    def origin_value(self) -> int:
        pos = self.index.origin_pos
        return int(self.layers[0][pos])

    def draw_fraction(self, k: int = 0) -> float:
        return float((self.layers[k] == QUES).mean())


def solve_region(family: GraphFamily, region: RegionSpec, field: SiteField):
    """Game outcomes on a finite region under the given boundary condition."""
    shape = region.shape
    if isinstance(shape, Triangle2D):
        if family.d != 2:
            raise ValueError("Triangle2D regions require a two-dimensional family")
        n = shape.n
        boundary = region.boundary
        if isinstance(boundary, Sampled) and boundary.draw is not None:
            vals0 = np.asarray(
                boundary.draw(field, n, _diag_coords(n)), dtype=np.int8)[None, :]
            boundary = Explicit(vals0[0])
        _, rows = triangle_sweep(n, boundary, field.p, [field.seed], keep_all=True)
        values = np.full((n + 1, n + 1), -1, dtype=np.int8)
        closed = np.zeros((n + 1, n + 1), dtype=bool)
        for k, arr in rows.items():
            coords = _diag_coords(k)
            values[coords[:, 0], coords[:, 1]] = arr[0]
            # closedness is a property of the site; on the boundary diagonal
            # it does not enter the recursion (values there are imposed) but
            # does drive rendering and counts
            closed[coords[:, 0], coords[:, 1]] = field.closed_mask(coords)
        return TriangleOutcome(family, n, field.p, field.seed, region.boundary,
                               values, closed)
    if isinstance(shape, Slab):
        index = SlabIndex(family, shape.sizes)
        layers = slab_sweep(index, shape.depth, region.boundary, field.p,
                            [field.seed], field=field)
        final = {k: arr[0] for k, arr in layers.items() if k < family.m}
        return SlabOutcome(family, index.sizes, shape.depth, field.p, field.seed,
                           region.boundary, index, final)
    raise ValueError(f"unknown region shape {shape!r}")


# -- slab solver --------------------------------------------------------------


class SlabIndex:
    """Indexing of slab layers by doubling-torus vertices.

    Layer k occupies the torus vertices of class k mod q; the out-moves of
    a class are precomputed as (position within the target class, layer
    delta) pairs, derived by lifting a representative site of each class
    and applying the family's move set.
    """

    def __init__(self, family: GraphFamily, sizes):
        self.family = family
        self.sizes = lattice.validate_torus_sizes(family, sizes)
        self.q = family.torus_classes
        verts = lattice.torus_vertices(family, self.sizes)
        by_class: list[list[tuple[int, ...]]] = [[] for _ in range(self.q)]
        for t in verts:
            by_class[lattice.torus_class(family, t)].append(t)
        self.verts_by_class = [np.array(v, dtype=np.int64).reshape(len(v), -1)
                               for v in by_class]
        self.pos = {t: i for c in range(self.q) for i, t in enumerate(by_class[c])}
        offsets = lattice.out_offset_table(family, self.sizes)
        self.nbr_pos: list[np.ndarray] = []
        self.nbr_layer_delta: list[np.ndarray] = []
        for c in range(self.q):
            deltas = offsets[c]
            pos = np.empty((len(by_class[c]), len(deltas)), dtype=np.int64)
            for i, t in enumerate(by_class[c]):
                for j, (dt, _) in enumerate(deltas):
                    target = lattice.wrap_tcoord(
                        tuple(a + b for a, b in zip(t, dt)), self.sizes)
                    pos[i, j] = self.pos[target]
            self.nbr_pos.append(pos)
            self.nbr_layer_delta.append(np.array([dl for _, dl in deltas]))
        origin = tuple(0 for _ in self.sizes)
        if lattice.torus_class(family, origin) != 0:
            raise AssertionError("origin must sit in class 0")
        self.origin_pos = self.pos[origin]

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
                   m: int, seeds: np.ndarray, field: Optional[SiteField]):
    """Boundary values on layers k_top .. k_top+m-1, each (S, n_class)."""
    S = seeds.size
    out = {}
    for layer in range(k_top, k_top + m):
        nc = index.class_size(layer % index.q)
        if isinstance(boundary, AllQuestion):
            vals = np.full((S, nc), QUES, dtype=np.int8)
        elif isinstance(boundary, AllZero):
            vals = np.zeros((S, nc), dtype=np.int8)
        elif isinstance(boundary, AllOne):
            vals = np.ones((S, nc), dtype=np.int8)
        elif isinstance(boundary, Checkerboard):
            vals = np.broadcast_to(index.checkerboard_values(layer), (S, nc)).copy()
        elif isinstance(boundary, Sampled):
            if boundary.draw is not None:
                vals = np.asarray(
                    boundary.draw(field, layer, index.layer_site_coords(layer)),
                    dtype=np.int8)
                vals = np.broadcast_to(vals, (S, nc)).copy()
            else:
                u = hash_uniforms(seeds, index.layer_site_coords(layer), 1)
                vals = (u < boundary.q).astype(np.int8)
        elif isinstance(boundary, Explicit):
            try:
                arr = np.asarray(boundary.values[layer], dtype=np.int8)
            except (KeyError, TypeError):
                raise BoundaryShapeError(f"explicit slab boundary missing layer {layer}")
            if arr.shape != (nc,):
                raise BoundaryShapeError(
                    f"layer {layer} boundary needs shape ({nc},), got {arr.shape}")
            if not np.isin(arr, (ZERO, ONE)).all():
                raise BoundaryShapeError("explicit boundary values must be 0/1")
            vals = np.broadcast_to(arr, (S, nc)).copy()
        else:
            raise BoundaryShapeError(f"unsupported boundary {boundary!r}")
        out[layer] = vals
    return out


def slab_sweep(index: SlabIndex, depth: int, boundary: Boundary, p: float,
               seeds, record_layers=None, field: Optional[SiteField] = None):
    """Solve a slab for a batch of seeds.

    Returns {layer: (S, n_class) int8}; always contains layers 0..m-1, plus
    any layers listed in record_layers.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    fam = index.family
    m = fam.m
    three = _is_three_valued(boundary)
    layers = _slab_boundary(index, boundary, depth, m, seeds, field)
    keep = set(range(m)) | set(record_layers or ())
    out = {k: v for k, v in layers.items() if k in keep}
    # one uniforms buffer per class, reused by every layer of the class, so
    # that the allocator does not hand its pages back and fault them in
    # again at each layer (whether it does depends on the heap layout)
    uniforms = [np.empty((seeds.size, index.class_size(c))) for c in range(index.q)]
    for k in range(depth - 1, -1, -1):
        c = k % index.q
        deltas = index.nbr_layer_delta[c]
        pos = index.nbr_pos[c]
        stacked = np.stack(
            [layers[k + int(dl)][:, pos[:, j]] for j, dl in enumerate(deltas)],
            axis=-1)  # (S, n_c, deg)
        u = hash_uniforms(seeds, index.layer_site_coords(k), 0, out=uniforms[c])
        closed = u < p
        if three:
            any_loss = (stacked == ONE).any(axis=-1)
            all_win = (stacked == ZERO).all(axis=-1)
            inner = np.where(all_win, np.int8(ONE), np.int8(QUES))
            vals = np.where(closed | any_loss, np.int8(ZERO), inner)
        else:
            all_win = (stacked == ZERO).all(axis=-1)
            vals = np.where(closed, ZERO, all_win.astype(np.int8))
        layers[k] = vals
        if k in keep:
            out[k] = vals
        layers.pop(k + m, None)
    return out


# -- derived experiments -------------------------------------------------------


def draw_density_profile(family: GraphFamily, k_max: int, sizes, p: float,
                         seeds, depths=None):
    """Mean ?-fraction on layer 0 under the all-? boundary, per depth.

    Returns rows (depth, q_fraction, stderr, n_seeds).  For a fixed seed the
    layer-0 ?-set shrinks pointwise as the depth grows, so q_fraction is
    non-increasing along the rows for each individual seed.
    """
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    index = SlabIndex(family, sizes)
    if depths is None:
        step = max(1, k_max // 20)
        depths = sorted(set(list(range(family.m, k_max + 1, step)) + [k_max]))
    rows = []
    for K in depths:
        layers = slab_sweep(index, K, AllQuestion(), p, seeds)
        frac = (layers[0] == QUES).mean(axis=1)  # per seed
        rows.append((K, float(frac.mean()),
                     float(frac.std(ddof=1) / np.sqrt(seeds.size)) if seeds.size > 1 else 0.0,
                     int(seeds.size)))
    return rows


@dataclass
class SensitivityResult:
    family: GraphFamily
    depth: int
    p: float
    n_seeds: int
    disagree: np.ndarray  # per-seed bool at the origin

    @property
    def fraction(self) -> float:
        return float(self.disagree.mean())

    @property
    def stderr(self) -> float:
        q = self.fraction
        return float(np.sqrt(q * (1 - q) / self.disagree.size))


def boundary_sensitivity(family: GraphFamily, depth: int, sizes, p: float,
                         seeds) -> SensitivityResult:
    """Fraction of seeds where the all-0 and all-1 boundary solutions
    disagree at the origin (two-valued recursion, shared randomness)."""
    if not (family.has_A2 or family.has_A2_prime):
        raise ValueError(f"{family.name} does not satisfy the layer-automorphism assumption")
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    index = SlabIndex(family, sizes)
    zero = slab_sweep(index, depth, AllZero(), p, seeds)[0][:, index.origin_pos]
    one = slab_sweep(index, depth, AllOne(), p, seeds)[0][:, index.origin_pos]
    return SensitivityResult(family, depth, p, seeds.size, zero != one)


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
