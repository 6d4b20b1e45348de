"""Directed graph families for percolation games, their layer structure,
automorphisms and doubling-graph maps.

Each family lives on (a subset of) Z^d.  Sites are tuples of ints.  A family
carries a partition of its vertex set into layers S_k such that every move
strictly increases the layer by 1..m-1, plus (for most families) a layer
automorphism ``phi`` shifting layers by m with Out(x) = In(phi(x)).

Each kind is one row of the table ``_SPECS``, which holds only what cannot
be derived: the geometry (the layer is the last coordinate x_d, or a
function of the coordinate sum s = sum(x)), which points of Z^d are sites,
the move set by the residue of s mod d, and the closed-form layer class of
a transverse coordinate.

    kind            layer  sites                moves
    z2, zd(d)       s      Z^d                  +e_i
    subset(d)       s      Z^d                  + a proper nonempty subset of the e_i
    binomial(d, r)  s      s = 0 or r mod d     + r of the e_i from s = 0, d - r from s = r
    even(d)         x_d    s even               +-e_i + e_d (i < d)
    bcc(d)          x_d    x_i all equal mod 2  +-e_1 ... +-e_{d-1} + e_d
    even_ext(d)     x_d    s even               even(d)'s and the phi move +2 e_d, a
                                                layer jump of m with no doubling edge

z2 is zd(2) under its own name, the d = 2 case of the coordinate-sum
geometry.  The rest is derived once per geometry: the out-degree is the
number of moves, and phi is one translation, +2 e_d for x_d layers and
+(1,...,1) for coordinate-sum layers, which count the residues of s that
hold sites.  zd(d >= 3) has no valid phi, the obstacle to the dimension
reduction; it is kept for the game solver only.

The doubling graph D is the quotient of the family by phi; the map
``transverse_coord`` realizes it concretely (x_1..x_{d-1} for x_d layers,
the differences x_i - x_d for coordinate-sum layers).  The explicit
plane/space embeddings (trihex, diamond) are available through
:class:`IsoMap` / :func:`doubling_map`.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class InvalidSiteError(ValueError):
    pass


class UnsupportedFamilyError(ValueError):
    pass


# -- the table of family definitions -------------------------------------------


@dataclass(frozen=True)
class _Spec:
    last_layer: bool  # the layer is x_d; otherwise a function of the coordinate sum
    member: Callable  # (family, x) -> whether x is a site
    moves: Callable  # (family, coordinate sum mod d) -> the move deltas
    torus_class: Callable  # (family, tcoord) -> layer class, None off the torus


def _subsets(d: int, sizes) -> list[tuple[int, ...]]:
    """Indicator vectors of the subsets of the d basis vectors with the given sizes."""
    return [tuple(int(i in S) for i in range(d))
            for size in sizes for S in itertools.combinations(range(d), size)]


def _signed_units(n: int) -> list[tuple[int, ...]]:
    """+-e_i in Z^n."""
    return [tuple(s * (j == i) for j in range(n)) for i in range(n) for s in (-1, 1)]


def _equal_parity(family, x) -> bool:
    return all((c - x[0]) % 2 == 0 for c in x)


def _residue_class(family, t) -> Optional[int]:
    # sum(t) = sum(x) - d x_d has the residue of the site's coordinate sum
    residues = family._sum_residues
    s = sum(t) % family.d
    return residues.index(s) if s in residues else None


_SPECS = {
    "z2": _Spec(False, lambda f, x: True,
                lambda f, res: _subsets(f.d, [1]), _residue_class),
    "zd": _Spec(False, lambda f, x: True,
                lambda f, res: _subsets(f.d, [1]), _residue_class),
    "even": _Spec(True, lambda f, x: sum(x) % 2 == 0,
                  lambda f, res: [u + (1,) for u in _signed_units(f.d - 1)],
                  lambda f, t: sum(t) % 2),
    "bcc": _Spec(True, _equal_parity,
                 lambda f, res: [s + (1,) for s in itertools.product((-1, 1), repeat=f.d - 1)],
                 lambda f, t: t[0] % 2 if _equal_parity(f, t) else None),
    "subset": _Spec(False, lambda f, x: True,
                    lambda f, res: _subsets(f.d, range(1, f.d)), _residue_class),
    "binomial": _Spec(False, lambda f, x: sum(x) % f.d in (0, f.r),
                      lambda f, res: _subsets(f.d, [f.r if res == 0 else f.d - f.r]),
                      _residue_class),
    "even_ext": _Spec(True, lambda f, x: sum(x) % 2 == 0,
                      lambda f, res: _SPECS["even"].moves(f, res) + [(0,) * (f.d - 1) + (2,)],
                      lambda f, t: sum(t) % 2),
}

KINDS = tuple(_SPECS)


@dataclass(frozen=True)
class GraphFamily:
    kind: str
    d: int
    r: int = 0  # binomial only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "z2" and self.d != 2:
            raise ValueError("z2 has d=2")
        if self.d < 2:
            raise ValueError(f"{self.kind} needs d >= 2")
        if self.kind == "binomial":
            if not 1 <= self.r <= self.d - 1:
                raise ValueError("binomial needs 1 <= r <= d-1")
        elif self.r:
            raise ValueError("r is only meaningful for binomial")

    # -- derived once from the family's row of _SPECS ----------------------

    @functools.cached_property
    def _moves(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The sorted move deltas of a site, by its coordinate sum mod d."""
        spec = _SPECS[self.kind]
        return tuple(tuple(sorted(spec.moves(self, res))) for res in range(self.d))

    @functools.cached_property
    def _sum_residues(self) -> tuple[int, ...]:
        """Coordinate-sum geometry: the residues of sum(x) mod d that hold
        sites.  Layer k holds the sums d * (k // c) + residues[k % c], with
        c = len(residues)."""
        spec = _SPECS[self.kind]
        return tuple(s for s in range(self.d) if spec.member(self, (s,) + (0,) * (self.d - 1)))

    # -- descriptors ------------------------------------------------------

    @property
    def m(self) -> int:
        """Layer period of phi (number of vertex classes of D)."""
        return self.d if self.kind == "subset" else 2

    @property
    def out_degree(self) -> int:
        return len(self._moves[0])

    @property
    def has_A2(self) -> bool:
        """Whether the standard layer-automorphism assumption holds."""
        return self.d == 2 if self.kind == "zd" else self.kind != "even_ext"

    @property
    def has_A2_prime(self) -> bool:
        return self.kind == "even_ext"

    @property
    def torus_classes(self) -> int:
        """Residue classes of the transverse-coordinate torus.

        Layers of a slab occupy class (layer mod torus_classes): the parity
        of x_d, or the index of the coordinate-sum residue.  Equals m except
        for zd(d), whose transverse quotient has d residues.
        """
        return 2 if _SPECS[self.kind].last_layer else len(self._sum_residues)

    @property
    def name(self) -> str:
        if self.kind == "binomial":
            return f"binomial({self.d},{self.r})"
        if self.kind == "z2":
            return "z2"
        return f"{self.kind}({self.d})"


def z2() -> GraphFamily:
    return GraphFamily("z2", 2)


def zd(d: int) -> GraphFamily:
    return GraphFamily("zd", d)


def even_sublattice(d: int) -> GraphFamily:
    return GraphFamily("even", d)


def bcc_lattice(d: int) -> GraphFamily:
    return GraphFamily("bcc", d)


def subset_increment(d: int) -> GraphFamily:
    return GraphFamily("subset", d)


def binomial_family(d: int, r: int) -> GraphFamily:
    return GraphFamily("binomial", d, r)


def even_sublattice_extended(d: int) -> GraphFamily:
    return GraphFamily("even_ext", d)


_FAMILY_NAME = re.compile(
    r"(?P<kind>zd|even|bcc|subset|even_ext)\((?P<d>[0-9]+)\)"
    r"|binomial\((?P<bd>[0-9]+),(?P<r>[0-9]+)\)")


def family_from_name(name: str) -> GraphFamily:
    """Parse a family name: 'z2', 'zd(d)', 'even(d)', 'bcc(d)', 'subset(d)',
    'even_ext(d)' or 'binomial(d,r)', with decimal d and r and no inner
    spaces.  Anything else raises ValueError."""
    text = name.strip()
    if text == "z2":
        return z2()
    match = _FAMILY_NAME.fullmatch(text)
    if match is None:
        raise ValueError(f"cannot parse family {name!r}: expected z2, zd(d), even(d), "
                         "bcc(d), subset(d), even_ext(d) or binomial(d,r)")
    if match["kind"]:
        return GraphFamily(match["kind"], int(match["d"]))
    return binomial_family(int(match["bd"]), int(match["r"]))


# -- membership, layers, moves -------------------------------------------


def is_member(family: GraphFamily, x) -> bool:
    x = tuple(int(c) for c in x)
    return len(x) == family.d and _SPECS[family.kind].member(family, x)


def check_site(family: GraphFamily, x) -> tuple[int, ...]:
    x = tuple(int(c) for c in x)
    if not is_member(family, x):
        raise InvalidSiteError(f"{x} is not a site of {family.name}")
    return x


def layer_of(family: GraphFamily, x) -> int:
    """Index k with x in S_k."""
    x = check_site(family, x)
    if _SPECS[family.kind].last_layer:
        return x[-1]
    residues = family._sum_residues
    q, s = divmod(sum(x), family.d)
    return len(residues) * q + residues.index(s)


def out_neighbors(family: GraphFamily, x) -> list[tuple[int, ...]]:
    """Out(x), in lexicographic order (the moves are sorted, and a
    translation keeps the order)."""
    x = check_site(family, x)
    return [tuple(c + e for c, e in zip(x, delta))
            for delta in family._moves[sum(x) % family.d]]


def in_neighbors(family: GraphFamily, x) -> list[tuple[int, ...]]:
    """In(x) = sites y with x in Out(y), in lexicographic order."""
    x = check_site(family, x)
    # the moves of a predecessor depend on its own residue: try every residue's
    deltas = {delta for moves in family._moves for delta in moves}
    ys = (tuple(c - e for c, e in zip(x, delta)) for delta in deltas)
    return sorted(y for y in ys if is_member(family, y) and x in out_neighbors(family, y))


def _translate(family: GraphFamily, x, sign: int) -> tuple[int, ...]:
    """x + sign * phi, with phi the translation by 2 e_d (x_d layers) or by
    (1,...,1) (coordinate-sum layers)."""
    x = check_site(family, x)
    if not (family.has_A2 or family.has_A2_prime):
        raise UnsupportedFamilyError(f"{family.name} has no layer automorphism")
    if _SPECS[family.kind].last_layer:
        return x[:-1] + (x[-1] + 2 * sign,)
    return tuple(c + sign for c in x)


def phi(family: GraphFamily, x) -> tuple[int, ...]:
    """The layer automorphism (layer shift by m)."""
    return _translate(family, x, 1)


def phi_inverse(family: GraphFamily, x) -> tuple[int, ...]:
    return _translate(family, x, -1)


def patch_sites(family: GraphFamily, radius: int) -> list[tuple[int, ...]]:
    """All sites with coordinates in [-radius, radius]."""
    rng = range(-radius, radius + 1)
    return [x for x in itertools.product(rng, repeat=family.d) if is_member(family, x)]


# -- assumption checks ----------------------------------------------------


@dataclass
class AxiomReport:
    family: GraphFamily
    radius: int
    sites_checked: int
    a1_violations: list
    a2_violations: list
    searched_translations: Optional[list] = None

    @property
    def passed(self) -> bool:
        return not self.a1_violations and not self.a2_violations

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if self.searched_translations is not None:
            extra = f", {len(self.searched_translations)} translation candidates searched"
        return (f"{self.family.name}: axioms {status} on radius-{self.radius} patch "
                f"({self.sites_checked} sites{extra})")


def _check_a2_at(family: GraphFamily, x) -> Optional[tuple]:
    """Check Out(x) = In(phi(x)) (or its primed variant) at one site."""
    fx = phi(family, x)
    out = set(out_neighbors(family, x))
    into = set(in_neighbors(family, fx))
    if family.has_A2_prime:
        # Out(x) \ {phi(x)} = In(phi(x)) \ {x}, and phi(x) in Out(x)
        if fx not in out:
            return (x, "phi(x) not in Out(x)")
        if out - {fx} != into - {x}:
            return (x, "Out(x)\\{phi(x)} != In(phi(x))\\{x}")
        return None
    if out != into:
        return (x, "Out(x) != In(phi(x))")
    return None


def verify_axioms(family: GraphFamily, patch_radius: int) -> AxiomReport:
    """Check (A1) and (A2) (or (A1'), (A2')) on a finite patch.

    For zd(d>=3), where no automorphism exists, searches all translation
    candidates phi(x) = x + c with |c|_inf <= 2 and sum(c) >= 2 and reports
    each failure as an (A2) violation witness.
    """
    if patch_radius < 2:
        raise ValueError("patch_radius must be >= 2")
    sites = patch_sites(family, patch_radius)
    a1 = []
    a2 = []
    for x in sites:
        kx = layer_of(family, x)
        fx = phi(family, x) if (family.has_A2 or family.has_A2_prime) else None
        for y in out_neighbors(family, x):
            dk = layer_of(family, y) - kx
            if family.has_A2_prime and y == fx:
                if dk != family.m:
                    a1.append((x, y, dk))
                continue
            if not 1 <= dk <= family.m - 1:
                a1.append((x, y, dk))

    searched = None
    if family.has_A2 or family.has_A2_prime:
        for x in sites:
            v = _check_a2_at(family, x)
            if v is not None:
                a2.append(v)
    else:
        # exhaustive search over small translations; every candidate fails
        searched = []
        d = family.d
        for c in itertools.product(range(-2, 3), repeat=d):
            mm = sum(c)
            if mm < 2:
                continue
            searched.append(c)
            origin = (0,) * d
            out = set(out_neighbors(family, origin))
            into = {tuple(ci - int(i == j) for i, ci in enumerate(c)) for j in range(d)}
            if out == into:
                return AxiomReport(family, patch_radius, len(sites), a1, [],
                                   searched_translations=searched)
        a2.append(((0,) * d, "no translation phi(x)=x+c with |c|_inf<=2 satisfies (A2)"))
    return AxiomReport(family, patch_radius, len(sites), a1, a2,
                       searched_translations=searched)


# -- doubling-graph maps ---------------------------------------------------

FORMULAS = ("difference", "projection", "trihex", "diamond")
# the dimension each closed form is written for; projection takes any d
_FORMULA_DIM = {"difference": 2, "trihex": 3, "diamond": 4}


# explicit doubling maps of the coordinate-sum families, by family name
_SUM_FORMULAS = {"z2": "difference", "zd(2)": "difference", "subset(3)": "trihex",
                 "binomial(3,1)": "trihex", "binomial(4,1)": "diamond"}


def default_formula(family: GraphFamily) -> str:
    if _SPECS[family.kind].last_layer:
        return "projection"
    if family.name not in _SUM_FORMULAS:
        raise UnsupportedFamilyError(f"no explicit doubling map for {family.name}")
    return _SUM_FORMULAS[family.name]


@dataclass(frozen=True)
class IsoMap:
    """Concrete isomorphism f_k from the slab D_k onto the doubling graph.

    The base map f_0 is one of the explicit closed forms; f_k is generated
    from it by composing with powers of phi (each explicit map is
    phi-invariant, so the composition leaves the formula unchanged and the
    maps for consecutive k agree on the overlap of their slabs).
    """

    family: GraphFamily
    k: int = 0
    formula: str = ""

    def __post_init__(self):
        f = self.formula or default_formula(self.family)
        if f not in FORMULAS:
            raise ValueError(f"unknown formula {f!r}")
        d = self.family.d
        if _FORMULA_DIM.get(f, d) != d:
            raise ValueError(f"the {f} map takes d = {_FORMULA_DIM[f]}, "
                             f"not {self.family.name} (d = {d})")
        object.__setattr__(self, "formula", f)


class SiteOutsideSlabError(ValueError):
    pass


def _base_map_exact(formula: str, family: GraphFamily, x) -> tuple[int, ...]:
    """Integer-exact image of the explicit map f_0.

    trihex images are returned in doubled coordinates (u, w) with the real
    plane point being (u/2, w*sqrt(3)/2).
    """
    if formula == "difference":
        return (x[0] - x[1],)
    if formula == "projection":
        return tuple(x[:-1])
    if formula == "trihex":
        return (2 * x[0] - x[1] - x[2], x[1] - x[2])
    if formula == "diamond":
        return (x[0] - x[1] - x[2] + x[3],
                -x[0] + x[1] - x[2] + x[3],
                x[0] + x[1] - x[2] - x[3])
    raise AssertionError(formula)


def doubling_map_exact(iso: IsoMap, x) -> tuple[int, ...]:
    """Image of x under f_k, in integer-exact coordinates."""
    fam = iso.family
    x = check_site(fam, x)
    kx = layer_of(fam, x)
    if not iso.k <= kx <= iso.k + fam.m - 1:
        raise SiteOutsideSlabError(
            f"site {x} (layer {kx}) outside slab S_{iso.k}..S_{iso.k + fam.m - 1}")
    # f_k = f_0 o phi^{-j} with j = floor(layer/m); each explicit f_0 is
    # phi-invariant so this just re-derives f_0(x), but we apply the shift
    # literally to keep the chi-composition realization testable.
    j, _ = divmod(kx, fam.m)
    y = x
    while j > 0:
        y = phi_inverse(fam, y)
        j -= 1
    while j < 0:
        y = phi(fam, y)
        j += 1
    return _base_map_exact(iso.formula, fam, y)


def doubling_map(iso: IsoMap, x):
    """Image of x under f_k, in natural embedding coordinates.

    The difference map returns an int, trihex maps return a point of the
    real plane (floats), the rest integer tuples.
    """
    img = doubling_map_exact(iso, x)
    if iso.formula == "difference":
        return img[0]
    if iso.formula == "trihex":
        return (img[0] / 2.0, float(img[1] * np.sqrt(3.0) / 2.0))
    return img


def _doubling_offsets(iso: IsoMap) -> set[tuple[int, ...]]:
    """Undirected neighbor offsets of the doubling-graph image."""
    fam = iso.family
    if iso.formula == "difference":
        return {(1,), (-1,)}
    if iso.formula == "projection":
        if fam.kind == "bcc":
            return set(itertools.product((-1, 1), repeat=fam.d - 1))
        return set(_signed_units(fam.d - 1))
    if iso.formula == "trihex":
        return {(2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    if iso.formula == "diamond":
        return {t for t in itertools.product((-1, 1), repeat=3)}
    raise AssertionError(iso.formula)


def doubling_adjacent(iso: IsoMap, u, v) -> bool:
    return tuple(b - a for a, b in zip(u, v)) in _doubling_offsets(iso)


@dataclass
class IsoReport:
    iso: IsoMap
    radius: int
    sites_checked: int
    injective: bool
    edge_mismatches: list
    interior_degrees: set

    @property
    def passed(self) -> bool:
        return self.injective and not self.edge_mismatches

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.iso.family.name} f_{self.iso.k} [{self.iso.formula}]: {status} "
                f"({self.sites_checked} sites, interior degrees {sorted(self.interior_degrees)})")


def verify_isomorphism(iso: IsoMap, patch_radius: int) -> IsoReport:
    """Check f_k is a graph isomorphism from D_k onto its image, on a patch.

    Injectivity, and for every pair of slab sites: a directed edge exists
    (either way) iff the images are adjacent in the doubling graph.  For
    the extended kind the edge (x, phi(x)) is excluded (it yields no
    doubling edge).  Also reports the image degrees of sites whose full
    neighborhood lies inside the patch.
    """
    if patch_radius < 2:
        raise ValueError("patch_radius must be >= 2")
    fam = iso.family
    slab = [x for x in patch_sites(fam, patch_radius)
            if iso.k <= layer_of(fam, x) <= iso.k + fam.m - 1]
    images = {x: doubling_map_exact(iso, x) for x in slab}
    injective = len(set(images.values())) == len(slab)

    slab_set = set(slab)
    out_in_slab = {}
    for x in slab:
        out = set(out_neighbors(fam, x)) & slab_set
        if fam.has_A2_prime:
            out.discard(phi(fam, x))
        out_in_slab[x] = out

    mismatches = []
    for i, x in enumerate(slab):
        for y in slab[i + 1:]:
            edge = y in out_in_slab[x] or x in out_in_slab[y]
            adj = doubling_adjacent(iso, images[x], images[y])
            if edge != adj:
                mismatches.append((x, y, "edge" if edge else "non-edge"))

    degrees = set()
    for x in slab:
        nbrs = set(out_neighbors(fam, x)) | set(in_neighbors(fam, x))
        nbrs = {y for y in nbrs if iso.k <= layer_of(fam, y) <= iso.k + fam.m - 1}
        if fam.has_A2_prime:
            nbrs -= {phi(fam, x), phi_inverse(fam, x)}
        if all(y in slab_set for y in nbrs) and max(abs(c) for c in x) <= patch_radius - 1:
            degrees.add(sum(doubling_adjacent(iso, images[x], images[y]) for y in nbrs))
    return IsoReport(iso, patch_radius, len(slab), injective, mismatches, degrees)


# -- transverse (phi-quotient) coordinates for slabs and tori ---------------


def transverse_coord(family: GraphFamily, x) -> tuple[int, ...]:
    """phi-invariant coordinates identifying the doubling-graph vertex of x.

    zd(d>=3) has no phi, but the same difference coordinates still
    parameterize the layers of a slab, so they are provided for it too.
    """
    x = check_site(family, x)
    if _SPECS[family.kind].last_layer:
        return tuple(x[:-1])
    return tuple(c - x[-1] for c in x[:-1])


def lift_site(family: GraphFamily, tcoord, layer: int) -> tuple[int, ...]:
    """The unique site with given transverse coordinates and layer."""
    t = tuple(int(c) for c in tcoord)
    if _SPECS[family.kind].last_layer:
        return check_site(family, t + (layer,))
    d = family.d
    if len(t) != d - 1:
        raise InvalidSiteError(f"{family.name} needs {d - 1} transverse coordinates, got {t}")
    # the layer fixes the coordinate sum, and sum(x) = sum(t) + d x_d
    residues = family._sum_residues
    q, cls = divmod(layer, len(residues))
    rem = d * q + residues[cls] - sum(t)
    if rem % d:
        raise InvalidSiteError(f"no {family.name} site with tcoord={t} on layer {layer}")
    xd = rem // d
    return tuple(c + xd for c in t) + (xd,)


def torus_class(family: GraphFamily, tcoord) -> int:
    """Which layer residue a torus vertex belongs to (layer mod torus_classes)."""
    t = tuple(int(c) for c in tcoord)
    cls = _SPECS[family.kind].torus_class(family, t)
    if cls is None:
        raise InvalidSiteError(f"{t} is not a doubling-graph vertex of {family.name}")
    return cls


def is_torus_vertex(family: GraphFamily, tcoord) -> bool:
    try:
        torus_class(family, tcoord)
    except InvalidSiteError:
        return False
    return True


def validate_torus_sizes(family: GraphFamily, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Transverse torus sizes compatible with the membership constraint."""
    sizes = tuple(int(s) for s in sizes)
    tdim = family.d - 1
    if len(sizes) != tdim:
        raise ValueError(f"{family.name} needs {tdim} transverse sizes, got {len(sizes)}")
    if any(s < 2 for s in sizes):
        raise ValueError("torus sizes must be >= 2")
    # wrapping must keep the layer class: the parity of the last-coordinate
    # geometry, the residue mod d of the coordinate sum
    period = 2 if _SPECS[family.kind].last_layer else family.d
    if any(s % period for s in sizes):
        rule = "even" if period == 2 else f"multiples of {period}"
        raise ValueError(f"{family.name} torus sizes must be {rule}, got {sizes}")
    return sizes


def out_offset_table(family: GraphFamily, sizes) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per torus class: the (transverse delta, layer delta) of every move.

    Derived by lifting one representative vertex of each class and applying
    the family's move set; translation invariance within a class makes the
    table exact for every vertex.
    """
    sizes = validate_torus_sizes(family, sizes)
    q = family.torus_classes
    table: list[list[tuple[tuple[int, ...], int]]] = []
    for cls in range(q):
        rep = _class_representative(family, cls)
        x = lift_site(family, rep, cls)
        tx = transverse_coord(family, x)
        offs = []
        for y in out_neighbors(family, x):
            ty = transverse_coord(family, y)
            offs.append((tuple(b - a for a, b in zip(tx, ty)),
                         layer_of(family, y) - cls))
        table.append(offs)
    return table


def wrap_tcoord(tcoord, sizes) -> tuple[int, ...]:
    return tuple(int(c) % int(s) for c, s in zip(tcoord, sizes))


def torus_vertices(family: GraphFamily, sizes) -> list[tuple[int, ...]]:
    """Doubling-graph vertices of the transverse torus, sorted."""
    sizes = validate_torus_sizes(family, sizes)
    verts = [t for t in itertools.product(*[range(s) for s in sizes])
             if is_torus_vertex(family, t)]
    return verts


def _class_representative(family: GraphFamily, cls: int) -> tuple[int, ...]:
    """A torus vertex of class cls."""
    if _SPECS[family.kind].last_layer:
        # the projection of cls steps along the largest move from the origin
        return tuple(cls * c for c in family._moves[0][-1][:-1])
    return (family._sum_residues[cls],) + (0,) * (family.d - 2)
