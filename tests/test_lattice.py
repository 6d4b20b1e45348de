"""Graph families: moves, layers, automorphisms, doubling maps."""

import hashlib
import itertools

import numpy as np
import pytest

from percgame import lattice as lat
from percgame.lattice import (InvalidSiteError, IsoMap,
                              SiteOutsideSlabError, UnsupportedFamilyError)

Z2 = lat.z2()
EVEN3 = lat.even_sublattice(3)
EVEN4 = lat.even_sublattice(4)
BCC3 = lat.bcc_lattice(3)
BCC4 = lat.bcc_lattice(4)
SUB3 = lat.subset_increment(3)
BIN31 = lat.binomial_family(3, 1)
BIN41 = lat.binomial_family(4, 1)
BIN42 = lat.binomial_family(4, 2)
EXT3 = lat.even_sublattice_extended(3)

ALL_A2_FAMILIES = [Z2, EVEN3, EVEN4, BCC3, BCC4, SUB3, BIN31, BIN41, BIN42]


def test_descriptor_invariants():
    assert (Z2.m, Z2.out_degree) == (2, 2)
    assert (EVEN3.m, EVEN3.out_degree) == (2, 4)
    assert (BCC4.m, BCC4.out_degree) == (2, 8)
    assert (SUB3.m, SUB3.out_degree) == (3, 6)
    assert (BIN41.m, BIN41.out_degree) == (2, 4)
    assert (BIN42.m, BIN42.out_degree) == (2, 6)
    assert (EXT3.m, EXT3.out_degree) == (2, 5)
    assert not lat.zd(3).has_A2 and not lat.zd(5).has_A2
    assert lat.zd(2).has_A2
    assert EXT3.has_A2_prime and not EXT3.has_A2


def test_out_neighbors_examples():
    assert lat.out_neighbors(Z2, (0, 0)) == [(0, 1), (1, 0)]
    assert lat.out_neighbors(EVEN3, (0, 0, 0)) == \
        [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)]
    out = lat.out_neighbors(SUB3, (0, 0, 0))
    assert len(out) == 6
    assert set(out) == {x for x in itertools.product((0, 1), repeat=3)} - \
        {(0, 0, 0), (1, 1, 1)}
    assert out == sorted(out)


def test_out_degree_matches_moves():
    for fam in ALL_A2_FAMILIES + [lat.zd(3), EXT3]:
        x = lat.lift_site(fam, lat._class_representative(fam, 0), 0)
        assert len(lat.out_neighbors(fam, x)) == fam.out_degree


def test_invalid_site_rejected():
    with pytest.raises(InvalidSiteError):
        lat.out_neighbors(EVEN3, (1, 0, 0))
    with pytest.raises(InvalidSiteError):
        lat.layer_of(BIN31, (1, 1, 0))  # sum 2 is neither 0 nor 1 mod 3


def test_layer_examples():
    assert lat.layer_of(Z2, (3, -1)) == 2
    assert lat.layer_of(BIN42, (1, 1, 1, 1)) == 2  # sum 4 = d*k/2 with k=2
    assert lat.layer_of(EVEN3, (1, 1, 2)) == 2
    assert lat.layer_of(BIN31, (1, 0, 0)) == 1
    assert lat.layer_of(SUB3, (2, 0, 1)) == 3


def test_phi_examples():
    assert lat.phi(Z2, (2, 5)) == (3, 6)
    assert lat.phi(EVEN4, (0, 0, 0, 0)) == (0, 0, 0, 2)
    assert lat.phi(SUB3, (1, 0, 2)) == (2, 1, 3)
    with pytest.raises(UnsupportedFamilyError):
        lat.phi(lat.zd(3), (0, 0, 0))


@pytest.mark.parametrize("fam", ALL_A2_FAMILIES + [EXT3])
def test_phi_shifts_layer_by_m(fam):
    for x in lat.patch_sites(fam, 2):
        fx = lat.phi(fam, x)
        assert lat.layer_of(fam, fx) == lat.layer_of(fam, x) + fam.m
        assert lat.phi_inverse(fam, fx) == x


@pytest.mark.parametrize("fam", [Z2, EVEN3, EVEN4, BCC3, BCC4, SUB3, BIN31,
                                 BIN41, BIN42, EXT3])
def test_layer_increments(fam):
    # every move raises the layer by 1..m-1 on a radius-5 patch; the
    # extended kind additionally allows a jump of m, only to phi(x)
    radius = 5 if fam.d <= 3 else 3
    for x in lat.patch_sites(fam, radius):
        fx = lat.phi(fam, x) if (fam.has_A2 or fam.has_A2_prime) else None
        for y in lat.out_neighbors(fam, x):
            dk = lat.layer_of(fam, y) - lat.layer_of(fam, x)
            if fam.has_A2_prime and dk == fam.m:
                assert y == fx
            else:
                assert 1 <= dk <= fam.m - 1


@pytest.mark.parametrize("fam", [Z2, EVEN3, SUB3, BIN31])
def test_phi_is_automorphism_on_patch(fam):
    for x in lat.patch_sites(fam, 2):
        out_phi = {lat.phi(fam, y) for y in lat.out_neighbors(fam, x)}
        assert out_phi == set(lat.out_neighbors(fam, lat.phi(fam, x)))


def test_doubling_symmetry_z2():
    # y in Out(x) iff phi(x) in Out(y)
    for x in lat.patch_sites(Z2, 3):
        fx = lat.phi(Z2, x)
        for y in lat.patch_sites(Z2, 3):
            assert (y in lat.out_neighbors(Z2, x)) == (fx in lat.out_neighbors(Z2, y))


@pytest.mark.parametrize("fam,radius", [(Z2, 4), (EVEN3, 3), (BCC3, 3), (BCC4, 2),
                                        (SUB3, 3), (BIN31, 3), (BIN42, 2), (EXT3, 3)])
def test_axioms_pass(fam, radius):
    rep = lat.verify_axioms(fam, radius)
    assert rep.passed, rep.summary()


def test_axioms_zd3_a2_violation():
    rep = lat.verify_axioms(lat.zd(3), 3)
    assert not rep.a1_violations
    assert rep.a2_violations  # witnessed failure of every candidate translation
    assert rep.searched_translations


def test_axioms_radius_guard():
    with pytest.raises(ValueError):
        lat.verify_axioms(Z2, 1)


def test_doubling_map_examples():
    assert lat.doubling_map(IsoMap(Z2, 0), (2, -2)) == 4
    assert lat.doubling_map(IsoMap(BIN41, 0), (1, 0, 0, 0)) == (1, -1, 1)
    u, w = lat.doubling_map(IsoMap(SUB3, 0), (1, 0, 0))
    assert (u, w) == (1.0, 0.0)
    x, y = lat.doubling_map(IsoMap(SUB3, 0), (0, 1, 0))
    assert x == -0.5 and abs(y - np.sqrt(3) / 2) < 1e-15


def test_doubling_map_slab_guard():
    with pytest.raises(SiteOutsideSlabError):
        lat.doubling_map(IsoMap(Z2, 0), (3, 2))  # layer 5 outside S_0..S_1


def test_isomap_refuses_a_formula_of_another_dimension():
    # difference is written for d = 2, trihex for d = 3, diamond for d = 4
    with pytest.raises(ValueError, match="trihex map takes d = 3"):
        IsoMap(Z2, 0, "trihex")
    with pytest.raises(ValueError, match="diamond map takes d = 4"):
        IsoMap(lat.even_sublattice(3), 0, "diamond")
    with pytest.raises(ValueError, match="difference map takes d = 2"):
        IsoMap(SUB3, 0, "difference")
    assert IsoMap(lat.even_sublattice(4), 0, "projection").formula == "projection"


@pytest.mark.parametrize("fam,radius,degree", [
    (Z2, 6, 2), (EVEN3, 4, 4), (BCC3, 4, 4),
    (SUB3, 4, 6), (BIN31, 4, 3), (BIN41, 3, 4), (EXT3, 4, 4),
])
def test_isomorphism_on_patch(fam, radius, degree):
    rep = lat.verify_isomorphism(IsoMap(fam, 0), radius)
    assert rep.passed, rep.summary()
    assert rep.interior_degrees == {degree}


@pytest.mark.parametrize("fam", [Z2, EVEN3, SUB3, BIN31, BIN41])
def test_fk_consistency_across_slabs(fam):
    # f_k and f_{k+1} agree on the overlap of their slabs, and
    # f_k(x) = f_{k+1}(phi(x)) on the bottom layer
    for k in (-2, 0, 3):
        iso_k = IsoMap(fam, k)
        iso_k1 = IsoMap(fam, k + 1)
        for x in lat.patch_sites(fam, 3):
            layer = lat.layer_of(fam, x)
            if k + 1 <= layer <= k + fam.m - 1:
                assert lat.doubling_map_exact(iso_k, x) == \
                    lat.doubling_map_exact(iso_k1, x)
            if layer == k:
                assert lat.doubling_map_exact(iso_k, x) == \
                    lat.doubling_map_exact(iso_k1, lat.phi(fam, x))


@pytest.mark.parametrize("fam", [Z2, EVEN3, BCC3, SUB3, BIN31, BIN41, EXT3])
def test_transverse_coord_phi_invariant_and_liftable(fam):
    for x in lat.patch_sites(fam, 2):
        t = lat.transverse_coord(fam, x)
        assert lat.transverse_coord(fam, lat.phi(fam, x)) == t
        assert lat.lift_site(fam, t, lat.layer_of(fam, x)) == x


def test_torus_size_validation():
    with pytest.raises(ValueError):
        lat.validate_torus_sizes(Z2, (7,))  # parity needs even sizes
    with pytest.raises(ValueError):
        lat.validate_torus_sizes(SUB3, (8, 9))  # residues need multiples of 3
    assert lat.validate_torus_sizes(EVEN3, (10, 12)) == (10, 12)


def test_family_names_round_trip():
    for fam in ALL_A2_FAMILIES + [lat.zd(3), EXT3]:
        assert lat.family_from_name(fam.name) == fam


@pytest.mark.parametrize("name", [
    "even(3", "even(3))", "binomial(4)", "binomial(4,1,2)", "even(3,1)",
    "z3", "z2(2)", "even()", "even(-3)", "even(x)", "binomial(4, 1)", "foo(3)",
    "", "even(1)", "binomial(4,0)", "(3)"])
def test_malformed_family_names_raise_value_error(name):
    with pytest.raises(ValueError):
        lat.family_from_name(name)


# -- golden dump of the whole family API ---------------------------------------

GOLDEN_FAMILIES = (
    ["z2"] + [f"{kind}({d})" for kind in ("zd", "even", "bcc", "subset", "even_ext")
              for d in (2, 3, 4)]
    + [f"binomial({d},{r})" for d, r in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2))])

# SHA-256 of _lattice_dump(), recorded before the family definitions became
# one spec table and re-recorded when IsoMap began to refuse a formula of
# another dimension (each such (family, formula) block became one ValueError
# line); any change to what the lattice API returns moves it
LATTICE_DUMP_SHA256 = "9252e2b821e60c087aa2609dcc0161076324c4c52e8a98dc1adeb0bc66885e6f"


def _outcome(fn, *args):
    """repr of fn(*args), or the name of the exception it raises."""
    try:
        return repr(fn(*args))
    except Exception as e:  # the exception class is part of the API
        return f"!{type(e).__name__}"


def _lattice_dump() -> str:
    lines = []
    for name in GOLDEN_FAMILIES:
        fam = lat.family_from_name(name)
        d = fam.d
        lines.append(repr((fam, fam.name, fam.m, fam.out_degree, fam.has_A2,
                           fam.has_A2_prime, fam.torus_classes)))
        lines.append(_outcome(lat.default_formula, fam))
        radius = 2 if d <= 3 else 1
        box = list(itertools.product(range(-radius, radius + 1), repeat=d))
        for x in box:
            lines.append(f"{x} {lat.is_member(fam, x)}")
            for fn in (lat.layer_of, lat.out_neighbors, lat.in_neighbors, lat.phi,
                       lat.phi_inverse, lat.transverse_coord):
                lines.append(_outcome(fn, fam, x))
        tdim = len(lat.transverse_coord(fam, (0,) * d))
        for t in itertools.product(range(-2, 3), repeat=tdim):
            lines.append(f"{t} {_outcome(lat.torus_class, fam, t)} "
                         f"{_outcome(lat.is_torus_vertex, fam, t)}")
            for layer in range(-2, 4):
                lines.append(_outcome(lat.lift_site, fam, t, layer))
        for cls in range(fam.torus_classes):
            lines.append(_outcome(lat._class_representative, fam, cls))
        for n in range(tdim - 1, tdim + 2):
            for s in (1, 2, 3, 4, 5, 6, 8, 12):
                sizes = (s,) * n
                lines.append(_outcome(lat.validate_torus_sizes, fam, sizes))
        lines.append(_outcome(lat.validate_torus_sizes, fam, (4, 6, 12)[:tdim][::-1]))
        for s in (4, 6, 12):
            sizes = (s,) * tdim
            lines.append(_outcome(lat.torus_vertices, fam, sizes))
            lines.append(_outcome(lat.out_offset_table, fam, sizes))
        for formula in ("",) + lat.FORMULAS:
            try:
                iso = IsoMap(fam, 1, formula)
            except Exception as e:
                lines.append(f"IsoMap {formula!r} !{type(e).__name__}")
                continue
            lines.append(f"IsoMap {iso.formula} "
                         f"{sorted(lat._doubling_offsets(iso))}")
            for x in box:
                lines.append(_outcome(lat.doubling_map_exact, iso, x))
                lines.append(_outcome(lat.doubling_map, iso, x))
    return "\n".join(lines) + "\n"


def test_lattice_api_golden_digest():
    digest = hashlib.sha256(_lattice_dump().encode()).hexdigest()
    assert digest == LATTICE_DUMP_SHA256
