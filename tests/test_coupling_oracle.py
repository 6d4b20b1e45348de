"""The game<->Glauber coupling oracle: the identity on every family with a
layer automorphism, the batch form, negative controls and the oracle's
independence from the torus index."""

import ast
import inspect

import pytest

from percgame import glauber, solver
from percgame import lattice as lat

EVEN3 = lat.even_sublattice(3)

# every family of the grammar with a layer automorphism
FAMILIES = ([lat.z2(), lat.zd(2)]
            + [lat.family_from_name(f"{kind}({d})")
               for kind in ("even", "bcc", "subset", "even_ext") for d in (2, 3, 4)]
            + [lat.binomial_family(d, r)
               for d, r in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2))])


def _three_smallest_tori(fam):
    """(s,)*(d-1) for s = period, 2 period and 3 period, where the period is
    the smallest legal side."""
    def legal(s):
        try:
            lat.validate_torus_sizes(fam, (s,) * (fam.d - 1))
        except ValueError:
            return False
        return True

    period = next(s for s in range(2, 2 * fam.d + 1) if legal(s))
    return [(k * period,) * (fam.d - 1) for k in (1, 2, 3)]


FAMILY_TORI = [(fam, sizes) for fam in FAMILIES for sizes in _three_smallest_tori(fam)]


def test_twenty_families():
    assert len({fam.name for fam in FAMILIES}) == 20
    assert all(fam.has_phi for fam in FAMILIES)


@pytest.mark.parametrize("fam,sizes", FAMILY_TORI,
                         ids=[f"{f.name}-{'x'.join(map(str, s))}" for f, s in FAMILY_TORI])
def test_coupling_identity_on_every_family(fam, sizes):
    for p in (1e-9, 0.3, 1 - 1e-9):
        counts = glauber.coupling_mismatches(fam, 7, sizes, p, range(3))
        assert counts.tolist() == [0, 0, 0], f"{fam.name} {sizes} p={p}"


def _corrupted_index(case):
    """An even(3) 8x8 index with one wrong adjacency entry."""
    index = glauber.build_doubling_torus(EVEN3, (8, 8))
    if case == "nbr_pos":  # before `neighbors` is derived from it
        pos = index.nbr_pos[0]
        pos[0, 0] = (pos[0, 0] + 1) % pos.shape[0]
    else:
        v = index.class_members[1][10]
        index.neighbors[v, 1] = index.class_members[0][(index.neighbors[v, 1] + 2)
                                                       % index.class_size(0)]
    return index


@pytest.mark.parametrize("case", ["nbr_pos", "neighbors"])
def test_corrupted_index_is_caught(case, monkeypatch):
    index = _corrupted_index(case)
    monkeypatch.setattr(glauber, "_coupling_torus", lambda family, sizes: index)
    counts = glauber.coupling_mismatches(EVEN3, 12, (8, 8), 0.3, range(5))
    assert counts.sum() > 0


@pytest.mark.parametrize("case", [None, "nbr_pos", "neighbors"])
def test_batch_matches_per_seed_check(case, monkeypatch):
    if case is not None:
        index = _corrupted_index(case)
        monkeypatch.setattr(glauber, "_coupling_torus", lambda family, sizes: index)
    seeds = [3, 0, 7, 1, 12]
    monkeypatch.setattr(glauber, "_SEED_CHUNK", 2)  # chunks of 2, 2 and 1 seeds
    counts = glauber.coupling_mismatches(EVEN3, 12, (8, 8), 0.3, seeds)
    singles = [glauber.game_glauber_coupling_check(EVEN3, 12, (8, 8), 0.3, s).mismatches
               for s in seeds]
    assert counts.tolist() == singles


def test_batch_keeps_the_input_checks():
    ext3 = lat.even_sublattice_extended(3)
    with pytest.raises(ValueError, match="p must be in"):
        glauber.coupling_mismatches(EVEN3, 6, (8, 8), 1.5, [0])
    with pytest.raises(ValueError, match="extended assumptions"):
        glauber.coupling_mismatches(EVEN3, 6, (8, 8), 0.5, [0], "extended")
    with pytest.raises(ValueError, match="standard assumptions"):
        glauber.coupling_mismatches(ext3, 6, (8, 8), 0.5, [0], "standard")
    with pytest.raises(ValueError, match="unknown variant"):
        glauber.coupling_mismatches(EVEN3, 6, (8, 8), 0.5, [0], "other")
    with pytest.raises(glauber.IncompatibleSizesError):
        glauber.coupling_mismatches(EVEN3, 6, (7, 8), 0.5, [0])


@pytest.mark.parametrize("fn", [solver._MoveTable, solver._move_table, solver.slab_layers,
                                glauber._coupled_mismatches], ids=lambda f: f.__name__)
def test_oracle_never_reads_the_index_adjacency(fn):
    source = inspect.getsource(inspect.unwrap(fn))
    tree = ast.parse(source)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for banned in ("nbr_pos", "nbr_layer_delta", "neighbors"):
        assert banned not in names | attrs
    assert "pos" not in attrs and ".pos[" not in source
