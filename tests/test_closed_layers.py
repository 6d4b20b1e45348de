"""Shared closed bits: the ClosedLayers cache, the slab sweeps that read it,
and triangle sweeps over a sequence of p."""

import numpy as np
import pytest

from percgame import lattice as lat
from percgame import solver
from percgame.sitefield import SiteField, hash_uniforms, hash_words
from percgame.solver import (AllOne, AllQuestion, AllZero, Checkerboard,
                             ClosedLayers, Sampled)
from percgame.symbols import ONE, QUES, ZERO

# (family, torus sizes): subset(3) on 9x9 has 27 sites per class, not a
# multiple of 8, so its packed layers end in a partial byte
TORI = [(lat.even_sublattice(3), (8, 8)), (lat.z2(), (16,)),
        (lat.subset_increment(3), (9, 9)), (lat.even_sublattice_extended(3), (8, 8))]


@pytest.mark.parametrize("family,sizes", TORI, ids=lambda x: getattr(x, "name", None))
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_closed_layers_equal_the_hashed_mask_on_every_read(family, sizes, p):
    index = solver.SlabIndex(family, sizes)
    seeds = np.arange(3, 8)
    closed = ClosedLayers(index, p, seeds)
    layers = [5, 0, 3, 1, 4, 2]  # out of order: each layer stands alone
    for k in layers + layers:
        ref = hash_uniforms(seeds, index.layer_site_coords(k), 0) < p
        got = closed[k]
        assert got.dtype == bool and got.shape == ref.shape
        assert np.array_equal(got, ref)


def _reference_slab_sweep(index, depth, boundary, p, seeds):
    """Seed-major sweep with its own gather and rule, hashing every layer."""
    layers = {}
    for layer in range(depth, depth + index.m):
        n = index.class_size(layer)
        if isinstance(boundary, AllZero):
            layers[layer] = np.full((seeds.size, n), ZERO, dtype=np.int8)
        elif isinstance(boundary, AllOne):
            layers[layer] = np.full((seeds.size, n), ONE, dtype=np.int8)
        else:
            layers[layer] = np.full((seeds.size, n), QUES, dtype=np.int8)
    three = isinstance(boundary, AllQuestion)
    for k in range(depth - 1, -1, -1):
        c = k % index.q
        nbrs = np.stack([layers[k + int(dl)][:, index.nbr_pos[c][:, j]]
                         for j, dl in enumerate(index.nbr_layer_delta[c])])
        closed = hash_uniforms(seeds, index.layer_site_coords(k), 0) < p
        win = (nbrs == ZERO).all(axis=0)
        lost = (nbrs == ONE).any(axis=0)
        vals = np.where(win, ONE, np.where(lost | (not three), ZERO, QUES))
        layers[k] = np.where(closed, ZERO, vals).astype(np.int8)
    return layers


@pytest.mark.parametrize("family,sizes", TORI, ids=lambda x: getattr(x, "name", None))
def test_slab_sweep_equals_a_seed_major_reference(family, sizes):
    index = solver.SlabIndex(family, sizes)
    seeds = np.arange(6)
    for boundary in (AllZero(), AllOne(), AllQuestion()):
        ref = _reference_slab_sweep(index, 9, boundary, 0.2, seeds)
        got = solver.slab_sweep(index, 9, boundary, 0.2, seeds, record_layers=[4, 7])
        assert sorted(got) == sorted(set(range(index.m)) | {4, 7})
        for k, vals in got.items():
            assert vals.flags.c_contiguous and np.array_equal(vals, ref[k]), (boundary, k)


@pytest.mark.parametrize("family,sizes", TORI[:3], ids=lambda x: getattr(x, "name", None))
def test_shared_cache_equals_fresh_sweeps(family, sizes):
    seeds = np.arange(10)
    p = 0.12
    index = solver.SlabIndex(family, sizes)
    closed = ClosedLayers(index, p, seeds)
    depths = [family.m, 5, 9, 14]
    assert (solver.draw_density_profile(family, 14, sizes, p, seeds, depths, closed=closed)
            == solver.draw_density_profile(family, 14, sizes, p, seeds, depths))
    # deeper than the profile reached, shallower, and the same depth again
    for depth in (20, 3, 14, 14):
        shared = solver.boundary_sensitivity(family, depth, sizes, p, seeds, closed=closed)
        fresh = solver.boundary_sensitivity(family, depth, sizes, p, seeds)
        assert np.array_equal(shared.disagree, fresh.disagree)
    for boundary in (AllZero(), AllQuestion(), Checkerboard(), Sampled(0.4)):
        shared = solver.slab_sweep(index, 11, boundary, p, seeds, closed=closed)
        fresh = solver.slab_sweep(index, 11, boundary, p, seeds)
        assert all(np.array_equal(shared[k], fresh[k]) for k in fresh)


def test_each_layer_is_hashed_once_per_cache(monkeypatch):
    hashed = []
    real = solver.hash_uniforms

    def counting(seeds, coords, tag=0, out=None):
        hashed.append(int(coords[0, -1]))  # the layer coordinate
        return real(seeds, coords, tag, out=out)

    monkeypatch.setattr(solver, "hash_uniforms", counting)
    fam, sizes = lat.even_sublattice(3), (8, 8)
    seeds = np.arange(4)
    closed = ClosedLayers(solver.SlabIndex(fam, sizes), 0.1, seeds)
    solver.draw_density_profile(fam, 12, sizes, 0.1, seeds, closed=closed)
    for depth in (2, 7, 12):
        solver.boundary_sensitivity(fam, depth, sizes, 0.1, seeds, closed=closed)
    assert sorted(hashed) == list(range(12))


def test_a_cache_built_for_other_inputs_raises():
    fam, sizes = lat.even_sublattice(3), (8, 8)
    index = solver.SlabIndex(fam, sizes)
    seeds = np.arange(4)
    closed = ClosedLayers(index, 0.2, seeds)
    mismatched = [
        lambda: solver.slab_sweep(solver.SlabIndex(fam, sizes), 4, AllZero(), 0.2, seeds,
                                  closed=closed),
        lambda: solver.slab_sweep(index, 4, AllZero(), 0.3, seeds, closed=closed),
        lambda: solver.slab_sweep(index, 4, AllZero(), 0.2, seeds + 1, closed=closed),
        lambda: solver.slab_sweep(index, 4, AllZero(), 0.2, seeds[:3], closed=closed),
        lambda: solver.draw_density_profile(fam, 6, (10, 10), 0.2, seeds, closed=closed),
        lambda: solver.draw_density_profile(lat.bcc_lattice(3), 6, sizes, 0.2, seeds, closed=closed),
        lambda: solver.boundary_sensitivity(fam, 6, sizes, 0.25, seeds, closed=closed),
        lambda: solver.boundary_sensitivity(fam, 6, sizes, 0.2, [9], closed=closed),
    ]
    for call in mismatched:
        with pytest.raises(ValueError, match="closed layers were built for"):
            call()
    # the matching inputs are accepted, a scalar seed vector included
    solver.boundary_sensitivity(fam, 6, [8, 8], 0.2, list(range(4)), closed=closed)
    one = ClosedLayers(index, 0.2, 7)
    solver.slab_sweep(index, 4, AllZero(), 0.2, [7], closed=one)


BOUNDARIES = [AllZero(), AllOne(), AllQuestion(), Checkerboard(), Sampled(0.3)]


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: type(b).__name__)
def test_triangle_sweep_over_a_p_sequence_equals_the_scalar_sweeps(boundary):
    seeds = np.arange(4, 11)
    grid = [0.0, 0.15, 0.3, 0.15, 1.0]
    n = 17
    origin, rows = solver.triangle_sweep(n, boundary, grid, seeds, keep_all=True)
    assert origin.shape == (len(grid), seeds.size)
    assert sorted(rows) == list(range(n + 1))
    for i, p in enumerate(grid):
        ref_origin, ref_rows = solver.triangle_sweep(n, boundary, p, seeds, keep_all=True)
        assert np.array_equal(origin[i], ref_origin)
        for k in range(n + 1):
            assert rows[k].shape == (len(grid), seeds.size, k + 1)
            assert np.array_equal(rows[k][i], ref_rows[k])
    alone, none = solver.triangle_sweep(n, boundary, np.array(grid), seeds)
    assert none is None and np.array_equal(alone, origin)


def test_triangle_sweep_scalar_p_keeps_its_shapes():
    seeds = np.arange(3)
    origin, rows = solver.triangle_sweep(6, AllZero(), np.float64(0.2), seeds, keep_all=True)
    assert origin.shape == (3,) and rows[2].shape == (3, 3) and rows[6].shape == (3, 7)
    field = SiteField(2, 0.2)
    origin, _ = solver.triangle_sweep(0, AllQuestion(), [0.2, 0.5], [2], field=field)
    assert origin.shape == (2, 1) and (origin == QUES).all()
    for bad in ([[0.2]], []):
        with pytest.raises(ValueError):
            solver.triangle_sweep(6, AllZero(), bad, seeds)


def test_hash_words_into_buffers_equals_the_fresh_words():
    seeds = np.arange(5)
    coords = np.stack([np.arange(9), np.arange(9)[::-1]], axis=1)
    fresh = hash_words(seeds, coords, 0)
    out = np.empty((5, 9), dtype=np.uint64)
    tmp = np.empty_like(out)
    hash_words(seeds, coords, 0, out=out, tmp=tmp)
    assert np.array_equal(out, fresh)
    assert np.array_equal(fresh >> np.uint64(11),
                          (hash_uniforms(seeds, coords, 0) * 2.0 ** 53).astype(np.uint64))
    for bad in (np.empty((5, 8), dtype=np.uint64), np.empty((5, 9), dtype=np.int64),
                np.empty((9, 5), dtype=np.uint64).T):
        with pytest.raises(ValueError):
            hash_words(seeds, coords, 0, tmp=bad)
        with pytest.raises(ValueError):
            hash_words(seeds, coords, 0, out=bad)
