"""The bit-sliced draw-scan sweep against the per-depth slab sweeps, the slab
sweep against a seed-major reference, and triangle sweeps over a sequence of
p."""

import time

import numpy as np
import pytest

from percgame import lattice as lat
from percgame import solver
from percgame.sitefield import LayerSites, hash_uniforms, hash_words
from percgame.solver import AllOne, AllQuestion, AllZero, Checkerboard, Sampled
from percgame.symbols import ONE, QUES, ZERO

# (family, torus sizes): subset(3) and even_ext(3) have moves that skip a
# layer, and subset(3) on 9x9 has 27 sites per class, not a power of 2
TORI = [(lat.even_sublattice(3), (8, 8)), (lat.z2(), (16,)),
        (lat.subset_increment(3), (9, 9)), (lat.even_sublattice_extended(3), (8, 8))]

# the boundary of bit 3i + b of a sliced sweep
SLICED = (AllQuestion(), AllZero(), AllOne())


def reference_profile(index, p, seeds, depths):
    """The per-depth definition of the draw-density profile: one all-?
    slab sweep per depth."""
    rows = []
    for K in depths:
        frac = (solver.slab_sweep(index, K, AllQuestion(), p, seeds)[0] == QUES).mean(axis=1)
        rows.append((K, float(frac.mean()),
                     float(frac.std(ddof=1) / np.sqrt(seeds.size)) if seeds.size > 1 else 0.0,
                     int(seeds.size)))
    return rows


def reference_disagree(index, p, seeds, depth):
    """The per-depth definition of the boundary sensitivity: one all-0 and
    one all-1 slab sweep, compared at the origin."""
    zero = solver.slab_sweep(index, depth, AllZero(), p, seeds)[0][:, index.origin_pos]
    one = solver.slab_sweep(index, depth, AllOne(), p, seeds)[0][:, index.origin_pos]
    return zero != one


def decode(zero, one, bit):
    """The int8 values held in one bit of a sliced sweep's words."""
    z = (zero >> np.uint64(bit)) & np.uint64(1)
    o = (one >> np.uint64(bit)) & np.uint64(1)
    assert not (z & o).any()
    return np.where(z == 1, ZERO, np.where(o == 1, ONE, QUES)).astype(np.int8)


@pytest.mark.parametrize("family,sizes", TORI, ids=lambda x: getattr(x, "name", None))
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_sliced_sweep_equals_the_per_depth_sweeps(family, sizes, p):
    index = solver.SlabIndex(family, sizes)
    seeds = np.arange(3, 8)
    depths = [5, 0, 9, family.m, 9, 1]  # out of order, repeated, and shallower than m
    zero, one = solver.sliced_sweep(index, p, seeds, depths)
    assert zero.shape == one.shape == (seeds.size, index.class_size(0))
    for i, K in enumerate(depths):
        for b, boundary in enumerate(SLICED):
            ref = solver.slab_sweep(index, K, boundary, p, seeds)[0]
            assert np.array_equal(decode(zero, one, 3 * i + b), ref), (K, boundary)


# A seed takes one lane per depth on a graded family and three on the
# others, and min(8, 64 // lanes) seeds share a word: 8 slots up to 8
# lanes, 7 at 9, 3 at 21 (graded); 8, 3 and 1 at 2, 7 and 21 depths of
# subset(3).  11 seeds in blocks of 4 leave slots empty in the last words.
SLOT_TORI = [(lat.even_sublattice(4), (4, 4, 4), n) for n in (1, 8, 9, 21)] + [
    (lat.bcc_lattice(3), (8, 8), 5), (lat.binomial_family(3, 1), (6, 6), 21)] + [
    (lat.subset_increment(3), (9, 9), n) for n in (2, 7, 21)]


@pytest.mark.parametrize("family,sizes,n_depths", SLOT_TORI,
                         ids=lambda x: getattr(x, "name", None))
def test_every_slot_count_gives_the_per_depth_sweeps(family, sizes, n_depths, monkeypatch):
    index = solver.SlabIndex(family, sizes)
    monkeypatch.setattr(solver, "CHAIN_BLOCK", 4 * index.class_size(0))
    seeds = np.arange(20, 31)
    depths = [(5 * i + 3) % 23 for i in range(n_depths)]  # odd and even, out of order
    zero, one = solver.sliced_sweep(index, 0.15, seeds, depths)
    for i, K in enumerate(depths):
        for b, boundary in enumerate(SLICED):
            ref = solver.slab_sweep(index, K, boundary, 0.15, seeds)[0]
            assert np.array_equal(decode(zero, one, 3 * i + b), ref), (K, boundary)


# zd(d >= 3): no layer automorphism, d torus classes, and m = 2 boundary layers
ZD_TORI = [(lat.zd(3), (3, 3)), (lat.zd(3), (6, 6)), (lat.zd(4), (4, 4, 4))]


@pytest.mark.parametrize("family,sizes", ZD_TORI, ids=lambda x: getattr(x, "name", None))
@pytest.mark.parametrize("p", [1e-9, 0.2, 1 - 1e-9])
def test_sliced_sweep_equals_the_slab_reference_on_zd(family, sizes, p):
    index = solver.SlabIndex(family, sizes)
    assert (index.q, family.m) == (family.d, 2)
    seeds = np.arange(5)
    depths = [0, 1, 2, 3, 4, 7, 12]
    zero, one = solver.sliced_sweep(index, p, seeds, depths)
    for i, K in enumerate(depths):
        for b, boundary in enumerate(SLICED):
            ref = solver.slab_sweep(index, K, boundary, p, seeds)[0]
            assert np.array_equal(decode(zero, one, 3 * i + b), ref), (K, boundary)


def test_a_wrong_index_entry_makes_the_sweeps_differ():
    # the reference reads its own move table, so one wrong out-table entry
    # shows up in the sliced sweep alone
    index = solver.SlabIndex(lat.even_sublattice(3), (8, 8))
    pos = index.nbr_pos[0]
    pos[0, 0] = (pos[0, 0] + 1) % pos.shape[0]
    seeds, depths, p = np.arange(64), [4, 12, 13], 0.4
    zero, one = solver.sliced_sweep(index, p, seeds, depths)
    differ = [not np.array_equal(decode(zero, one, 3 * i + b),
                                 solver.slab_sweep(index, K, boundary, p, seeds)[0])
              for i, K in enumerate(depths) for b, boundary in enumerate(SLICED)]
    assert any(differ)


def _site_coords(index, k):
    """The hashing coordinates (t..., k) of the layer-k sites, by the index."""
    verts = index.verts_by_class[k % index.q]
    return np.column_stack([verts, np.full(len(verts), k)])


def _reference_slab_sweep(index, depth, boundary, p, seeds):
    """Seed-major sweep with its own gather and rule, hashing every layer."""
    layers = {}
    for layer in range(depth, depth + index.family.m):
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
        closed = hash_uniforms(seeds, _site_coords(index, k), 0) < p
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
        got = solver.slab_sweep(index, 9, boundary, 0.2, seeds)
        assert sorted(got) == list(range(index.family.m))
        for k, vals in got.items():
            assert vals.flags.c_contiguous and np.array_equal(vals, ref[k]), (boundary, k)
        layers = list(solver.slab_layers(index, 9, boundary, 0.2, seeds))
        assert [k for k, _, _ in layers] == list(range(8 + index.family.m, -1, -1))
        for k, u, vals in layers:  # every layer, and the uniforms it was decided on
            assert np.array_equal(vals, ref[k]), (boundary, k)
            assert u is None if k >= 9 else np.array_equal(
                u, hash_uniforms(seeds, _site_coords(index, k), 0))


@pytest.mark.parametrize("family,sizes", TORI[:3], ids=lambda x: getattr(x, "name", None))
def test_draw_scan_equals_the_per_depth_reference(family, sizes):
    seeds = np.arange(10)
    p = 0.12
    index = solver.SlabIndex(family, sizes)
    depths = [family.m, 5, 9, 14]
    rows, results = solver.draw_scan(index, p, seeds, depths)
    assert rows == reference_profile(index, p, seeds, depths)
    profile = solver.draw_density_profile(index, p, seeds, 14)
    assert [r for r in profile if r[0] in depths] == rows
    for K, res in zip(depths, results):
        assert np.array_equal(res.disagree, reference_disagree(index, p, seeds, K))
    # deeper than the profile reached, shallower, and the same depth again
    for depth in (20, 3, 14):
        assert np.array_equal(solver.boundary_sensitivity(index, p, seeds, depth).disagree,
                              reference_disagree(index, p, seeds, depth))


def test_each_layer_is_hashed_once_per_sweep_and_seed_block(monkeypatch):
    # in process: a forked worker's hashes are counted in the worker
    monkeypatch.setenv("PERC_THREADS", "1")
    uniforms, words, layers = [], [], []
    real_uniforms, real_words = solver.hash_uniforms, solver.hash_words
    real_layer_words = LayerSites.hash_words

    def counting_uniforms(seeds, coords, tag=0):
        uniforms.append(int(coords[0, -1]))  # the layer coordinate
        return real_uniforms(seeds, coords, tag)

    def counting_words(seeds, coords, tag=0, out=None, tmp=None):
        words.append(int(coords[0, -1]))
        return real_words(seeds, coords, tag, out=out, tmp=tmp)

    def counting_layer_words(self, states, k, tag=0, out=None, tmp=None):
        layers.append((states.shape[1], k))
        return real_layer_words(self, states, k, tag, out=out, tmp=tmp)

    monkeypatch.setattr(solver, "hash_uniforms", counting_uniforms)
    monkeypatch.setattr(solver, "hash_words", counting_words)
    monkeypatch.setattr(LayerSites, "hash_words", counting_layer_words)
    blocks, real_states = [], LayerSites.seed_states
    monkeypatch.setattr(LayerSites, "seed_states", staticmethod(
        lambda seeds: blocks.append(np.size(seeds)) or real_states(seeds)))
    index = solver.SlabIndex(lat.even_sublattice(3), (8, 8))
    solver.slab_sweep(index, 12, AllQuestion(), 0.1, np.arange(4))
    assert sorted(uniforms) == list(range(12)) and not words and not layers
    # a budget of 24 seeds of a 32-site class: 70 seeds make three blocks;
    # layers below the deepest depth only, each once per block
    monkeypatch.setattr(solver, "CHAIN_BLOCK", 24 * index.class_size(0) + 5)
    solver.sliced_sweep(index, 0.1, np.arange(70), [12, 2, 7])
    sizes = [s for s, k in layers if k == 0]  # layer 0 ends each block
    assert len(sizes) == 3 and sum(sizes) == 70 and max(sizes) - min(sizes) <= 1
    assert layers == [(s, k) for s in sizes for k in range(11, -1, -1)] and not words
    assert blocks == sizes  # each block's seed states, once for all its layers


def test_every_bit_of_a_sliced_sweep_is_a_function_of_its_arguments(monkeypatch):
    # the lanes of no depth (bit 63, and bits 9 to 62 of 3 depths) hold the
    # all-? lane of the deepest depth, in every call and in every blocking
    index = solver.SlabIndex(lat.even_sublattice(3), (32, 32))
    runs = {}
    for depths in (solver.profile_depths(2, 60), [60, 2, 31]):
        runs[len(depths)] = [solver.sliced_sweep(index, 0.05, range(100), depths)
                             for _ in range(2)]
        deep = np.uint64(3 * int(np.argmax(depths)))
        for words in runs[len(depths)][0]:
            lane = (words >> deep) & np.uint64(1)
            for bit in range(3 * len(depths), 64):
                assert np.array_equal((words >> np.uint64(bit)) & np.uint64(1), lane), bit
    # 40 seeds of a 512-site class: 100 seeds make three blocks
    monkeypatch.setattr(solver, "CHAIN_BLOCK", 40 * index.class_size(0))
    for depths in (solver.profile_depths(2, 60), [60, 2, 31]):
        runs[len(depths)].append(solver.sliced_sweep(index, 0.05, range(100), depths))
    for (zero, one), *others in runs.values():
        assert all(np.array_equal(zero, z) and np.array_equal(one, o) for z, o in others)


def test_a_sliced_sweep_past_the_coordinate_limit_is_refused_at_once():
    # the hashed layers reach 2**20; refused before any per-layer work
    index = solver.SlabIndex(lat.even_sublattice(3), (8, 8))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="coordinates must satisfy"):
        solver.sliced_sweep(index, 0.1, [0], [2 ** 20 + 1])
    assert time.perf_counter() - start < 1.0


def test_sliced_sweep_refuses_a_bad_depth_list():
    index = solver.SlabIndex(lat.even_sublattice(3), (8, 8))
    for depths in ([], list(range(2, 2 + solver.DEPTHS_PER_SWEEP + 1)), [4, -1]):
        with pytest.raises(ValueError, match="a sliced sweep takes"):
            solver.sliced_sweep(index, 0.2, np.arange(4), depths)
    # the most a sweep takes: 21 depths, in 63 bits
    solver.sliced_sweep(index, 0.2, np.arange(4), range(2, 2 + solver.DEPTHS_PER_SWEEP))


# edges of the domain: p = 0 and 1, one seed (the stderr 0.0 branch), and
# zd(3), whose family.m (2 boundary layers) differs from SlabIndex.q (3
# classes)
EDGES = [(lat.even_sublattice(3), (8, 8), 0.0, 12), (lat.even_sublattice(3), (8, 8), 1.0, 12),
         (lat.subset_increment(3), (9, 9), 0.0, 7), (lat.subset_increment(3), (9, 9), 1.0, 7),
         (lat.z2(), (16,), 0.2, 1), (lat.even_sublattice_extended(3), (8, 8), 0.2, 1),
         (lat.zd(3), (6, 6), 0.1, 9), (lat.zd(3), (3, 3), 0.3, 1)]


@pytest.mark.parametrize("family,sizes,p,n_seeds", EDGES,
                         ids=lambda x: getattr(x, "name", None))
def test_draw_scan_at_the_edges_equals_the_per_depth_reference(family, sizes, p, n_seeds):
    index = solver.SlabIndex(family, sizes)
    seeds = np.arange(40, 40 + n_seeds)
    depths = solver.profile_depths(family.m, 15)
    rows, results = solver.draw_scan(index, p, seeds, depths)
    assert rows == reference_profile(index, p, seeds, depths)
    for K, res in zip(depths, results):
        assert np.array_equal(res.disagree, reference_disagree(index, p, seeds, K))
    if n_seeds == 1:
        assert all(r[2] == 0.0 for r in rows)
    if p in (0.0, 1.0):
        assert all(r[1] == 1.0 - p for r in rows)  # p = 0: every site a draw; p = 1: none


def test_more_than_21_depths_run_in_chunks(monkeypatch):
    chunks = []
    real = solver.sliced_sweep

    def counting(index, p, seeds, depths):
        chunks.append(list(depths))
        return real(index, p, seeds, depths)

    monkeypatch.setattr(solver, "sliced_sweep", counting)
    fam = lat.binomial_family(4, 2)
    index = solver.SlabIndex(fam, (4, 4, 4))
    seeds = np.arange(5)
    depths = solver.profile_depths(fam.m, 30)
    assert len(depths) == 29
    rows, results = solver.draw_scan(index, 0.1, seeds, depths)
    assert chunks == [depths[:21], depths[21:]]
    assert rows == reference_profile(index, 0.1, seeds, depths)
    for K, res in zip(depths, results):
        assert np.array_equal(res.disagree, reference_disagree(index, 0.1, seeds, K))


# The all-? value of a layer-0 site is ? exactly where its all-0 and all-1
# values differ, on a graded family (every move advances the layer by
# exactly 1); on every family a site where they differ is ?.  Moves that
# skip a layer break the identity: subset(3) and even_ext(3).  The three
# boundaries come from the per-depth reference, slab_sweep, as
# sliced_sweep derives its all-0 and all-1 lanes from the identity on a
# graded family.
IDENTITY_TORI = [(lat.even_sublattice(3), (8, 8)), (lat.z2(), (16,)), (lat.bcc_lattice(3), (8, 8)),
                 (lat.binomial_family(4, 2), (4, 4, 4)), (lat.zd(3), (6, 6)),
                 (lat.subset_increment(3), (9, 9)), (lat.even_sublattice_extended(3), (8, 8)),
                 (lat.even_sublattice(4), (4, 4, 4)), (lat.binomial_family(3, 1), (6, 6))]


@pytest.mark.parametrize("family,sizes", IDENTITY_TORI, ids=lambda x: getattr(x, "name", None))
def test_a_draw_is_where_the_two_valued_values_differ_exactly_on_graded_families(family, sizes):
    index = solver.SlabIndex(family, sizes)
    assert index.graded == (family.name not in ("subset(3)", "even_ext(3)"))
    seeds = np.arange(40)
    holds = True
    for p in (0.05, 0.2, 0.4):
        for K in range(family.m, 22):
            ques, zero, one = (solver.slab_sweep(index, K, boundary, p, seeds)[0]
                               for boundary in SLICED)
            draw, differ = ques == QUES, zero != one
            assert not (differ & ~draw).any(), (p, K)
            holds &= bool(np.array_equal(draw, differ))
    assert holds == index.graded


BOUNDARIES = [AllZero(), AllOne(), AllQuestion(), Checkerboard(), Sampled(0.3)]


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: type(b).__name__)
def test_triangle_sweep_over_a_p_sequence_equals_the_scalar_sweeps(boundary):
    seeds = np.arange(4, 11)
    n = 17
    # 5 p fill one uint8 word of lanes; 11 p, unsorted and repeated, spill into two
    for grid in ([0.0, 0.15, 0.3, 0.15, 1.0],
                 [0.7, 0.15, 0.0, 0.45, 1.0, 0.3, 0.15, 0.9, 0.05, 0.3, 0.6]):
        origin, rows = solver.triangle_sweep(n, boundary, grid, seeds, keep_all=True)
        assert origin.shape == (len(grid), seeds.size)
        assert sorted(rows) == list(range(n + 1))
        for i, p in enumerate(grid):
            ref_origin, ref_rows = solver.triangle_sweep(n, boundary, [p], seeds, keep_all=True)
            assert np.array_equal(origin[i], ref_origin[0])
            for k in range(n + 1):
                (vals, closed), (ref_vals, ref_closed) = rows[k], ref_rows[k]
                assert vals.shape == (len(grid), seeds.size, k + 1)
                assert np.array_equal(vals[i], ref_vals[0])
                assert (closed is None) == (k == n)
                if k < n:
                    assert closed.shape == vals.shape and np.array_equal(closed[i], ref_closed[0])
        alone, none = solver.triangle_sweep(n, boundary, np.array(grid), seeds)
        assert none is None and np.array_equal(alone, origin)


def test_triangle_sweep_takes_p_only_as_a_1d_sequence():
    seeds = np.arange(3)
    origin, rows = solver.triangle_sweep(6, AllZero(), [0.2], seeds, keep_all=True)
    assert origin.shape == (1, 3) and rows[2][0].shape == (1, 3, 3) and rows[6][0].shape == (1, 3, 7)
    origin, _ = solver.triangle_sweep(0, AllQuestion(), [0.2, 0.5], [2])
    assert origin.shape == (2, 1) and (origin == QUES).all()
    for bad in (0.2, np.float64(0.2), [[0.2]], []):
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


def test_subset3_sensitivity_dips_at_every_third_depth():
    # subset(3) has three hard-hexagon phases, one per class. At p = 0.05 on
    # 12^2 the origin sensitivity reads 0 at depths 50 and 53, K = 2 (mod 3),
    # while the all-? draw fraction stays flat: the dip is in the
    # boundaries, not in the draws
    index = solver.SlabIndex(lat.subset_increment(3), (12, 12))
    seeds = np.arange(64)
    rows, results = solver.draw_scan(index, 0.05, seeds, range(48, 54))
    assert [int(r.disagree.sum()) for r in results] == [59, 59, 0, 59, 59, 0]
    assert len({round(q, 3) for _, q, _, _ in rows}) == 1 and round(rows[0][1], 2) == 0.95
    # at K = 50 both constant boundaries give the origin 0 in every seed
    for boundary in (AllZero(), AllOne()):
        layer0 = solver.slab_sweep(index, 50, boundary, 0.05, seeds)[0]
        assert (layer0[:, index.origin_pos] == ZERO).all()
