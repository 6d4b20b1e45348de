"""Counter-based site randomness: determinism, distribution, independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from percgame import glauber, pca, sitefield, solver
from percgame import lattice as lat
from percgame.sitefield import (CHAIN_BLOCK, COORD_LIMIT, COORD_OFFSET, LayerSites,
                                _mix64_inplace, _mix_rest, closed_threshold, finish_tag,
                                finish_tags, hash_below, hash_prefix, hash_uniform_scalar,
                                hash_uniforms, hash_words, mix64)

# frozen reference outputs pin the bit-level definition across platforms
GOLDEN = [
    ((0, (0,), 0), 0.6069339185650182),
    ((42, (1, 2, 3), 7), 0.37975418289717044),
    ((7, (-5, 3), (2, 9)), 0.3145738952777819),
    ((123456789, (100, -200, 300, 400), 1), 0.003975124277592612),
]


@pytest.mark.parametrize("args,expected", GOLDEN)
def test_golden_values(args, expected):
    assert hash_uniform_scalar(*args) == expected


def test_scalar_vector_agreement():
    rng = np.random.default_rng(0)
    coords = rng.integers(-1000, 1000, size=(200, 3))
    for tag in (0, 5, (3, 11)):
        vec = hash_uniforms(99, coords, tag)
        ref = np.array([hash_uniform_scalar(99, tuple(c), tag) for c in coords])
        assert np.array_equal(vec, ref)


def test_seed_batch_agreement():
    coords = np.array([[1, 2], [3, 4], [5, 6]])
    seeds = np.array([10, 11, 12])
    batch = hash_uniforms(seeds, coords, 4)
    assert batch.shape == (3, 3)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], hash_uniforms(int(s), coords, 4))


def test_determinism_and_range():
    u1 = hash_uniform_scalar(31337, (5, -7), 3)
    u2 = hash_uniform_scalar(31337, (5, -7), 3)
    assert u1 == u2
    assert 0.0 <= u1 < 1.0


def test_is_closed_edge_probabilities():
    sites = [(i, j) for i in range(20) for j in range(20)]
    assert not any(hash_uniform_scalar(1, x, 0) < 0.0 for x in sites)
    assert all(hash_uniform_scalar(1, x, 0) < 1.0 for x in sites)
    assert not hash_below(1, np.array(sites), 0, 0.0).any()
    assert hash_below(1, np.array(sites), 0, 1.0).all()


def test_invalid_p():
    with pytest.raises(ValueError):
        solver.solve_triangle(3, solver.AllQuestion(), 1.5, 0)


def test_coordinate_range_guard():
    with pytest.raises(ValueError):
        hash_uniform_scalar(0, (2 ** 20,), 0)
    with pytest.raises(ValueError):
        hash_uniforms(0, np.array([[2 ** 20]]), 0)


def test_closed_fraction_concentration():
    # binomial concentration: closed fraction within 3 sigma of p over 1e6 sites
    p = 0.3
    n = 1000
    grid = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), -1)
    frac = hash_below(2024, grid.reshape(-1, 2), 0, p).mean()
    tol = 3 * np.sqrt(p * (1 - p) / (n * n))
    assert abs(frac - p) < tol


def test_stream_tag_independence():
    # distinct tags at the same sites decorrelate: |rho| < 0.01 on 1e5 samples
    coords = np.arange(100_000)
    u0 = hash_uniforms(7, coords, 0)
    u1 = hash_uniforms(7, coords, 1)
    rho = np.corrcoef(u0, u1)[0, 1]
    assert abs(rho) < 0.01


def test_kolmogorov_smirnov_uniform():
    # KS statistic below the 1% critical value on 1e6 variates
    n = 1_000_000
    u = hash_uniforms(99, np.arange(n), 0)
    d = stats.kstest(u, "uniform").statistic
    assert d < 1.6276 / np.sqrt(n)


def test_mix64_is_splitmix_finalizer():
    # one independently computed reference value of the splitmix64 finalizer
    z = 0x9E3779B97F4A7C15
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) % 2 ** 64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) % 2 ** 64
    z ^= z >> 31
    assert mix64(0x9E3779B97F4A7C15) == z


def test_tuple_tag_matches_int_tag():
    assert hash_uniform_scalar(5, (1, 2), 9) == hash_uniform_scalar(5, (1, 2), (9,))
    assert hash_uniform_scalar(5, (1, 2), (9, 0)) != hash_uniform_scalar(5, (1, 2), 9)


# -- the integer-domain closed test -------------------------------------------

EDGE_P = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]


def _sites(d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    coords = rng.integers(-1000, 1000, size=(300, d))
    return coords[:, 0] if d == 1 else coords


@pytest.mark.parametrize("d", [1, 3, 4])
@pytest.mark.parametrize("seeds", [17, np.arange(5)])
@pytest.mark.parametrize("tag", [0, (4, 1)])
@pytest.mark.parametrize("p", EDGE_P)
def test_hash_below_matches_uniform_comparison_at_edges(d, seeds, tag, p):
    coords = _sites(d)
    expected = hash_uniforms(seeds, coords, tag) < p
    got = hash_below(seeds, coords, tag, p)
    assert got.dtype == bool and got.shape == expected.shape
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 2 ** 40),
       d=st.sampled_from([1, 3, 4]), vector=st.booleans())
def test_hash_below_matches_at_float_neighbors(p, seed, d, vector):
    seeds = np.array([seed, seed + 1]) if vector else seed
    coords = _sites(d)
    u = hash_uniforms(seeds, coords, 2)
    # p, its float neighbors, and the neighbors of a drawn uniform: the
    # thresholds at which an off-by-one-ulp comparison would show
    for q in (p, u.flat[0]):
        for r in (q, np.nextafter(q, 0.0), np.nextafter(q, 1.0)):
            assert np.array_equal(hash_below(seeds, coords, 2, float(r)), u < r)


# a NaN p decides no site: every entry point that takes p refuses it
_TORUS = solver.SlabIndex(lat.even_sublattice(3), (4, 4))
NAN_P_ENTRY_POINTS = {
    "closed_threshold": closed_threshold,
    "hash_below": lambda p: hash_below(0, _sites(2), 0, p),
    "triangle_sweep": lambda p: solver.triangle_sweep(4, solver.AllZero(), [0.2, p], [0]),
    "win_origins": lambda p: solver.win_origins(20, [0.2, p], [0]),
    "solve_triangle": lambda p: solver.solve_triangle(4, solver.AllZero(), p, 0),
    "slab_sweep": lambda p: solver.slab_sweep(_TORUS, 3, solver.AllQuestion(), p, [0]),
    "sliced_sweep": lambda p: solver.sliced_sweep(_TORUS, p, [0, 1], [2, 3]),
    "draw_scan": lambda p: solver.draw_scan(_TORUS, p, [0], [2]),
    "run_chains": lambda p: glauber.run_chains(_TORUS, p, "standard", 1, [0]),
    "class_update": lambda p: glauber.class_update(
        _TORUS, glauber.checkerboard_config(_TORUS, 0), 1, p, "standard",
        np.full(_TORUS.class_size(1), 0.5)),
    "pca.step": lambda p: pca.step("F", "0?1?0", p, seeds=3),
    "trajectory_stats": lambda p: pca.trajectory_stats("F", "0?1?0", p, 2, seeds=3),
}


SWEEPS = ("triangle_sweep", "win_origins", "solve_triangle", "slab_sweep", "sliced_sweep",
          "draw_scan", "run_chains")
# the sweeps, the class update and the threshold take p as a probability:
# one outside [0, 1] is refused (so do the PCA sampler and its trajectories,
# see tests/test_pca.py)
PROBABILITY_TAKERS = SWEEPS + ("class_update", "closed_threshold", "hash_below")


@pytest.mark.parametrize("name", NAN_P_ENTRY_POINTS)
def test_a_nan_p_is_refused(name):
    call = NAN_P_ENTRY_POINTS[name]
    for p in (0.0, 1.0):
        call(p)
    with pytest.raises(ValueError, match="nan"):
        call(float("nan"))


@pytest.mark.parametrize("name", PROBABILITY_TAKERS)
@pytest.mark.parametrize("p", [1.5, -2.0, float("nan")])
def test_a_sweep_refuses_p_outside_the_unit_interval(name, p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\], got " + str(p)):
        NAN_P_ENTRY_POINTS[name](p)


# the sweeps that take a seed list, and the coupling check: each refuses an
# empty one with the same error
SEED_LISTS = {
    "triangle_sweep": lambda seeds: solver.triangle_sweep(4, solver.AllZero(), [0.2], seeds),
    "win_origins": lambda seeds: solver.win_origins(20, [0.2], seeds),
    "slab_sweep": lambda seeds: solver.slab_sweep(_TORUS, 3, solver.AllQuestion(), 0.2, seeds),
    "sliced_sweep": lambda seeds: solver.sliced_sweep(_TORUS, 0.2, seeds, [2, 3]),
    "draw_scan": lambda seeds: solver.draw_scan(_TORUS, 0.2, seeds, [2]),
    "run_chains": lambda seeds: glauber.run_chains(_TORUS, 0.2, "standard", 1, seeds),
    "coupling_mismatches": lambda seeds: glauber.coupling_mismatches(
        lat.even_sublattice(3), 3, (4, 4), 0.2, seeds),
}


@pytest.mark.parametrize("name", SEED_LISTS)
def test_a_sweep_refuses_an_empty_seed_list(name):
    assert set(SWEEPS) - {"solve_triangle"} <= set(SEED_LISTS)  # solve_triangle takes one seed
    SEED_LISTS[name]([3])
    for empty in ([], np.array([], dtype=np.int64), range(0)):
        with pytest.raises(ValueError, match="seeds must hold at least one seed, got none"):
            SEED_LISTS[name](empty)


@pytest.mark.parametrize("name", SEED_LISTS)
def test_a_sweep_refuses_a_seed_past_int64(name):
    SEED_LISTS[name]([2 ** 63 - 1])  # the largest int64 seed is a seed
    for seeds in ([2 ** 63 - 1, 2 ** 63], range(-2 ** 63 - 1, -2 ** 63 + 1)):
        with pytest.raises(ValueError, match=r"from -2\*\*63 to 2\*\*63 - 1"):
            SEED_LISTS[name](seeds)


# -- the prefix / finisher split ----------------------------------------------

_COORD = st.integers(-(2 ** 20 - 1), 2 ** 20 - 1)
_TAG_ELEMENT = st.one_of(st.just(0), st.just(2 ** 64 - 1), st.integers(0, 2 ** 30 - 1),
                         st.integers(2 ** 30, 2 ** 64 - 1))


def _finish_without_first_step(prefix, tag):
    """A wrong finisher: xors the first tag element in without the
    xorshift that hash_prefix has already applied to the prefix."""
    out, tmp = np.empty_like(prefix), np.empty_like(prefix)
    _mix_rest(prefix ^ np.uint64(tag[0]), out, tmp)
    for t in tag[1:]:
        out ^= np.uint64(t)
        _mix64_inplace(out, tmp)
    return out


def _finisher_agrees(finish, seeds, coords, tag) -> bool:
    """finish(hash_prefix) against hash_words (all 64 bits) and against the
    scalar reference (the 53 bits of the uniform)."""
    words = hash_words(np.array(seeds, dtype=np.uint64), coords, tag)
    got = finish(hash_prefix(np.array(seeds, dtype=np.uint64), coords), tag)
    scalar = np.array([[hash_uniform_scalar(s, tuple(c), tag) for c in coords]
                       for s in seeds])
    return (np.array_equal(got, words)
            and np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, scalar))


@settings(max_examples=150, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=3),
       d=st.integers(1, 7), data=st.data(),
       tag=st.lists(_TAG_ELEMENT, min_size=1, max_size=3).map(tuple))
def test_finish_tag_of_hash_prefix_is_the_hash(seeds, d, data, tag):
    coords = np.array(data.draw(st.lists(st.lists(_COORD, min_size=d, max_size=d),
                                         min_size=1, max_size=3)), dtype=np.int64)
    assert _finisher_agrees(finish_tag, seeds, coords, tag)


def test_finish_tag_refuses_an_empty_tag():
    prefix = hash_prefix(np.arange(2), np.array([[1, 2]]))
    with pytest.raises(ValueError):
        finish_tag(prefix, ())


@pytest.mark.parametrize("tag", [(2 ** 30,), (2 ** 64 - 1, 0), (2 ** 40 + 5, 2 ** 30)])
def test_a_finisher_without_the_first_step_is_caught(tag):
    # negative control: for a first tag element below 2**30 the xorshift is
    # the identity, above it the check must see the difference
    coords = np.array([[3, -4, 5, 2 ** 20 - 1]])
    assert _finisher_agrees(finish_tag, [7, 2 ** 63 - 1], coords, tag)
    assert not _finisher_agrees(_finish_without_first_step, [7, 2 ** 63 - 1], coords, tag)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=3),
       tags=st.lists(_TAG_ELEMENT, min_size=1, max_size=5))
def test_finish_tags_equals_finish_tag_per_tag(seeds, tags):
    # a block of one-element tags, row by row as finish_tag finishes them
    # (0 and elements above 2**30, where the first xorshift matters, included)
    prefix = hash_prefix(np.array(seeds, dtype=np.uint64), np.array([[1, -2], [2 ** 20 - 1, 0]]))
    block = finish_tags(prefix, tags)
    assert block.shape == (len(tags),) + prefix.shape
    for row, tag in zip(block, tags):
        assert np.array_equal(row, finish_tag(prefix, tag))


# -- sites packed once, hashed layer by layer ----------------------------------


@pytest.mark.parametrize("d", range(1, 8))  # the layer field in word 0, 1 and 2
@pytest.mark.parametrize("seeds", [12345, np.array([7, 2 ** 63 - 1, 0])],
                         ids=["scalar", "vector"])
def test_layer_sites_hash_as_their_coordinates_do(d, seeds):
    rng = np.random.default_rng(d)
    coords = rng.integers(-COORD_LIMIT + 1, COORD_LIMIT, size=(5, d - 1))
    layers = range(-COORD_LIMIT + 1, COORD_LIMIT)
    sites = LayerSites(coords, layers)
    states = LayerSites.seed_states(seeds)  # once for every layer
    shape = (5, np.size(seeds))  # site-major
    out, tmp = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    for k in (0, 1, -1, 2 ** 19 + 3, -(2 ** 20 - 1), 2 ** 20 - 1):
        full = np.concatenate([coords, np.full((5, 1), k)], axis=1)
        for tag in (0, 1, (3, 2 ** 40 + 1)):
            want = hash_words(np.atleast_1d(seeds), full, tag).T
            assert np.array_equal(sites.hash_words(states, k, tag), want), (k, tag)
            got = sites.hash_words(states, k, tag, out=out, tmp=tmp)
            assert np.shares_memory(got, out) and np.array_equal(got, want)
    with pytest.raises(ValueError, match="out must be C-contiguous"):
        sites.hash_words(states, 0, out=np.empty(shape[::-1], np.uint64))


def test_layer_sites_hash_site_rows_in_blocks(monkeypatch):
    # more sites than a block of CHAIN_BLOCK words holds: the chain core
    # mixes the (n, S) state a block of site rows at a time
    monkeypatch.setattr(sitefield, "CHAIN_BLOCK", 12)
    coords = np.arange(-20, 20).reshape(20, 2)
    seeds = np.array([3, -1, 2 ** 40])
    got = LayerSites(coords, range(9)).hash_words(LayerSites.seed_states(seeds), 7, (1, 2))
    full = np.concatenate([coords, np.full((20, 1), 7)], axis=1)
    assert np.array_equal(got, hash_words(seeds, full, (1, 2)).T)


def test_layer_sites_check_their_layers_once():
    coords = np.zeros((3, 2), dtype=np.int64)
    for layers in (range(COORD_LIMIT + 1), range(-COORD_LIMIT, 4), range(5, COORD_LIMIT + 6, 2 ** 19)):
        with pytest.raises(ValueError, match="coordinates must satisfy"):
            LayerSites(coords, layers)
    sites, states = LayerSites(coords, range(1, 9, 2)), LayerSites.seed_states(0)
    sites.hash_words(states, 7)
    for k in (0, 2, 9, COORD_LIMIT):
        with pytest.raises(ValueError, match=f"layer {k} is not in"):
            sites.hash_words(states, k)
    with pytest.raises(ValueError, match="coordinates must satisfy"):
        LayerSites(np.full((3, 2), COORD_LIMIT), range(4))


# -- blocks of seed rows in the chain core ------------------------------------


def _mix_array(z):
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unblocked_words(seeds, coords, tag):
    """The chain as defined, on whole (S, n) arrays: one mix64 per seed,
    coordinate word and tag element, with no blocks and no shared first
    step."""
    coords = np.asarray(coords, dtype=np.int64).reshape(len(coords), -1)
    h = _mix_array(np.atleast_1d(np.asarray(seeds, dtype=np.uint64)))[:, None]
    for g in range(0, coords.shape[1], 3):
        word = np.zeros(len(coords), dtype=np.uint64)
        for j, c in enumerate(coords[:, g:g + 3].T):
            word |= (c + COORD_OFFSET).astype(np.uint64) << np.uint64(21 * j)
        h = _mix_array(h ^ word)
    for t in tag:
        h = _mix_array(h ^ np.uint64(t))
    return h


def _block_cases():
    sites = 1000
    rows = CHAIN_BLOCK // sites  # seed rows per block
    for d in (1, 2, 3, 4):
        for count in (rows - 1, rows, rows + 1, 2 * rows + 1):
            yield d, sites, np.arange(count, dtype=np.int64) * 7919
    # rows larger than a block, one row per block; and a scalar seed
    yield 2, CHAIN_BLOCK + 5, np.arange(3, dtype=np.int64)
    yield 3, CHAIN_BLOCK + 5, 12345
    yield 4, sites, 12345


@pytest.mark.parametrize("d,sites,seeds", list(_block_cases()),
                         ids=lambda v: str(np.size(v)) if isinstance(v, np.ndarray) else None)
@pytest.mark.parametrize("buffers", [False, True], ids=["fresh", "given"])
def test_blocked_chain_equals_the_unblocked_chain_and_the_scalar_hash(d, sites, seeds,
                                                                      buffers):
    rng = np.random.default_rng(sites + d)
    coords = rng.integers(-COORD_LIMIT + 1, COORD_LIMIT, size=(sites, d))
    if d == 1:
        coords = coords[:, 0]
    tag = (3, 2 ** 40 + 1)
    shape = (sites,) if np.ndim(seeds) == 0 else (np.size(seeds), sites)
    ref = _unblocked_words(seeds, coords, tag).reshape(shape)
    given = {"out": np.empty(shape, np.uint64), "tmp": np.empty(shape, np.uint64)}
    words = hash_words(seeds, coords, tag, **(given if buffers else {}))
    assert np.array_equal(words, ref)
    assert np.shares_memory(words, given["out"]) == buffers
    uniforms = hash_uniforms(seeds, coords, tag)
    assert np.array_equal(uniforms, (ref >> np.uint64(11)) * 2.0 ** -53)
    # the empty tag: the prefix, with the first step of the next mix64
    prefix = _unblocked_words(seeds, coords, ()).reshape(shape)
    assert np.array_equal(hash_prefix(seeds, coords), prefix ^ (prefix >> np.uint64(30)))
    # the scalar path at the first, last and one inner site of every seed row
    sites_2d = coords.reshape(sites, -1)
    for row, seed in enumerate(np.atleast_1d(seeds)):
        for site in (0, sites - 1, int(rng.integers(sites))):
            got = uniforms[site] if np.ndim(seeds) == 0 else uniforms[row, site]
            assert got == hash_uniform_scalar(int(seed), tuple(sites_2d[site]), tag)
