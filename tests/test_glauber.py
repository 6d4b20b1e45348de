"""Doubling tori, class updates, chains, and the game coupling."""

import hashlib
from statistics import NormalDist

import numpy as np
import pytest

from percgame import exact, glauber, sitefield, workers
from percgame import lattice as lat
from percgame.sitefield import hash_uniforms

Z2 = lat.z2()
EVEN3 = lat.even_sublattice(3)
BCC4 = lat.bcc_lattice(4)
SUB3 = lat.subset_increment(3)
BIN31 = lat.binomial_family(3, 1)
BIN41 = lat.binomial_family(4, 1)
EXT3 = lat.even_sublattice_extended(3)


def test_torus_z2_is_cycle():
    t = glauber.build_doubling_torus(Z2, (10,))
    assert t.n_vertices == 10 and t.degree == 2 and t.q == 2
    for i in range(10):
        v = int(t.coords[i, 0])
        assert sorted(int(t.coords[j, 0]) for j in t.neighbors[i]) == \
            sorted(((v - 1) % 10, (v + 1) % 10))
        assert t.classes[i] == v % 2


def test_torus_even3_is_grid():
    t = glauber.build_doubling_torus(EVEN3, (6, 6))
    assert t.n_vertices == 36 and t.degree == 4
    i = {tuple(c): k for k, c in enumerate(t.coords.tolist())}[(2, 3)]
    nbrs = {tuple(t.coords[j]) for j in t.neighbors[i]}
    assert nbrs == {(1, 3), (3, 3), (2, 2), (2, 4)}


def test_torus_sub3_is_triangular():
    t = glauber.build_doubling_torus(SUB3, (6, 6))
    assert t.n_vertices == 36 and t.degree == 6 and t.q == 3
    # classes partition into three independent sets of equal size
    assert [len(m) for m in t.class_members] == [12, 12, 12]
    for i in range(36):
        assert all(t.classes[j] != t.classes[i] for j in t.neighbors[i])


def test_torus_bin31_is_hexagonal():
    t = glauber.build_doubling_torus(BIN31, (6, 6))
    assert t.n_vertices == 24 and t.degree == 3 and t.q == 2


def test_torus_bin41_is_diamond():
    t = glauber.build_doubling_torus(BIN41, (4, 4, 4))
    assert t.n_vertices == 32 and t.degree == 4 and t.q == 2


def test_torus_bcc4():
    t = glauber.build_doubling_torus(BCC4, (4, 4, 4))
    assert t.n_vertices == 16 and t.degree == 8  # bcc(3): 2 sublattices of 2Z^3


def test_torus_extended_drops_phi_edge():
    t_std = glauber.build_doubling_torus(EVEN3, (8, 8))
    t_ext = glauber.build_doubling_torus(EXT3, (8, 8))
    assert t_ext.degree == t_std.degree == 4  # the phi move adds no edge


def test_torus_incompatible_sizes():
    with pytest.raises(glauber.IncompatibleSizesError):
        glauber.build_doubling_torus(Z2, (9,))
    with pytest.raises(glauber.IncompatibleSizesError):
        glauber.build_doubling_torus(SUB3, (6, 8))
    with pytest.raises(lat.UnsupportedFamilyError):
        glauber.build_doubling_torus(lat.zd(3), (9, 9))


def test_class_update_fixtures():
    t = glauber.build_doubling_torus(Z2, (8,))
    empty = np.zeros(8, dtype=np.int8)
    sel = t.class_members[0]
    # p=1: all closed, class stays empty
    u = np.zeros(sel.size)  # u < p = 1 everywhere
    out = glauber.class_update(t, empty, 0, 1.0, "standard", u)
    assert (out == 0).all()
    # occupied neighbor forces 0 regardless of the uniform
    vals = glauber.checkerboard_config(t, 1)  # odd class fully occupied
    out = glauber.class_update(t, vals, 0, 0.0, "standard", np.full(sel.size, 0.99))
    assert (out[sel] == 0).all()
    # extended: an occupied vertex must vacate even if allowed to stay
    vals = glauber.checkerboard_config(t, 0)
    out = glauber.class_update(t, vals, 0, 0.0, "extended", np.full(sel.size, 0.99))
    assert (out[sel] == 0).all()
    # standard: same situation re-occupies (p=0, no neighbor occupied)
    out = glauber.class_update(t, vals, 0, 0.0, "standard", np.full(sel.size, 0.99))
    assert (out[sel] == 1).all()


def test_one_sweep_repairs_independence():
    # start from the all-occupied (infeasible) configuration: after one full
    # sweep the configuration is an independent set and stays one
    t = glauber.build_doubling_torus(EVEN3, (8, 8))

    def violations(vals):  # occupied vertices with an occupied neighbor
        return int(((vals == 1) & (vals[..., t.neighbors].max(axis=-1) == 1)).sum())

    vals = np.ones((1, t.n_vertices), dtype=np.int8)
    assert violations(vals) > 0
    seeds = np.array([3])
    for sweep in range(3):
        for i in range(t.q):
            sel = t.class_members[i]
            from percgame.sitefield import hash_uniforms
            u = hash_uniforms(seeds, t.coords[sel], (sweep, i))
            vals = glauber.class_update(t, vals, i, 0.4, "standard", u)
        assert violations(vals) == 0


def test_chain_determinism():
    t = glauber.build_doubling_torus(EVEN3, (8, 8))
    ts1, occ1 = glauber.run_chains(t, 0.3, "standard", 50, [5], "even", 10)
    ts2, occ2 = glauber.run_chains(t, 0.3, "standard", 50, [5], "even", 10)
    assert np.array_equal(occ1, occ2) and np.array_equal(ts1, ts2)


def test_ring_staggered_difference_vanishes():
    # hard-core on Z (the z2 doubling graph) has a unique Gibbs law: the
    # checkerboard memory washes out
    t = glauber.build_doubling_torus(Z2, (64,))
    seeds = np.arange(20)
    _, occ = glauber.run_chains(t, 0.25, "standard", 400, seeds, "even", 50)
    diff = glauber.staggered_difference(occ)
    tail = diff[:, -4:].mean()
    assert abs(tail) < 0.1


def test_sweep_chain_rows_schema():
    t = glauber.build_doubling_torus(Z2, (12,))
    rows = glauber.sweep_chain(t, 0.4, "standard", 10, 1, "even", 5)
    assert rows[0][:2] == (5, 0)
    assert all(len(r) == 4 for r in rows)


def test_small_tori_exact_stationarity():
    # every built doubling torus with <= 14 vertices is exactly stationary
    # under its class updates, both variants
    cases = [
        glauber.build_doubling_torus(Z2, (10,)),
        glauber.build_doubling_torus(Z2, (14,)),
        glauber.build_doubling_torus(SUB3, (3, 3)),
        glauber.build_doubling_torus(BIN31, (3, 3)),
    ]
    for torus in cases:
        assert torus.n_vertices <= 14
        nbrs = torus.neighbor_lists()
        classes = torus.class_lists()
        assert exact.kernel_stationarity_check(nbrs, classes, 1.3) <= 1e-12
        assert exact.kernel_stationarity_check(nbrs, classes, 0.6, "extended") <= 1e-12


@pytest.mark.parametrize("fam,sizes,K,p", [
    (Z2, (16,), 12, 0.3),
    (EVEN3, (8, 8), 10, 0.2),
    (SUB3, (6, 6), 10, 0.25),
    (BIN31, (6, 6), 10, 0.3),
    (BCC4, (4, 4, 4), 8, 0.3),
    (BIN41, (4, 4, 4), 8, 0.3),
])
def test_coupling_examples(fam, sizes, K, p):
    for seed in range(3):
        rep = glauber.game_glauber_coupling_check(fam, K, sizes, p, seed)
        assert rep.ok, f"{fam.name} seed {seed}: {rep.mismatches} mismatches"


def test_coupling_extended_variant():
    for seed in range(3):
        rep = glauber.game_glauber_coupling_check(EXT3, 10, (8, 8), 0.5, seed)
        assert rep.ok and rep.variant == "extended"


def test_coupling_variant_guards():
    with pytest.raises(ValueError):
        glauber.game_glauber_coupling_check(EXT3, 6, (8, 8), 0.5, 0, "standard")
    with pytest.raises(ValueError):
        glauber.game_glauber_coupling_check(Z2, 6, (8,), 0.5, 0, "extended")


def _reference_chains(torus, p, variant, sweeps, seeds, init, record_every):
    """run_chains spelled out with hash_uniforms and class_update."""
    base = {"even": glauber.checkerboard_config(torus, 0),
            "odd": glauber.checkerboard_config(torus, 1),
            "empty": np.zeros(torus.n_vertices, dtype=np.int8)}[init]
    vals = np.broadcast_to(base, (len(seeds), torus.n_vertices)).copy()
    ts, occs = [], []
    for t in range(sweeps):
        for i in range(torus.q):
            u = hash_uniforms(seeds, torus.coords[torus.class_members[i]], (t, i))
            vals = glauber.class_update(torus, vals, i, p, variant, u)
        if (t + 1) % record_every == 0 or t == sweeps - 1:
            ts.append(t + 1)
            occs.append(np.stack([(vals[:, mem] == 1).mean(axis=1)
                                  for mem in torus.class_members], axis=1))
    return np.array(ts), np.stack(occs, axis=1)


@pytest.mark.parametrize("fam,sizes,variant", [
    (EVEN3, (8, 8), "standard"), (Z2, (16,), "standard"),
    (SUB3, (6, 6), "standard"), (EXT3, (8, 8), "extended")])
@pytest.mark.parametrize("init", ["even", "odd", "empty"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
def test_run_chains_matches_reference_loop(fam, sizes, variant, init, p):
    _assert_chains_match_reference(fam, sizes, variant, init, p, np.arange(3, 7))


def _assert_chains_match_reference(fam, sizes, variant, init, p, seeds):
    t = glauber.build_doubling_torus(fam, sizes)
    ts, occ = glauber.run_chains(t, p, variant, 12, seeds, init, 5)
    ref_ts, ref_occ = _reference_chains(t, p, variant, 12, seeds, init, 5)
    assert np.array_equal(ts, ref_ts)
    assert occ.dtype == ref_occ.dtype and np.array_equal(occ, ref_occ)


# seed counts on both sides of the 64-lane word edges; p = 0.3 makes the
# seeds' chains differ, so that a lane read from the wrong seed shows
@pytest.mark.parametrize("fam,variant", [(EVEN3, "standard"), (EXT3, "extended")],
                         ids=["even3", "even_ext3"])
@pytest.mark.parametrize("init", ["even", "odd"])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_seeds", [1, 63, 64, 65, 130])
def test_run_chains_matches_reference_loop_across_word_edges(fam, variant, init, p, n_seeds):
    _assert_chains_match_reference(fam, (8, 8), variant, init, p, np.arange(n_seeds) + 3)


# a sweep's tags finished in row blocks of at most 7 and 11 rows of 3 seeds,
# which cut through the classes (64 and 16 vertices a torus, 36 subset(3)'s)
@pytest.mark.parametrize("fam,sizes,variant", [
    (EVEN3, (8, 8), "standard"), (Z2, (16,), "standard"),
    (SUB3, (6, 6), "standard"), (EXT3, (8, 8), "extended")])
@pytest.mark.parametrize("block", [21, 33])
def test_run_chains_matches_reference_loop_across_row_blocks(fam, sizes, variant, block,
                                                             monkeypatch):
    monkeypatch.setattr(sitefield, "SWEEP_BLOCK", block)
    _assert_chains_match_reference(fam, sizes, variant, "even", 0.3, np.arange(3, 6))


# SHA-256 of the occupations of 130 seeds (three lane blocks of 44, 43 and
# 43 seeds), recorded before the configuration was bit-sliced
CHAINS_OCCUPATION_SHA256 = {
    "standard": "b7db2d3a0f3010cb5701d6acd1052487255d8a0b8179e72692d018638d08b0d1",
    "extended": "cb837eb991b3dd302d2bc30991977868a48f592d5c7a19cd51f46323883598be",
}


@pytest.mark.parametrize("fam,variant", [(EVEN3, "standard"), (EXT3, "extended")],
                         ids=["even3", "even_ext3"])
def test_run_chains_occupations_are_byte_identical(fam, variant):
    t = glauber.build_doubling_torus(fam, (8, 8))
    ts, occ = glauber.run_chains(t, 0.3, variant, 20, np.arange(1000, 1130), "even", 7)
    assert ts.tolist() == [7, 14, 20] and occ.shape == (130, 3, 2)
    digest = hashlib.sha256(np.ascontiguousarray(occ).tobytes()).hexdigest()
    assert digest == CHAINS_OCCUPATION_SHA256[variant]


# 130 seeds on the 16x16 torus (256 vertices) for 200 sweeps hash 6.7 M
# words: two forked chunks of 65 seeds, each run in lane blocks of 33 and 32
FORKED_CHAINS = dict(sizes=(16, 16), sweeps=200, seeds=np.arange(1000, 1130))


@pytest.mark.parametrize("fam,variant", [(EVEN3, "standard"), (EXT3, "extended")],
                         ids=["even3", "even_ext3"])
def test_run_chains_bytes_do_not_depend_on_the_worker_count(fam, variant, monkeypatch):
    t = glauber.build_doubling_torus(fam, FORKED_CHAINS["sizes"])
    sweeps, seeds = FORKED_CHAINS["sweeps"], FORKED_CHAINS["seeds"]
    assert sweeps * t.n_vertices * seeds.size >= 2 * workers.FORK_MIN_WORDS
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    explicit = np.random.default_rng(5).integers(0, 2, t.n_vertices).astype(np.int8)
    for init in ("even", "odd", "empty", explicit):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PERC_THREADS", threads)
            ts, occ = glauber.run_chains(t, 0.3, variant, sweeps, seeds, init, 30)
            runs.append(ts.tobytes() + np.ascontiguousarray(occ).tobytes())
        assert occ.shape == (130, 7, 2) and runs[0] == runs[1]


def test_run_chains_runs_lane_blocks_of_at_most_64_seeds(monkeypatch):
    t = glauber.build_doubling_torus(EVEN3, (8, 8))
    sizes, chain_chunk = [], glauber._chain_chunk

    def recording(*args):
        sizes.append(args[-1].size)
        return chain_chunk(*args)

    monkeypatch.setattr(glauber, "_chain_chunk", recording)
    monkeypatch.setenv("PERC_THREADS", "1")
    _, occ = glauber.run_chains(t, 0.3, "standard", 3, np.arange(130))
    assert sizes == [44, 43, 43] and occ.shape == (130, 3, 2)


# The even(3) 4x4 torus (16 vertices) is small enough for the exact hard-core
# law.  Per seed, each class occupation is averaged over the sweeps after the
# burn-in; the seed mean is compared with the class mean of the exact
# marginals in units of its standard error across seeds.  The bound is fixed
# in advance: family-wise alpha = 0.01, two-sided, Bonferroni over the two
# classes at each of the two activities.  At activity 3 the seeds' class
# means split between the two checkerboard phases, whose spread hides a bias
# in a class mean, so each seed's mean total occupation (the number of
# occupied vertices), which is the same in both phases, is also compared
# with the exact total.  The two total checks reuse the 4-test bound, so
# the family-wise alpha over all 6 checks is at most about 0.015.
GIBBS_CHAINS = dict(sizes=(4, 4), seeds=np.arange(200), sweeps=2000, burn_in=200)
GIBBS_Z_BOUND = NormalDist().inv_cdf(1 - 0.01 / (2 * 4))


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_run_chains_occupations_match_the_exact_gibbs_law(lam):
    t = glauber.build_doubling_torus(EVEN3, GIBBS_CHAINS["sizes"])
    _, occ = glauber.run_chains(t, 1 / (1 + lam), "standard", GIBBS_CHAINS["sweeps"],
                                GIBBS_CHAINS["seeds"])
    per_seed = occ[:, GIBBS_CHAINS["burn_in"]:].mean(axis=1)  # (S, m)
    marginals = exact.gibbs_exact(t.neighbor_lists(), lam).marginals
    expected = np.array([marginals[mem].mean() for mem in t.class_members])
    sizes = np.array([len(mem) for mem in t.class_members])
    # the class occupations, then the total occupation
    for values, exact_mean in ((per_seed, expected), (per_seed @ sizes, marginals.sum())):
        stderr = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
        z = (values.mean(axis=0) - exact_mean) / stderr
        assert np.all(np.abs(z) <= GIBBS_Z_BOUND), z


@pytest.mark.parametrize("value,text", [("0", "must be >= 1"), ("abc", "must be an integer")])
def test_run_chains_refuses_a_bad_perc_threads(value, text, monkeypatch):
    t = glauber.build_doubling_torus(EVEN3, (8, 8))
    monkeypatch.setenv("PERC_THREADS", value)
    with pytest.raises(ValueError, match=f"PERC_THREADS {text}"):
        glauber.run_chains(t, 0.3, "standard", 2, [1, 2])


@pytest.mark.parametrize("kwargs,name", [
    (dict(sweeps=0), "sweeps"), (dict(record_every=0), "record_every"),
    (dict(seeds=[]), "seeds"), (dict(init=np.full(64, 2)), "init")],
    ids=["sweeps", "record_every", "seeds", "init"])
def test_run_chains_refuses_edge_inputs(kwargs, name):
    t = glauber.build_doubling_torus(EVEN3, (8, 8))
    args = dict(sweeps=5, seeds=[1, 2], init="even", record_every=1) | kwargs
    with pytest.raises(ValueError, match=name):
        glauber.run_chains(t, 0.3, "standard", **args)


SMALLEST_TORI = [
    (Z2, (2,)), (EVEN3, (2, 2)), (lat.even_sublattice(4), (2, 2, 2)),
    (lat.bcc_lattice(3), (2, 2)), (BCC4, (2, 2, 2)), (SUB3, (3, 3)),
    (lat.subset_increment(4), (4, 4, 4)), (BIN31, (3, 3)), (BIN41, (4, 4, 4)),
    (EXT3, (2, 2)),
]


@pytest.mark.parametrize("fam,sizes", SMALLEST_TORI, ids=lambda v: str(v))
def test_coupling_exact_on_the_smallest_tori(fam, sizes):
    for seed in range(5):
        rep = glauber.game_glauber_coupling_check(fam, 8, sizes, 0.3, seed)
        assert rep.ok, f"{fam.name} {sizes} seed {seed}: {rep.mismatches} mismatches"


@pytest.mark.parametrize("fam,sizes", SMALLEST_TORI + [
    (EVEN3, (6, 8)), (SUB3, (6, 9)), (BIN41, (4, 8, 4)), (EXT3, (4, 6))],
    ids=lambda v: str(v))
def test_neighbors_symmetric_and_across_classes(fam, sizes):
    t = glauber.build_doubling_torus(fam, sizes)
    nbrs = t.neighbors.tolist()
    for i, row in enumerate(nbrs):
        for j in row:
            assert row.count(j) == nbrs[j].count(i)
            assert t.classes[j] != t.classes[i]
    assert t.n_vertices == sum(len(m) for m in t.class_members)
