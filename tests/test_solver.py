"""Backward induction: recursion fixtures, couplings, profiles, rendering."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percgame import lattice as lat
from percgame import sitefield, solver
from percgame.sitefield import hash_below, hash_uniform_scalar
from percgame.solver import (AllQuestion, AllZero, BoundaryShapeError,
                             Checkerboard, Explicit, Sampled, SlabIndex)
from percgame.symbols import LINEAR_RANK, ONE, QUES, ZERO

Z2 = lat.z2()
EVEN3 = lat.even_sublattice(3)
SUB3 = lat.subset_increment(3)
EXT3 = lat.even_sublattice_extended(3)


def _find_seed(pred, limit=5000):
    for seed in range(limit):
        if pred(seed):
            return seed
    raise AssertionError("no seed found")


def test_loss_when_both_moves_blocked():
    # open origin whose two out-neighbors are closed: eta(origin) = 1 (loss)
    p = 0.6
    def closed(seed, x):
        return hash_uniform_scalar(seed, x, 0) < p

    seed = _find_seed(lambda s: not closed(s, (0, 0)) and closed(s, (0, 1))
                      and closed(s, (1, 0)))
    out = solver.solve_triangle(2, AllQuestion(), p, seed)
    assert out.values[0, 0] == ONE
    assert out.values[0, 1] == ZERO and out.values[1, 0] == ZERO


def test_p0_all_question_all_draws():
    out = solver.solve_triangle(15, AllQuestion(), 0.0, 3)
    inside = out.values >= 0
    assert ((out.values == QUES) == inside).all()


def test_p0_checkerboard_gives_alternating_solution():
    out = solver.solve_triangle(9, Checkerboard(), 0.0, 3)
    for x1 in range(10):
        for x2 in range(10 - x1):
            assert out.values[x1, x2] == (x1 + x2) % 2


def test_explicit_boundary_binary_only():
    with pytest.raises(BoundaryShapeError):
        solver.solve_triangle(3, Explicit(np.array([0, 1, QUES, 0])), 0.2, 0)
    with pytest.raises(BoundaryShapeError):
        solver.solve_triangle(3, Explicit(np.zeros(3)), 0.2, 0)
    # values are checked before any cast: none of these may read as 0 or 1
    for bad in (0.5, 0.9, 256, -255):
        with pytest.raises(BoundaryShapeError, match="0/1"):
            solver.triangle_sweep(5, Explicit([bad, 1, 0, 1, 0, 1]), [0.2], [0])
    for q in (1.5, -2, float("nan")):
        with pytest.raises(BoundaryShapeError, match=r"q in \[0, 1\]"):
            solver.triangle_sweep(5, Sampled(q), [0.2], [0])


def test_envelope_domination_triangle():
    # wherever two binary-boundary solutions differ, the all-? solution is ?
    rng = np.random.default_rng(0)
    n = 24
    for seed in range(10):
        b1 = rng.integers(0, 2, n + 1).astype(np.int8)
        b2 = rng.integers(0, 2, n + 1).astype(np.int8)
        s1 = solver.solve_triangle(n, Explicit(b1), 0.15, seed)
        s2 = solver.solve_triangle(n, Explicit(b2), 0.15, seed)
        sq = solver.solve_triangle(n, AllQuestion(), 0.15, seed)
        inside = s1.values >= 0
        disagree = (s1.values != s2.values) & inside
        assert (sq.values[disagree] == QUES).all()


def test_order_reversal_by_layer_triangle():
    # boundary b1 <= b2 (0 < ? < 1): solved layers alternate >= / <=
    rng = np.random.default_rng(1)
    n = 16
    for seed in range(10):
        b2 = rng.integers(0, 2, n + 1).astype(np.int8)
        b1 = (b2 & rng.integers(0, 2, n + 1)).astype(np.int8)
        _, rows1 = solver.triangle_sweep(n, Explicit(b1), [0.2], [100 + seed], keep_all=True)
        _, rows2 = solver.triangle_sweep(n, Explicit(b2), [0.2], [100 + seed], keep_all=True)
        for k in range(n + 1):
            r1 = LINEAR_RANK[rows1[k][0][0, 0]]
            r2 = LINEAR_RANK[rows2[k][0][0, 0]]
            if (n - k) % 2 == 0:
                assert (r1 <= r2).all()
            else:
                assert (r1 >= r2).all()


def test_ques_order_preserved_slab():
    # boundary eta <= eta~ in the ?-maximal order is preserved layer by layer
    index = solver.SlabIndex(EVEN3, (8, 8))
    K = 12
    for seed in range(5):
        layers_q = solver.slab_layers(index, K, AllQuestion(), 0.2, [seed])
        layers_0 = solver.slab_layers(index, K, AllZero(), 0.2, [seed])
        for (k, _, q), (_, _, a) in zip(layers_q, layers_0):
            if k < K:
                assert ((q[0] == QUES) | (a[0] == q[0])).all()


def test_deepening_consistency():
    # a site resolved at depth K keeps its value at depth K' > K (same seed)
    index = solver.SlabIndex(Z2, (32,))
    for seed in range(20):
        l20 = solver.slab_sweep(index, 20, AllQuestion(), 0.15, [seed])
        l40 = solver.slab_sweep(index, 40, AllQuestion(), 0.15, [seed])
        v20, v40 = l20[0][0], l40[0][0]
        resolved = v20 != QUES
        assert (v40[resolved] == v20[resolved]).all()


def test_slab_explicit_boundary_shape_guard():
    index = solver.SlabIndex(Z2, (8,))
    with pytest.raises(BoundaryShapeError):
        solver.slab_sweep(index, 6, Explicit({6: np.zeros(4, dtype=np.int8)}),
                          0.3, [0])  # missing layer 7


def test_checkerboard_slab_even_family_degenerates_to_zero():
    # even-sum membership makes the coordinate-sum parity vanish
    index = solver.SlabIndex(EVEN3, (6, 6))
    layers = {k: v for k, _, v in solver.slab_layers(index, 10, Checkerboard(), 0.0, [0])}
    assert all((layers[k] == 0).all() for k in (10, 11))


def test_draw_profile_fixtures():
    seeds = np.arange(4)
    index = SlabIndex(Z2, (16,))
    rows1 = solver.draw_scan(index, 1.0, seeds, [4, 8, 12])[0]
    assert all(r[1] == 0.0 for r in rows1)  # p=1: everything closed, no draws
    rows0 = solver.draw_scan(index, 0.0, seeds, [4, 8, 12])[0]
    assert all(r[1] == 1.0 for r in rows0)  # p=0: all draws


def test_draw_profile_monotone_per_seed():
    index = solver.SlabIndex(Z2, (32,))
    for seed in range(10):
        fracs = []
        for K in (8, 16, 32, 64):
            layers = solver.slab_sweep(index, K, AllQuestion(), 0.12, [seed])
            fracs.append((layers[0][0] == QUES).mean())
        assert all(a >= b for a, b in zip(fracs[:-1], fracs[1:]))


def test_draw_profile_strict_decay_z2():
    # deeper information strictly resolves draws at p = 0.1 (seed average)
    rows = solver.draw_scan(SlabIndex(Z2, (32,)), 0.1, np.arange(100), [20, 200])[0]
    assert rows[1][1] < rows[0][1]


def test_boundary_sensitivity_fixtures():
    seeds = np.arange(16)
    res = solver.boundary_sensitivity(SlabIndex(Z2, (16,)), 1.0, seeds, 12)
    assert res.fraction == 0.0  # closed origin forces 0 under both boundaries
    # zd(3) has no layer automorphism, and the slab needs none
    index = SlabIndex(lat.zd(3), (9, 9))
    res = solver.boundary_sensitivity(index, 0.2, seeds, 6)
    assert np.array_equal(res.disagree, solver.draw_scan(index, 0.2, seeds, [6])[1][0].disagree)


def test_sampled_boundary_reproducible():
    index = solver.SlabIndex(Z2, (16,))
    a = solver.slab_sweep(index, 8, Sampled(0.5), 0.3, [7])
    b = solver.slab_sweep(index, 8, Sampled(0.5), 0.3, [7])
    assert np.array_equal(a[0], b[0])


def test_slab_matches_triangle_interior():
    # on a wide ring the slab recursion reproduces the plane recursion at the
    # origin when the light cone never wraps
    K = 10
    index = solver.SlabIndex(Z2, (64,))
    slab = solver.slab_sweep(index, K, AllZero(), 0.3, [11])
    # plane solve with the same site keys (v, k): replicate by direct recursion
    vals = {}
    for v in range(-K - 2, K + 3):
        if (v + K) % 2 == 0:
            vals[(v, K)] = ZERO
    for k in range(K - 1, -1, -1):
        for v in range(-k - 2, k + 3):
            if (v + k) % 2:
                continue
            if hash_uniform_scalar(11, (v % 64, k), 0) < 0.3:
                vals[(v, k)] = ZERO
            else:
                a = vals[(v + 1, k + 1)]
                b = vals[(v - 1, k + 1)]
                vals[(v, k)] = ONE if (a == ZERO and b == ZERO) else ZERO
    assert slab[0][0][index.origin_pos] == vals[(0, 0)]


def test_render_outcomes(tmp_path):
    out1 = solver.solve_triangle(12, AllQuestion(), 1.0, 2)
    path = tmp_path / "all_closed.ppm"
    solver.render_outcomes(out1, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n13 13\n255\n")
    img = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(13, 13, 3)
    inside = solver.outcome_image(out1) != 255
    assert ((img == 0) | ~inside).all()  # triangle all black, rest white

    out0 = solver.solve_triangle(12, AllQuestion(), 0.0, 2)
    img0 = solver.outcome_image(out0)
    reds = (img0 == np.array([220, 0, 0], dtype=np.uint8)).all(axis=2)
    assert reds.sum() == 13 * 14 // 2  # whole region is drawn


def test_render_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    solver.render_outcomes(solver.solve_triangle(40, AllQuestion(), 0.2, 9), p1)
    solver.render_outcomes(solver.solve_triangle(40, AllQuestion(), 0.2, 9), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_counts_precedence():
    out = solver.solve_triangle(30, AllQuestion(), 0.35, 4)
    c = out.counts()
    n_sites = 31 * 32 // 2
    assert c["closed"] + c["win"] + c["loss"] + c["draw"] == n_sites


# (zero, one) pairs of the symbols
PAIR = {ZERO: (True, False), ONE: (False, True), QUES: (False, False)}


def _rule(closed, outs):
    """The game rule on one site, symbol by symbol."""
    if closed or ONE in outs:
        return ZERO
    return ONE if set(outs) == {ZERO} else QUES


def _pack(flags, dtype):
    """Words of ``dtype`` whose bit i holds flags[i], from (lanes, sites)
    bools; for dtype bool, the one lane itself."""
    if dtype is bool:
        return flags[0].copy()
    shifts = np.arange(len(flags), dtype=dtype)[:, None]
    return np.bitwise_or.reduce(flags.astype(dtype) << shifts, axis=0)


def _unpack(words, n_lanes):
    """(lanes, sites) bools of the bits of ``words``."""
    shifts = np.arange(n_lanes, dtype=np.uint64)[:, None]
    return (words.astype(np.uint64) >> shifts & np.uint64(1)).astype(bool)


def _play_site_by_site(rule, dtype, n_lanes):
    """Run ``rule`` on each closed bit and each of the 27 target triples,
    lane i holding the triples rolled by i, and check every lane of every
    site against the game rule."""
    triples = np.array(list(itertools.product((ZERO, ONE, QUES), repeat=3)))
    lanes = np.stack([np.roll(triples, i, axis=0) for i in range(n_lanes)])
    for closed in (False, True):
        targets = [tuple(_pack(lanes[..., j] == code, dtype) for code in (ZERO, ONE))
                   for j in range(3)]
        # a closed site has every lane bit set
        zero = _pack(np.full(lanes.shape[:2], closed), dtype)
        one = np.empty_like(zero)
        rule(zero, one, iter(targets))
        got = np.stack([_unpack(zero, n_lanes), _unpack(one, n_lanes)], axis=-1)
        for i in range(n_lanes):
            for s, outs in enumerate(lanes[i]):
                assert tuple(got[i, s]) == PAIR[_rule(closed, tuple(outs))]


@pytest.mark.parametrize("dtype,n_lanes", [(bool, 1), (np.uint8, 8), (np.uint64, 64)])
def test_play_matches_the_rule_site_by_site(dtype, n_lanes):
    _play_site_by_site(solver.play, dtype, n_lanes)


def test_a_rule_that_drops_the_closed_bit_fails_site_by_site():
    # negative control: an open start for every site breaks the closed cases
    def open_start(zero, one, targets):
        zero[...] = 0
        return solver.play(zero, one, targets)

    for dtype, n_lanes in ((bool, 1), (np.uint8, 8)):
        with pytest.raises(AssertionError):
            _play_site_by_site(open_start, dtype, n_lanes)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_moves=st.integers(1, 4), sites=st.integers(1, 20),
       dtype=st.sampled_from([bool, np.uint8, np.uint64]))
def test_play_keeps_two_valued_pairs_two_valued(data, n_moves, sites, dtype):
    def words():
        if dtype == bool:
            return np.array(data.draw(st.lists(st.booleans(), min_size=sites, max_size=sites)))
        top = int(np.iinfo(dtype).max)
        return np.array(data.draw(st.lists(st.integers(0, top), min_size=sites,
                                           max_size=sites)), dtype=dtype)

    closed = words()
    targets = [(z, ~z) for z in (words() for _ in range(n_moves))]
    zero, one = closed.copy(), np.empty_like(closed)
    solver.play(zero, one, targets)
    assert np.array_equal(one, ~zero)
    assert np.array_equal(zero & closed, closed)  # closed lanes are 0


def test_triangle_sampled_extremes_equal_constant_boundaries():
    seeds = np.arange(5)
    for q, const in ((0.0, solver.AllZero()), (1.0, solver.AllOne())):
        _, rows = solver.triangle_sweep(12, Sampled(q), [0.3], seeds, keep_all=True)
        _, ref = solver.triangle_sweep(12, const, [0.3], seeds, keep_all=True)
        assert all(np.array_equal(rows[k][0], ref[k][0]) for k in ref)


def test_solve_triangle_closed_bits_are_the_site_field_bits(tmp_path):
    # pin the closed bits of solve_triangle, its counts and its rendered
    # bytes against the site-by-site scalar hash, u < p, on every site
    for n, p, seed, boundary in ((25, 0.3, 4, AllQuestion()), (12, 0.0, 1, AllZero()),
                                 (12, 1.0, 2, Checkerboard()), (40, 0.2, 9, Sampled(0.5))):
        out = solver.solve_triangle(n, boundary, p, seed)
        ref = np.zeros((n + 1, n + 1), dtype=bool)
        x1, x2 = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
        ref[x1, x2] = [hash_uniform_scalar(seed, x, 0) < p for x in zip(x1, x2)]
        assert np.array_equal(out.closed, ref)
        ref_out = dataclasses.replace(out, closed=ref)
        assert out.counts() == ref_out.counts()
        solver.render_outcomes(out, tmp_path / "out.ppm")
        solver.render_outcomes(ref_out, tmp_path / "ref.ppm")
        assert (tmp_path / "out.ppm").read_bytes() == (tmp_path / "ref.ppm").read_bytes()


def test_solve_triangle_hashes_each_diagonal_once(monkeypatch):
    # the sweep hashes diagonals 0..n-1, in batches, and keeps their closed
    # bits; only the boundary diagonal n is hashed again, for its closed bits
    n, calls = 50, []
    real_words = sitefield.hash_words

    def counting_words(seeds, coords, tag=0, out=None, tmp=None):
        calls.append((tag, np.asarray(coords)))
        return real_words(seeds, coords, tag, out, tmp)

    # the solver's own binding, and the one the other sitefield hashes call
    monkeypatch.setattr(solver, "hash_words", counting_words)
    monkeypatch.setattr(sitefield, "hash_words", counting_words)
    solver.solve_triangle(n, AllQuestion(), 0.3, 7)
    assert [tag for tag, _ in calls] == [0] * len(calls)
    assert len(calls) <= 2 < n  # one seed: one batch, then the boundary
    hashed = np.concatenate([coords for _, coords in calls])
    sites, counts = np.unique(hashed, axis=0, return_counts=True)
    x1, x2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    triangle = np.stack([x1, x2], axis=-1)[x1 + x2 <= n]
    assert np.array_equal(sites, np.unique(triangle, axis=0)) and (counts == 1).all()


@pytest.mark.parametrize("seeds", [[5], [3, 11, 2 ** 40]])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_hash_batches_give_the_same_sweep(monkeypatch, block, seeds):
    # batches of 1, 7 and 64 words split the diagonals everywhere, some
    # diagonals larger than a batch; the bits do not depend on the split
    n = 23
    # 9 lanes in the sweep, 5 p x 2 boundaries = 10 in the win_origins rounds
    grid = [0.0, 0.1, 0.3, 0.45, 0.5, 0.6, 0.8, 0.95, 1.0]
    default = [solver.triangle_sweep(n, AllQuestion(), grid, seeds, keep_all=True),
               solver.win_origins(n, grid[:5], seeds)]
    monkeypatch.setattr(solver, "CHAIN_BLOCK", block)
    (origins, rows), win = (solver.triangle_sweep(n, AllQuestion(), grid, seeds, keep_all=True),
                            solver.win_origins(n, grid[:5], seeds))
    assert origins.tobytes() == default[0][0].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(win, default[1]))
    for k in range(n + 1):
        assert rows[k][0].tobytes() == default[0][1][k][0].tobytes()
        if k < n:
            assert np.array_equal(rows[k][1], [hash_below(seeds, solver._diag_coords(k), 0, p)
                                               for p in grid])


def test_solve_triangle_equals_a_sweep_over_a_p_sequence():
    # each p of one batched sweep gives the values that solve_triangle
    # places on the plane, next to the closed bits of the site field
    seed, grid, n = 4, [0.0, 0.25, 0.7, 1.0], 9
    _, rows = solver.triangle_sweep(n, AllQuestion(), grid, [seed], keep_all=True)
    for i, p in enumerate(grid):
        out = solver.solve_triangle(n, AllQuestion(), p, seed)
        for k in range(n + 1):
            coords = np.stack([k - np.arange(k + 1), np.arange(k + 1)], axis=1)
            assert np.array_equal(out.values[coords[:, 0], coords[:, 1]], rows[k][0][i, 0])
            assert np.array_equal(out.closed[coords[:, 0], coords[:, 1]],
                                  hash_below(seed, coords, 0, p))
