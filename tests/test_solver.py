"""Backward induction: recursion fixtures, couplings, profiles, rendering."""

import dataclasses

import numpy as np
import pytest

from percgame import lattice as lat
from percgame import solver
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
            r1 = LINEAR_RANK[rows1[k][0, 0]]
            r2 = LINEAR_RANK[rows2[k][0, 0]]
            if (n - k) % 2 == 0:
                assert (r1 <= r2).all()
            else:
                assert (r1 >= r2).all()


def test_ques_order_preserved_slab():
    # boundary eta <= eta~ in the ?-maximal order is preserved layer by layer
    index = solver.SlabIndex(EVEN3, (8, 8))
    K = 12
    for seed in range(5):
        layers_q = solver.slab_sweep(index, K, AllQuestion(), 0.2, [seed],
                                     record_layers=range(K))
        layers_0 = solver.slab_sweep(index, K, AllZero(), 0.2, [seed],
                                     record_layers=range(K))
        for k in range(K):
            a, q = layers_0[k][0], layers_q[k][0]
            assert ((q == QUES) | (a == q)).all()


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
    layers = solver._slab_boundary(index, Checkerboard(), 10, 2, np.array([0]))
    assert all((v == 0).all() for v in layers.values())


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
    with pytest.raises(ValueError):
        solver.boundary_sensitivity(SlabIndex(lat.zd(3), (9, 9)), 0.2, seeds, 6)


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


def test_recurse_matches_the_rule_site_by_site():
    vals = np.array([ZERO, ONE, QUES], dtype=np.int8)
    a, b, c = (x.ravel() for x in np.meshgrid(vals, vals, vals, indexing="ij"))
    for closed in (np.zeros(a.size, dtype=bool), np.ones(a.size, dtype=bool)):
        three = solver.recurse(closed, (a, b, c), True)
        two = solver.recurse(closed, (a, b, c), False)
        for i, outs in enumerate(zip(a, b, c)):
            if closed[i] or ONE in outs:
                expect = ZERO
            else:
                expect = ONE if set(outs) == {ZERO} else QUES
            assert three[i] == expect
            assert two[i] == (ONE if not closed[i] and set(outs) == {ZERO} else ZERO)
        assert three.dtype == two.dtype == np.int8


def test_triangle_sampled_extremes_equal_constant_boundaries():
    seeds = np.arange(5)
    for q, const in ((0.0, solver.AllZero()), (1.0, solver.AllOne())):
        _, rows = solver.triangle_sweep(12, Sampled(q), [0.3], seeds, keep_all=True)
        _, ref = solver.triangle_sweep(12, const, [0.3], seeds, keep_all=True)
        assert all(np.array_equal(rows[k], ref[k]) for k in ref)


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


def test_solve_triangle_equals_a_sweep_over_a_p_sequence():
    # each p of one batched sweep gives the values that solve_triangle
    # places on the plane, next to the closed bits of the site field
    seed, grid, n = 4, [0.0, 0.25, 0.7, 1.0], 9
    _, rows = solver.triangle_sweep(n, AllQuestion(), grid, [seed], keep_all=True)
    for i, p in enumerate(grid):
        out = solver.solve_triangle(n, AllQuestion(), p, seed)
        for k in range(n + 1):
            coords = np.stack([k - np.arange(k + 1), np.arange(k + 1)], axis=1)
            assert np.array_equal(out.values[coords[:, 0], coords[:, 1]], rows[k][i, 0])
            assert np.array_equal(out.closed[coords[:, 0], coords[:, 1]],
                                  hash_below(seed, coords, 0, p))
