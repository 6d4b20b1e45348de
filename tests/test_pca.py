"""Ring PCAs: local rules, couplings, exact kernel identities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percgame import pca
from percgame.pca import InvalidSymbolError
from percgame.sitefield import CHAIN_BLOCK, hash_uniform_scalar
from percgame.symbols import (LINEAR_RANK, ONE, QUES, ZERO, as_cells, format_word,
                              parse_word)


def test_local_rule_tables():
    # deterministic CA
    assert pca.local_rule("D", 0, 0, 0.9, 0.5) == ONE
    for l, r in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1)):
        assert pca.local_rule("D", l, r, 0.1, 0.5) == ZERO
    for l, r in ((2, 0), (0, 2), (2, 2)):
        assert pca.local_rule("D", l, r, 0.1, 0.5) == QUES
    # envelope F: a 1 present forces 0; ?-windows randomize toward 0
    for star in (0, 1, 2):
        assert pca.local_rule("F", 1, star, 0.99, 0.1) == ZERO
        assert pca.local_rule("F", star, 1, 0.0, 0.1) == ZERO
    assert pca.local_rule("F", 2, 0, 0.9, 0.1) == QUES
    assert pca.local_rule("F", 2, 0, 0.05, 0.1) == ZERO
    assert pca.local_rule("F", 0, 0, 0.05, 0.1) == ZERO
    assert pca.local_rule("F", 0, 0, 0.9, 0.1) == ONE
    # target-game side
    assert pca.local_rule("B", 0, 0, 0.99, 0.2) == ONE
    assert pca.local_rule("B", 1, 0, 0.1, 0.2) == ONE
    assert pca.local_rule("B", 1, 0, 0.9, 0.2) == ZERO
    assert pca.local_rule("G", 2, 0, 0.9, 0.2) == QUES
    assert pca.local_rule("G", 2, 0, 0.1, 0.2) == ONE
    # site-wise operators ignore the right input
    assert pca.local_rule("R0", 2, 1, 0.05, 0.1) == ZERO
    assert pca.local_rule("R0", 2, 1, 0.5, 0.1) == QUES
    assert pca.local_rule("R1", 0, 0, 0.05, 0.1) == ONE
    assert pca.local_rule("flip", 0, 2, 0.5, 0.5) == ONE
    assert pca.local_rule("flip", 2, 0, 0.5, 0.5) == QUES
    # stavskaya: 0 w.p. p else neighborhood max
    assert pca.local_rule("stavskaya", 0, 1, 0.9, 0.3) == ONE
    assert pca.local_rule("stavskaya", 0, 1, 0.1, 0.3) == ZERO


# Every kind's update, transcribed from the pca module docstring: the input
# window "lr" -> its output when u >= p, then when u < p (the probability-p
# branch).  Binary kinds list the four 0/1 windows only.
RULE_TABLE = {
    "A": {"00": "10", "01": "00", "10": "00", "11": "00"},
    "B": {"00": "11", "01": "01", "10": "01", "11": "01"},
    "F": {"00": "10", "01": "00", "10": "00", "11": "00", "1?": "00", "?1": "00",
          "0?": "?0", "?0": "?0", "??": "?0"},
    "G": {"00": "11", "01": "01", "10": "01", "11": "01", "1?": "01", "?1": "01",
          "0?": "?1", "?0": "?1", "??": "?1"},
    "D": {"00": "11", "01": "00", "10": "00", "11": "00", "1?": "00", "?1": "00",
          "0?": "??", "?0": "??", "??": "??"},
    "R0": {"00": "00", "01": "00", "0?": "00", "10": "10", "11": "10", "1?": "10",
           "?0": "?0", "?1": "?0", "??": "?0"},
    "R1": {"00": "01", "01": "01", "0?": "01", "10": "11", "11": "11", "1?": "11",
           "?0": "?1", "?1": "?1", "??": "?1"},
    "stavskaya": {"00": "00", "01": "10", "10": "10", "11": "10"},
    "flip": {"00": "11", "01": "11", "0?": "11", "10": "00", "11": "00", "1?": "00",
             "?0": "??", "?1": "??", "??": "??"},
}
# a ring that holds each window once, cyclically (a de Bruijn word)
EVERY_WINDOW = {2: "0011", 3: "0010?11??"}


def _table_value(kind, left, right, hit):
    return parse_word(RULE_TABLE[kind][format_word([left, right])][hit])[0]


@pytest.mark.parametrize("kind", pca.KINDS)
def test_local_rule_follows_the_rule_table(kind):
    alpha = pca.input_alphabet(kind)
    assert sorted(RULE_TABLE[kind]) == sorted(format_word(w) for w in
                                              itertools.product(alpha, repeat=2))
    for (left, right), p in itertools.product(itertools.product(alpha, repeat=2),
                                              (0.0, 0.3, 1.0)):
        for u in (0.0, 0.29, 0.3, 0.31, 0.999):
            assert pca.local_rule(kind, left, right, u, p) == \
                _table_value(kind, left, right, int(u < p)), (left, right, u, p)


@pytest.mark.parametrize("kind", pca.KINDS)
def test_step_follows_the_rule_table(kind):
    ring = as_cells(EVERY_WINDOW[len(pca.input_alphabet(kind))])
    n = ring.size
    assert {format_word(ring[[i, (i + 1) % n]]) for i in range(n)} == set(RULE_TABLE[kind])
    seen = set()
    for p, seed, tag in itertools.product((0.0, 0.5, 1.0), range(8), (0, 3)):
        seeds = None if kind in pca.DETERMINISTIC_KINDS else seed
        out = pca.step(kind, ring, p, seeds, time_tag=tag)
        for i in range(n):
            hit = int(hash_uniform_scalar(seed, (i,), tag) < p)
            assert out[i] == _table_value(kind, ring[i], ring[(i + 1) % n], hit), (p, seed, i)
            seen.add((i, hit))
    assert len(seen) == 2 * n  # each window was stepped both hit and not


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_step_and_trajectory_refuse_a_p_outside_0_1(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.step("F", "?????", p, 0)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.step("D", "?????", p)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.trajectory_stats("F", "?????", p, 3, 0)


def test_trajectory_refuses_negative_steps():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        pca.trajectory_stats("F", "?????", 0.5, -1, 0)
    assert pca.trajectory_stats("F", "?????", 0.5, 0, 0).tolist() == [[0.0, 1.0, 0.0]]


def test_binary_kinds_reject_question():
    with pytest.raises(InvalidSymbolError):
        pca.local_rule("A", 2, 0, 0.5, 0.5)
    with pytest.raises(InvalidSymbolError):
        pca.step("B", "0?1", 0.5, 0)


def test_step_examples():
    assert format_word(pca.step("D", "0000", 0.5)) == "1111"
    assert format_word(pca.step("A", [1] * 8, 0.5, 3)) == "0" * 8
    # deterministic kinds need no seed
    assert format_word(pca.step("flip", "01?01?", 0.5)) == "10?10?"


def test_step_matches_local_rule():
    rng = np.random.default_rng(1)
    for kind in pca.KINDS:
        alpha = pca.input_alphabet(kind)
        cells = rng.choice(alpha, size=12).astype(np.int8)
        out = pca.step(kind, cells, 0.37, 17, time_tag=5)
        for i in range(12):
            u = hash_uniform_scalar(17, (i,), 5)
            assert out[i] == pca.local_rule(kind, cells[i], cells[(i + 1) % 12], u, 0.37)


def test_restriction_pathwise():
    # on ?-free rings F equals A and G equals B under shared randomness
    rng = np.random.default_rng(2)
    for seed in range(20):
        c = rng.integers(0, 2, size=16).astype(np.int8)
        assert np.array_equal(pca.step("F", c, 0.3, seed, 1), pca.step("A", c, 0.3, seed, 1))
        assert np.array_equal(pca.step("G", c, 0.3, seed, 1), pca.step("B", c, 0.3, seed, 1))


def _stack(rng, kind, shape):
    return rng.choice(pca.input_alphabet(kind), size=shape).astype(np.int8)


@pytest.mark.parametrize("kind", pca.KINDS)
def test_a_shared_seed_steps_each_ring_as_alone(kind):
    cells = _stack(np.random.default_rng(5), kind, (2, 3, 12))
    cells[0, 1] = cells[1, 2]  # equal rings under one seed step alike
    out = pca.step(kind, cells, 0.4, 5, 2)
    assert out.shape == cells.shape and np.array_equal(out[0, 1], out[1, 2])
    for ring, got in zip(cells.reshape(-1, 12), out.reshape(-1, 12)):
        assert np.array_equal(got, pca.step(kind, ring, 0.4, 5, 2))


@pytest.mark.parametrize("kind", pca.KINDS)
def test_per_ring_seeds_step_each_ring_as_alone(kind):
    cells = _stack(np.random.default_rng(6), kind, (2, 3, 12))
    seeds = np.arange(6).reshape(2, 3) + 3
    out = pca.step(kind, cells, 0.3, seeds, time_tag=7)
    for ring, seed, got in zip(cells.reshape(-1, 12), seeds.ravel(), out.reshape(-1, 12)):
        assert np.array_equal(got, pca.step(kind, ring, 0.3, int(seed), 7))


def test_ragged_rings_are_refused():
    with pytest.raises(ValueError):
        pca.step("F", [parse_word("000"), parse_word("0000")], 0.5, 0)
    with pytest.raises(ValueError, match="one int per ring"):
        pca.step("F", np.zeros((2, 5), dtype=np.int8), 0.5, [0, 1, 2])


def test_a_list_of_words_is_a_stack_of_rings():
    words = ["01?", "0?1", "111"]
    codes = np.array([parse_word(w) for w in words], dtype=np.int8)
    assert np.array_equal(as_cells(words), codes)
    assert np.array_equal(as_cells(tuple(words)), codes)
    assert np.array_equal(pca.step("F", words, 0.5, 0), pca.step("F", codes, 0.5, 0))


def test_a_ragged_list_of_words_is_refused():
    with pytest.raises(ValueError, match="rings of one length"):
        as_cells(["01?", "0?10"])
    with pytest.raises(ValueError, match="rings of one length"):
        pca.step("F", ["01?", "0?1", "1111"], 0.5, 0)


def test_a_stack_of_short_rings_is_refused():
    for kind, seeds in (("F", [0, 1]), ("D", None), ("flip", 0)):
        with pytest.raises(ValueError, match="ring length"):
            pca.step(kind, np.zeros((2, 2), dtype=np.int8), 0.5, seeds)
        with pytest.raises(ValueError, match="ring length"):
            pca.trajectory_stats(kind, np.zeros((2, 2), dtype=np.int8), 0.5, 3, seeds)


def _lower_linear(rng, cells):
    """Random configuration <= cells in the 0 < ? < 1 order."""
    out = cells.copy()
    drop = rng.random(cells.shape) < 0.5
    out[(cells == ONE) & drop] = QUES
    drop2 = rng.random(cells.shape) < 0.5
    out[(out == QUES) & drop2] = ZERO
    return out


@pytest.mark.parametrize("kind", ["F", "G"])
def test_monotone_coupling_small(kind):
    rng = np.random.default_rng(7)
    for trial in range(200):
        c2 = rng.choice([ZERO, ONE, QUES], size=14).astype(np.int8)
        c1 = _lower_linear(rng, c2)
        o1, o2 = pca.step(kind, np.stack([c1, c2]), 0.3, 1000 + trial, trial)
        assert (LINEAR_RANK[o1] >= LINEAR_RANK[o2]).all()  # order reversal
        c3 = c2.copy()
        c3[rng.random(14) < 0.4] = QUES  # c2 <= c3 with ? maximal
        o2b, o3 = pca.step(kind, np.stack([c2, c3]), 0.3, 1000 + trial, trial)
        assert (((o3 == QUES) | (o2b == o3))).all()  # ?-order preserved


def test_envelope_domination_small():
    rng = np.random.default_rng(8)
    for trial in range(100):
        b1 = rng.integers(0, 2, size=12).astype(np.int8)
        b2 = rng.integers(0, 2, size=12).astype(np.int8)
        q = np.full(12, QUES, dtype=np.int8)
        for t in range(4):
            b1, b2, q = pca.step("F", np.stack([b1, b2, q]), 0.25, trial, t)
            assert ((b1 == b2) | (q == QUES)).all()


@given(st.integers(0, 2), st.integers(0, 2),
       st.floats(0, 1, exclude_max=True), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_local_rule_envelope_consistency(l, r, u, p):
    # F restricted to binary inputs equals A; outputs stay in the alphabet
    out = pca.local_rule("F", l, r, u, p)
    assert out in (ZERO, ONE, QUES)
    if l != QUES and r != QUES:
        assert out == pca.local_rule("A", l, r, u, p)
        assert pca.local_rule("G", l, r, u, p) == pca.local_rule("B", l, r, u, p)


@pytest.mark.parametrize("n,p", [(4, 0.25), (5, 0.5), (6, 0.75)])
def test_composition_identities_unit(n, p):
    assert pca.composition_check("F", n, p) <= 1e-12
    assert pca.composition_check("G", n, p) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_stavskaya_identity(p):
    assert pca.stavskaya_identity_check(p, 4)
    assert pca.stavskaya_identity_check(p, 5)


def test_ring_kernel_rows_are_distributions():
    for kind in ("F", "B", "stavskaya", "D"):
        rows, cols, probs = pca.ring_kernel(kind, 4, 0.3)
        assert len(np.unique(rows * 3 ** 4 + cols)) == len(rows)
        assert np.abs(np.bincount(rows, probs)[np.unique(rows)] - 1).max() < 1e-12


def test_no_preimage_pattern_exhaustive():
    for n in range(3, 9):
        assert pca.pattern_101_reachable("F", n) == 0
    # negative control: under D alone the pattern is also unreachable, but
    # under R1 it is reachable (any cell can randomize to 1)
    assert pca.pattern_101_reachable("R1", 5) > 0


def test_trajectory_fixtures():
    n = 64
    # p=1: every cell randomizes to 0 after one step
    stats = pca.trajectory_stats("F", [QUES] * n, 1.0, 1, 0)
    assert stats[1, 1] == 0.0 and stats[1, 0] == 1.0
    # p=0: F = D fixes the all-? ring
    stats = pca.trajectory_stats("F", [QUES] * n, 0.0, 10, 0)
    assert (stats[:, 1] == 1.0).all()


@pytest.mark.parametrize("kind,rings,n,seeds", [
    ("F", (), 512, 0),  # 32 steps per hash call
    ("G", (3,), 2000, [4, 5, 6]),  # 2 steps per call, one seed per ring
    ("A", (2,), 100, 9),  # a coupled step: one seed for both rings
])
def test_trajectory_blocks_equal_per_step_updates(kind, rings, n, seeds):
    # the steps' tags are finished a block at a time; the densities equal
    # those of one pca.step per time tag, across the block boundaries
    prefix_size = n * np.prod(rings, dtype=int) if np.ndim(seeds) else n
    steps = 2 * (CHAIN_BLOCK // prefix_size) + 3
    rng = np.random.default_rng(1)
    cells = rng.choice([ZERO, ONE] if kind in pca.BINARY_KINDS else [ZERO, QUES, ONE],
                       size=rings + (n,)).astype(np.int8)
    stats = pca.trajectory_stats(kind, cells, 0.3, steps, seeds)
    for t in range(steps + 1):
        for sym, col in ((ZERO, 0), (QUES, 1), (ONE, 2)):
            assert np.array_equal(stats[..., t, col], (cells == sym).mean(axis=-1))
        cells = pca.step(kind, cells, 0.3, seeds, time_tag=t)


def test_trajectory_relaxation_calibrated():
    # pilot-calibrated: mean ?-density from all-? at p=0.1 is non-increasing
    # (within 2 SE) and far below 0.05 by step 2000
    seeds = np.arange(50)
    rings = np.full((seeds.size, 512), QUES, dtype=np.int8)
    traj = pca.trajectory_stats("F", rings, 0.1, 2000, seeds)[:, ::100, 1]
    mean = traj.mean(axis=0)
    se = traj.std(axis=0, ddof=1) / np.sqrt(len(seeds))
    assert mean[-1] < 0.05
    for a, b, sa, sb in zip(mean[:-1], mean[1:], se[:-1], se[1:]):
        assert b <= a + 2 * np.hypot(sa, sb)


def test_trajectory_csv_schema():
    stats = pca.trajectory_stats("D", "0?1" * 4, 0.5, 2, None)
    rows = list(pca.trajectory_csv_rows(stats))
    assert rows[0] == (0, 1 / 3, 1 / 3, 1 / 3)
    assert len(rows) == 3

