"""Certified early stop: ``win_origins`` against the full depth-n sweep, its
decision depths, its worst-case hashing, and a negative control."""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from percgame import sitefield, solver
from percgame.solver import AllOne, AllZero

EDGE_P = [0.0, 1.0, 1e-9, 1 - 1e-9]
N = st.integers(0, 60)
# up to 9 p: at two boundaries per p, 18 lanes spill over two uint8 words
GRID = st.lists(st.one_of(st.sampled_from(EDGE_P), st.floats(0.0, 1.0)), min_size=1, max_size=9)
SEEDS = st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=12, unique=True)


def _check(n, grid, seeds):
    values, depths = solver.win_origins(n, grid, seeds)
    full, _ = solver.triangle_sweep(n, AllZero(), grid, seeds)
    assert values.dtype == full.dtype
    assert np.array_equal(values, full), "origins differ from the full sweep"
    schedule = solver.stop_depths(n)
    assert depths.shape == full.shape and set(depths.flat) <= set(schedule) | {n}
    # a pair decided at d < n: the two boundaries agree at d, and at no
    # scheduled depth before it
    for d in schedule:
        zero, _ = solver.triangle_sweep(d, AllZero(), grid, seeds)
        one, _ = solver.triangle_sweep(d, AllOne(), grid, seeds)
        agree, later = zero == one, (depths > d) & (depths < n)
        assert agree[depths == d].all() and not agree[later].any()
        assert np.array_equal(zero[depths == d], full[depths == d])


@settings(max_examples=60, deadline=None)
@given(n=N, grid=GRID, seeds=SEEDS)
def test_win_origins_equal_the_full_sweep(n, grid, seeds):
    _check(n, grid, seeds)


@pytest.mark.parametrize("n", [0, 7, 8, 16, 17, 60, 400])
def test_win_origins_at_the_edges(n):
    seeds = np.arange(30)
    _check(n, EDGE_P + [0.2, 0.5], seeds)


def test_an_unchecked_early_stop_fails_the_property(monkeypatch):
    # negative control: take the all-0 origin at the first scheduled depth
    # for both boundaries, so that every pair stops there unchecked
    bounds = solver._origin_bounds

    def unchecked(d, thresholds, seeds):
        zero, _ = bounds(d, thresholds, seeds)
        return zero, zero

    monkeypatch.setattr(solver, "_origin_bounds", unchecked)

    # the first failing example is enough: no shrinking
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=[Phase.generate])
    @given(n=N, grid=GRID, seeds=SEEDS)
    def property_(n, grid, seeds):
        _check(n, grid, seeds)

    with pytest.raises(AssertionError, match="origins differ from the full sweep"):
        property_()


def test_stop_depths_double_then_end_at_a_quarter_and_a_half():
    assert solver.stop_depths(0) == solver.stop_depths(8) == solver.stop_depths(16) == []
    assert solver.stop_depths(17) == [8]
    assert solver.stop_depths(50) == [8, 12, 25]
    assert solver.stop_depths(400) == [8, 16, 32, 64, 100, 200]
    assert solver.stop_depths(1000) == [8, 16, 32, 64, 128, 250, 500]
    for n in range(17, 2000):
        depths = solver.stop_depths(n)
        assert depths[0] == 8 and depths == sorted(set(depths)) and depths[-1] < n
        assert depths[-1] == max(8, n // 2)


def _count_hashed_words(monkeypatch):
    monkeypatch.setenv("PERC_THREADS", "1")
    hashed = []

    def counting(seeds, coords, tag=0, out=None, tmp=None):
        words = sitefield.hash_words(seeds, coords, tag, out, tmp)
        hashed.append(words.size)
        return words

    monkeypatch.setattr(solver, "hash_words", counting)
    return hashed


@pytest.mark.parametrize("n", [0, 8, 50, 400])
def test_hashed_words_at_p0_are_bounded(monkeypatch, n):
    """At p = 0 no seed stops early; counted, the hashed words stay within
    1.25 times those of the full sweep."""
    hashed = _count_hashed_words(monkeypatch)
    seeds = np.arange(20)
    values, depths = solver.win_origins(n, [0.0], seeds)
    full = seeds.size * n * (n + 1) // 2
    assert (depths == n).all() and (values == n % 2).all()
    assert full <= sum(hashed) <= 1.25 * full


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 120), grid=GRID, seeds=SEEDS)
def test_hashed_words_stay_within_the_first_round_of_the_full_sweep(n, grid, seeds):
    """Whatever the rounds decide, a run hashes at most the full sweep's
    words plus those of the first round: each later round runs only when
    the one before it saved the full sweep at least its words."""
    with pytest.MonkeyPatch.context() as mp:
        hashed = _count_hashed_words(mp)
        solver.win_origins(n, grid, seeds)
    first = (solver.stop_depths(n) or [0])[0]
    assert sum(hashed) <= len(seeds) * (n * (n + 1) + first * (first + 1)) // 2


def test_seeds_past_the_doubling_rounds_are_decided_by_half_depth():
    """Seeds 3000-3999 at p = 0.2 hold a pair still undecided at depth 128
    (seed 3525); the round at n/2 decides it, so no seed takes the depth-n
    sweep."""
    _, depths = solver.win_origins(400, [0.2, 0.5], np.arange(3000, 4000))
    assert (depths < 400).all() and (depths[0, 525] == 200)


def test_win_origins_decide_most_seeds_early():
    """At p = 0.5 most origins are decided at the first scheduled depth."""
    values, depths = solver.win_origins(400, [0.5], np.arange(200))
    assert (depths == 8).mean() > 0.8 and (depths < 400).all()


def test_win_origins_take_p_as_a_1d_sequence():
    for bad in (0.2, [[0.2]], [], [float("nan")]):
        with pytest.raises(ValueError):
            solver.win_origins(20, bad, [0])
