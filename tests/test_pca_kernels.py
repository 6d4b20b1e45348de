"""Exact ring kernels against a dense reference built here, negative controls
for the kernel checks, kernels at a sequence of p against the kernel at each
p, the domain of the exact kernels, trajectory_stats against a loop of steps,
and its sampled ?-density, and that of the z2 slab's layers, against the
exact law."""

import itertools
from statistics import NormalDist

import numpy as np
import pytest

from percgame import exact, lattice, pca, solver
from percgame.pca import InvalidSymbolError
from percgame.symbols import ONE, QUES, ZERO

TERNARY_KINDS = [k for k in pca.KINDS if k not in pca.BINARY_KINDS]


def cell_law(kind, l, r, p):
    """One output cell's law {value: probability} given its inputs (l, r),
    read off the update tables in the pca module docstring."""
    def mix(a, b):  # a w.p. p, b w.p. 1 - p
        return {a: 1.0} if a == b else {a: p, b: 1.0 - p}

    zz, one = (l, r) == (ZERO, ZERO), ONE in (l, r)
    return {
        "A": mix(ZERO, ONE) if zz else {ZERO: 1.0},
        "B": {ONE: 1.0} if zz else mix(ONE, ZERO),
        "F": mix(ZERO, ONE) if zz else {ZERO: 1.0} if one else mix(ZERO, QUES),
        "G": {ONE: 1.0} if zz else mix(ONE, ZERO) if one else mix(ONE, QUES),
        "D": {ONE: 1.0} if zz else {ZERO: 1.0} if one else {QUES: 1.0},
        "R0": mix(ZERO, l),
        "R1": mix(ONE, l),
        "stavskaya": mix(ZERO, max(l, r)),
        "flip": {{ZERO: ONE, ONE: ZERO, QUES: QUES}[l]: 1.0},
    }[kind]


def dense_kernel(kind, n, p):
    """(3^n, 3^n) transition matrix as a product over cells, with base-3
    codes (digit i = cell i), and the mask of valid input rows; the rows of
    invalid inputs are 0."""
    table = np.zeros((3, 3, 3))
    for l, r in itertools.product((ZERO, ONE, QUES), repeat=2):
        for s, q in cell_law(kind, l, r, p).items():
            table[l, r, s] = q
    digits = (np.arange(3 ** n)[:, None] // 3 ** np.arange(n)) % 3
    matrix = np.ones((3 ** n, 3 ** n))
    for i in range(n):
        matrix *= table[digits[:, i], digits[:, (i + 1) % n]][:, digits[:, i]]
    valid = np.isin(digits, pca.input_alphabet(kind)).all(axis=1)
    matrix[~valid] = 0.0
    return matrix, valid


def to_dense(kernel, n):
    rows, cols, probs = kernel
    assert len(np.unique(rows * 3 ** n + cols)) == len(rows)  # no repeated entry
    matrix = np.zeros((3 ** n, 3 ** n))
    matrix[rows, cols] = probs
    return matrix


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", pca.KINDS)
def test_ring_kernel_equals_the_dense_product(kind, n):
    for p in (0.0, 0.3, 1.0):
        kernel = pca.ring_kernel(kind, n, p)
        ref, valid = dense_kernel(kind, n, p)
        assert np.array_equal(np.unique(kernel[0]), np.flatnonzero(valid))
        assert np.abs(to_dense(kernel, n) - ref).max() <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("first", pca.KINDS)
def test_composition_equals_the_dense_matrix_product(first, n):
    # a binary kind can follow only a kind whose outputs are binary
    seconds = TERNARY_KINDS + (sorted(pca.BINARY_KINDS) if first in pca.BINARY_KINDS else [])
    for second in seconds:
        composed = pca.compose_ring_kernels(pca.ring_kernel(first, n, 0.3),
                                            pca.ring_kernel(second, n, 0.3))
        ref = dense_kernel(first, n, 0.3)[0] @ dense_kernel(second, n, 0.3)[0]
        assert np.array_equal(np.unique(composed[0]), np.unique(pca.ring_kernel(first, n, 0.3)[0]))
        assert np.abs(to_dense(composed, n) - ref).max() <= 1e-14, second


@pytest.mark.parametrize("n", [3, 4])
def test_max_kernel_difference_equals_the_dense_difference(n):
    for alphabet_kinds in (TERNARY_KINDS, sorted(pca.BINARY_KINDS)):
        for a, b in itertools.combinations(alphabet_kinds, 2):
            ref = np.abs(dense_kernel(a, n, 0.3)[0] - dense_kernel(b, n, 0.3)[0]).max()
            got = pca.max_kernel_difference(pca.ring_kernel(a, n, 0.3),
                                            pca.ring_kernel(b, n, 0.3))
            assert abs(got - ref) <= 1e-15, (a, b)


def test_a_wrong_factorization_is_far_from_the_envelope():
    d, r0, r1 = (pca.ring_kernel(k, 4, 0.5) for k in ("D", "R0", "R1"))
    assert pca.max_kernel_difference(pca.ring_kernel("F", 4, 0.5),
                                     pca.compose_ring_kernels(d, r1)) > 0.1
    assert pca.max_kernel_difference(pca.ring_kernel("G", 4, 0.5),
                                     pca.compose_ring_kernels(d, r0)) > 0.1
    assert pca.max_kernel_difference(pca.ring_kernel("B", 4, 0.5),
                                     pca.ring_kernel("stavskaya", 4, 0.5)) > 0.1


def test_one_probability_moved_by_1e_9_is_caught():
    kernel = pca.ring_kernel("F", 4, 0.3)
    rows, cols, probs = kernel
    last = np.searchsorted(rows, np.unique(rows)[17], "right") - 1  # last entry of a row
    moved = probs.copy()
    moved[last] += 1e-9
    assert pca.max_kernel_difference(kernel, kernel) == 0.0
    assert pca.max_kernel_difference(kernel, (rows, cols, moved)) > 1e-12
    # a missing entry is a difference too
    assert pca.max_kernel_difference(kernel, [np.delete(x, last) for x in kernel]) > 1e-12


@pytest.mark.parametrize("victim", ["R0", "R1", "flip"])
def test_the_identity_checks_fail_on_a_moved_probability(monkeypatch, victim):
    kernel = pca.ring_kernel
    # a row that the first factor reaches: D maps the all-? ring to itself,
    # and stavskaya reaches the all-0 ring with probability p^n
    target = 0 if victim == "flip" else 3 ** 4 - 1

    def moved(kind, n, p):
        rows, cols, probs = kernel(kind, n, p)
        if kind == victim:
            probs = probs.copy()
            probs[np.searchsorted(rows, target)] += 1e-9
        return rows, cols, probs

    monkeypatch.setattr(pca, "ring_kernel", moved)
    if victim == "flip":
        assert not pca.stavskaya_identity_check(0.5, 4, tol=1e-12)
    else:
        assert pca.composition_check("F" if victim == "R0" else "G", 4, 0.5) > 1e-12


def test_kernels_with_different_inputs_are_rejected():
    with pytest.raises(ValueError):
        pca.max_kernel_difference(pca.ring_kernel("B", 4, 0.3), pca.ring_kernel("F", 4, 0.3))
    with pytest.raises(ValueError):  # B's rows are binary, F's middle codes are not
        pca.compose_ring_kernels(pca.ring_kernel("F", 4, 0.3), pca.ring_kernel("B", 4, 0.3))


BATCH_PS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("kind", pca.KINDS)
def test_each_row_of_a_batched_kernel_is_the_scalar_kernel(kind):
    for n in range(3, 7):
        rows, cols, probs = pca.ring_kernel(kind, n, BATCH_PS)
        assert probs.shape == (len(BATCH_PS), rows.size)
        for p, row in zip(BATCH_PS, probs):
            scalar = pca.ring_kernel(kind, n, p)
            assert np.array_equal(rows, scalar[0]) and np.array_equal(cols, scalar[1])
            assert row.tobytes() == scalar[2].tobytes(), (n, p)


@pytest.mark.parametrize("n", [4, 5])
def test_batched_checks_equal_the_scalar_checks_p_by_p(n):
    batched = [pca.composition_check("F", n, BATCH_PS), pca.composition_check("G", n, BATCH_PS),
               pca.stavskaya_identity_check(BATCH_PS, n)]
    scalar = [[pca.composition_check("F", n, p) for p in BATCH_PS],
              [pca.composition_check("G", n, p) for p in BATCH_PS],
              [pca.stavskaya_identity_check(p, n) for p in BATCH_PS]]
    for got, want, kind in zip(batched, scalar, (float, float, bool)):
        assert got.shape == (len(BATCH_PS),) and got.tolist() == want
        assert all(type(x) is kind for x in want)
    # a wrong factorization deviates by a different amount at each p
    wrong = [[pca.ring_kernel(k, n, p) for k in ("F", "D", "R1")] for p in (BATCH_PS, *BATCH_PS)]
    deviations = pca._factorization_deviation(*wrong[0])
    assert len(set(deviations.tolist())) == len(BATCH_PS)
    assert deviations.tolist() == [pca._factorization_deviation(*w) for w in wrong[1:]]


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan"), [0.5, 1.5], [float("nan")]])
def test_exact_kernels_refuse_a_p_outside_0_1(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.ring_kernel("F", 4, p)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.composition_check("F", 4, p)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.stavskaya_identity_check(p, 4)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_local_kernel_refuses_a_p_outside_0_1(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.local_kernel("F", p)
    # the exact cylinder checks build on it
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        exact.markov_pushforward_deviation("A", p, exact.matrix_P(0.5), 3)


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_local_rule_refuses_a_p_outside_0_1(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        pca.local_rule("F", 2, 2, 0.3, p)


def test_exact_kernels_refuse_a_p_grid_of_two_dimensions():
    with pytest.raises(ValueError, match="1-d sequence"):
        pca.ring_kernel("F", 4, [[0.2, 0.3]])


@pytest.mark.parametrize("n", [0, 2])
def test_exact_kernels_refuse_a_ring_shorter_than_3(n):
    with pytest.raises(ValueError, match="ring length must be >= 3"):
        pca.ring_kernel("F", n, 0.3)
    with pytest.raises(ValueError, match="ring length must be >= 3"):
        pca.composition_check("G", n, 0.3)
    with pytest.raises(ValueError, match="ring length must be >= 3"):
        pca.pattern_101_reachable("F", n)


def test_exact_kernels_refuse_a_ring_longer_than_8():
    with pytest.raises(ValueError, match="exact kernel enumeration limited to n <= 8"):
        pca.ring_kernel("D", 9, 0.3)
    with pytest.raises(ValueError, match="exact kernel enumeration limited to n <= 8"):
        pca.stavskaya_identity_check(0.3, 9)
    with pytest.raises(ValueError, match="exact kernel enumeration limited to n <= 8"):
        pca.pattern_101_reachable("F", 9)


def ques_density_law(kind, n, p, steps):
    """Exact mean and variance of a ring's ?-density after t = 0..steps
    steps from all-?: the law v_t over base-3 codes follows
    v_{t+1} = bincount(cols, probs * v_t[rows]) on ring_kernel's arrays."""
    rows, cols, probs = pca.ring_kernel(kind, n, p)
    digits = (np.arange(3 ** n)[:, None] // 3 ** np.arange(n)) % 3
    density = (digits == QUES).mean(axis=1)
    v = np.zeros(3 ** n)
    v[QUES * (3 ** n - 1) // 2] = 1.0  # the all-? ring
    laws = [v]
    for _ in range(steps):
        v = np.bincount(cols, weights=probs * v[rows], minlength=3 ** n)
        laws.append(v)
    laws = np.array(laws)
    mean = laws @ density
    return mean, laws @ density ** 2 - mean ** 2


# Fixed in advance: 2 kinds x 2 (n, p) cases x 8 steps = 32 two-sided
# comparisons, Bonferroni at family-wise alpha = 0.01.
LAW_STEPS, LAW_SEEDS = 8, np.arange(20_000)
LAW_Z_BOUND = NormalDist().inv_cdf(1 - 0.01 / (2 * 32))


def test_sampled_question_density_follows_the_exact_law():
    assert round(LAW_Z_BOUND, 2) == 3.60
    worst, worst_moved = [], []
    for kind in ("F", "G"):
        for n, p in ((5, 0.3), (7, 0.1)):
            initial = np.full((LAW_SEEDS.size, n), QUES, dtype=np.int8)
            stats = pca.trajectory_stats(kind, initial, p, LAW_STEPS, LAW_SEEDS)
            sampled = stats[:, 1:, 1].mean(axis=0)  # ?-density at t = 1..8
            for q, out in ((p, worst), (p + 0.02, worst_moved)):  # p + 0.02: negative control
                mean, var = ques_density_law(kind, n, q, LAW_STEPS)
                z = (sampled - mean[1:]) / np.sqrt(var[1:] / LAW_SEEDS.size)
                out.append(np.abs(z).max())
    assert max(worst) <= LAW_Z_BOUND, worst
    assert min(worst_moved) > LAW_Z_BOUND, worst_moved


# Fixed in advance: 2 (n, p) cases x 8 layers = 16 two-sided comparisons,
# Bonferroni at family-wise alpha = 0.01.
SLAB_Z_BOUND = NormalDist().inv_cdf(1 - 0.01 / (2 * 16))


def test_z2_slab_layers_follow_the_exact_law_of_f():
    # the z2 slab on the torus (2n,) has rings of n cells as its layers and
    # F as its layer update: t layers below the all-? boundary, the layer's
    # ?-density follows F's law after t steps from all-?
    assert round(SLAB_Z_BOUND, 2) == 3.42
    worst, worst_moved = [], []
    for n, p in ((5, 0.3), (7, 0.1)):
        index = solver.SlabIndex(lattice.z2(), (2 * n,))
        layers = {k: values for k, _, values in
                  solver.slab_layers(index, LAW_STEPS, solver.AllQuestion(), p, LAW_SEEDS)}
        sampled = np.array([(layers[LAW_STEPS - t] == QUES).mean(axis=1).mean()
                            for t in range(1, LAW_STEPS + 1)])
        for q, out in ((p, worst), (p + 0.02, worst_moved)):  # p + 0.02: negative control
            mean, var = ques_density_law("F", n, q, LAW_STEPS)
            z = (sampled - mean[1:]) / np.sqrt(var[1:] / LAW_SEEDS.size)
            out.append(np.abs(z).max())
    assert max(worst) <= SLAB_Z_BOUND, worst
    assert min(worst_moved) > SLAB_Z_BOUND, worst_moved


def _densities(cells):
    counts = [np.count_nonzero(cells == s, axis=-1) for s in (ZERO, QUES, ONE)]
    return np.stack(counts, axis=-1) / cells.shape[-1]


@pytest.mark.parametrize("rings", ["one ring", "per-ring seeds", "shared seed"])
@pytest.mark.parametrize("kind", pca.KINDS)
def test_trajectory_stats_equals_a_loop_of_steps(kind, rings):
    rng = np.random.default_rng(7)
    steps, shape = 40, {"one ring": (), "per-ring seeds": (2, 3), "shared seed": (4,)}[rings]
    for p in (0.0, 0.1, 1.0):
        for seed in (3, 11):
            initial = rng.choice(pca.input_alphabet(kind), size=shape + (23,)).astype(np.int8)
            seeds = seed + 7 * np.arange(6).reshape(shape) if rings == "per-ring seeds" else seed
            cells, ref = initial, [_densities(initial)]
            for t in range(steps):
                cells = pca.step(kind, cells, p, seeds, time_tag=t)
                ref.append(_densities(cells))
            stats = pca.trajectory_stats(kind, initial, p, steps, seeds)
            assert np.array_equal(stats, np.stack(ref, axis=-2)), (p, seed)
            # each ring of a stack runs as if alone
            for ring, ring_seed, got in zip(initial.reshape(-1, 23),
                                            np.broadcast_to(seeds, shape).ravel(),
                                            stats.reshape(-1, steps + 1, 3)):
                assert np.array_equal(got, pca.trajectory_stats(kind, ring, p, steps,
                                                                int(ring_seed)))


def test_trajectory_stats_checks_the_initial_ring():
    for kind in pca.BINARY_KINDS:
        with pytest.raises(InvalidSymbolError):
            pca.trajectory_stats(kind, "0?10", 0.5, 3, 0)
    with pytest.raises(ValueError, match="a seed is required"):
        pca.trajectory_stats("F", "0?10", 0.5, 3, None)
    with pytest.raises(ValueError, match="one int per ring"):
        pca.trajectory_stats("F", "0?10", 0.5, 3, [0])
    with pytest.raises(ValueError, match="ring length"):
        pca.trajectory_stats("D", "0?", 0.5, 3, None)
    assert pca.trajectory_stats("flip", "0?1", 0.5, 2, None)[2].tolist() == [1 / 3] * 3
