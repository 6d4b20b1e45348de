"""One-dimensional PCAs on finite rings over the alphabet {0, ?, 1}.

Kinds
-----
    A           hard-core PCA: (0,0) -> 0 w.p. p / 1 w.p. 1-p; else -> 0
    B           target-game PCA: (0,0) -> 1; else -> 1 w.p. p / 0 w.p. 1-p
    F           envelope of A: (0,0) -> 0 w.p. p / 1 otherwise; a 1 present
                -> 0; otherwise (a ? present, no 1) -> 0 w.p. p / ? otherwise
    G           envelope of B: (0,0) -> 1; a 1 present -> 1 w.p. p / 0;
                otherwise -> 1 w.p. p / ?
    D           deterministic CA: (0,0) -> 1; a 1 present -> 0; else -> ?
    R0, R1      site-wise randomizers: each cell becomes 0 (resp. 1) with
                probability p, independently; otherwise unchanged
    stavskaya   0 w.p. p, otherwise the neighborhood max (binary alphabet)
    flip        deterministic site-wise swap 0 <-> 1, fixing ?

Every kind reduces to a deterministic local table plus at most one random
branch: the output is the kind's "randomized" value if u < p and the
deterministic value otherwise, where u is the cell's uniform variate.  This
reproduces each update table verbatim (the probability-p row is the
randomized value) and makes F = R0 after D and G = R1 after D hold pathwise
under shared randomness; the exact-kernel identities are still checked at
the ring level by independent kernel composition.

All kinds use the neighborhood (i, i+1 mod n): cell i of the output reads
cells i and i+1 of the input.  A, B and stavskaya are stated elsewhere with
the neighborhood (i-1, i); the two conventions are conjugate by spatial
reflection, which preserves every distributional statement tested here.
Site-wise kinds (R0, R1, flip) ignore the right cell.

Randomness: cell i at time tag t consumes ``uniform(seed, (i,), tag=t)``,
one variate per cell per step; D and flip consume none.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .sitefield import SiteField, hash_below
from .symbols import ONE, QUES, ZERO, as_cells

KINDS = ("A", "B", "F", "G", "D", "R0", "R1", "stavskaya", "flip")

BINARY_KINDS = frozenset({"A", "B", "stavskaya"})
DETERMINISTIC_KINDS = frozenset({"D", "flip"})
SITEWISE_KINDS = frozenset({"R0", "R1", "flip"})

# deterministic CA D: (0,0) -> 1, any 1 present -> 0, else ?
D_TABLE = np.full((3, 3), QUES, dtype=np.int8)
D_TABLE[ZERO, ZERO] = ONE
D_TABLE[ONE, :] = ZERO
D_TABLE[:, ONE] = ZERO

_FLIP = np.array([ONE, ZERO, QUES], dtype=np.int8)  # 0<->1, ? fixed
_MAX_BIN = np.maximum  # binary max; alphabet {0,1} so integer max is correct


class InvalidSymbolError(ValueError):
    pass


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown PCA kind {kind!r}; expected one of {KINDS}")
    return kind


def _det_and_rand(kind: str, left: np.ndarray, right: np.ndarray):
    """Deterministic output value and the randomized value (None if no
    randomness) for every cell."""
    if kind in ("A", "F"):
        return D_TABLE[left, right], ZERO
    if kind in ("B", "G"):
        return D_TABLE[left, right], ONE
    if kind == "D":
        return D_TABLE[left, right], None
    if kind == "stavskaya":
        return _MAX_BIN(left, right), ZERO
    if kind == "flip":
        return _FLIP[left], None
    if kind == "R0":
        return left.copy(), ZERO
    if kind == "R1":
        return left.copy(), ONE
    raise AssertionError(kind)


def _validate_input(kind: str, cells: np.ndarray):
    if kind in BINARY_KINDS and cells.size and (cells == QUES).any():
        raise InvalidSymbolError(f"PCA {kind} is defined on binary configurations only")


def local_rule(kind: str, left: int, right: int, u: float, p: float) -> int:
    """One-cell update: the probability-p branch is taken iff u < p."""
    _check_kind(kind)
    lr = as_cells([left, right])
    _validate_input(kind, lr)
    det, rand = _det_and_rand(kind, lr[:1], lr[1:2])
    out = int(det[0])
    if rand is not None and u < p:
        out = rand
    return out


def _update(kind: str, cells: np.ndarray, p: float, seeds, time_tag: int) -> np.ndarray:
    """The synchronous update shared by step and step_batch: cell i takes the
    kind's randomized value iff its (seed, i, time_tag) uniform is below p,
    decided on the hash words (threshold lemma).  ``seeds`` is one seed, one
    seed per ring, or None when the caller has no SiteField."""
    _validate_input(kind, cells)
    det, rand = _det_and_rand(kind, cells, np.roll(cells, -1, axis=-1))
    if rand is None:
        return det
    if seeds is None:
        raise ValueError(f"PCA {kind} consumes randomness; a SiteField is required")
    return np.where(hash_below(seeds, np.arange(cells.shape[-1]), time_tag, p),
                    np.int8(rand), det)


def step(kind: str, config, p: float, field: Optional[SiteField] = None,
         time_tag: int = 0) -> np.ndarray:
    """One synchronous update of a ring configuration."""
    _check_kind(kind)
    cells = as_cells(config)
    if cells.shape[-1] < 3:
        raise ValueError("ring length must be >= 3")
    return _update(kind, cells, p, None if field is None else field.seed, time_tag)


def coupled_step(kind: str, configs: Iterable, p: float,
                 field: Optional[SiteField] = None, time_tag: int = 0) -> list[np.ndarray]:
    """Step several configurations with identical per-cell uniforms."""
    confs = [as_cells(c) for c in configs]
    if len({c.shape[-1] for c in confs}) > 1:
        raise ValueError("coupled configurations must share the ring length")
    return [step(kind, c, p, field, time_tag) for c in confs]


def step_batch(kind: str, configs: np.ndarray, p: float, seeds: np.ndarray,
               time_tag: int = 0) -> np.ndarray:
    """Vectorized step of one ring per seed; configs has shape (S, n)."""
    _check_kind(kind)
    return _update(kind, np.asarray(configs, dtype=np.int8), p, seeds, time_tag)


def trajectory_stats(kind: str, initial, p: float, steps: int,
                     field: Optional[SiteField]) -> np.ndarray:
    """Per-step symbol densities; row t is (density0, densityQ, density1)
    after t steps (row 0 is the initial configuration)."""
    cells = as_cells(initial)
    n = cells.shape[-1]
    out = np.empty((steps + 1, 3), dtype=np.float64)

    def densities(c):
        counts = np.bincount(c, minlength=3)
        return np.array([counts[ZERO], counts[QUES], counts[ONE]]) / n

    out[0] = densities(cells)
    for t in range(steps):
        cells = step(kind, cells, p, field, time_tag=t)
        out[t + 1] = densities(cells)
    return out


def ques_density_batch(kind: str, n: int, p: float, steps: int,
                       seeds, initial_symbol: int = QUES,
                       record_every: int = 1) -> np.ndarray:
    """Mean ?-density trajectories over a batch of seeds, shape (S, R)."""
    seeds = np.asarray(seeds)
    cells = np.full((seeds.size, n), initial_symbol, dtype=np.int8)
    records = [(cells == QUES).mean(axis=1)]
    for t in range(steps):
        cells = step_batch(kind, cells, p, seeds, time_tag=t)
        if (t + 1) % record_every == 0:
            records.append((cells == QUES).mean(axis=1))
    return np.stack(records, axis=1)


# -- exact ring kernels -----------------------------------------------------
#
# A kernel row is the one-step output distribution of one input ring,
# stored sparsely as (codes, probs) with configurations encoded in base 3
# (digit i = cell i).  Per-cell outputs are independent given the input, so
# a row is the product of per-cell two-point distributions.


def input_alphabet(kind: str) -> tuple[int, ...]:
    return (ZERO, ONE) if kind in BINARY_KINDS else (ZERO, ONE, QUES)


def all_inputs(kind: str, n: int) -> np.ndarray:
    """All valid input rings for the kind, shape (A^n, n)."""
    alpha = input_alphabet(kind)
    grids = np.meshgrid(*[np.array(alpha, dtype=np.int8)] * n, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ring_kernel(kind: str, n: int, p: float) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Exact one-step transition kernel on rings of length n (sparse rows)."""
    _check_kind(kind)
    inputs = all_inputs(kind, n)
    left = inputs
    right = np.roll(inputs, -1, axis=1)
    det, rand = _det_and_rand(kind, left, right)
    powers = 3 ** np.arange(n, dtype=np.int64)
    det_codes = (det.astype(np.int64) * powers).sum(axis=1)
    in_codes = (inputs.astype(np.int64) * powers).sum(axis=1)

    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if rand is None:
        for c, dcode in zip(in_codes, det_codes):
            rows[int(c)] = (np.array([dcode]), np.array([1.0]))
        return rows

    deltas = (np.int64(rand) - det.astype(np.int64)) * powers  # switch cell to rand
    active = det != rand
    for i in range(inputs.shape[0]):
        codes = np.array([det_codes[i]], dtype=np.int64)
        probs = np.array([1.0])
        for j in np.nonzero(active[i])[0]:
            codes = np.concatenate([codes, codes + deltas[i, j]])
            probs = np.concatenate([probs * (1.0 - p), probs * p])
        rows[int(in_codes[i])] = (codes, probs)
    return rows


def compose_ring_kernels(first: dict, second: dict) -> dict:
    """Kernel of 'apply first, then second' (matrix product, sparse rows)."""
    rows = {}
    for c, (mids, pmid) in first.items():
        acc_codes = []
        acc_probs = []
        for mid, pm in zip(mids, pmid):
            codes2, probs2 = second[int(mid)]
            acc_codes.append(codes2)
            acc_probs.append(probs2 * pm)
        codes = np.concatenate(acc_codes)
        probs = np.concatenate(acc_probs)
        uniq, inv = np.unique(codes, return_inverse=True)
        merged = np.zeros(len(uniq))
        np.add.at(merged, inv, probs)
        rows[c] = (uniq, merged)
    return rows


def max_kernel_difference(a: dict, b: dict) -> float:
    """Max entrywise difference between two sparse kernels."""
    if set(a) != set(b):
        raise ValueError("kernels have different input sets")
    worst = 0.0
    for c in a:
        ca, pa = a[c]
        cb, pb = b[c]
        codes = np.union1d(ca, cb)
        va = np.zeros(len(codes))
        vb = np.zeros(len(codes))
        va[np.searchsorted(codes, ca)] = pa
        vb[np.searchsorted(codes, cb)] = pb
        worst = max(worst, float(np.abs(va - vb).max()))
    return worst


def composition_check(kind: str, n: int, p: float) -> float:
    """Exact kernel distance between F (resp. G) and its randomizer-after-D
    factorization; returns the max entrywise difference."""
    if kind == "F":
        composed = compose_ring_kernels(ring_kernel("D", n, p), ring_kernel("R0", n, p))
    elif kind == "G":
        composed = compose_ring_kernels(ring_kernel("D", n, p), ring_kernel("R1", n, p))
    else:
        raise ValueError("composition_check applies to kinds F and G")
    return max_kernel_difference(ring_kernel(kind, n, p), composed)


def stavskaya_identity_check(p: float, n: int, tol: float = 1e-12) -> bool:
    """True iff the exact ring kernel of flip after stavskaya equals B's."""
    if n > 8:
        raise ValueError("exact kernel enumeration limited to n <= 8")
    stav = ring_kernel("stavskaya", n, p)
    flip = ring_kernel("flip", n, p)
    # flip rows are ternary-indexed; restrict composition to binary inputs
    composed = compose_ring_kernels(stav, flip)
    return max_kernel_difference(ring_kernel("B", n, p), composed) <= tol


def local_kernel(kind: str, p: float) -> np.ndarray:
    """Exact one-cell conditional K[l, r, s]; NaN rows for invalid inputs."""
    _check_kind(kind)
    K = np.zeros((3, 3, 3))
    alpha = input_alphabet(kind)
    for l in (ZERO, ONE, QUES):
        for r in (ZERO, ONE, QUES):
            if l not in alpha or r not in alpha:
                K[l, r, :] = np.nan
                continue
            la = np.array([l], dtype=np.int8)
            ra = np.array([r], dtype=np.int8)
            det, rand = _det_and_rand(kind, la, ra)
            d = int(det[0])
            if rand is None or rand == d:
                K[l, r, d] = 1.0
            else:
                K[l, r, d] = 1.0 - p
                K[l, r, rand] = p
    return K


def has_pattern_101(cells: np.ndarray) -> bool:
    """Cyclic occurrence of the word 1?1."""
    c = as_cells(cells)
    a = c
    b = np.roll(c, -1, axis=-1)
    d = np.roll(c, -2, axis=-1)
    return bool(np.any((a == ONE) & (b == QUES) & (d == ONE)))


def pattern_101_reachable(kind: str, n: int) -> int:
    """Number of input rings from which some positive-probability output
    contains the cyclic pattern 1?1.

    Output cells are independent given the input, so the pattern occurs in
    the support iff three consecutive cells can individually produce 1, ?, 1.
    """
    inputs = all_inputs(kind, n)
    det, rand = _det_and_rand(kind, inputs, np.roll(inputs, -1, axis=1))
    can_one = det == ONE
    can_ques = det == QUES
    if rand is not None:
        can_one |= np.int8(rand) == ONE
        can_ques |= np.int8(rand) == QUES
    hit = can_one & np.roll(can_ques, -1, axis=1) & np.roll(can_one, -2, axis=1)
    return int(hit.any(axis=1).sum())


def trajectory_csv_rows(stats: np.ndarray):
    """Rows for the 'step,density0,densityQ,density1' schema."""
    for t, (d0, dq, d1) in enumerate(stats):
        yield t, d0, dq, d1
