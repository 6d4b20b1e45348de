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

One plane rule runs every kind.  A ring is held as its (zero, one) bool
planes (? = (0, 0), 0 = (1, 0), 1 = (0, 1); see ``symbols``), and cell i's
hit bit says that its uniform variate u is below p, the branch taken with
probability p:

    D           ``solver.play`` with moves to cells i and i+1, no closed bit
    A, F        ``play`` with the hit bits as the closed bits
    B, G        D, then the hit bits set to 1
    R0, R1      cell i, then the hit bits set to 0 (resp. 1)
    stavskaya   1 iff cell i or i+1 is 1, then the hit bits set to 0
    flip        cell i with its zero and one planes swapped

So F is the z2 game's layer rule with "u < p" as the closed bit, and
F = R0 after D and G = R1 after D hold pathwise under shared randomness;
the exact-kernel identities are still checked at the ring level by
independent kernel composition.  Symbols appear only at the edges:
configurations come in through ``as_cells`` and go out as int8 codes.

All kinds use the neighborhood (i, i+1 mod n): cell i of the output reads
cells i and i+1 of the input.  A, B and stavskaya are stated elsewhere with
the neighborhood (i-1, i); the two conventions are conjugate by spatial
reflection, which preserves every distributional statement tested here.
Site-wise kinds (R0, R1, flip) ignore the right cell.

Randomness: cell i at time tag t consumes ``uniform(seed, (i,), tag=t)``,
one variate per cell per step; D and flip consume none.  :func:`step` and
:func:`trajectory_stats` take one ring (n,) or a stack of rings (..., n),
with one seed shared by all rings (a coupled step) or one seed per ring.

Exact kernels (:func:`ring_kernel` and the checks built on it) enumerate
rings of 3 to ``MAX_EXACT_RING`` cells.  They take one p or a 1-d sequence
of P values of p: a kernel's support does not depend on p, so a sequence
gives one set of (input, output) codes with a leading p axis on the
probabilities, and every composition and comparison then serves all P
values at once and returns one result per p.
"""

from __future__ import annotations

import numpy as np

from .sitefield import (CHAIN_BLOCK, below, check_probability, closed_threshold, finish_tags,
                        hash_below, hash_prefix)
from .solver import play
from .symbols import ONE, QUES, ZERO, as_cells, pair_bytes, pair_symbols, planes

KINDS = ("A", "B", "F", "G", "D", "R0", "R1", "stavskaya", "flip")

BINARY_KINDS = frozenset({"A", "B", "stavskaya"})
DETERMINISTIC_KINDS = frozenset({"D", "flip"})

MAX_EXACT_RING = 8  # longest ring whose kernels are enumerated (3^8 inputs)


class InvalidSymbolError(ValueError):
    pass


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown PCA kind {kind!r}; expected one of {KINDS}")


def _check_ring_length(n: int, longest: float = np.inf) -> None:
    if n < 3:
        raise ValueError("ring length must be >= 3")
    if n > longest:
        raise ValueError(f"exact kernel enumeration limited to n <= {longest}")


def _views(planes: np.ndarray):
    """Views of planes (2, n + 1, ...) whose last cell repeats the first: the
    planes, and the (zero, one) planes of cells i and of cells i + 1."""
    return planes, tuple(planes[:, :-1]), tuple(planes[:, 1:])


def _plane_step(kind: str, cells, hit, out) -> None:
    """One step of the wrapped planes ``cells`` into ``out``, both as by
    :func:`_views`.  ``hit`` (n, ...), or any shape that broadcasts to it,
    holds the cells whose uniform is below p; D and flip ignore it."""
    _, left, right = cells
    planes, (zero, one), _ = out
    if kind in ("A", "F"):
        zero[...] = hit  # the hit bits are the closed bits
    elif kind in ("B", "G", "D"):
        zero.fill(False)
    if kind in ("A", "B", "D", "F", "G"):
        play(zero, one, (left, right))
    elif kind == "stavskaya":  # binary alphabet: the max is 1 iff a 1 is present
        np.logical_or(left[1], right[1], out=one)
        np.logical_not(one, out=zero)
    else:  # R0 and R1 copy cell i, flip swaps its planes
        zero[...], one[...] = left[::-1] if kind == "flip" else left
    if kind in ("B", "G", "R1"):  # the hit bits set to 1
        one |= hit
        zero &= ~hit
    elif kind in ("R0", "stavskaya"):  # the hit bits set to 0
        zero |= hit
        one &= ~hit
    planes[:, -1] = planes[:, 0]


def _wrapped_planes(cells: np.ndarray) -> np.ndarray:
    """The planes of rings (..., n) site-major, (2, n + 1, ...), with each
    ring's first cell repeated: every cell's plane is one contiguous block."""
    wrapped = np.empty((2, cells.shape[-1] + 1) + cells.shape[:-1], dtype=bool)
    wrapped[:, :-1] = planes(np.moveaxis(cells, -1, 0))
    wrapped[:, -1] = wrapped[:, 0]
    return wrapped


def _apply(kind: str, cells: np.ndarray, hit) -> np.ndarray:
    """The symbols of one step of the rings ``cells`` (..., n) under the hit
    bits ``hit``, of any shape that broadcasts to theirs (None for D and
    flip)."""
    wrapped = _wrapped_planes(cells)
    out = np.empty_like(wrapped)
    if hit is not None:
        hit = np.moveaxis(np.broadcast_to(hit, cells.shape), -1, 0)
    _plane_step(kind, _views(wrapped), hit, _views(out))
    return np.ascontiguousarray(np.moveaxis(pair_symbols(pair_bytes(*out[:, :-1])), 0, -1))


def _outcomes(kind: str, cells: np.ndarray):
    """Each cell's output when no cell is hit and when every cell is: the
    deterministic and the randomized value, equal for D and flip.  Both
    come from one step of two copies of the rings."""
    hits = np.array([False, True]).reshape((2,) + (1,) * cells.ndim)
    return tuple(_apply(kind, np.broadcast_to(cells, (2,) + cells.shape), hits))


def _validate_input(kind: str, cells: np.ndarray):
    if kind in BINARY_KINDS and cells.size and (cells == QUES).any():
        raise InvalidSymbolError(f"PCA {kind} is defined on binary configurations only")


def local_rule(kind: str, left: int, right: int, u: float, p: float) -> int:
    """One-cell update: the probability-p branch is taken iff u < p; a p
    outside [0, 1], NaN included, raises ``ValueError``."""
    _check_kind(kind)
    check_probability(p)
    lr = as_cells([left, right])
    _validate_input(kind, lr)
    return int(_apply(kind, lr, np.array([u < p, False]))[0])  # cell 0 reads (left, right)


def _rings(kind: str, config, p: float, seeds):
    """The checked cells, shape (..., n), and the seeds as an int array of
    shape () (shared) or (...) (one per ring); None only for D and flip."""
    _check_kind(kind)
    check_probability(p)
    cells = as_cells(config)
    _check_ring_length(cells.shape[-1] if cells.ndim else 0)
    _validate_input(kind, cells)
    if seeds is None:
        if kind not in DETERMINISTIC_KINDS:
            raise ValueError(f"PCA {kind} consumes randomness; a seed is required")
        return cells, None
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iu" or seeds.shape not in ((), cells.shape[:-1]):
        raise ValueError(f"seeds must be one int or one int per ring, shape {cells.shape[:-1]}")
    return cells, seeds


def step(kind: str, config, p: float, seeds=None, time_tag: int = 0) -> np.ndarray:
    """One synchronous update of one ring (n,) or a stack of rings (..., n).

    Cell i of a ring is hit iff its (seed, i, time_tag) uniform is below p,
    decided on the hash words (threshold lemma).  ``seeds`` is None (D and
    flip only), one int shared by every ring (a coupled step: all rings
    read the same uniforms), or one seed per ring, shape
    ``config.shape[:-1]``.  A p outside [0, 1], NaN included, raises
    ``ValueError``."""
    cells, seeds = _rings(kind, config, p, seeds)
    hit = None
    if seeds is not None:
        hit = hash_below(seeds, np.arange(cells.shape[-1]), time_tag, p)
        hit = hit.reshape(seeds.shape + (-1,))
    return _apply(kind, cells, hit)


def _plane_counts(history: np.ndarray) -> np.ndarray:
    """Symbol counts (0, ?, 1) of wrapped planes (T, 2, n + 1, rings): (T,
    rings, 3)."""
    counts = np.count_nonzero(history[:, :, :-1], axis=2)  # (T, 2, rings)
    zero, one = counts[:, 0], counts[:, 1]
    return np.stack([zero, history.shape[2] - 1 - zero - one, one], axis=-1)


def trajectory_stats(kind: str, initial, p: float, steps: int, seeds=None) -> np.ndarray:
    """Per-step symbol densities of each ring, shape (..., steps + 1, 3): row
    t is (density0, densityQ, density1) after t steps, as by :func:`step`
    (same shapes, seeds and p domain) with time tags 0, 1, ...

    The prefix is hashed once.  Steps then run a block of up to
    ``CHAIN_BLOCK`` // (cells) at a time: their tags are finished in one
    call into reused buffers, each step writes its planes into the next
    slot of a block of planes, and the block's symbols are counted at
    once."""
    cells, seeds = _rings(kind, initial, p, seeds)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rings, n = cells.shape[:-1], cells.shape[-1]
    cells = cells.reshape(-1, n)
    block = max(1, min(steps, CHAIN_BLOCK // cells.size))
    history = np.empty((block + 1, 2, n + 1, len(cells)), dtype=bool)
    history[0] = _wrapped_planes(cells)
    slots = [_views(planes) for planes in history]
    hit = [None] * block
    if seeds is not None:
        # site-major, as the planes: (n, 1) for a shared seed, else (n, rings)
        prefix = np.ascontiguousarray(hash_prefix(seeds, np.arange(n)).T).reshape(n, -1)
        threshold = closed_threshold(p)
        words, tmp = np.empty((2, block) + prefix.shape, dtype=np.uint64)
        hit = np.empty(words.shape, dtype=bool)
    counts = np.empty((steps + 1, len(cells), 3), dtype=np.int64)
    counts[0] = _plane_counts(history[:1])
    for t in range(0, steps, block):
        b = min(block, steps - t)
        if seeds is not None:
            below(finish_tags(prefix, np.arange(t, t + b), out=words[:b], tmp=tmp[:b]),
                  threshold, out=hit[:b])
        for j in range(b):
            _plane_step(kind, slots[j], hit[j], slots[j + 1])
        counts[t + 1:t + b + 1] = _plane_counts(history[1:b + 1])
        history[0] = history[b]
    return counts.swapaxes(0, 1).reshape(rings + (steps + 1, 3)) / n


# -- exact ring kernels -----------------------------------------------------
# Rings are coded in base 3 (digit i = cell i).  A kernel is three flat
# arrays (input code, output code, probability), sorted by input code.


def input_alphabet(kind: str) -> tuple[int, ...]:
    return (ZERO, ONE) if kind in BINARY_KINDS else (ZERO, ONE, QUES)


def all_inputs(kind: str, n: int) -> np.ndarray:
    """All valid input rings for the kind, shape (A^n, n)."""
    alpha = input_alphabet(kind)
    grids = np.meshgrid(*[np.array(alpha, dtype=np.int8)] * n, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def ring_kernel(kind: str, n: int, p):
    """Exact one-step kernel on rings of length n, 3 <= n <= MAX_EXACT_RING.
    A row with a random cells has 2^a columns; column s switches the k-th
    random cell to the randomized value iff bit k of s is set, with
    probability the product over k, in cell order, of p or 1-p.

    ``p`` is one probability or a 1-d sequence of P of them; a sequence
    gives the same input and output codes and probabilities of shape
    (P, nnz), row i equal bit for bit to the kernel at ``p[i]``.  A p
    outside [0, 1], NaN included, raises ``ValueError``."""
    _check_kind(kind)
    _check_ring_length(n, MAX_EXACT_RING)
    ps = np.asarray(p, dtype=float)
    if ps.ndim > 1:
        raise ValueError(f"p must be one probability or a 1-d sequence, got shape {ps.shape}")
    for q in ps.flat:
        check_probability(float(q))
    powers = 3 ** np.arange(n, dtype=np.int64)
    inputs = all_inputs(kind, n)[:, ::-1]  # cell n-1 slowest: codes increase
    det, rand = _outcomes(kind, inputs)
    in_codes, det_codes = inputs @ powers, det @ powers
    if kind in DETERMINISTIC_KINDS:
        return in_codes, det_codes, np.ones(ps.shape + in_codes.shape)
    active = det != rand
    deltas = (rand.astype(np.int64) - det) * powers
    width = 1 << active.sum(axis=1)
    first = np.cumsum(width) - width
    cols = np.empty(width.sum(), dtype=np.int64)
    probs = np.empty(ps.shape + cols.shape)
    ps = ps[..., None, None]
    for a in range(n + 1):
        sel = np.flatnonzero(width == 1 << a)
        bits = (np.arange(1 << a)[:, None] >> np.arange(a)) & 1
        pos = first[sel, None] + np.arange(1 << a)
        cols[pos] = det_codes[sel, None] + deltas[sel][active[sel]].reshape(sel.size, a) @ bits.T
        probs[..., pos] = np.where(bits == 1, ps, 1.0 - ps).prod(axis=-1)[..., None, :]
    return np.repeat(in_codes, width), cols, probs


def _merge(key, probs):
    """Sums of the probabilities (..., m) of equal keys (m,), in increasing
    key order; one sort serves every leading index of ``probs``."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    return key[starts], np.add.reduceat(probs[..., order], starts, axis=-1)


def _per_p(values):
    """A result for one p as a Python scalar; a result per p as its array."""
    return values.item() if np.ndim(values) == 0 else values


def compose_ring_kernels(first, second):
    """Kernel of 'apply first, then second' (the matrix product): a join
    on the middle code, then one merge of the (row, column) keys.  Both
    kernels are at one p, or both at the same sequence of P values."""
    rows, mids, pmid = first
    lo = np.searchsorted(second[0], mids, "left")
    counts = np.searchsorted(second[0], mids, "right") - lo
    if not counts.all():
        raise ValueError("second kernel has no row for a middle configuration")
    idx = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    span = int(second[1].max()) + 1
    key, probs = _merge(np.repeat(rows, counts) * span + second[1][idx],
                        second[2][..., idx] * np.repeat(pmid, counts, axis=-1))
    return (*np.divmod(key, span), probs)


def max_kernel_difference(a, b):
    """Max entrywise difference between two kernels, by one merge: a float,
    or one per p for kernels at a sequence of p."""
    if not np.array_equal(a[0][np.diff(a[0], prepend=-1) != 0],
                          b[0][np.diff(b[0], prepend=-1) != 0]):
        raise ValueError("kernels have different input sets")
    span = int(max(a[1].max(), b[1].max())) + 1
    _, diff = _merge(np.concatenate([a[0], b[0]]) * span + np.concatenate([a[1], b[1]]),
                     np.concatenate([a[2], -b[2]], axis=-1))
    return _per_p(np.abs(diff).max(axis=-1))


def _factorization_deviation(kernel, first, second):
    """``max_kernel_difference(kernel, compose_ring_kernels(first,
    second))``, taken 64 input rows at a time so that memory stays bounded;
    each block's join and merge serve every p at once."""
    ends = np.r_[first[0][np.diff(first[0], prepend=-1) != 0][64::64], np.inf]
    ck, cf = (np.r_[0, np.searchsorted(k[0], ends)] for k in (kernel, first))
    return _per_p(np.max([
        max_kernel_difference([x[..., ck[i]:ck[i + 1]] for x in kernel],
                              compose_ring_kernels([x[..., cf[i]:cf[i + 1]] for x in first],
                                                   second))
        for i in range(ends.size)], axis=0))


def composition_check(kind: str, n: int, p):
    """Exact kernel distance between F (resp. G) and its randomizer-after-D
    factorization; returns the max entrywise difference, a float for one p
    and an array of one per p for a sequence."""
    if kind not in ("F", "G"):
        raise ValueError("composition_check applies to kinds F and G")
    return _factorization_deviation(ring_kernel(kind, n, p), ring_kernel("D", n, p),
                                    ring_kernel({"F": "R0", "G": "R1"}[kind], n, p))


def stavskaya_identity_check(p, n: int, tol: float = 1e-12):
    """True iff the exact ring kernel of flip after stavskaya equals B's:
    a bool for one p, a bool array of one per p for a sequence."""
    # flip rows are ternary-indexed; the join reads only binary middle codes
    return _factorization_deviation(ring_kernel("B", n, p), ring_kernel("stavskaya", n, p),
                                    ring_kernel("flip", n, p)) <= tol


def local_kernel(kind: str, p: float) -> np.ndarray:
    """Exact one-cell conditional K[l, r, s]; NaN rows for invalid inputs.
    A p outside [0, 1], NaN included, raises ``ValueError``."""
    _check_kind(kind)
    check_probability(p)
    K = np.full((3, 3, 3), np.nan)
    l, r = np.meshgrid(*[np.array(input_alphabet(kind), dtype=np.int8)] * 2, indexing="ij")
    det, rand = (x[..., 0] for x in _outcomes(kind, np.stack([l, r], axis=-1)))
    K[l, r] = 0.0
    K[l, r, rand] = p
    K[l, r, det] = np.where(det == rand, 1.0, 1.0 - p)
    return K


def has_pattern_101(cells: np.ndarray) -> bool:
    """Cyclic occurrence of the word 1?1."""
    c = as_cells(cells)
    return bool(np.any((c == ONE) & (np.roll(c, -1, axis=-1) == QUES)
                       & (np.roll(c, -2, axis=-1) == ONE)))


def pattern_101_reachable(kind: str, n: int) -> int:
    """Number of input rings from which some positive-probability output
    contains the cyclic pattern 1?1.

    Output cells are independent given the input, so the pattern occurs in
    the support iff three consecutive cells can individually produce 1, ?, 1.
    """
    _check_ring_length(n, MAX_EXACT_RING)
    det, rand = _outcomes(kind, all_inputs(kind, n))
    can_one = (det == ONE) | (rand == ONE)
    can_ques = (det == QUES) | (rand == QUES)
    hit = can_one & np.roll(can_ques, -1, axis=1) & np.roll(can_one, -2, axis=1)
    return int(hit.any(axis=1).sum())


def trajectory_csv_rows(stats: np.ndarray):
    """Rows for the 'step,density0,densityQ,density1' schema."""
    return ((t, *row) for t, row in enumerate(stats.tolist()))
