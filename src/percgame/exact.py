"""Closed-form and brute-force exact computations.

Contents:

* the 2x2 transition matrix of the Markov stationary law of the hard-core
  PCA, and its square-root construction from the hard-core transfer matrix
  on Z (activity lambda = 1/p - 1);
* first-player win probability and its open-origin conditional version;
* exact cylinder pushforwards of Markov measures on {0, 1} or {0, ?, 1}
  through one PCA step;
* the ?-weight system on words over {0,?,1} and the exhaustive ring check
  of its decrease under the deterministic CA;
* exact hard-core Gibbs distributions on small graphs and stationarity of
  the class-update kernels (standard and forced-vacate variants).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from . import pca
from .symbols import ONE, QUES, ZERO, as_cells, format_word, parse_word

ATOL = 1e-12


# -- Markov measures --------------------------------------------------------


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain on Z with 2 states, {0, 1}, or 3, {0, 1, ?}:
    transition matrix T (k, k) + stationary row vector pi (k,), indexed by
    the symbol codes."""

    T: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "pi", pi)
        if pi.shape not in ((2,), (3,)) or T.shape != pi.shape * 2:
            raise ValueError(f"MarkovMeasure needs T (k, k) and pi (k,) for k = 2 or 3, "
                             f"got {T.shape} and {pi.shape}")
        # NaN compares False, so it fails here too
        if not all(((x >= -ATOL) & (x <= 1 + ATOL)).all() for x in (T, pi)):
            raise ValueError("entries must be probabilities")
        if np.abs(T.sum(axis=1) - 1).max() > ATOL or abs(pi.sum() - 1) > ATOL:
            raise ValueError("rows and pi must sum to 1")
        if np.abs(pi @ T - pi).max() > ATOL:
            raise ValueError("pi must be stationary for T")

    def cylinder(self, word) -> float:
        """Probability that consecutive cells spell the word; 0 for a word
        holding a symbol that is not a state of the chain."""
        w = as_cells(word)
        if (w >= self.pi.size).any():
            return 0.0
        prob = float(self.pi[w[0]])
        for a, b in zip(w[:-1], w[1:]):
            prob *= float(self.T[a, b])
        return prob


def stationary_vector(T: np.ndarray) -> np.ndarray:
    """Stationary row vector of a 2x2 chain from the balance equation."""
    p01, p10 = T[0, 1], T[1, 0]
    pi0 = p10 / (p10 + p01)
    return np.array([pi0, 1.0 - pi0])


def matrix_P(p: float) -> MarkovMeasure:
    """Transition matrix of the stationary Markov law of the hard-core PCA.

    Entries are the closed forms in s = sqrt(p(4-3p)), written without the
    division by (1-p)^2: P01 = 2p(1-p)/(s+3p-2p^2), P10 = 2p/(s+p).  Valid
    for 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("matrix_P requires 0 < p < 1")
    s = sqrt(p * (4.0 - 3.0 * p))
    # rationalized forms of (2p^2 - 3p + s) / (2(1-p)^2) and (s - p) / (2(1-p)),
    # which cancel catastrophically as p -> 1
    t01 = 2.0 * p * (1.0 - p) / (s + 3.0 * p - 2.0 * p * p)
    t10 = 2.0 * p / (s + p)
    T = np.array([[1.0 - t01, t01], [t10, 1.0 - t10]])
    return MarkovMeasure(T, stationary_vector(T))


def _check_activity(lam: float) -> float:
    """lam itself, if 0 < lam < inf; else ``ValueError`` (NaN too)."""
    if not 0.0 < lam < float("inf"):
        raise ValueError(f"activity needs 0 < lam < inf, got {lam}")
    return lam


def matrix_Q(lam: float) -> MarkovMeasure:
    """Transition matrix of the hard-core Gibbs chain on Z at activity lam.

    Built from the transfer matrix [[1, sqrt(lam)], [sqrt(lam), 0]] by the
    Perron eigenvector transform; closed form since the Perron root is
    rho = (1 + sqrt(1 + 4 lam)) / 2.  Squaring it reproduces matrix_P at
    p = 1/(1 + lam), which is the independent cross-check used in tests.
    """
    _check_activity(lam)
    rho = (1.0 + sqrt(1.0 + 4.0 * lam)) / 2.0
    T = np.array([
        [1.0 / rho, lam / (rho * rho)],
        [1.0, 0.0],
    ])
    # pi balance: pi1 = pi0 * lam / rho^2
    pi0 = rho * rho / (rho * rho + lam)
    return MarkovMeasure(T, np.array([pi0, 1.0 - pi0]))


def p_from_activity(lam: float, variant: str = "standard") -> float:
    """Closing probability of the class update at activity lam: 1/(1+lam)
    for the standard variant (finite lam > 0), 1 - lam for the extended one
    (0 < lam < 1)."""
    if variant == "standard":
        return 1.0 / (1.0 + _check_activity(lam))
    if variant == "extended":
        if not 0.0 < lam < 1.0:
            raise ValueError(f"extended variant needs 0 < lam < 1, got {lam}")
        return 1.0 - lam
    raise ValueError(f"unknown variant {variant!r}")


def win_probability(p: float) -> float:
    """P(first player wins or the origin is closed) = (1 + sqrt(p/(4-3p)))/2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return 0.5 * (1.0 + sqrt(p / (4.0 - 3.0 * p)))


def conditional_win_probability(p: float) -> float:
    """P(first player wins | origin open)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    return (win_probability(p) - p) / (1.0 - p)


def win_curve_rows(p_grid: Iterable[float]):
    """Rows for the 'p,win_probability,conditional_win_probability' schema."""
    for p in p_grid:
        yield p, win_probability(p), conditional_win_probability(p)


# -- cylinder pushforwards -------------------------------------------------


def _kernel(kind: str, p: float, measure: MarkovMeasure) -> np.ndarray:
    """``pca.local_kernel(kind, p)``; a binary kind reads no ?, so it refuses
    a measure that gives ? mass, which it would drop."""
    if kind in pca.BINARY_KINDS and (q := measure.cylinder("?")) > 0:
        raise pca.InvalidSymbolError(f"PCA {kind} is defined on binary configurations only; "
                                     f"the measure gives ? probability {q}")
    return pca.local_kernel(kind, p)


def pushforward_cylinder(kind: str, p: float, measure: MarkovMeasure, word) -> float:
    """Probability of the output word after one PCA step from `measure`.

    Sums measure(u) * prod_i K(u_i, u_{i+1} -> w_i) over all input words u
    of length |w| + 1 (radius-1 rule).
    """
    w = as_cells(word)
    K = _kernel(kind, p, measure)
    total = 0.0
    for u in itertools.product(pca.input_alphabet(kind), repeat=len(w) + 1):
        f = measure.cylinder(u)
        for i in range(len(w)):
            f *= K[u[i], u[i + 1], w[i]]
        total += f
    return total


def markov_pushforward_deviation(kind: str, p: float, mm: MarkovMeasure,
                                 max_len: int) -> float:
    """Max |(pushforward of mm)(w) - mm(w)| over the words |w| <= max_len
    in the states of mm that the kind reads.

    Uses the transfer-product form: with A_s = T * K[:, :, s] (entrywise),
    the pushforward of the word w is  pi^T A_{w_0} ... A_{w_{L-1}} 1.
    """
    K = _kernel(kind, p, mm)
    # a binary kind's measure gives ? no mass: its ? state is dropped
    k = min(mm.pi.size, len(pca.input_alphabet(kind)))
    A = [mm.T[:k, :k] * K[:k, :k, s] for s in range(k)]
    worst = 0.0
    # depth-first over words, carrying the prefix-contracted vector
    stack = [(mm.pi[:k], ())]
    while stack:
        vec, word = stack.pop()
        for s in range(k):
            nvec = vec @ A[s]
            nword = word + (s,)
            push = float(nvec.sum())
            ref = mm.cylinder(nword)
            worst = max(worst, abs(push - ref))
            if len(nword) < max_len:
                stack.append((nvec, nword))
    return worst


# -- the ?-weight system ----------------------------------------------------


def right_weight(word, i: int) -> int:
    """Right-weight of the ? at position i: 3 if followed by 01, 2 if
    followed by 0 and then a non-1, 1 otherwise (missing context counts as
    'otherwise')."""
    w = as_cells(word)
    if w[i] != QUES:
        raise ValueError(f"position {i} holds {format_word(w[i:i+1])}, not ?")
    if i + 1 < len(w) and w[i + 1] == ZERO:
        if i + 2 < len(w) and w[i + 2] == ONE:
            return 3
        return 2
    return 1


def symmetric_weight(word, i: int) -> int:
    """Right-weight plus the mirrored left-weight of the ? at position i."""
    w = as_cells(word)
    if w[i] != QUES:
        raise ValueError(f"position {i} holds {format_word(w[i:i+1])}, not ?")
    left = 1
    if i - 1 >= 0 and w[i - 1] == ZERO:
        left = 3 if (i - 2 >= 0 and w[i - 2] == ONE) else 2
    return left + right_weight(w, i)


# the windows of the weight system: mu's on the ring words, Dmu's on their images
_MU_WINDOWS = ("?", "?0", "0?", "??", "?01", "??1", "0?1", "1?1")
_DMU_WINDOWS = ("?", "?0", "?01")


def _cyclic_counts(rings: np.ndarray, windows) -> dict:
    """Occurrences of each window, a ``0?1`` string, in each ring of a
    stack (..., n), one start per cell: {window: counts of shape (...)}."""
    shifted = [np.roll(rings, -j, axis=-1) for j in range(max(map(len, windows)))]
    counts = {}
    for window in windows:
        hit = np.ones(rings.shape, dtype=bool)
        for j, c in enumerate(parse_word(window)):
            hit &= shifted[j] == c
        counts[window] = np.count_nonzero(hit, axis=-1)
    return counts


def _orbit_cylinders(words: np.ndarray) -> dict:
    """Cylinder probabilities of the orbit-uniform measure of each ring word
    of a stack (m, n) and of its image under the deterministic CA, as exact
    integer counts over their common denominator 2n: {"mu": {window: (m,)},
    "dmu": {window: (m,)}}.  Cyclic counts are rotation-invariant, so the
    uniform average over the 2n rotations and reflections is that over the
    word and its reversal.  D commutes with rotations but not with the
    reflection, so the image measure averages the images of the word and of
    its reversal; one call of D steps both for every word."""
    both = np.stack([words, words[:, ::-1]])
    images = pca.step("D", both, 0.0)  # D ignores p
    return {"mu": {w: c.sum(axis=0) for w, c in _cyclic_counts(both, _MU_WINDOWS).items()},
            "dmu": {w: c.sum(axis=0) for w, c in _cyclic_counts(images, _DMU_WINDOWS).items()}}


def _orbit_words(n: int) -> np.ndarray:
    """One word per orbit of the rings of n cells under rotation and
    reflection, (orbits, n) int8: the least base-3 code (cell 0 most
    significant) of the 2n images, in increasing order, which is the order
    in which ``itertools.product`` first meets each orbit."""
    codes = np.arange(3 ** n)
    digits = codes[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3
    top, canon = 3 ** (n - 1), codes.copy()
    for c in (codes, digits @ 3 ** np.arange(n)):  # the word and its reversal
        for _ in range(n):
            np.minimum(canon, c, out=canon)
            c = c % top * 3 + c // top  # rotated left by one cell
    return digits[canon == codes].astype(np.int8)


@dataclass
class WeightSystemReport:
    n: int
    words_checked: int
    orbits_checked: int
    identity_violations: list
    inequality_violations: list
    strictness_violations: list

    @property
    def passed(self) -> bool:
        return not (self.identity_violations or self.inequality_violations
                    or self.strictness_violations)

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"weight system on rings n={self.n}: {status} "
                f"({self.words_checked} words, {self.orbits_checked} orbits)")


# the ring lengths that weight_identities_check takes
WEIGHT_RINGS = range(5, 11)


def weight_identities_check(n: int) -> WeightSystemReport:
    """Exhaustive exact check of the weight system on rings of length n.

    For the orbit-uniform measure mu of every ring word, verifies exactly,
    on integer counts over the common denominator 2n:

      * the three pre-image identities of the deterministic CA:
        Dmu(?) = mu(??) + mu(0?) + mu(?0),
        Dmu(?0) = mu(??1) + mu(0?1) + mu(?01),
        Dmu(?01) = 0;
      * the weight inequality
        Dmu(?01)+Dmu(?0)+Dmu(?) <= mu(?01)+mu(?0)+mu(?),
        sharpened to the exact identity  (after - before) = -mu(1?1);
      * strict decrease exactly when the word contains the pattern 1?1.

    Needs n >= 5: shorter rings wrap the length-<=4 windows around and the
    identities are not claimed there.
    """
    if n not in WEIGHT_RINGS:
        raise ValueError("ring too small" if n < 5 else "ring too large (n <= 10)")
    words = _orbit_words(n)
    cylinders = _orbit_cylinders(words)
    mu, dmu = cylinders["mu"], cylinders["dmu"]
    identities = ((dmu["?"] == mu["??"] + mu["0?"] + mu["?0"])
                  & (dmu["?0"] == mu["??1"] + mu["0?1"] + mu["?01"])
                  & (dmu["?01"] == 0))
    before = mu["?01"] + mu["?0"] + mu["?"]
    after = dmu["?01"] + dmu["?0"] + dmu["?"]
    rises, off_law = after > before, after - before != -mu["1?1"]
    not_strict = (mu["1?1"] > 0) != (after < before)

    def names(where):
        return [format_word(words[i]) for i in np.flatnonzero(where)]

    ineq_viol = []
    for i in np.flatnonzero(rises | off_law):  # in orbit order, a rise before its law
        if rises[i]:
            ineq_viol.append(format_word(words[i]))
        if off_law[i]:
            ineq_viol.append(format_word(words[i]) + " (delta != -mu(1?1))")
    return WeightSystemReport(n, 3 ** n, len(words), names(~identities), ineq_viol,
                              names(not_strict))


# -- exact hard-core computations -------------------------------------------


@dataclass
class GibbsDistribution:
    """Exact hard-core distribution on a small graph: probs indexed by the
    occupation bitmask (vertex v occupied iff bit v set)."""

    n: int
    lam: float
    probs: np.ndarray
    marginals: np.ndarray
    partition_function: float


def _neighbor_masks(neighbors: Sequence[Sequence[int]]) -> list[int]:
    return [sum(1 << int(u) for u in nbrs) for nbrs in neighbors]


def gibbs_exact(neighbors: Sequence[Sequence[int]], lam: float) -> GibbsDistribution:
    """Enumerate independent sets; weight lambda^|I|, normalized.  An
    activity outside (0, inf), NaN included, raises ``ValueError``."""
    _check_activity(lam)
    n = len(neighbors)
    if n > 20:
        raise ValueError("graph too large for exact enumeration (n <= 20)")
    masks = np.arange(1 << n, dtype=np.int64)
    nbr_masks = _neighbor_masks(neighbors)
    independent = np.ones(1 << n, dtype=bool)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        occupied_v = (masks >> v) & 1 == 1
        independent &= ~(occupied_v & ((masks & nbr_masks[v]) != 0))
        sizes += occupied_v
    weights = np.where(independent, np.power(float(lam), sizes), 0.0)
    Z = weights.sum()
    probs = weights / Z
    marginals = np.array([probs[((masks >> v) & 1) == 1].sum() for v in range(n)])
    return GibbsDistribution(n, lam, probs, marginals, float(Z))


def class_update_matrix_apply(neighbors: Sequence[Sequence[int]],
                              class_vertices: Sequence[int], p: float,
                              variant: str, dist: np.ndarray) -> np.ndarray:
    """Push a distribution over {0,1}^V through one exact class update."""
    n = len(neighbors)
    masks = np.arange(1 << n, dtype=np.int64)
    nbr_masks = _neighbor_masks(neighbors)
    W = list(class_vertices)
    # per-state probability that vertex v takes value 1 after the update
    q1 = []
    for v in W:
        blocked = (masks & nbr_masks[v]) != 0
        q = np.where(blocked, 0.0, 1.0 - p)
        if variant == "extended":
            q = np.where((masks >> v) & 1 == 1, 0.0, q)
        q1.append(q)
    clear_mask = ~sum(1 << v for v in W)
    out = np.zeros_like(dist)
    for pattern in range(1 << len(W)):
        prob = dist.copy()
        add = 0
        for j, v in enumerate(W):
            if (pattern >> j) & 1:
                prob = prob * q1[j]
                add |= 1 << v
            else:
                prob = prob * (1.0 - q1[j])
        np.add.at(out, (masks & clear_mask) | add, prob)
    return out


def kernel_stationarity_check(neighbors: Sequence[Sequence[int]],
                              classes: Sequence[Sequence[int]], lam: float,
                              variant: str = "standard") -> float:
    """Max deviation |pi K_i - pi| over all class-update kernels K_i, where
    pi is the exact Gibbs distribution at activity lam.

    Update rule per vertex of the updated class: value 0 if any neighbor is
    occupied, else occupied with probability 1-p, with p = 1/(1+lam) for
    the standard variant; the extended variant additionally forces vertices
    occupied before the update to vacate and uses p = 1 - lam (so lam < 1).
    """
    n = len(neighbors)
    if n > 14:
        raise ValueError("graph too large for exact kernel check (n <= 14)")
    for i, cls in enumerate(classes):
        for v in cls:
            if set(neighbors[v]) & set(cls):
                raise ValueError(f"class {i} is not an independent set")
    p = p_from_activity(lam, variant)
    pi = gibbs_exact(neighbors, lam).probs
    worst = 0.0
    for cls in classes:
        out = class_update_matrix_apply(neighbors, cls, p, variant, pi)
        worst = max(worst, float(np.abs(out - pi).max()))
    return worst
