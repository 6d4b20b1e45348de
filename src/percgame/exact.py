"""Closed-form and brute-force exact computations.

Contents:

* the 2x2 transition matrix of the Markov stationary law of the hard-core
  PCA, and its square-root construction from the hard-core transfer matrix
  on Z (activity lambda = 1/p - 1);
* first-player win probability and its open-origin conditional version;
* exact cylinder pushforwards of measures through one PCA step;
* the ?-weight system on words over {0,?,1} and the exhaustive ring check
  of its decrease under the deterministic CA;
* exact hard-core Gibbs distributions on small graphs and stationarity of
  the class-update kernels (standard and forced-vacate variants).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from . import pca
from .symbols import ONE, QUES, ZERO, as_cells, format_word, parse_word

ATOL = 1e-12


# -- Markov measures --------------------------------------------------------


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary 2-state Markov chain on Z: transition matrix + stationary
    row vector."""

    T: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "pi", pi)
        if T.shape != (2, 2) or pi.shape != (2,):
            raise ValueError("MarkovMeasure is 2-state")
        if np.any(T < -ATOL) or np.any(T > 1 + ATOL) or np.any(pi < -ATOL):
            raise ValueError("entries must be probabilities")
        if np.abs(T.sum(axis=1) - 1).max() > ATOL:
            raise ValueError("rows must sum to 1")
        if np.abs(pi @ T - pi).max() > ATOL:
            raise ValueError("pi must be stationary for T")

    def cylinder(self, word) -> float:
        """Probability that consecutive cells spell the given binary word."""
        w = as_cells(word)
        if (w == QUES).any():
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


def matrix_Q(lam: float) -> MarkovMeasure:
    """Transition matrix of the hard-core Gibbs chain on Z at activity lam.

    Built from the transfer matrix [[1, sqrt(lam)], [sqrt(lam), 0]] by the
    Perron eigenvector transform; closed form since the Perron root is
    rho = (1 + sqrt(1 + 4 lam)) / 2.  Squaring it reproduces matrix_P at
    p = 1/(1 + lam), which is the independent cross-check used in tests.
    """
    if lam <= 0:
        raise ValueError("activity must be positive")
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
        if not 0.0 < lam < float("inf"):
            raise ValueError(f"standard variant needs 0 < lam < inf, got {lam}")
        return 1.0 / (1.0 + lam)
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


# -- cylinder tables --------------------------------------------------------


class CylinderTable:
    """Finite-word marginals of a shift-invariant measure on {0,?,1}^Z."""

    def __init__(self, probs: dict, max_len: int):
        self.max_len = max_len
        self.probs = {tuple(int(c) for c in w): v for w, v in probs.items()}

    def prob(self, word):
        w = tuple(as_cells(word).tolist())
        if len(w) > self.max_len:
            raise ValueError(f"word longer than max_len={self.max_len}")
        return self.probs[w]

    @classmethod
    def from_markov3(cls, T: np.ndarray, pi: np.ndarray, max_len: int) -> "CylinderTable":
        """Shift-invariant table of a stationary 3-state Markov chain
        (test utility for pushforward identities on random measures)."""
        T = np.asarray(T, dtype=np.float64)
        pi = np.asarray(pi, dtype=np.float64)
        probs = {}
        for L in range(1, max_len + 1):
            for w in itertools.product((ZERO, ONE, QUES), repeat=L):
                v = pi[w[0]]
                for a, b in zip(w[:-1], w[1:]):
                    v *= T[a, b]
                probs[w] = float(v)
        return cls(probs, max_len)

    @classmethod
    def from_ring_word(cls, config, max_len: int, exact: bool = False) -> "CylinderTable":
        """Orbit-uniform measure of a ring word: uniform over all rotations
        and reflections, with cylinder probabilities given by exact cyclic
        pattern counting (see ``_orbit_count``).  With exact=True probabilities
        are Fractions."""
        cells = tuple(as_cells(config).tolist())
        denom = 2 * len(cells)
        probs = {}
        for L in range(1, max_len + 1):
            for w in itertools.product((ZERO, ONE, QUES), repeat=L):
                num = _orbit_count(cells, w)
                probs[w] = Fraction(num, denom) if exact else num / denom
        return cls(probs, max_len)

    def consistency_error(self) -> float:
        worst = 0.0
        for w, v in self.probs.items():
            if len(w) < self.max_len:
                ext = sum(self.probs[w + (s,)] for s in (ZERO, ONE, QUES)
                          if w + (s,) in self.probs)
                worst = max(worst, abs(float(v - ext)))
        for L in range(1, self.max_len + 1):
            total = sum(v for w, v in self.probs.items() if len(w) == L)
            worst = max(worst, abs(float(total - 1)))
        return worst


def pushforward_cylinder(kind: str, p: float, measure, word) -> float:
    """Probability of the output word after one PCA step from `measure`.

    Sums measure(u) * prod_i K(u_i, u_{i+1} -> w_i) over all input words u
    of length |w| + 1 (radius-1 rule).
    """
    w = as_cells(word)
    K = pca.local_kernel(kind, p)
    alpha = pca.input_alphabet(kind)
    if isinstance(measure, CylinderTable) and len(w) + 1 > measure.max_len:
        raise ValueError("word too long for the measure's max_len")
    total = 0.0
    for u in itertools.product(alpha, repeat=len(w) + 1):
        mu = measure.cylinder(u) if isinstance(measure, MarkovMeasure) else measure.prob(u)
        mu = float(mu)
        if mu == 0.0:
            continue
        f = mu
        for i in range(len(w)):
            f *= K[u[i], u[i + 1], w[i]]
        total += f
    return total


def markov_pushforward_deviation(kind: str, p: float, mm: MarkovMeasure,
                                 max_len: int) -> float:
    """Max |(pushforward of mm)(w) - mm(w)| over binary words |w| <= max_len.

    Uses the transfer-product form: with A_s = T * K[:, :, s] (entrywise),
    the pushforward of the word w is  pi^T A_{w_0} ... A_{w_{L-1}} 1.
    """
    K = pca.local_kernel(kind, p)
    A = [mm.T * K[:2, :2, s] for s in (ZERO, ONE)]
    ones = np.ones(2)
    worst = 0.0
    # depth-first over words, carrying the prefix-contracted vector
    stack = [(mm.pi.copy(), ())]
    while stack:
        vec, word = stack.pop()
        for s in (ZERO, ONE):
            nvec = vec @ A[s]
            nword = word + (s,)
            push = float(nvec @ ones)
            ref = mm.cylinder(nword)
            worst = max(worst, abs(push - ref))
            if len(nword) < max_len:
                stack.append((nvec, nword))
    return worst


def pushforward_table(kind: str, p: float, measure, max_len: int) -> CylinderTable:
    probs = {}
    for L in range(1, max_len + 1):
        for w in itertools.product((ZERO, ONE, QUES), repeat=L):
            probs[w] = pushforward_cylinder(kind, p, measure, w)
    return CylinderTable(probs, max_len)


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


def count_cyclic(config: Sequence[int], word: Sequence[int]) -> int:
    """Occurrences of `word` in the cyclic configuration (one per start)."""
    n = len(config)
    L = len(word)
    ext = tuple(config) + tuple(config[: L - 1])
    return sum(1 for i in range(n) if ext[i:i + L] == tuple(word))


def _orbit_count(cells: Sequence[int], word: Sequence[int]) -> int:
    """2n times the probability of ``word`` under the orbit-uniform measure of
    a ring word of n cells.  Cyclic counts are rotation-invariant, so the
    uniform average over the 2n rotations and reflections is that over the
    word and its reversal."""
    return count_cyclic(cells, word) + count_cyclic(cells[::-1], word)


def ring_orbit(cells: Sequence[int]) -> list[tuple[int, ...]]:
    """Distinct rotations and reflections of a ring word."""
    c = tuple(cells)
    n = len(c)
    orbit = set()
    for r in range(n):
        rot = c[r:] + c[:r]
        orbit.add(rot)
        orbit.add(rot[::-1])
    return sorted(orbit)


_W_Q = parse_word("?")
_W_Q0 = parse_word("?0")
_W_0Q = parse_word("0?")
_W_QQ = parse_word("??")
_W_Q01 = parse_word("?01")
_W_QQ1 = parse_word("??1")
_W_0Q1 = parse_word("0?1")
_W_1Q1 = parse_word("1?1")


def _orbit_cylinders(cells: tuple[int, ...]) -> dict:
    """Exact cylinder probabilities (Fractions) of the orbit-uniform measure
    of a ring word and of its image under the deterministic CA.  D commutes
    with rotations but not with the reflection, so the image measure averages
    the images of the word and of its reversal."""
    denom = 2 * len(cells)
    images = []
    for c in (cells, cells[::-1]):
        arr = np.array(c, dtype=np.int8)
        images.append(tuple(pca.D_TABLE[arr, np.roll(arr, -1)].tolist()))
    mu = {w: Fraction(_orbit_count(cells, w), denom)
          for w in (_W_Q, _W_Q0, _W_0Q, _W_QQ, _W_Q01, _W_QQ1, _W_0Q1, _W_1Q1)}
    dmu = {w: Fraction(sum(count_cyclic(img, w) for img in images), denom)
           for w in (_W_Q, _W_Q0, _W_Q01)}
    return {"mu": mu, "dmu": dmu}


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

    For the orbit-uniform measure mu of every ring word, verifies with
    rational arithmetic:

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
    seen = set()
    id_viol = []
    ineq_viol = []
    strict_viol = []
    for cells in itertools.product((ZERO, ONE, QUES), repeat=n):
        canon = min(ring_orbit(cells))
        if canon in seen:
            continue
        seen.add(canon)
        res = _orbit_cylinders(canon)
        mu, dmu = res["mu"], res["dmu"]
        ok = (dmu[_W_Q] == mu[_W_QQ] + mu[_W_0Q] + mu[_W_Q0]
              and dmu[_W_Q0] == mu[_W_QQ1] + mu[_W_0Q1] + mu[_W_Q01]
              and dmu[_W_Q01] == 0)
        if not ok:
            id_viol.append(format_word(canon))
        before = mu[_W_Q01] + mu[_W_Q0] + mu[_W_Q]
        after = dmu[_W_Q01] + dmu[_W_Q0] + dmu[_W_Q]
        if after > before:
            ineq_viol.append(format_word(canon))
        if after - before != -mu[_W_1Q1]:
            ineq_viol.append(format_word(canon) + " (delta != -mu(1?1))")
        has_101 = mu[_W_1Q1] > 0
        if has_101 != (after < before):
            strict_viol.append(format_word(canon))
    return WeightSystemReport(n, 3 ** n, len(seen), id_viol, ineq_viol, strict_viol)


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
    """Enumerate independent sets; weight lambda^|I|, normalized."""
    n = len(neighbors)
    if n > 20:
        raise ValueError("graph too large for exact enumeration (n <= 20)")
    masks = np.arange(1 << n, dtype=np.int64)
    nbr_masks = _neighbor_masks(neighbors)
    independent = np.ones(1 << n, dtype=bool)
    for v in range(n):
        occupied_v = (masks >> v) & 1 == 1
        conflict = (masks & nbr_masks[v]) != 0
        independent &= ~(occupied_v & conflict)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        sizes += ((masks >> v) & 1).astype(np.int64)
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
