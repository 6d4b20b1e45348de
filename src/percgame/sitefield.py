"""Deterministic, seed-indexed site randomness.

Every random decision in this package is a pure function of
``(seed, site coordinates, stream tag)``, so that any two consumers that
name the same triple see the same uniform variate and any two distinct
triples are statistically independent.  Random access by site is what the
backward-induction solver needs (it visits sites in layer order), and exact
replays are what the coupling checks need.

Bit-level definition (normative, reproducible across platforms)
---------------------------------------------------------------
All arithmetic is on 64-bit unsigned words.  ``mix64`` is the splitmix64
finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Coordinates are packed three per word in 21-bit fields, each offset by
2**20 (so coordinates must satisfy ``|c| < 2**20``):

    word_g = sum((c[3g+j] + 2**20) << (21*j)  for j in 0..2)

The hash of a triple chains these words through ``mix64``, in two parts.
The *prefix* is the chain state after the seed and the coordinate words;
the *tag finisher* mixes the tag elements into it:

    prefix(seed, c) = h,  where    h = mix64(seed)
                                   for each coordinate word w:  h = mix64(h ^ w)
    finish(h, tag):                for each tag element t:      h = mix64(h ^ t)
    u = (finish(prefix(seed, c), tag) >> 11) * 2.0**-53   # uniform in [0, 1)

A consumer that draws many tags at fixed sites (a Glauber chain drawing
tag (t, i) at every sweep t) computes each site's prefix once;
``finish_tags`` finishes a block of one-element tags (the ring PCA's time
steps) in one call.  ``LayerSites`` packs the transverse coordinates of
a slab layer's sites once, for every layer k (their last coordinate), and
moves the field of k by one xor per layer; it hashes site-major, (n, S),
from seed states that its caller mixes once for all layers.

The first step of ``mix64``, ``z ^= z >> 30``, is linear over GF(2), so
the step of ``a ^ b`` is the xor of the steps of a and b.  The array paths
apply it once to an operand that many xors share: to the (S,) seed states
and to the sites' first coordinate words, whose xor then runs through the
other six steps only.  ``hash_prefix`` returns the prefix with this step
already applied, and ``finish_tag`` xors into it the step of the first tag
element, one int.  A tag element of 0 is not xored at all.  The bits are
those defined above; ``hash_uniform_scalar`` computes them as written.

Threshold lemma.  A decision ``u < p`` is made on the 64-bit word h alone:

    (h >> 11) * 2.0**-53 < p   <=>   h < ceil(p * 2**53) << 11    (0 < p < 1)

since h >> 11 is an integer k < 2**53 and k * 2**-53 is exact, p * 2**53
is exact (a power-of-two scaling), k < x <=> k < ceil(x) for integer k,
and floor(h / 2**11) < K <=> h < K * 2**11.  For p < 1, ceil(p * 2**53) <=
2**53 - 1, so the threshold fits in 64 bits.  For p = 1 every u is below
p (the threshold 2**64 does not fit a word, so this case is decided
without it); for p = 0 none is.  Any other p outside [0, 1], NaN
included, is refused.  ``hash_below`` is therefore the same decision as
``hash_uniforms(...) < p``, bit for bit, without the float conversion.

A tag is a non-negative int or a tuple of them; an int tag behaves as a
1-tuple.  Tag registry used in this package:

    0          open/closed status of a lattice site
    1          boundary-value sampling in the slab/triangle solver
    t          ring-PCA step at time t (sites are 1-d cell indices)
    (t, i)     free-running Glauber sweep t, vertex class i

The game/Glauber coupling intentionally reuses tag 0 on slab sites: the
same closed/open bit drives both the game recursion and the coupled class
update.
"""

from __future__ import annotations

import math

import numpy as np

_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

COORD_OFFSET = 1 << 20
COORD_LIMIT = 1 << 20  # packed coordinates must satisfy |c| < COORD_LIMIT
SEED_MAX = (1 << 63) - 1  # seeds are int64

# words of chain state per block of seed rows: 256 KB of state and as much
# scratch, which stay in a 2 MB L2 cache through a block's rounds.  Callers
# that hash many short arrays batch them to about this many words per call:
# the triangle sweep a run of diagonals, the ring PCA a block of time tags,
# the sliced slab sweep a block of seeds of a layer
CHAIN_BLOCK = 1 << 15

_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """Splitmix64 finalizer on a Python int (mod 2**64)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _C1) & _MASK
    z ^= z >> 27
    z = (z * _C2) & _MASK
    z ^= z >> 31
    return z


_U30, _U27, _U31, _U11 = (np.uint64(k) for k in (30, 27, 31, 11))
_UC1, _UC2 = np.uint64(_C1), np.uint64(_C2)


def _xorshift30(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The linear first step of ``mix64``, z ^= z >> 30, in place."""
    np.right_shift(z, _U30, out=tmp)
    z ^= tmp
    return z


def _mix_rest(src: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The six steps of ``mix64`` after the first, from ``src`` into
    ``out`` (which may be ``src``); ``tmp`` is scratch of the same shape."""
    np.multiply(src, _UC1, out=out)
    np.right_shift(out, _U27, out=tmp)
    out ^= tmp
    out *= _UC2
    np.right_shift(out, _U31, out=tmp)
    out ^= tmp
    return out


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer on a uint64 array, in place, with scratch ``tmp``."""
    return _mix_rest(_xorshift30(z, tmp), z, tmp)


def _tag_elements(tag) -> tuple[int, ...]:
    if isinstance(tag, (int, np.integer)):
        return (int(tag),)
    return tuple(int(t) for t in tag)


def _pack_words(coords: np.ndarray) -> np.ndarray:
    """Pack integer coordinates, shape (..., d), into uint64 words (..., nw)."""
    if np.any(np.abs(coords) >= COORD_LIMIT):
        raise ValueError(f"coordinates must satisfy |c| < {COORD_LIMIT}")
    d = coords.shape[-1]
    nwords = (d + 2) // 3
    shifted = (coords + COORD_OFFSET).astype(np.uint64)
    words = np.zeros(coords.shape[:-1] + (nwords,), dtype=np.uint64)
    for j in range(d):
        words[..., j // 3] |= shifted[..., j] << np.uint64(21 * (j % 3))
    return words


def _buffer(buf, shape, scalar_seed: bool, name: str) -> np.ndarray:
    """A uint64 chain buffer of ``shape``: a new one, or ``buf`` (shaped as
    the result, without the seed axis for a scalar seed) checked and viewed
    with the seed axis."""
    if buf is None:
        return np.empty(shape, dtype=np.uint64)
    want = shape[scalar_seed:]
    if buf.dtype != np.uint64 or buf.shape != want or not buf.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous uint64 of shape {want}")
    return buf.reshape(shape)


def _seed_states(seeds: np.ndarray, ndim: int, step: bool) -> np.ndarray:
    """``mix64`` of each seed, shape (S,) + (1,) * ndim, with the linear
    first step of the next ``mix64`` applied if ``step``."""
    h = seeds.reshape((-1,) + (1,) * ndim).copy()
    h_tmp = np.empty_like(h)
    _mix64_inplace(h, h_tmp)
    return _xorshift30(h, h_tmp) if step else h


def _rows(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo .. hi - 1 of x, or x itself when its first axis broadcasts."""
    return x if x.shape[0] == 1 else x[lo:hi]


def _mix_words(h, columns, tag, state, tmp) -> np.ndarray:
    """The chain core: from the seed states ``h`` through the coordinate
    word ``columns`` and the tag into ``state``, with the scratch ``tmp``.
    ``h`` and the columns broadcast to the state's shape, and each has its
    number of axes: seed-major, (S, 1, ...) seed states and (1, ...)
    columns; site-major, (1, S) and (n, 1).  Given any columns, ``h`` and
    the first column carry the linear first step already.

    The state is mixed a block of rows at a time, ``CHAIN_BLOCK`` words per
    block (one row if a row is larger), so that a block's state and scratch
    stay in the L2 cache through every round and the tag finish; the bits
    do not depend on the blocking."""
    finish = bool(_tag_elements(tag))
    rows = max(1, CHAIN_BLOCK // max(1, math.prod(state.shape[1:])))
    for lo in range(0, state.shape[0], rows):
        hi = lo + rows
        s, t = state[lo:hi], tmp[lo:hi]
        if columns:
            np.bitwise_xor(_rows(h, lo, hi), _rows(columns[0], lo, hi), out=s)
            _mix_rest(s, s, t)
        else:
            s[...] = _rows(h, lo, hi)
        for column in columns[1:]:
            s ^= _rows(column, lo, hi)
            _mix64_inplace(s, t)
        if finish:
            finish_tag(_xorshift30(s, t), tag, out=s, tmp=t)
    return state


def hash_words(seeds, coords, tag=0, out=None, tmp=None) -> np.ndarray:
    """The 64-bit hash words of every (seed, site, tag), shapes as for
    :func:`hash_uniforms`, mixed in place on one state buffer with one
    scratch buffer.  ``out``, a C-contiguous uint64 array of that shape,
    receives them and is returned; ``tmp``, of the same shape, is the
    scratch buffer.  The empty tag ``()`` gives the prefix, before its
    first step.  A caller that decides ``u < p`` for several p hashes once
    and applies :func:`below` with each threshold."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim <= 1:
        coords = coords.reshape(-1, 1)
    seeds_arr = np.asarray(seeds, dtype=np.uint64)
    words = _pack_words(coords)  # (..., nw)
    shape = (seeds_arr.size,) + words.shape[:-1]
    state = _buffer(out, shape, seeds_arr.ndim == 0, "out")
    tmp = _buffer(tmp, shape, seeds_arr.ndim == 0, "tmp")
    columns = [words[None, ..., w] for w in range(words.shape[-1])]
    if columns:  # the linear first step, applied once per site
        _xorshift30(columns[0], tmp[:1])
    _mix_words(_seed_states(seeds_arr, words.ndim - 1, bool(columns)), columns, tag, state, tmp)
    return state[0] if seeds_arr.ndim == 0 else state


class LayerSites:
    """n sites t + (k,) on each layer k of ``layers``, a range, for their
    hash words, site-major: ``hash_words(seed_states(seeds), k, ...)`` is
    the transpose of :func:`hash_words` of (seeds, t + (k,), tag), bit for
    bit, shape (n, S).

    The transverse coordinates t, shape (n, d - 1), are packed once and the
    layers are range-checked once, here; a caller that hashes many layers
    of the same seeds computes their states once, with ``seed_states``.
    The words of the sites on layer k differ from those on layer 0 in the
    field of k alone, by the xor

        delta(k) = ((k + 2**20) ^ 2**20) << 21 * ((d - 1) % 3)

    so a layer gets its words from one xor of the delta into the last word
    column (of its first step, when that column is word 0)."""

    def __init__(self, coords, layers: range):
        coords = np.asarray(coords, dtype=np.int64)
        if layers and max(abs(layers[0]), abs(layers[-1])) >= COORD_LIMIT:
            raise ValueError(f"coordinates must satisfy |c| < {COORD_LIMIT}, "
                             f"got layers {layers.start} to {layers[-1]}")
        self._layers = layers
        words = _pack_words(np.concatenate([coords, np.zeros((len(coords), 1), np.int64)], axis=1))
        self._columns = [words[:, w:w + 1].copy() for w in range(words.shape[1])]  # (n, 1)
        _xorshift30(self._columns[0], np.empty_like(self._columns[0]))
        self._shift = 21 * (coords.shape[1] % 3)
        self._last = np.empty_like(self._columns[-1])  # the last column on layer k

    @staticmethod
    def seed_states(seeds) -> np.ndarray:
        """The chain states of a scalar or 1-d ``seeds``, shape (1, S), that
        ``hash_words`` starts from: ``mix64`` of each seed, with the first
        step of the next ``mix64`` applied."""
        return _seed_states(np.asarray(seeds, dtype=np.uint64), 0, True).reshape(1, -1)

    def hash_words(self, states: np.ndarray, k: int, tag=0, out=None, tmp=None) -> np.ndarray:
        """The hash words of the sites on layer k for the seed states
        ``states`` of ``seed_states``, shape (n, S); ``out`` and ``tmp``, if
        given, are C-contiguous uint64 arrays of that shape, as for
        :func:`hash_words`."""
        if k not in self._layers:
            raise ValueError(f"layer {k} is not in {self._layers}")
        shape = (self._last.shape[0], states.shape[1])
        state = _buffer(out, shape, False, "out")
        tmp = _buffer(tmp, shape, False, "tmp")
        delta = ((k + COORD_OFFSET) ^ COORD_OFFSET) << self._shift
        if len(self._columns) == 1:
            delta ^= delta >> 30
        last = np.bitwise_xor(self._columns[-1], np.uint64(delta), out=self._last)
        return _mix_words(states, self._columns[:-1] + [last], tag, state, tmp)


def hash_prefix(seeds, coords) -> np.ndarray:
    """Chain state after the seed and coordinate words, with the linear
    first step of the next ``mix64`` applied, as uint64: the operand that
    :func:`finish_tag` takes.

    ``seeds`` is a scalar or shape (S,) int array; ``coords`` is an integer
    array of shape (..., d) (or (...,) for 1-d sites).  Returns shape (...)
    for a scalar seed, or (S, ...) for a seed vector.
    """
    state = hash_words(seeds, coords, ())
    return _xorshift30(state, np.empty_like(state))


def finish_tag(prefix: np.ndarray, tag, out: np.ndarray = None,
               tmp: np.ndarray = None) -> np.ndarray:
    """Hash words of (seed, site, tag) from :func:`hash_prefix` of
    (seed, site); the tag has at least one element.

    Writes into ``out`` (a new array if None; may be ``prefix`` itself) and
    uses ``tmp`` as scratch; both are uint64 of the prefix's shape.
    """
    elements = _tag_elements(tag)
    if not elements:
        raise ValueError("finish_tag needs a tag with at least one element")
    out = np.empty_like(prefix) if out is None else out
    tmp = np.empty_like(prefix) if tmp is None else tmp
    first = elements[0] & _MASK
    src = prefix
    if first:
        np.bitwise_xor(prefix, np.uint64(first ^ (first >> 30)), out=out)
        src = out
    _mix_rest(src, out, tmp)
    for t in elements[1:]:
        if t & _MASK:
            out ^= np.uint64(t & _MASK)
        _mix64_inplace(out, tmp)
    return out


def finish_tags(prefix: np.ndarray, tags, out: np.ndarray = None,
                tmp: np.ndarray = None) -> np.ndarray:
    """Hash words of (seed, site, t) for each int tag t of the 1-d array
    ``tags``, shape (T,) + prefix.shape, from :func:`hash_prefix`: row i
    holds ``finish_tag(prefix, tags[i])``, bit for bit.

    ``out`` and ``tmp`` are uint64 of the result's shape, as for
    :func:`finish_tag`; a tag of 0 is xored as a 0 word, which changes
    nothing."""
    tags = np.asarray(tags, dtype=np.uint64)
    shape = tags.shape + prefix.shape
    out = np.empty(shape, dtype=np.uint64) if out is None else out
    tmp = np.empty(shape, dtype=np.uint64) if tmp is None else tmp
    np.bitwise_xor(prefix, (tags ^ tags >> _U30).reshape(tags.shape + (1,) * prefix.ndim),
                   out=out)
    return _mix_rest(out, out, tmp)


def check_probability(p: float) -> float:
    """p itself, if 0 <= p <= 1; any other p, NaN included, raises
    ``ValueError`` naming it."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return p


def check_seeds(seeds) -> np.ndarray:
    """The seeds, a scalar or a 1-d sequence, as a 1-d int64 array; an
    empty one, which no sweep can take, or a seed outside int64 raises
    ``ValueError``."""
    try:
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
    except OverflowError:
        raise ValueError(f"seeds must be int64, from -2**63 to 2**63 - 1 = {SEED_MAX}") from None
    if seeds.size == 0:
        raise ValueError("seeds must hold at least one seed, got none")
    return seeds


def closed_threshold(p: float) -> int:
    """Integer T with  h < T  <=>  (h >> 11) * 2**-53 < p  for every 64-bit
    h (the threshold lemma); T = 2**64 when p = 1 and 0 when p = 0.  Any p
    outside [0, 1], NaN included, raises ``ValueError``."""
    if check_probability(p) == 1.0:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def below(h: np.ndarray, threshold: int, out: np.ndarray = None) -> np.ndarray:
    """Boolean mask h < threshold, for a threshold from closed_threshold."""
    if threshold > _MASK:
        if out is None:
            return np.ones(h.shape, dtype=bool)
        out.fill(True)
        return out
    return np.less(h, np.uint64(threshold), out=out)


def hash_below(seeds, coords, tag, p: float) -> np.ndarray:
    """``hash_uniforms(seeds, coords, tag) < p``, decided on the hash words
    (threshold lemma); same shapes as :func:`hash_uniforms`."""
    return below(hash_words(seeds, coords, tag), closed_threshold(p))


def hash_uniforms(seeds, coords, tag=0) -> np.ndarray:
    """Uniform variates for every (seed, site, tag) combination.

    ``seeds`` is a scalar or shape (S,) int array; ``coords`` is an integer
    array of shape (..., d) (or (...,) for 1-d sites).  Returns float64 of
    shape (...) for a scalar seed, or (S, ...) for a seed vector.
    """
    h = hash_words(seeds, coords, tag)
    h >>= _U11
    # converted in place: h < 2**53, so the conversion and the scaling by
    # 2**-53 are exact
    u = h.view(np.float64)
    np.multiply(h, _INV_2_53, out=u)
    return u


def hash_uniform_scalar(seed: int, coords, tag=0) -> float:
    """Pure-Python scalar path; bit-identical to :func:`hash_uniforms`."""
    h = mix64(seed)
    coords = tuple(int(c) for c in (coords if hasattr(coords, "__len__") else (coords,)))
    for g in range(0, len(coords), 3):
        word = 0
        for j, c in enumerate(coords[g:g + 3]):
            if abs(c) >= COORD_LIMIT:
                raise ValueError(f"coordinates must satisfy |c| < {COORD_LIMIT}")
            word |= (c + COORD_OFFSET) << (21 * j)
        h = mix64(h ^ word)
    for t in _tag_elements(tag):
        h = mix64(h ^ (t & _MASK))
    return (h >> 11) * _INV_2_53
