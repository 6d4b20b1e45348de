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
tag (t, i) at every sweep t) computes each site's prefix once.

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
2**53 - 1, so the threshold fits in 64 bits.  For p >= 1 every u is below
p (the threshold 2**64 does not fit a word, so this case is decided
without it); for p <= 0 none is.  ``hash_below`` is therefore the same
decision as ``hash_uniforms(...) < p``, bit for bit, without the float
conversion.

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

# words of chain state per block of seed rows: 128 KB of state and as much
# scratch, which stay in a 2 MB L2 cache through a block's rounds
CHAIN_BLOCK = 1 << 14

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


def _chain(seeds, coords, tag=(), out=None, tmp=None) -> np.ndarray:
    """The chain core: hash words of every (seed, site, tag), mixed in place
    on one state buffer (``out`` if given) with one scratch buffer (``tmp``
    if given).  The empty tag gives the prefix, before its first step.
    Shapes as for :func:`hash_prefix`.

    The state is mixed a block of seed rows at a time, ``CHAIN_BLOCK``
    words per block (one row if a row is larger), so that a block's state
    and scratch stay in the L2 cache through every round and the tag
    finish; the bits do not depend on the blocking."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim <= 1:
        coords = coords.reshape(-1, 1)
    seeds_arr = np.asarray(seeds, dtype=np.uint64)
    words = _pack_words(coords)  # (..., nw)
    h = seeds_arr.reshape((-1,) + (1,) * (words.ndim - 1)).copy()  # (S, 1, ...)
    h_tmp = np.empty_like(h)
    _mix64_inplace(h, h_tmp)
    shape = h.shape[:1] + words.shape[:-1]
    state = _buffer(out, shape, seeds_arr.ndim == 0, "out")
    tmp = _buffer(tmp, shape, seeds_arr.ndim == 0, "tmp")
    finish = bool(_tag_elements(tag))
    if words.shape[-1]:
        # the linear first step, applied once per seed and once per site
        _xorshift30(h, h_tmp)
        _xorshift30(words[..., 0], tmp[0])
    rows = max(1, CHAIN_BLOCK // max(1, math.prod(shape[1:])))
    for lo in range(0, shape[0], rows):
        s, t = state[lo:lo + rows], tmp[lo:lo + rows]
        if words.shape[-1] == 0:
            s[...] = h[lo:lo + rows]
        else:
            np.bitwise_xor(h[lo:lo + rows], words[..., 0], out=s)
            _mix_rest(s, s, t)
        for w in range(1, words.shape[-1]):
            s ^= words[None, ..., w]
            _mix64_inplace(s, t)
        if finish:
            finish_tag(_xorshift30(s, t), tag, out=s, tmp=t)
    return state[0] if seeds_arr.ndim == 0 else state


def hash_prefix(seeds, coords) -> np.ndarray:
    """Chain state after the seed and coordinate words, with the linear
    first step of the next ``mix64`` applied, as uint64: the operand that
    :func:`finish_tag` takes.

    ``seeds`` is a scalar or shape (S,) int array; ``coords`` is an integer
    array of shape (..., d) (or (...,) for 1-d sites).  Returns shape (...)
    for a scalar seed, or (S, ...) for a seed vector.
    """
    state = _chain(seeds, coords)
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


def check_p(p: float) -> float:
    """p itself; a NaN p, which no site could be decided by, raises
    ``ValueError``."""
    if math.isnan(p):
        raise ValueError("p must be a number, got nan")
    return p


def closed_threshold(p: float) -> int:
    """Integer T with  h < T  <=>  (h >> 11) * 2**-53 < p  for every 64-bit
    h (the threshold lemma); T = 2**64 when p >= 1 and 0 when p <= 0.  A
    NaN p raises ``ValueError``."""
    if check_p(p) <= 0.0:
        return 0
    if p >= 1.0:
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


def hash_words(seeds, coords, tag=0, out=None, tmp=None) -> np.ndarray:
    """The 64-bit hash words of every (seed, site, tag), shapes as for
    :func:`hash_uniforms`.  ``out``, a C-contiguous uint64 array of that
    shape, receives them and is returned; ``tmp``, of the same shape, is
    the scratch buffer.  A caller that decides ``u < p`` for several p
    hashes once and applies :func:`below` with each threshold."""
    return _chain(seeds, coords, tag, out, tmp)


def hash_below(seeds, coords, tag, p: float) -> np.ndarray:
    """``hash_uniforms(seeds, coords, tag) < p``, decided on the hash words
    (threshold lemma); same shapes as :func:`hash_uniforms`."""
    return below(_chain(seeds, coords, tag), closed_threshold(p))


def hash_uniforms(seeds, coords, tag=0) -> np.ndarray:
    """Uniform variates for every (seed, site, tag) combination.

    ``seeds`` is a scalar or shape (S,) int array; ``coords`` is an integer
    array of shape (..., d) (or (...,) for 1-d sites).  Returns float64 of
    shape (...) for a scalar seed, or (S, ...) for a seed vector.
    """
    h = _chain(seeds, coords, tag)
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
