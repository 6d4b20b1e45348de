"""Three-symbol cell alphabet shared by the game solver and the ring PCAs.

Cells take values in {0, ?, 1}.  Game reading: 0 = first player wins (or the
site is closed), 1 = first player loses, ? = draw / value unknown.  Integer
encoding:

    ZERO = 0,  ONE = 1,  QUES = 2

so that binary configurations are plain 0/1 arrays (matching hard-core
occupation variables, where 1 = occupied).  Two partial orders matter:

* the linear order 0 < ? < 1, used by the order-reversing coupling; encoded
  ranks are given by ``LINEAR_RANK``;
* the "information" order in which ? is the unique maximal element
  (0 and 1 are incomparable).

The game rule and the ring PCAs compute on (zero, one) bool planes instead,
? = (0, 0), 0 = (1, 0) and 1 = (0, 1); ``planes`` and ``pair_symbols``
convert at the edges.
"""

from __future__ import annotations

import numpy as np

ZERO = 0
ONE = 1
QUES = 2

SYMBOLS = (ZERO, ONE, QUES)

_CHAR = {ZERO: "0", ONE: "1", QUES: "?"}
_FROM_CHAR = {"0": ZERO, "1": ONE, "?": QUES}

# rank under the linear order 0 < ? < 1
LINEAR_RANK = np.array([0, 2, 1], dtype=np.int8)


def parse_word(s: str) -> tuple[int, ...]:
    """Parse a string over ``0?1`` into a tuple of symbol codes."""
    try:
        return tuple(_FROM_CHAR[c] for c in s)
    except KeyError as e:
        raise ValueError(f"invalid symbol {e.args[0]!r} in word {s!r}") from None


def format_word(cells) -> str:
    return "".join(_CHAR[int(c)] for c in cells)


def as_cells(word) -> np.ndarray:
    """Accept a ``0?1`` string, a sequence of codes, an array, or a list or
    tuple of ``0?1`` strings of one length: a stack of rings, (rings, n)."""
    if isinstance(word, str):
        word = parse_word(word)
    elif isinstance(word, (list, tuple)) and word and all(isinstance(w, str) for w in word):
        if len({len(w) for w in word}) > 1:
            raise ValueError(f"a stack of rings needs rings of one length, got {list(word)}")
        word = [parse_word(w) for w in word]
    cells = np.asarray(word, dtype=np.int8)
    if cells.size and not np.isin(cells, SYMBOLS).all():
        raise ValueError("cell values must be 0, 1 or 2 (=?)")
    return cells



def planes(cells: np.ndarray) -> np.ndarray:
    """The (zero, one) planes of symbols, shape (2,) + cells.shape, bool."""
    return np.stack([cells == ZERO, cells == ONE])


def pair_bytes(zero, one) -> np.ndarray:  # of bools or 0/1 bytes
    return 2 * zero.view(np.uint8) + one.view(np.uint8)


def pair_symbols(pair_bytes: np.ndarray) -> np.ndarray:
    """The int8 symbols of pair bytes 2 zero + one: ? = 2 - 0, 1 = 2 - 1 and
    0 = 2 - 2 in the codes above; (1, 1) is no pair, read as -1."""
    return np.subtract(np.int8(QUES), pair_bytes.view(np.int8))
