"""Element sets as bits, one per element id: an int mask for one set, rows
of 64-bit words for many.

On word rows 1 to 4 words wide numpy's per-row indexing costs more than
the work, so batched kernels keep to four idioms, each timed with numpy 2.4
on a 2-vCPU x86-64 host: ``np.take(x, i, axis=0)`` for ``x[i]`` and
``np.compress(mask, x, axis=0)`` for ``x[mask]`` (7 to 10x faster on 60,000
rows of 2 words), a fold over word columns for a reduction along axis 1
(``popcounts``, ``empty_rows``; 6 to 9x), and one ``np.flatnonzero`` decoded
with ``>>`` and ``&`` for a 2-D ``np.nonzero`` (``set_bits``; 1.7x).
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

import numpy as np


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_tuple(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def lowest_bit(mask: int) -> int:
    """Position of the least set bit; element ids ascend, so this is the minimum."""
    if mask == 0:
        raise ValueError("empty mask has no minimum")
    return (mask & -mask).bit_length() - 1


def packed(rows: np.ndarray) -> np.ndarray:
    """Bool rows (r x n) as zero-padded little-endian uint64 words (r x ceil(n / 64)):
    row i read as one little-endian integer is the int mask of row i.  Any
    memory layout is accepted: the bytes are copied into a fresh C-contiguous
    array before the words are viewed."""
    r, n = rows.shape
    out = np.zeros((r, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : -(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return out.view("<u8")


def row_positions(words: np.ndarray) -> dict[bytes, int]:
    """The position of every row of ``words`` (r x width), keyed by its bytes."""
    return {row.tobytes(): i for i, row in enumerate(words)}


def set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and bit position of every set bit of words (r x width), ordered
    by row, then position; only the nonzero words are unpacked."""
    at = np.flatnonzero(words)
    octets = words.ravel()[at].view(np.uint8)
    bit = np.flatnonzero(np.unpackbits(octets, bitorder="little"))
    return np.divmod(at[bit >> 6] * 64 + (bit & 63), words.shape[1] * 64)


def popcounts(words: np.ndarray) -> np.ndarray:
    """The int64 count of set bits in every row of ``words`` (r x width)."""
    counts = np.zeros(len(words), dtype=np.int64)
    for column in words.T:
        counts += np.bitwise_count(column)
    return counts


def empty_rows(words: np.ndarray) -> np.ndarray:
    """Whether each row of ``words`` (r x width, width at least 1) has no set bit."""
    return functools.reduce(np.bitwise_or, words.T) == 0


# int64 entries or words per block of a batched loop: ``blocks`` cuts rows so
# that the per-row entries its caller counts, stated next to each call, sum
# to at most this, or gives a row alone
BLOCK_ENTRIES = 1 << 16


def blocks(cost: np.ndarray) -> Iterator[slice]:
    """Consecutive runs of rows whose ``cost`` (entries per row) sums to at
    most ``BLOCK_ENTRIES``, or one row alone when its own cost passes it."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(ends):
        budget = BLOCK_ENTRIES + (ends[lo - 1] if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
        yield slice(lo, hi)
        lo = hi


def meet_orders(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """len(a) x len(b) int64 popcounts of ANDed word rows, a block of rows of
    a and one word column at a time."""
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    # len(b) words per row of a in each AND, and in its count
    for at in blocks(np.full(len(a), len(b))):
        block = out[at]
        for wa, wb in zip(a[at].T, b.T):
            block += np.bitwise_count(np.bitwise_and.outer(wa, wb))
    return out
