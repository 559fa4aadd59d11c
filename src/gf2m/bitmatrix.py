"""GF(2) matrices as tuples of int rows: bit j of rows[i] is entry (i, j).

Vectors are ints too, bit i holding coordinate i.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

__all__ = ["transpose", "mul_vec", "inverse", "unpack"]


def transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """The n rows of the transpose, n being the column count of `rows`.

    Warren's block swap (Hacker's Delight, section 7-3): the rows are
    packed into one int as an s x s matrix, s the least power of two that
    covers both dimensions, and round k swaps bit k of every entry's row
    index with bit k of its column index, that is the two off-diagonal
    k x k blocks of every 2k x 2k block, with one masked delta swap.
    """
    s = 1 << (max(len(rows), n, 1) - 1).bit_length()
    cols = (1 << n) - 1
    x = 0
    for i, row in enumerate(rows):
        x |= (row & cols) << (i * s)
    for shift, mask in _swap_masks(s):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    keep = (1 << len(rows)) - 1
    return tuple((x >> (i * s)) & keep for i in range(n))


@cache
def _swap_masks(s: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per round of an s x s transpose: the mask picks the
    entries (i, j) with bit k clear in i and set in j, whose partners
    (i + k, j - k) sit k(s - 1) bits higher."""
    rounds = []
    k = s >> 1
    while k:
        row = sum(1 << j for j in range(s) if j & k)
        rounds.append((k * (s - 1), sum(row << (i * s)
                                        for i in range(s) if not i & k)))
        k >>= 1
    return tuple(rounds)


def mul_vec(rows: Sequence[int], v: int) -> int:
    """rows . v: bit i is the parity of rows[i] AND v."""
    bits = 0
    for i, row in enumerate(rows):
        bits |= ((row & v).bit_count() & 1) << i
    return bits


def inverse(rows: Sequence[int]) -> tuple[int, ...] | None:
    """Inverse of a square matrix by Gauss-Jordan, or None when singular."""
    n = len(rows)
    # row i carries identity row i above bit n: [A | I] reduces to [I | A^-1]
    work = [row | (1 << (n + i)) for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
    return tuple(row >> n for row in work)


def unpack(v: int, n: int) -> tuple[int, ...]:
    """The n coordinates of the vector v as 0/1 ints, coordinate 0 first."""
    return tuple([(v >> i) & 1 for i in range(n)])
