"""GF(2) matrices as tuples of int rows: bit j of rows[i] is entry (i, j).

Vectors are ints too, bit i holding coordinate i.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["transpose", "mul_vec", "inverse"]


def transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """The n rows of the transpose, n being the column count of `rows`."""
    out = [0] * n
    for j, col in enumerate(rows):
        for i in range(n):
            out[i] |= ((col >> i) & 1) << j
    return tuple(out)


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
