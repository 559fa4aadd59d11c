"""GF(2) matrices as tuples of int rows."""

from __future__ import annotations

from hypothesis import given, strategies as st

from gf2m.bitmatrix import transpose


@st.composite
def matrices(draw):
    """(rows, n): up to 24 rows of n <= 24 columns, square or not."""
    n = draw(st.integers(min_value=0, max_value=24))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         max_size=24))
    return rows, n


@given(matrices())
def test_transpose_swaps_every_entry(matrix):
    rows, n = matrix
    out = transpose(rows, n)
    assert len(out) == n
    for i in range(n):
        assert out[i] >> len(rows) == 0
        for j, row in enumerate(rows):
            assert (out[i] >> j) & 1 == (row >> i) & 1
