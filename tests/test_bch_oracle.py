"""BCH codes across three layers: `algebra` builds the generator, `lfsr`
encodes systematically, and `code_metrics` measures the code.

A binary BCH code of length n = 2^m - 1 correcting t errors has the
generator g(x) = lcm of the minimal polynomials of alpha, alpha^2, ...,
alpha^(2t), i.e. the product of the distinct minimal polynomials of
alpha^i for odd i < 2t (Lin & Costello, Error Control Coding, ch. 6).
Its minimum distance is at least the designed distance 2t + 1.
"""

from __future__ import annotations

import pytest

from gf2m import GF2m, Gf2Poly, divide, minimal_polynomial
from gf2m.code_metrics import CodeBook, analyze


def _evaluate(f: Gf2Poly, x):
    """f(x) for an element x, by Horner's rule in the field."""
    field = x.field
    acc = field.zero
    for i in reversed(range(f.bits.bit_length())):
        acc = acc * x + field.element(f.coefficient(i))
    return acc


# (m, t, k, d_min): the primitive narrow-sense BCH codes of length 15 and
# 31 with k = 11 or less, and their true minimum distances.
CODES = [(4, 1, 11, 3), (4, 2, 7, 5), (4, 3, 5, 7), (5, 4, 11, 11),
         (5, 5, 11, 11)]


@pytest.mark.parametrize("m, t, k, d_min", CODES)
def test_bch_code_meets_its_designed_distance(m, t, k, d_min):
    field = GF2m(m)
    n = field.order - 1
    g = Gf2Poly(1)
    for factor in {minimal_polynomial(field.alpha(i)) for i in range(1, 2 * t, 2)}:
        g = g * factor
    assert n - g.degree == k
    for i in range(1, 2 * t + 1):
        assert _evaluate(g, field.alpha(i)).is_zero

    words = []
    for message in range(1 << k):
        shifted = Gf2Poly(message) << (n - k)
        parity, _ = divide(shifted, g)  # the encoder's register after k clocks
        codeword = shifted + parity
        assert divide(codeword, g)[0].is_zero
        words.append(format(codeword.bits, f"0{n}b"))

    report = analyze(CodeBook.from_words(words))
    assert (report["n"], report["k"]) == (n, k)
    assert report["d_min"] >= 2 * t + 1
    assert report["d_min"] == d_min
