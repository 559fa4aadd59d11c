"""Registry of discrepancies between commonly reprinted GF(2^m) worked
examples and the values the arithmetic actually produces.

Each entry records the value as it is usually printed alongside the value
this library computes.  The test suite recomputes every ``computed`` field
from first principles; nothing here is asserted by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Erratum", "ERRATA"]


@dataclass(frozen=True)
class Erratum:
    eid: str
    where: str
    published: str
    computed: str
    note: str


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        eid="gf8-alpha4",
        where="GF(2^3) power list, alpha^4 line",
        published="2a + a^2",
        computed="a + a^2",
        note="coefficients live in GF(2), so a doubled term vanishes: "
             "alpha^4 = alpha * alpha^3 = alpha * (1 + alpha) "
             "= alpha + alpha^2",
    ),
    Erratum(
        eid="gf8-alpha6",
        where="GF(2^3) power list, alpha^6 line",
        published="1 + a",
        computed="1 + a^2",
        note="alpha^6 = (alpha^3)^2 = (1 + alpha)^2 = 1 + alpha^2 over "
             "GF(2^3) with prime polynomial 1 + X + X^3",
    ),
    Erratum(
        eid="gf16-alpha7-sum",
        where="GF(2^4) addition example alpha^7 + alpha^10",
        published="a^2",
        computed="a^6",
        note="with alpha^7 = 1 + alpha + alpha^3 (the degree-4 power "
             "table value), the sum is alpha^2 + alpha^3 = alpha^6; the "
             "printed a^2 follows from miswriting alpha^7 as 1 + alpha",
    ),
    Erratum(
        eid="gf16-alpha5-vector",
        where="GF(2^4) vector-form example for alpha^5",
        published="1111",
        computed="0110",
        note="alpha^5 = alpha + alpha^2, so the 4-bit vector (MSB first) "
             "is 0110; 1111 is alpha^12",
    ),
    Erratum(
        eid="gf16-minpoly-alpha3",
        where="minimal-polynomial table, class {a^3, a^6, a^9, a^12}",
        published="1 + X^2 + X^3 + X^4",
        computed="1 + X + X^2 + X^3 + X^4",
        note="the printed polynomial has X = 1 as a root, hence is "
             "reducible and cannot be minimal; expanding "
             "(X+a^3)(X+a^6)(X+a^9)(X+a^12) gives every power of X",
    ),
    Erratum(
        eid="gf16-constmul-a3-z3",
        where="constant multiplier alpha^3, z_3 equation",
        published="z3 = a1 + a3",
        computed="z3 = a0 + a3",
        note="row 3 of the alpha^3 product matrix picks up a0 from the "
             "X^4 reduction, not a1",
    ),
    Erratum(
        eid="gf16-constmul-a8-z3",
        where="constant multiplier alpha^8, z_3 equation",
        published="z3 = a1 + a2",
        computed="z3 = a1 + a3",
        note="column 3 of the alpha^8 matrix is the vector of alpha^11, "
             "whose top bit is set",
    ),
    Erratum(
        eid="gf16-constmul-a9-z3",
        where="constant multiplier alpha^9, z_3 equation",
        published="z3 = a0 + a3",
        computed="z3 = a0 + a2 + a3",
        note="column 2 of the alpha^9 matrix is the vector of alpha^11, "
             "which contributes to bit 3",
    ),
    Erratum(
        eid="gf16-basis-table-tail",
        where="basis conversion table, rows alpha^12..alpha^14",
        published="rows repeat the -, a^0, a^1 rows (dual column shifted "
                  "down one row; row 12 reads 0000)",
        computed="a^12: dual 1110, normal 0010; a^13: dual 1100, normal "
                 "1011; a^14: dual 1000, normal 0111",
        note="a dual-basis coordinate row of 0000 can only be the zero "
             "element; the shifted column leaves the last rows "
             "duplicating the first ones",
    ),
)
