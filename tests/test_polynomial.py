"""GF(2) polynomial arithmetic, parsing, and the primitive registry."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from gf2m import Gf2Poly, is_irreducible, is_primitive, order_of_x, poly_divmod
from gf2m.errors import (
    DegreeZero,
    DivisionByZeroPoly,
    Gf2mError,
    NotIrreducibleInput,
    UnsupportedDegree,
)
from gf2m.polynomial import (
    MAX_TERM_EXPONENT,
    PRIMITIVE_POLY_STRINGS,
    primitive_poly,
    substitute_x_power,
)

bits_st = st.integers(min_value=0, max_value=(1 << 24) - 1)


# -- construction and parsing -------------------------------------------------

def test_parse_accepts_all_three_forms():
    assert Gf2Poly.parse("10011").bits == 0b10011
    assert Gf2Poly.parse("0x13").bits == 0b10011
    assert Gf2Poly.parse("x^4+x+1").bits == 0b10011
    assert Gf2Poly.parse("X^4 + X + 1").bits == 0b10011
    assert Gf2Poly.parse("1 + x + x^4").bits == 0b10011


def test_parse_binary_is_msb_first():
    assert Gf2Poly.parse("1100").bits == 0b1100  # x^3 + x^2


@pytest.mark.parametrize("bad", ["", "  ", "0x", "0xg1", "0x1_3", "0x_13",
                                 "0x 13", "12011", "x^", "y+1",
                                 "x^\u0663+1", "x^\uff14+x+1"])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(Gf2mError):
        Gf2Poly.parse(bad)


def test_term_exponents_are_bounded():
    assert MAX_TERM_EXPONENT == 1 << 20
    assert Gf2Poly.parse(f"x^{MAX_TERM_EXPONENT}+1").degree == MAX_TERM_EXPONENT
    assert Gf2Poly.parse("x^0003+x^01+1").bits == 0b1011
    for bad in (f"x^{MAX_TERM_EXPONENT + 1}", "x^99999999999+1",
                "x^" + "9" * 5000, "x^" + "0" * 30 + "1048577"):
        with pytest.raises(Gf2mError, match="above the bound"):
            Gf2Poly.parse(bad)


def test_repeated_terms_are_rejected():
    for bad, term in (("x^4+x^4+x+1", "x^4"), ("1+x^0", "x^0"),
                      ("x+x^1", "x^1"), ("X^2+x^2", "x^2")):
        with pytest.raises(Gf2mError,
                           match=re.escape(f"repeated term '{term}'")):
            Gf2Poly.parse(bad)


def test_bits_must_be_a_nonnegative_int():
    with pytest.raises(Gf2mError):
        Gf2Poly(-1)
    with pytest.raises(Gf2mError):
        Gf2Poly("101")  # type: ignore[arg-type]


def test_degree_and_zero():
    assert Gf2Poly(0).degree is None
    assert Gf2Poly(0).is_zero
    assert Gf2Poly(1).degree == 0
    assert Gf2Poly.parse("10011").degree == 4


def test_renderings_roundtrip():
    f = Gf2Poly.parse("x^4+x+1")
    assert f.to_binary() == "10011"
    assert f.to_hex() == "0x13"
    assert f.to_terms() == "x^4+x+1"
    assert f.to_terms("X", ascending=True, spaced=True) == "1 + X + X^4"
    assert str(f) == "10011"
    assert Gf2Poly(0).to_terms() == "0"
    for g in (f, Gf2Poly(0), Gf2Poly(1)):
        assert Gf2Poly.parse(g.to_binary()) == g
        assert Gf2Poly.parse(g.to_hex()) == g


def test_exponents_and_coefficient():
    f = Gf2Poly.parse("10011")
    assert f.exponents() == (0, 1, 4)
    assert [f.coefficient(i) for i in range(6)] == [1, 1, 0, 0, 1, 0]
    assert f.coefficient(-3) == 0


# -- ring operations ----------------------------------------------------------

def test_addition_is_coefficientwise_xor():
    a, b = Gf2Poly.parse("1101"), Gf2Poly.parse("1011")
    assert (a + b) == Gf2Poly.parse("0110")
    assert (a - b) == (a + b)
    assert (a + a).is_zero


def test_multiplication_is_carry_less():
    # (x+1)(x+1) = x^2 + 1: the cross terms cancel mod 2
    assert Gf2Poly(0b11) * Gf2Poly(0b11) == Gf2Poly(0b101)
    assert Gf2Poly.parse("1011") * Gf2Poly(0) == Gf2Poly(0)


@given(bits_st, bits_st, bits_st)
def test_mul_is_commutative_and_distributive(x, y, z):
    a, b, c = Gf2Poly(x), Gf2Poly(y), Gf2Poly(z)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_long_division_worked_example():
    # (x^7 + 1) / (x^3 + x + 1) divides exactly
    q, r = poly_divmod(Gf2Poly.parse("10000001"), Gf2Poly.parse("1011"))
    assert q == Gf2Poly.parse("10111")  # x^4 + x^2 + x + 1
    assert r.is_zero


@given(bits_st, st.integers(min_value=1, max_value=(1 << 12) - 1))
def test_divmod_invariant(nbits, dbits):
    n, d = Gf2Poly(nbits), Gf2Poly(dbits)
    q, r = divmod(n, d)
    assert q * d + r == n
    assert r.is_zero or r.degree < d.degree
    assert n // d == q and n % d == r


def test_division_by_zero_polynomial():
    with pytest.raises(DivisionByZeroPoly):
        poly_divmod(Gf2Poly(0b101), Gf2Poly(0))


@given(bits_st)
def test_square_spreads_exponents(x):
    f = Gf2Poly(x)
    assert f.square() == f * f
    assert f.square() == substitute_x_power(f, 2)


def test_substitute_x_power():
    f = Gf2Poly.parse("x^2+x+1")
    assert substitute_x_power(f, 3) == Gf2Poly.parse("x^6+x^3+1")
    assert substitute_x_power(f, 1) == f


def test_lshift_multiplies_by_x_power():
    assert (Gf2Poly(0b11) << 2) == Gf2Poly(0b1100)


# -- irreducibility and primitivity -------------------------------------------

def test_known_irreducibles_and_factorables():
    assert is_irreducible(Gf2Poly.parse("1011"))   # x^3 + x + 1
    assert is_irreducible(Gf2Poly.parse("10011"))  # x^4 + x + 1
    assert is_irreducible(Gf2Poly.parse("11111"))  # x^4 + x^3 + x^2 + x + 1
    assert not is_irreducible(Gf2Poly.parse("101"))    # (x+1)^2
    assert not is_irreducible(Gf2Poly.parse("10101"))  # (x^2+x+1)^2
    assert not is_irreducible(Gf2Poly.parse("110"))    # x(x+1)
    assert is_irreducible(Gf2Poly.parse("10"))  # x is degree 1
    assert is_irreducible(Gf2Poly.parse("11"))


def test_irreducibility_needs_positive_degree():
    with pytest.raises(DegreeZero):
        is_irreducible(Gf2Poly(1))
    with pytest.raises(DegreeZero):
        is_irreducible(Gf2Poly(0))


def test_order_of_x_and_primitivity():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
    f = Gf2Poly.parse("11111")
    assert order_of_x(f) == 5
    assert not is_primitive(f)
    g = Gf2Poly.parse("10011")
    assert order_of_x(g) == 15
    assert is_primitive(g)
    # reducible: (x^2 + x + 1)^2; order_of_x raises, is_primitive answers
    assert not is_primitive(Gf2Poly.parse("10101"))


def test_order_of_x_rejects_reducible_and_x():
    with pytest.raises(NotIrreducibleInput):
        order_of_x(Gf2Poly.parse("10101"))
    with pytest.raises(NotIrreducibleInput):
        order_of_x(Gf2Poly.parse("10"))


def test_degree_one_primitivity():
    assert is_primitive(Gf2Poly.parse("11"))      # x + 1: the unit group of GF(2)
    assert not is_primitive(Gf2Poly.parse("10"))  # x vanishes at its root


def test_order_test_alone_decides_primitivity():
    # an x of order 2^d - 1 certifies f irreducible, so no trial division
    for d in range(1, 13):
        for bits in range(1 << d, 2 << d):
            f = Gf2Poly(bits)
            assert is_primitive(f) == (
                is_irreducible(f) and bits != 0b10
                and order_of_x(f) == (1 << d) - 1), f


def test_registry_polynomials_pass_both_tests():
    for m, text in PRIMITIVE_POLY_STRINGS.items():
        f = Gf2Poly.parse(text)
        assert f.degree == m
        assert primitive_poly(m) == f
        if m <= 20:
            assert is_irreducible(f) and is_primitive(f)


def test_registry_rejects_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        primitive_poly(1)
    with pytest.raises(UnsupportedDegree):
        primitive_poly(25)
