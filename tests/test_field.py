"""Field construction, the three representations, and element arithmetic."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gf2m
from conftest import fields_up_to
from gf2m import GF2m, FieldElement, Gf2Poly, PowerForm, is_primitive
from gf2m.errors import (
    DivisionByZero,
    FieldMismatch,
    Gf2mError,
    NotIrreducible,
    NotPrimitive,
    UnsupportedDegree,
    ZeroInverse,
    ZeroToZero,
)

# Power -> vector for GF(2^4) over x^4 + x + 1, most significant bit first.
GF16_VECTORS = ["0001", "0010", "0100", "1000", "0011", "0110", "1100",
                "1011", "0101", "1010", "0111", "1110", "1111", "1101",
                "1001"]

# Power -> vector for GF(2^3) over x^3 + x + 1.
GF8_VECTORS = ["001", "010", "100", "011", "110", "111", "101"]


# -- construction --------------------------------------------------------------

def test_rejects_out_of_range_degree():
    for m in (1, 0, -3, 33, "4"):
        with pytest.raises(UnsupportedDegree):
            GF2m(m)  # type: ignore[arg-type]


def test_rejects_wrong_degree_polynomial(field4):
    with pytest.raises(Gf2mError, match="has degree 3, expected degree 4"):
        GF2m(4, Gf2Poly.parse("1011"))
    # the zero polynomial has no degree: it is named, not given degree None
    with pytest.raises(Gf2mError, match="is the zero polynomial, expected degree 4"):
        GF2m(4, Gf2Poly.parse("0"))


def test_rejects_reducible_polynomial():
    # (x^2+x+1)^2; x^4, where x is no unit; and (x^3+x+1)(x^3+x^2+1),
    # where x^63 = 1 but x has order 7
    for m, text in [(4, "10101"), (4, "10000"), (6, "1111111")]:
        with pytest.raises(NotIrreducible, match="factors over GF"):
            GF2m(m, Gf2Poly.parse(text))


def test_rejects_irreducible_but_imprimitive_polynomial():
    with pytest.raises(NotPrimitive):
        GF2m(4, Gf2Poly.parse("11111"))  # order of x is 5


def test_primitive_polynomial_builds_without_trial_division(monkeypatch):
    def trial_division(f):
        raise AssertionError(f"trial division of {f}")

    monkeypatch.setattr("gf2m.field.is_irreducible", trial_division)
    monkeypatch.setattr("gf2m.polynomial.is_irreducible", trial_division)
    assert GF2m(16).order == 1 << 16
    assert GF2m(4, Gf2Poly.parse("x^4+x^3+1")).alpha(4).bits == 0b1001


def test_numpy_loads_on_the_first_table_read_not_on_import():
    code = ("import sys, gf2m, gf2m.cli\n"
            "assert 'numpy' not in sys.modules, 'imported by gf2m'\n"
            "field = gf2m.GF2m(3)\n"
            "gf2m.general_multiplier_netlist(field)\n"
            "assert 'numpy' not in sys.modules, 'imported before a table read'\n"
            "field.alpha(1)\n"
            "assert 'numpy' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gf2m.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_alternate_primitive_polynomial_accepted():
    f = GF2m(4, Gf2Poly.parse("11001"))  # x^4 + x^3 + 1
    assert f.alpha(4).bits == 0b1001
    assert {e.bits for e in f.elements()} == set(range(16))


def test_degree_cap_is_checked_before_any_table_is_built():
    poly = Gf2Poly.parse("x^25+x^3+1")
    assert is_primitive(poly)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedDegree, match="2..24"):
            GF2m(25, poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _check_tables(field: GF2m) -> None:
    """The tables against their definition: antilog[e] = alpha^e, log its inverse."""
    m, phi, n = field.m, field.prime_poly.bits, field.order - 1
    antilog, log = field.antilog_table, field.log_table
    assert field.antilog_table is antilog and field.log_table is log  # built once
    assert antilog.dtype == np.uint32 and log.dtype == np.int32
    assert antilog.shape == (n,) and log.shape == (field.order,)
    assert not antilog.flags.writeable and not log.flags.writeable
    assert antilog[0] == 1 and (int(antilog[-1]) << 1) ^ phi == 1
    step = 1 << 20  # chunks overlapping by one entry bound the temporaries
    for lo in range(0, n, step):
        cur = antilog[lo:lo + step + 1]
        # xtime of every entry, vectorised: shift, then reduce on carry
        nxt = cur[:-1] << np.uint32(1)
        nxt ^= (nxt >> np.uint32(m)) * np.uint32(phi)
        assert np.array_equal(nxt, cur[1:])
        assert np.array_equal(log[cur],
                              np.arange(lo, lo + len(cur), dtype=np.int32))
    # every value lies in 1..2^m-1 and log undoes antilog, so antilog is
    # injective and hence a permutation of 1..2^m-1
    assert antilog.min() == 1 and antilog.max() == n
    assert log[0] == -1


@pytest.mark.parametrize("m", range(2, 25))
def test_tables_follow_the_xtime_recurrence(m):
    _check_tables(GF2m(m))


@pytest.mark.parametrize("terms", [
    "x^4+x^3+1", "x^16+x^14+x^13+x^11+1", "x^20+x^17+1",
    "x^24+x^23+x^22+x^17+1",
])
def test_tables_over_non_registry_polynomials(terms):
    poly = Gf2Poly.parse(terms)
    _check_tables(GF2m(poly.degree, poly))


@pytest.mark.parametrize("m, count", [
    (2, 1), (3, 2), (4, 2), (5, 6), (6, 6), (7, 18), (8, 16), (9, 48), (10, 60),
])
def test_tables_over_every_primitive_polynomial(m, count):
    # every tap pattern of phi goes through the first blocks of the build,
    # which grow from x^0..x^(m-1) alone
    polys = [Gf2Poly(bits) for bits in range((1 << m) + 1, 2 << m, 2)
             if is_primitive(Gf2Poly(bits))]
    assert len(polys) == count
    for poly in polys:
        _check_tables(GF2m(m, poly))


def test_table_build_temporaries_stay_small():
    field = GF2m(20)
    tracemalloc.start()
    try:
        field.antilog_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 20) + (1 << 20)  # the tables, plus 1 MiB


def test_field_identity_and_hash(field4):
    assert field4 == GF2m(4)
    assert hash(field4) == hash(GF2m(4))
    assert field4 != GF2m(4, Gf2Poly.parse("11001"))
    assert field4 != GF2m(3)


def test_fields_and_elements_pickle_and_copy_after_a_table_read():
    # the tables are read through memoryviews, which cannot be pickled; a
    # field reduces to (m, phi) and its copy builds its own tables
    field = GF2m(5, Gf2Poly.parse("x^5+x^3+1"))
    a = field.alpha(7)
    assert a * a == field.alpha(14)  # the tables are built
    for clone in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert clone == field and clone is not field
        assert clone.prime_poly == field.prime_poly
        assert clone.alpha(7) * clone.alpha(7) == clone.alpha(14)
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert clone == a and clone.field == field
        assert clone * clone == a * a and clone.inverse() == a.inverse()


# -- representation tables ------------------------------------------------------

def test_gf16_power_to_vector_table(field4):
    assert [field4.alpha(e).vector_str() for e in range(15)] == GF16_VECTORS


def test_gf8_power_to_vector_table(field3):
    assert [field3.alpha(e).vector_str() for e in range(7)] == GF8_VECTORS


def test_gf8_worked_lines_use_mod2_coefficients(field3):
    # alpha^4 = alpha * (1 + alpha) = alpha + alpha^2: no "2 alpha" term
    assert field3.alpha(4).poly_str() == "α^2 + α"
    # alpha^6 = (alpha^3)^2 = 1 + alpha^2, not 1 + alpha
    assert field3.alpha(6).poly_str() == "α^2 + 1"


@pytest.mark.parametrize("m, bits, poly", [
    (20, (1 << 19) | 0b11, "α^19 + α + 1"),
    (24, (1 << 23) | 0b101, "α^23 + α^2 + 1"),
], ids=["m20", "m24"])
def test_element_text_builds_no_table(forbid_table_build, m, bits, poly):
    a = GF2m(m).element(bits)
    forbid_table_build()
    vector = format(bits, f"0{m}b")
    assert a.poly_str() == poly
    assert a.vector_str() == str(a) == vector
    assert repr(a) == f"FieldElement('{vector}', m={m})"


def test_table_rows_shape_and_anchors(field4):
    rows = list(field4.table_rows())
    assert len(rows) == 16
    assert rows[0] == ("-", "0", "0000")
    assert rows[1] == ("α^0", "1", "0001")
    assert rows[8] == ("α^7", "α^3 + α + 1", "1011")
    assert rows[15] == ("α^14", "α^3 + 1", "1001")


def test_table_rows_match_format_row():
    # the rows come from half-width lookups; format_row formats one element
    for field in fields_up_to(16):
        want = [field.format_row(field.zero)] + [
            field.format_row(field.alpha(k)) for k in range(field.order - 1)]
        assert list(field.table_rows()) == want, field


def test_power_form_str_and_zero(field4):
    assert str(PowerForm(13)) == "α^13"
    assert str(PowerForm.ZERO) == "-"
    assert PowerForm.ZERO.is_zero
    assert field4.to_power_form(field4.zero) is PowerForm.ZERO
    assert field4.to_power_form(field4.alpha(5)) == PowerForm(5)
    assert field4.from_power_form(PowerForm(5)) == field4.alpha(5)
    assert field4.from_power_form(PowerForm.ZERO) == field4.zero
    with pytest.raises(Gf2mError):
        field4.from_power_form(PowerForm(15))


def test_element_coercions(field4):
    assert field4(5).bits == 5
    assert field4("0110").bits == 0b0110
    assert field4("0x9").bits == 9
    assert field4("x^3+1").bits == 0b1001
    assert field4(field4(7)) == field4(7)
    with pytest.raises(Gf2mError):
        field4(16)
    with pytest.raises(Gf2mError):
        field4("10011")  # degree 4 does not fit
    with pytest.raises(Gf2mError):
        field4(3.5)  # type: ignore[arg-type]
    with pytest.raises(Gf2mError):
        field4(True)  # type: ignore[arg-type]


def test_vector_str_is_msb_first(field4):
    assert field4.alpha(1).vector_str() == "0010"
    assert field4.alpha(5).vector_str() == "0110"


# -- arithmetic ------------------------------------------------------------------

def test_addition_worked_example(field4):
    # alpha^7 + alpha^10 = (a^3+a+1) + (a^2+a+1) = a^3 + a^2 = alpha^6
    assert field4.alpha(7) + field4.alpha(10) == field4.alpha(6)
    assert field4.alpha(7) - field4.alpha(10) == field4.alpha(6)


def test_mul_power_equals_mul_poly_exhaustively(field4):
    for a in field4.elements():
        for b in field4.elements():
            assert field4.mul_power(a, b) == field4.mul_poly(a, b)


def test_multiplication_edge_cases(field4):
    a = field4.alpha(9)
    assert (field4.zero * a).is_zero
    assert field4.one * a == a
    # exponents add mod 15
    assert field4.alpha(9) * field4.alpha(9) == field4.alpha(3)


def test_inverse_and_division(field4):
    for a in field4.nonzero_elements():
        assert a * a.inverse() == field4.one
        assert field4.divide(a, a) == field4.one
    assert field4.alpha(3) / field4.alpha(5) == field4.alpha(13)
    with pytest.raises(ZeroInverse):
        field4.zero.inverse()
    with pytest.raises(DivisionByZero):
        field4.one / field4.zero
    assert isinstance(ZeroInverse("x"), ZeroDivisionError)
    assert isinstance(DivisionByZero("x"), ZeroDivisionError)


def test_inversion_trace_register_sequence(field4):
    # r starts at 1 and runs r <- (r a)^2: powers 0, 2, 6, 14 of a
    a = field4.alpha(1)
    trace = field4.inversion_trace(a)
    assert [t.power.exponent for t in trace] == [0, 2, 6, 14]
    assert trace[-1] == a.inverse()
    for b in field4.nonzero_elements():
        tr = field4.inversion_trace(b)
        assert tr[0] == field4.one
        assert tr[-1] * b == field4.one


def test_square_matches_self_product(field4):
    for a in field4.elements():
        assert a.square() == a * a
        assert field4.square(a) == a * a


def test_pow_semantics(field4):
    a = field4.alpha(7)
    assert field4.pow(a, 0) == field4.one
    assert field4.pow(a, 1) == a
    assert field4.pow(a, 15) == field4.one
    assert a ** 3 == a * a * a
    assert field4.pow(field4.zero, 4) == field4.zero
    with pytest.raises(ZeroToZero):
        field4.pow(field4.zero, 0)
    with pytest.raises(Gf2mError):
        field4.pow(a, -1)


@pytest.mark.parametrize("e", [1.5, 3.0, "3", None, True, False])
def test_alpha_exponent_must_be_an_int(field4, e):
    with pytest.raises(Gf2mError):
        field4.alpha(e)


def test_fermat_property_small_fields():
    for m in (2, 3, 4, 5):
        field = GF2m(m)
        for a in field.nonzero_elements():
            assert field.pow(a, field.order - 1) == field.one


def test_cross_field_operations_rejected(field3, field4):
    with pytest.raises(FieldMismatch):
        field4.add(field4.one, field3.one)
    with pytest.raises(FieldMismatch):
        field3.element(field4.one)
    with pytest.raises(Gf2mError):
        field4.add(field4.one, 3)  # type: ignore[arg-type]


def test_element_dunders(field4):
    a = field4.alpha(5)
    assert int(a) == 0b0110
    assert bool(a) and not bool(field4.zero)
    assert str(a) == "0110"
    assert repr(a) == "FieldElement('0110', m=4)"
    with pytest.raises(Gf2mError):
        FieldElement(field4, 16)


@pytest.mark.parametrize("bits", [1.5, True, np.int64(3)])
def test_element_bits_must_be_an_int(field4, bits):
    with pytest.raises(Gf2mError, match="must be an int"):
        FieldElement(field4, bits)


def test_iteration_counts(field4):
    assert len(list(field4.elements())) == 16
    assert len(list(field4.nonzero_elements())) == 15
    assert field4.characteristic == 2
