"""Acceptance gate: thirteen end-to-end criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  All arithmetic is exact; every comparison is equality or
byte identity.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import golden

from gf2m import (
    GF2m,
    Gf2Poly,
    build_z_matrix,
    conjugacy_class,
    constant_equations,
    constant_mul_matrix,
    divide,
    from_polynomial,
    general_multiplier_netlist,
    is_irreducible,
    is_primitive,
    mat_vec_mul,
    minimal_polynomial,
    period,
    poly_divmod,
    primitive_poly,
    roots_in_field,
    serial_interleaved_multiply,
    xor_count,
)
from gf2m.code_metrics import CodeBook, analyze
from gf2m.field import FieldElement
from gf2m.mastrovito import _serial_mul_bits
from gf2m.netlist import NetlistBuilder

RANDOM_PAIRS = 10 ** 5


# -- criterion 1: the degree-4 representation table ---------------------------------

def test_criterion_01_field_table_m4_matches_golden(cli):
    proc = cli("field", "table", "--m", "4")
    assert proc.stdout == golden("field_table_m4.txt")


# -- criterion 2: minimal polynomials of all 16 elements ----------------------------

def test_criterion_02_minimal_polynomials_gf16(field4):
    expected = {
        (None,): "X",
        (0,): "1 + X",
        (1, 2, 4, 8): "1 + X + X^4",
        (3, 6, 9, 12): "1 + X + X^2 + X^3 + X^4",
        (5, 10): "1 + X + X^2",
        (7, 11, 13, 14): "1 + X^3 + X^4",
    }
    covered = 0
    for exponents, terms in expected.items():
        for e in exponents:
            b = field4.zero if e is None else field4.alpha(e)
            mp = minimal_polynomial(b)
            assert mp.to_terms("X", ascending=True, spaced=True) == terms
            covered += 1
    assert covered == 16


# -- criterion 3: the division register trace ---------------------------------------

def test_criterion_03_lfsr_division_trace(cli):
    proc = cli("lfsr", "divide", "--g", "101101", "--p", "11001110",
               "--trace", "table")
    assert proc.stdout == golden("lfsr_divide_table.txt")
    remainder, trace = divide(Gf2Poly.parse("11001110"),
                              Gf2Poly.parse("101101"))
    states = ["".join(map(str, r.regs_after)) for r in trace]
    assert states == ["10000", "11000", "01100", "00110", "10011",
                      "01111", "00001", "10110"]
    assert trace[-1].regs_after == (1, 0, 1, 1, 0)  # remainder X^0..X^4
    assert len(trace) + 1 == 9  # initial row + eight clocks


# -- criterion 4: the fourteen constant multipliers ----------------------------------

GF16_CONSTANT_BLOCKS = {
    1: ["z0 = a3", "z1 = a0 + a3", "z2 = a1", "z3 = a2"],
    2: ["z0 = a2", "z1 = a2 + a3", "z2 = a0 + a3", "z3 = a1"],
    3: ["z0 = a1", "z1 = a1 + a2", "z2 = a2 + a3", "z3 = a0 + a3"],
    4: ["z0 = a0 + a3", "z1 = a0 + a1 + a3", "z2 = a1 + a2", "z3 = a2 + a3"],
    5: ["z0 = a2 + a3", "z1 = a0 + a2", "z2 = a0 + a1 + a3", "z3 = a1 + a2"],
    6: ["z0 = a1 + a2", "z1 = a1 + a3", "z2 = a0 + a2", "z3 = a0 + a1 + a3"],
    7: ["z0 = a0 + a1 + a3", "z1 = a0 + a2 + a3", "z2 = a1 + a3",
        "z3 = a0 + a2"],
    8: ["z0 = a0 + a2", "z1 = a1 + a2 + a3", "z2 = a0 + a2 + a3",
        "z3 = a1 + a3"],
    9: ["z0 = a1 + a3", "z1 = a0 + a1 + a2 + a3", "z2 = a1 + a2 + a3",
        "z3 = a0 + a2 + a3"],
    10: ["z0 = a0 + a2 + a3", "z1 = a0 + a1 + a2", "z2 = a0 + a1 + a2 + a3",
         "z3 = a1 + a2 + a3"],
    11: ["z0 = a1 + a2 + a3", "z1 = a0 + a1", "z2 = a0 + a1 + a2",
         "z3 = a0 + a1 + a2 + a3"],
    12: ["z0 = a0 + a1 + a2 + a3", "z1 = a0", "z2 = a0 + a1",
         "z3 = a0 + a1 + a2"],
    13: ["z0 = a0 + a1 + a2", "z1 = a3", "z2 = a0", "z3 = a0 + a1"],
    14: ["z0 = a0 + a1", "z1 = a2", "z2 = a3", "z3 = a0"],
}


def test_criterion_04_constant_multiplier_blocks(field4, cli):
    for i, block in GF16_CONSTANT_BLOCKS.items():
        assert constant_equations(field4, i) == block, f"alpha^{i}"
    assert xor_count(constant_mul_matrix(field4, 13)) == 3
    proc = cli("constmul", "--m", "4", "--power", "13", "--emit", "count")
    assert proc.stdout == "xor_count = 3\nestimate = 4\n"


# -- criterion 5: five multiplication paths agree ------------------------------------

def _reference_products(field: GF2m, a_bits: np.ndarray,
                        b_bits: np.ndarray) -> np.ndarray:
    log = field.log_table.astype(np.int64)
    anti = field.antilog_table.astype(np.int64)
    nonzero = (a_bits != 0) & (b_bits != 0)
    safe_a = np.where(a_bits != 0, a_bits, 1)
    safe_b = np.where(b_bits != 0, b_bits, 1)
    e = (log[safe_a] + log[safe_b]) % (field.order - 1)
    return np.where(nonzero, anti[e], 0)


def _check_all_paths(field: GF2m, a_bits: np.ndarray,
                     b_bits: np.ndarray) -> None:
    m = field.m
    phi = field.prime_poly.bits
    want = _reference_products(field, a_bits, b_bits)

    # netlist simulation, vectorized over bit planes
    netlist = general_multiplier_netlist(field)
    assignment = {f"a_{i}": ((a_bits >> i) & 1).astype(np.uint8)
                  for i in range(m)}
    assignment |= {f"b_{i}": ((b_bits >> i) & 1).astype(np.uint8)
                   for i in range(m)}
    out = netlist.simulate(assignment)
    got = sum(out[f"c_{i}"].astype(np.int64) << i for i in range(m))
    assert (got == want).all(), "netlist path diverged"

    # polynomial, matrix, and serial paths, pair by pair
    z_cache: dict[int, object] = {}
    for abit, bbit, wbit in zip(a_bits.tolist(), b_bits.tolist(),
                                want.tolist()):
        a = FieldElement(field, abit)
        b = FieldElement(field, bbit)
        assert field.mul_poly(a, b).bits == wbit
        assert field.mul_power(a, b).bits == wbit
        z = z_cache.get(abit)
        if z is None:
            z = z_cache[abit] = build_z_matrix(a)
        assert mat_vec_mul(z, b).bits == wbit
        assert _serial_mul_bits(m, phi, abit, bbit, "xor")[0] == wbit
        assert _serial_mul_bits(m, phi, abit, bbit, "nand")[0] == wbit


@pytest.mark.parametrize("m", range(2, 9))
def test_criterion_05_path_equivalence_exhaustive(m):
    field = GF2m(m)
    pairs = np.arange(field.order * field.order, dtype=np.int64)
    _check_all_paths(field, pairs // field.order, pairs % field.order)


@pytest.mark.parametrize("m", range(9, 17))
def test_criterion_05_path_equivalence_random(m):
    field = GF2m(m)
    rng = np.random.default_rng(26081700 + m)
    a_bits = rng.integers(0, field.order, size=RANDOM_PAIRS, dtype=np.int64)
    b_bits = rng.integers(0, field.order, size=RANDOM_PAIRS, dtype=np.int64)
    _check_all_paths(field, a_bits, b_bits)


# -- criterion 6: inversion and its register trace -----------------------------------

@pytest.mark.parametrize("m", range(2, 11))
def test_criterion_06_inversion_register_chain(m):
    field = GF2m(m)
    for a in field.nonzero_elements():
        trace = field.inversion_trace(a)
        assert a * trace[-1] == field.one
        assert field.inverse(a) == trace[-1]
        for k, r in enumerate(trace):
            assert r == field.pow(a, (1 << (k + 1)) - 2)  # 1, a^2, a^6, a^14, ...


# -- criterion 7: the order of the multiplicative group -------------------------------

@pytest.mark.parametrize("m", range(2, 11))
def test_criterion_07_fermat_property(m):
    field = GF2m(m)
    for a in field.nonzero_elements():
        assert field.pow(a, field.order - 1) == field.one


# -- criterion 8: root finding and refactoring -----------------------------------------

def test_criterion_08_roots_of_x4_x3_1(field4):
    f = Gf2Poly.parse("11001")
    roots = roots_in_field(f, field4)
    assert {r.power.exponent for r in roots} == {7, 11, 13, 14}
    # expand prod (X + root) with in-field coefficients, ascending order
    coeffs = [field4.one]
    for root in sorted(roots, key=lambda r: r.bits):
        shifted = [field4.zero] + coeffs           # X * previous
        scaled = [root * c for c in coeffs] + [field4.zero]
        coeffs = [u + v for u, v in zip(shifted, scaled)]
    assert [c.bits for c in coeffs] == [1, 0, 0, 1, 1]  # X^4 + X^3 + 1
    assert minimal_polynomial(field4.alpha(7)) == f
    assert set(conjugacy_class(field4.alpha(7)).members) == roots


# -- criterion 9: long division vs register division ------------------------------------

def test_criterion_09_long_division_oracle():
    q, r = poly_divmod(Gf2Poly.parse("10000001"), Gf2Poly.parse("1011"))
    assert q == Gf2Poly.parse("10111")  # X^4 + X^2 + X + 1
    assert r.is_zero
    rng = random.Random(90817)
    checked = 0
    while checked < 1000:
        p = Gf2Poly(rng.randrange(0, 1 << 24))
        g = Gf2Poly(rng.randrange(1, 1 << 12) | 1)
        if g.degree < 1:
            continue
        remainder, _ = divide(p, g)
        assert remainder == p % g
        checked += 1


# -- criterion 10: registry polynomials and maximal periods -------------------------------

def test_criterion_10_registry_primitivity_and_periods():
    for m in range(3, 17):
        f = primitive_poly(m)
        assert is_irreducible(f), m
        assert is_primitive(f), m
    for m in range(2, 11):
        cfg = from_polynomial(primitive_poly(m), "external")
        seed = (1,) + (0,) * (m - 1)
        assert period(cfg, seed) == (1 << m) - 1, m


# -- criterion 11: the four-NAND XOR identity ----------------------------------------------

def test_criterion_11_nand_xor_identity(field4):
    nb = NetlistBuilder()
    x, y = nb.add_input("x"), nb.add_input("y")
    nb.output("o", nb.xor2(x, y, mode="nand"))
    netlist = nb.build()
    assert netlist.gate_counts() == {"XOR": 0, "AND": 0, "NAND": 4}
    for a in (0, 1):
        for b in (0, 1):
            assert netlist.simulate({"x": a, "y": b})["o"] == a ^ b
    for a in field4.elements():
        for b in field4.elements():
            via_xor, _ = serial_interleaved_multiply(a, b, "xor")
            via_nand, _ = serial_interleaved_multiply(a, b, "nand")
            assert via_xor == via_nand


# -- criterion 12: block-code measurements ---------------------------------------------------

def test_criterion_12_triple_repetition_code():
    report = analyze(CodeBook.from_words(["000", "111"]))
    assert report["rate"] == Fraction(1, 3)
    assert report["d_min"] == 3
    assert report["detect"] == 2
    assert report["correct"] == 1


# -- criterion 13: the errata audit ----------------------------------------------------------

def test_criterion_13_errata_audit(cli):
    doc = json.loads(cli("errata", "--format", "json").stdout)
    entries = {e["id"]: e for e in doc["errata"]}
    assert len(entries) >= 4
    required = {
        "gf8-alpha4": ("2a + a^2", "a + a^2"),
        "gf8-alpha6": ("1 + a", "1 + a^2"),
        "gf16-alpha7-sum": ("a^2", "a^6"),
        "gf16-alpha5-vector": ("1111", "0110"),
        "gf16-basis-table-tail": (None, None),
    }
    for eid, (published, computed) in required.items():
        assert eid in entries, eid
        entry = entries[eid]
        assert entry["published"] and entry["computed"]
        if published is not None:
            assert entry["published"] == published
            assert entry["computed"] == computed
    # the table rendering carries both values too
    text = cli("errata").stdout
    assert "published: 2a + a^2" in text and "computed:  a + a^2" in text
