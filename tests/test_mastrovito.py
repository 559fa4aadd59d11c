"""Product matrices, constant-multiplier circuits, and the serial multiplier."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import fields_up_to
from gf2m import (
    GF2m,
    Gf2Poly,
    MastrovitoMatrix,
    SerialStepSpec,
    build_z_matrix,
    complexity_report,
    constant_equations,
    constant_mul_matrix,
    constant_xor_counts,
    emit_netlist,
    general_multiplier_netlist,
    mat_vec_mul,
    serial_interleaved_multiply,
    squaring_matrix,
    symbolic_z_matrix,
    xor_count,
    xor_count_estimate,
)
from gf2m.bitmatrix import mul_vec, transpose
from gf2m.errors import DimensionMismatch, FieldMismatch, Gf2mError, UnsupportedTrinomial
from gf2m.mastrovito import _product_forms
from gf2m.polynomial import _powmod, _x_multiples, _xtime

# Exact XOR counts of the GF(2^4) constant multipliers, index = exponent.
GF16_XOR_COUNTS = [0, 1, 2, 3, 5, 5, 5, 6, 6, 8, 9, 8, 6, 3, 1]


# -- product matrices -------------------------------------------------------------

def test_matrix_product_agrees_with_field_multiply(field4):
    for a in field4.elements():
        z = build_z_matrix(a)
        assert z.label == f"multiplier by {a.vector_str()}"
        assert sum(z.entry(i, 0) << i for i in range(4)) == a.bits  # column 0
        for b in field4.elements():
            assert mat_vec_mul(z, b) == a * b


def test_matrix_columns_are_shifted_reductions(field4):
    a = field4.alpha(5)
    z = build_z_matrix(a)
    for j in range(4):
        col = sum(z.entry(i, j) << i for i in range(4))
        assert col == field4.alpha(5 + j).bits  # x^j * a mod phi


def _z_oracle(field: GF2m, a: int) -> tuple[int, ...]:
    """Z(a) by its definition: column j is x^j * a mod phi."""
    return transpose(_x_multiples(a, field.m, field.m, field._phi), field.m)


def test_z_matrix_from_the_basis_matches_its_columns():
    # Z(a) is the sum of the per-field Z(x^k) over the set bits k of a
    for field in fields_up_to(8):
        for a in field.elements():
            assert build_z_matrix(a).rows == _z_oracle(field, a.bits), (field, a)
    for m in range(9, 25):
        field = GF2m(m)
        rng = np.random.default_rng(20250 + m)
        for a in rng.integers(0, field.order, 2000).tolist():
            assert build_z_matrix(field.element(a)).rows == _z_oracle(field, a), (m, a)


def test_constant_matrices_are_z_of_alpha_powers():
    for field in fields_up_to(8):
        for i in range(field.order - 1):
            z = constant_mul_matrix(field, i)
            assert z.label == f"constant multiplier alpha^{i}"
            assert z.rows == _z_oracle(field, _powmod(0b10, i, field._phi)), (field, i)


def test_symbolic_matrix_specializes_to_every_element():
    for field in fields_up_to(6):
        m = field.m
        sym = symbolic_z_matrix(field)
        for a in field.elements():
            z = build_z_matrix(a)
            for i in range(m):
                for j in range(m):
                    bit = 0
                    for k in sym[i][j]:
                        bit ^= (a.bits >> k) & 1
                    assert bit == z.entry(i, j), (field, a, i, j)


def test_product_forms_are_symmetric_and_give_every_product():
    for field in fields_up_to(6):
        m = field.m
        forms = _product_forms(field)
        for form in forms:
            assert all((form[k] >> j & 1) == (form[j] >> k & 1)
                       for j in range(m) for k in range(m)), field
        for a in field.elements():
            for b in field.elements():
                # c_i = sum over k of a_k * parity(forms[i][k] & b)
                got = sum(((a.bits & mul_vec(form, b.bits)).bit_count() & 1)
                          << i for i, form in enumerate(forms))
                assert got == field.mul_poly(a, b).bits, (field, a, b)


def test_mat_vec_dimension_checks(field3, field4):
    z = build_z_matrix(field4.alpha(3))
    with pytest.raises(DimensionMismatch):
        mat_vec_mul(z, field3.one)


@pytest.mark.parametrize("call", [
    lambda f: build_z_matrix(5),
    lambda f: mat_vec_mul(build_z_matrix(f.alpha(3)), 3),
    lambda f: mat_vec_mul(5, f.alpha(3)),
    lambda f: mat_vec_mul(build_z_matrix(f.alpha(3)).rows, f.alpha(3)),
    lambda f: serial_interleaved_multiply(3, f.alpha(3)),
    lambda f: serial_interleaved_multiply(f.alpha(3), 3),
    lambda f: serial_interleaved_multiply(None, f.alpha(3), "nand"),
], ids=["z_of_int", "matvec_int_vector", "matvec_int_matrix",
        "matvec_tuple_matrix", "serial_int_a", "serial_int_b", "serial_none_a"])
def test_multiplication_entry_points_reject_non_elements(field4, call):
    with pytest.raises(Gf2mError, match="expected a"):
        call(field4)


def test_squaring_matrix():
    # every element for m <= 8, then 2000 seeded elements per m = 9..24
    def check(field, elements):
        sq = squaring_matrix(field)
        assert sq.label == "squaring map"
        for a in elements:
            assert mat_vec_mul(sq, a) == field.mul_poly(a, a), (field, a)

    for field in fields_up_to(8):
        check(field, field.elements())
    for m in range(9, 25):
        field = GF2m(m)
        rng = np.random.default_rng(31337 + m)
        check(field, map(field.element,
                         rng.integers(0, field.order, 2000).tolist()))


# -- constant multipliers -----------------------------------------------------------

def test_alpha13_equations(field4):
    assert constant_equations(field4, 13) == [
        "z0 = a0 + a1 + a2",
        "z1 = a3",
        "z2 = a0",
        "z3 = a0 + a1",
    ]


def test_alpha14_equations(field4):
    assert constant_equations(field4, 14) == [
        "z0 = a0 + a1",
        "z1 = a2",
        "z2 = a3",
        "z3 = a0",
    ]


def test_reduction_feedback_rows(field4):
    # the z3 lines where the x^4 = x + 1 wraparound bites
    assert constant_equations(field4, 3)[3] == "z3 = a0 + a3"
    assert constant_equations(field4, 8)[3] == "z3 = a1 + a3"
    assert constant_equations(field4, 9)[3] == "z3 = a0 + a2 + a3"


def test_identity_constant(field4):
    assert constant_equations(field4, 0) == ["z0 = a0", "z1 = a1",
                                             "z2 = a2", "z3 = a3"]


def test_constant_matrices_multiply_correctly(field4):
    for i in range(15):
        z = constant_mul_matrix(field4, i)
        assert z.label == f"constant multiplier alpha^{i}"
        for b in field4.elements():
            assert mat_vec_mul(z, b) == field4.alpha(i) * b


def test_constant_matrix_rows_equal_the_z_matrix_of_alpha_i():
    for field in fields_up_to(8):
        for i in range(field.order - 1):
            assert (constant_mul_matrix(field, i).rows
                    == build_z_matrix(field.alpha(i)).rows), (field, i)


def test_matrix_shape_is_checked_at_construction(field4):
    with pytest.raises(DimensionMismatch):
        MastrovitoMatrix(field4, (1, 2), "two rows")
    with pytest.raises(DimensionMismatch):
        MastrovitoMatrix(field4, (1, 2, 4, 8 | 16), "row with bit m set")
    with pytest.raises(DimensionMismatch):
        MastrovitoMatrix(field4, (1, 2, 4, -8), "negative row")


def test_constant_power_range(field4):
    with pytest.raises(Gf2mError):
        constant_mul_matrix(field4, 15)
    with pytest.raises(Gf2mError):
        constant_mul_matrix(field4, -1)


@pytest.mark.parametrize("power", [True, False, 1.5, 2.0, "3", None])
def test_constant_power_must_be_an_int(field4, power):
    with pytest.raises(Gf2mError):
        constant_mul_matrix(field4, power)


def test_gf16_xor_counts(field4):
    got = [xor_count(constant_mul_matrix(field4, i)) for i in range(15)]
    assert got == GF16_XOR_COUNTS


def test_constant_xor_counts_match_the_matrices():
    for field in fields_up_to(12):
        want = [xor_count(constant_mul_matrix(field, i))
                for i in range(field.order - 1)]
        assert constant_xor_counts(field) == want, field


def test_constant_xor_counts_match_the_netlists():
    for field in fields_up_to(6):
        want = [emit_netlist(constant_mul_matrix(field, i)).gate_counts()["XOR"]
                for i in range(field.order - 1)]
        assert constant_xor_counts(field) == want, field


def test_xor_count_estimate():
    assert xor_count_estimate(4) == Fraction(4)
    assert xor_count_estimate(5) == Fraction(15, 2)
    assert xor_count_estimate(8) == Fraction(24)
    assert str(xor_count_estimate(5)) == "15/2"
    with pytest.raises(Gf2mError):
        xor_count_estimate(0)


def test_estimate_tracks_average_count(field4):
    counts = [xor_count(constant_mul_matrix(field4, i)) for i in range(15)]
    average = Fraction(sum(counts), 15)
    estimate = xor_count_estimate(4)
    assert abs(average - estimate) < Fraction(3, 2)


# -- netlist emission ------------------------------------------------------------------

def test_constant_netlist_counts_and_function(field4):
    for i in (1, 10, 13):
        nl = emit_netlist(constant_mul_matrix(field4, i))
        counts = nl.gate_counts()
        assert counts["XOR"] == GF16_XOR_COUNTS[i]
        assert counts["AND"] == counts["NAND"] == 0
        for a in field4.elements():
            out = nl.simulate({f"a_{j}": (a.bits >> j) & 1 for j in range(4)})
            got = sum(out[f"z_{j}"] << j for j in range(4))
            assert got == (field4.alpha(i) * a).bits


def test_squaring_netlist(field4):
    nl = emit_netlist(squaring_matrix(field4))
    for a in field4.elements():
        out = nl.simulate({f"a_{j}": (a.bits >> j) & 1 for j in range(4)})
        got = sum(out[f"z_{j}"] << j for j in range(4))
        assert got == a.square().bits


def test_general_multiplier_netlist_m4(field4):
    nl = general_multiplier_netlist(field4)
    counts = nl.gate_counts()
    assert counts["AND"] == 16  # one per coefficient pair
    assert counts["NAND"] == 0
    for a in field4.elements():
        for b in field4.elements():
            vals = {f"a_{j}": (a.bits >> j) & 1 for j in range(4)}
            vals |= {f"b_{j}": (b.bits >> j) & 1 for j in range(4)}
            out = nl.simulate(vals)
            got = sum(out[f"c_{j}"] << j for j in range(4))
            assert got == (a * b).bits


def _anf_outputs(nl, m: int) -> dict[str, int]:
    """Each output's algebraic normal form as an int over monomials: a_k is
    bit k, b_j bit m + j and a_k * b_j bit 2m + k*m + j.  Every AND must
    join an a-linear wire with a single b_j, so no other monomial occurs."""
    assert not nl.consts
    anf = {f"a_{k}": 1 << k for k in range(m)}
    anf |= {f"b_{j}": 1 << (m + j) for j in range(m)}
    for g in nl.gates:
        x, y = sorted((anf[g.a], anf[g.b]))  # an a-linear wire sorts first
        if g.kind == "XOR":
            anf[g.gid] = x ^ y
            continue
        assert g.kind == "AND" and 0 < x < 1 << m, g
        assert y.bit_count() == 1 and m <= y.bit_length() - 1 < 2 * m, g
        j = y.bit_length() - 1 - m
        anf[g.gid] = sum(1 << (2 * m + k * m + j)
                         for k in range(m) if x >> k & 1)
    return {port: anf[src] for port, src in nl.outputs}


def test_general_multiplier_netlist_has_the_anf_of_the_product_forms():
    for m in range(2, 25):
        field = GF2m(m)
        anf = _anf_outputs(general_multiplier_netlist(field), m)
        for i, form in enumerate(_product_forms(field)):
            assert anf[f"c_{i}"] == sum(row << (2 * m + k * m)
                                        for k, row in enumerate(form)), (m, i)


def test_z_matrix_netlist_multiplies_by_a():
    for field in fields_up_to(6):
        m = field.m
        for a in field.elements():
            nl = emit_netlist(build_z_matrix(a))
            assert nl.label == f"multiplier by {a.vector_str()} over GF(2^{m})"
            for b in field.elements():
                out = nl.simulate({f"a_{j}": (b.bits >> j) & 1
                                   for j in range(m)})
                got = sum(out[f"z_{j}"] << j for j in range(m))
                assert got == (a * b).bits, (field, a, b)
        zero = emit_netlist(build_z_matrix(field.zero)).serialize()
        assert zero.count("CONST zero") == 1 and "GATE" not in zero


# -- serial interleaved multiplier --------------------------------------------------------

def test_serial_multiply_exhaustive_m4(field4):
    for a in field4.elements():
        for b in field4.elements():
            px, tx = serial_interleaved_multiply(a, b, "xor")
            pn, tn = serial_interleaved_multiply(a, b, "nand")
            assert px == a * b == pn
            assert tx == tn
            assert len(tx) == 4 and tx[-1] == px.bits


def test_serial_trace_follows_the_recurrence(field4):
    a, b = field4.alpha(7), field4.alpha(10)
    _, trace = serial_interleaved_multiply(a, b)
    x = field4.alpha(1)
    p = field4.zero
    for k, expected in enumerate(trace, start=1):
        p = p * x
        if (b.bits >> (4 - k)) & 1:
            p = p + a
        assert p.bits == expected


@pytest.mark.parametrize("m", range(2, 13))
def test_serial_trace_is_the_register_words_of_the_recurrence(m):
    field = GF2m(m)
    phi = field._phi
    rng = np.random.default_rng(4096 + m)
    pairs = rng.integers(0, field.order, (200, 2)).tolist()
    for abits, bbits in [(0, 0), (field.order - 1, field.order - 1), *pairs]:
        a, b = field.element(abits), field.element(bbits)
        want, p = [], 0
        for k in range(1, m + 1):
            p = _xtime(p, m, phi) ^ (abits if bbits >> (m - k) & 1 else 0)
            want.append(p)
        for mode in ("xor", "nand"):
            product, trace = serial_interleaved_multiply(a, b, mode)
            assert type(trace) is tuple and list(trace) == want, (m, a, b, mode)
            assert all(type(w) is int and 0 <= w < field.order for w in trace)
            assert trace[-1] == product.bits == field.mul_poly(a, b).bits


def test_serial_rejects_bad_inputs(field3, field4):
    with pytest.raises(FieldMismatch):
        serial_interleaved_multiply(field4.one, field3.one)
    with pytest.raises(Gf2mError):
        serial_interleaved_multiply(field4.one, field4.one, "nor")


@pytest.mark.parametrize("m", range(2, 25))
def test_serial_step_netlists_match_the_recurrence(m):
    field = GF2m(m)
    step_x = emit_netlist(SerialStepSpec(field, "xor"))
    step_n = emit_netlist(SerialStepSpec(field, "nand"))
    cx, cn = step_x.gate_counts(), step_n.gate_counts()
    assert cx["NAND"] == 0
    assert cn["XOR"] == 0
    assert cn["NAND"] == 4 * cx["XOR"]  # each XOR unfolds into 4 NANDs
    assert cn["AND"] == cx["AND"] == m
    if m <= 4:  # every (p, a, b)
        cases = np.indices((1 << m, 1 << m, 2)).reshape(3, -1).T
    else:  # a seeded batch; a step that drops a phi tap fails half of it
        cases = np.random.default_rng(8192 + m).integers(0, 1 << m, (1000, 3))
        cases[:, 2] &= 1
    p, a, b = cases.T
    vals = {"b": b} | {f"p_{i}": p >> i & 1 for i in range(m)}
    vals |= {f"a_{i}": a >> i & 1 for i in range(m)}
    want = [_xtime(pb, m, field._phi) ^ (ab if bb else 0)
            for pb, ab, bb in cases.tolist()]
    for nl in (step_x, step_n):
        out = nl.simulate(vals)
        got = sum(out[f"p_{i}"] << i for i in range(m))
        assert got.tolist() == want, (m, nl.label)


def test_serial_step_spec_mode_validation(field4):
    with pytest.raises(Gf2mError):
        emit_netlist(SerialStepSpec(field4, "nor"))


# -- operations that need only phi -----------------------------------------------------

def test_operations_that_need_only_phi_run_without_tables(forbid_table_build):
    phi = Gf2Poly.parse("x^6+x^5+1")

    def run(field):
        a, b = field.element("x^5+x^2+1"), field.element(0b011011)
        sq = squaring_matrix(field)
        return [
            a, field.add(a, b), field.mul_poly(a, b), field.vector_str(a),
            mat_vec_mul(build_z_matrix(a), b),
            serial_interleaved_multiply(a, b, "xor"),
            serial_interleaved_multiply(a, b, "nand"),
            sq, emit_netlist(sq), emit_netlist(build_z_matrix(a)),
            symbolic_z_matrix(field),
            general_multiplier_netlist(field),
            emit_netlist(SerialStepSpec(field, "xor")),
            emit_netlist(SerialStepSpec(field, "nand")),
        ]

    def constants():
        return [constant_mul_matrix(field, i) for field in fields_up_to(8)
                for i in range(field.order - 1)]

    want = run(GF2m(6, phi)), constants()
    forbid_table_build()
    assert (run(GF2m(6, phi)), constants()) == want


# -- complexity report ---------------------------------------------------------------------

def test_complexity_report_for_x5_x2_1():
    report = complexity_report(5, 2)
    assert report.m == 5 and report.k == 2
    assert len(report.literature) == 12
    assert report.literature[0][0] == "PB Mastrovito (a)"
    assert report.literature[-1] == ("SPB multiplier based on NAND",
                                     "2m", "8m", "0", "2T_A + 4T_N")
    designs = [row[0] for row in report.measured]
    assert designs == ["measured parallel (this library)",
                       "measured serial step x m, xor mode",
                       "measured serial step x m, nand mode"]
    assert report.measured[0][1] == "25"  # m^2 AND gates
    assert len(report.notes) == 3


def test_complexity_report_for_x7_x3_1():
    report = complexity_report(7, 3)
    assert report.measured[0][1] == "49"


@pytest.mark.parametrize("m,k", [
    (4, 1),   # 2k = 2 is not > 2
    (6, 3),   # 2k = 6 is not < m
    (5, 0),   # k out of range
    (6, 2),   # x^6 + x^2 + 1 = (x^3 + x + 1)^2 is reducible
])
def test_complexity_report_rejects_unsupported_trinomials(m, k):
    with pytest.raises(UnsupportedTrinomial):
        complexity_report(m, k)
