"""Bit-parallel multiplication over GF(2^m) as explicit matrix and circuit
artifacts, plus the bit-serial interleaved multiplier and its NAND rewrite.

The product c = a*b is m bilinear forms, c_i summing the a_k * b_j where
x^(j+k) mod phi has bit i set; symbolic_z_matrix and the general netlist
read them.  Fixing a gives c = Z(a) . b, column j of Z being x^j * a mod phi.
Z(a) is linear in a, Z(a) = sum over k of a_k * Z(x^k), and row i of
Z(x^k) is the form row forms[i][k]; the forms and the packed Z(x^k) are
built once per field, memoized in it by field._per_field, so build_z_matrix
is an XOR of packed ints.  a = alpha^i gives a constant map, Z(alpha^i)
(column j is alpha^(i+j)), and squaring is one more, read off the forms'
diagonals (column j is alpha^(2j)).  Each is a MastrovitoMatrix (field,
rows, label), and emit_netlist emits any as XORs.

serial_interleaved_multiply returns the product as a FieldElement and its
per-clock accumulator trace as a tuple of m register words (ints, bit i
the coefficient of alpha^i).

Row i of a matrix reads directly as an output equation, e.g.
"z0 = a0 + a1 + a2"; xor_count totals the "+" operators,
constant_xor_counts gives that total for every alpha^i from the antilog
table alone, and xor_count_estimate gives the m^2/2 - m rule-of-thumb
those counts are usually compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .bitmatrix import mul_vec, transpose
from .errors import (
    DimensionMismatch,
    Gf2mError,
    NotIrreducible,
    NotPrimitive,
    UnsupportedDegree,
    UnsupportedTrinomial,
)
from .field import MAX_DEGREE, GF2m, FieldElement, _per_field
from .netlist import NetlistBuilder, XorNetlist
from .polynomial import Gf2Poly, _powmod, _x_multiples

__all__ = [
    "MastrovitoMatrix",
    "SerialStepSpec",
    "build_z_matrix",
    "symbolic_z_matrix",
    "mat_vec_mul",
    "constant_mul_matrix",
    "squaring_matrix",
    "constant_equations",
    "xor_count",
    "constant_xor_counts",
    "xor_count_estimate",
    "emit_netlist",
    "general_multiplier_netlist",
    "serial_interleaved_multiply",
    "complexity_report",
    "ComplexityReport",
    "LITERATURE_ROWS",
]


@dataclass(frozen=True)
class MastrovitoMatrix:
    """m x m binary matrix of a GF(2)-linear map; rows[i] holds bit j = z_ij.

    label names the map and titles its netlist.  Construction raises
    DimensionMismatch unless there are m rows of at most m bits each.
    """

    field: GF2m
    rows: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        m, rows = self.field.m, self.rows
        if len(rows) != m or min(rows) < 0 or max(rows) >> m:
            raise DimensionMismatch(
                f"a matrix over GF(2^{m}) needs {m} rows of at most {m} bits")

    @property
    def m(self) -> int:
        return self.field.m

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_terms(self, i: int) -> tuple[int, ...]:
        """Indices j with z_ij = 1, ascending."""
        return tuple(j for j in range(self.m) if (self.rows[i] >> j) & 1)


def _field_of(a: FieldElement) -> GF2m:
    if not isinstance(a, FieldElement):
        raise Gf2mError(f"expected a FieldElement, got {a!r}")
    return a.field


def build_z_matrix(a: FieldElement) -> MastrovitoMatrix:
    """Z(a), the matrix of b -> a*b: column j is x^j * a(x) mod phi(x)."""
    field = _field_of(a)
    return MastrovitoMatrix(field, _z_rows(field, a.bits),
                            f"multiplier by {a.bits:0{field.m}b}")


def _z_rows(field: GF2m, a: int) -> tuple[int, ...]:
    """The rows of Z(a): the XOR of the packed Z(x^k) over the set bits k."""
    m, basis = field.m, _z_basis(field)
    packed = 0
    for k in range(a.bit_length()):
        if a >> k & 1:
            packed ^= basis[k]
    mask = (1 << m) - 1
    return tuple([packed >> s & mask for s in range(0, m * m, m)])


@_per_field
def _z_basis(field: GF2m) -> tuple[int, ...]:
    """Z(x^k) for k < m, its rows packed m bits apart: row i of Z(x^k) has
    bit j = bit i of x^(j+k) mod phi, which is the form row forms[i][k]."""
    m, forms = field.m, _product_forms(field)
    return tuple(sum(form[k] << (i * m) for i, form in enumerate(forms))
                 for k in range(m))


@_per_field
def _product_forms(field: GF2m) -> tuple[tuple[int, ...], ...]:
    """forms[i][k] has bit j = bit i of x^(j+k) mod phi, so that
    c_i = sum over k of a_k * parity(forms[i][k] & b)."""
    m, mask = field.m, (1 << field.m) - 1
    seq = transpose(_x_multiples(1, 2 * m - 1, m, field._phi), m)
    return tuple(tuple(s >> k & mask for k in range(m)) for s in seq)


def symbolic_z_matrix(field: GF2m) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry (i, j) lists the k with z_ij = sum over k of a_k, for display:
    the set bits of row j of the form of c_i, ascending."""
    return tuple(tuple(tuple(k for k in range(field.m) if row >> k & 1)
                       for row in form) for form in _product_forms(field))


def mat_vec_mul(z: MastrovitoMatrix, b: FieldElement) -> FieldElement:
    """c_i = GF(2) inner product of row i with b (AND then XOR-fold)."""
    if not isinstance(z, MastrovitoMatrix):
        raise Gf2mError(f"expected a MastrovitoMatrix, got {z!r}")
    if z.m != _field_of(b).m:
        raise DimensionMismatch(f"{z.m}x{z.m} matrix against {b.field.m}-bit vector")
    z.field._same_field(b)
    return FieldElement(b.field, mul_vec(z.rows, b.bits))


def constant_mul_matrix(field: GF2m, i: int) -> MastrovitoMatrix:
    """Matrix of the map b -> alpha^i * b, that is Z(alpha^i): column j =
    vector of alpha^(i+j), which is x^(i+j) mod phi, so m and phi alone
    define it."""
    n = field.order - 1
    if not isinstance(i, int) or isinstance(i, bool):
        raise Gf2mError(f"constant power must be an integer, got {i!r}")
    if not 0 <= i <= n - 1:
        raise Gf2mError(f"constant power {i} outside 0..{n - 1}")
    return MastrovitoMatrix(field, _z_rows(field, _powmod(0b10, i, field._phi)),
                            f"constant multiplier alpha^{i}")


def squaring_matrix(field: GF2m) -> MastrovitoMatrix:
    """Matrix of the squaring map: the cross terms of (sum a_k x^k)^2 cancel
    in pairs, so entry (i, k) is bit i of x^(2k) mod phi, the diagonal bit
    k of the form row forms[i][k]."""
    return MastrovitoMatrix(field, tuple(
        sum((form[k] >> k & 1) << k for k in range(field.m))
        for form in _product_forms(field)), "squaring map")


def constant_equations(field: GF2m, i: int) -> list[str]:
    """The output equations of the alpha^i constant multiplier.

    One line per output, e.g. "z0 = a0 + a1 + a2".
    """
    return _row_equations(constant_mul_matrix(field, i), "a")


def _row_equations(z: MastrovitoMatrix, var: str) -> list[str]:
    """One line "z<i> = <var>j + ..." per row of z; an empty row reads 0."""
    lines = []
    for i in range(z.m):
        rhs = " + ".join(f"{var}{j}" for j in z.row_terms(i))
        lines.append(f"z{i} = {rhs or '0'}")
    return lines


def xor_count(z: MastrovitoMatrix) -> int:
    """XOR gates of the row-wise fold: sum of max(0, popcount(row) - 1)."""
    return sum(max(0, row.bit_count() - 1) for row in z.rows)


def constant_xor_counts(field: GF2m) -> list[int]:
    """xor_count(constant_mul_matrix(field, i)) for every i in 0..2^m-2.

    Column j of the alpha^i matrix is alpha^(i+j), and b -> alpha^i * b is
    invertible, so no row is zero and the sum over rows of
    max(0, wt(row) - 1) is the matrix's weight less m:

        count(i) = wt(alpha^i) + wt(alpha^(i+1)) + ... + wt(alpha^(i+m-1)) - m

    a window of m popcounts sliding along the antilog table, with exponents
    taken mod n = 2^m - 1.  That is O(2^m) for all n constants, where
    building and reading each matrix costs O(m^2) per constant.
    """
    m, n = field.m, field.order - 1
    wt = [bits.bit_count() for bits in field.antilog_table.tolist()]
    prefix = list(accumulate(wt + wt[:m - 1], initial=0))
    return [prefix[i + m] - prefix[i] - m for i in range(n)]


def xor_count_estimate(m: int) -> Fraction:
    """The m^2/2 - m estimate for an average constant multiplier."""
    if m < 1:
        raise Gf2mError("estimate needs m >= 1")
    return Fraction(m * m, 2) - m


@dataclass(frozen=True)
class SerialStepSpec:
    """Emission source for one combinational step of the serial multiplier.

    Inputs p_0..p_{m-1} (accumulator), a_0..a_{m-1} (multiplicand) and b
    (the current multiplier bit); outputs p_0..p_{m-1} give the next
    accumulator value (p*x mod phi) xor (b and a).
    """

    field: GF2m
    mode: str = "xor"


def emit_netlist(source: MastrovitoMatrix | SerialStepSpec) -> XorNetlist:
    """Emit a gate netlist for a matrix or a serial multiplier step.

    A matrix becomes pure XOR fan-in trees, output z_i over the inputs a_j
    of row i, titled "<label> over GF(2^m)"; an all-zero row is the
    constant 0.  A SerialStepSpec becomes one step of the serial
    recurrence, with every XOR expanded through four NANDs in nand mode.
    """
    if isinstance(source, SerialStepSpec):
        return _serial_step_netlist(source.field, source.mode)
    m = source.m
    nb = NetlistBuilder(f"{source.label} over GF(2^{m})")
    names = [nb.add_input(f"a_{j}") for j in range(m)]
    for i in range(m):
        terms = source.row_terms(i)
        nb.output(f"z_{i}", nb.xor_tree([names[j] for j in terms]))
    return nb.build()


def general_multiplier_netlist(field: GF2m) -> XorNetlist:
    """The two-operand multiplier: m^2 ANDs and XOR folds over an f-network
    keyed on form rows, one XOR tree of a-inputs per distinct row."""
    m = field.m
    nb = NetlistBuilder(f"general multiplier over GF(2^{m})")
    a = [nb.add_input(f"a_{k}") for k in range(m)]
    b = [nb.add_input(f"b_{j}") for j in range(m)]
    znodes: dict[int, str] = {}
    for i, form in enumerate(_product_forms(field)):
        products = []
        for j, row in enumerate(form):
            if row not in znodes:
                znodes[row] = nb.xor_tree([a[k] for k in range(m)
                                           if row >> k & 1])
            products.append(nb.gate("AND", znodes[row], b[j]))
        nb.output(f"c_{i}", nb.xor_tree(products))
    return nb.build()


def _serial_step_netlist(field: GF2m, mode: str) -> XorNetlist:
    # NetlistBuilder.xor2 rejects a mode other than xor and nand
    m, phi = field.m, field._phi
    nb = NetlistBuilder(f"serial multiplier step ({mode}) over GF(2^{m})")
    p = [nb.add_input(f"p_{i}") for i in range(m)]
    a = [nb.add_input(f"a_{i}") for i in range(m)]
    b = nb.add_input("b")
    f = p[m - 1]  # bit shifted out, folded back through phi
    for i in range(m):
        # phi is primitive, so its x^0 term is 1 and p_0 takes f alone
        reduced = p[i - 1] if i else f
        if i and (phi >> i) & 1:
            reduced = nb.xor2(reduced, f, mode)
        cond = nb.gate("AND", b, a[i])
        nb.output(f"p_{i}", nb.xor2(reduced, cond, mode))
    return nb.build()


def _xor_bits(x: int, y: int, mask: int, mode: str) -> int:
    if mode == "xor":
        return x ^ y
    # the four-NAND rewrite nand(nand(x, t), nand(t, y)) with t = nand(x, y),
    # applied bitwise on masked ints
    t = ~(x & y) & mask
    return ~(~(x & t) & ~(t & y) & mask) & mask


def _serial_mul_bits(m: int, phi: int, a: int, b: int,
                     mode: str) -> tuple[int, list[int]]:
    mask = (1 << (m + 1)) - 1
    p = 0
    trace = []
    for k in range(1, m + 1):
        p <<= 1
        if p >> m & 1:
            p = _xor_bits(p, phi, mask, mode)
        if (b >> (m - k)) & 1:
            p = _xor_bits(p, a, mask, mode)
        trace.append(p)
    return p, trace


def serial_interleaved_multiply(a: FieldElement, b: FieldElement,
                                mode: str = "xor"
                                ) -> tuple[FieldElement, tuple[int, ...]]:
    """MSB-first interleaved product over m steps, with the accumulator trace.

    Step k folds the top multiplier bit in: p <- (p*x mod phi) + b_{m-k}*a.
    In nand mode every XOR runs through the four-NAND identity; the result
    must be bit-identical to xor mode.  The trace holds the accumulator
    after each of the m clocks as a register word, bit i the coefficient
    of alpha^i (stage i of the register, as in lfsr's int register); only
    the product, the last word, is wrapped as a FieldElement.
    """
    field = _field_of(a)
    field._same_field(b)
    if mode not in ("xor", "nand"):
        raise Gf2mError(f"mode must be xor or nand, got {mode!r}")
    bits, trace = _serial_mul_bits(field.m, field._phi, a.bits, b.bits, mode)
    return FieldElement(field, bits), tuple(trace)


# Published complexity rows for multipliers over the trinomial u^n + u^k + 1
# (2 < 2k < n), echoed as-is: the mixed n/m symbols and the first row's AND
# count (2m^2 + 2m where the classical figure is n^2) are reproduced, not
# normalized.  None of these designs except ours are implemented here.
LITERATURE_ROWS: tuple[tuple[str, str, str, str, str], ...] = (
    ("PB Mastrovito (a)", "2m^2 + 2m", "0", "n^2 - 1",
     "T_A + ceil(log2(4n)) T_X"),
    ("WDB (a)", "n^2", "0", "n^2 - 1", "T_A + ceil(log2(4n)) T_X"),
    ("PB mod reduction", "n^2", "0", "n^2 - 1", "T_A + ceil(log2(4n-4)) T_X"),
    ("PB Montgomery (a)", "n^2", "0", "n^2 - 1",
     "<= T_A + ceil(log2(4n-8)) T_X"),
    ("WDB (b)", "n^2", "0", "n^2 - 1", "T_A + ceil(log2(2n+2k-2)) T_X"),
    ("PB Mastrovito (b)", "n^2", "0", "n^2 - 1",
     "T_A + ceil(log2(2n+2k-3)) T_X"),
    ("PB Mastrovito (c)", "n^2", "0", "n^2 + (k^2 - 3k)/2",
     "T_A + ceil(log2(2n+k-2)) T_X"),
    ("SPB Mastrovito", "n^2", "0", "n^2", "T_A + ceil(log2(2n)) T_X"),
    ("SPB matrix-vector product", "n^2", "0", "3(n^2 - n)/2 - k(n - k)",
     "T_A + ceil(log2(2n-k)) T_X"),
    ("PB Montgomery (b)", "n^2", "0", "n^2 - 1", "T_A + ceil(log2(2n-k)) T_X"),
    ("SPB binary XOR tree", "n^2", "0", "n^2 - 1",
     "T_A + ceil(log2(2n-k)) T_X"),
    ("SPB multiplier based on NAND", "2m", "8m", "0", "2T_A + 4T_N"),
)

_NOTES = (
    "published rows mix the symbols n and m for the same extension degree;"
    " they are echoed verbatim, not normalized",
    "the first row's AND count (2m^2 + 2m) conflicts with the classical n^2"
    " figure of the other parallel designs; reproduced as printed",
    "published rows are literature constants for designs not implemented"
    " here; measured rows are netlist counts from this library",
)


@dataclass(frozen=True)
class ComplexityReport:
    m: int
    k: int
    literature: tuple[tuple[str, str, str, str, str], ...]
    measured: tuple[tuple[str, str, str, str, str], ...]
    notes: tuple[str, ...]


def complexity_report(m: int, k: int) -> ComplexityReport:
    """Literature rows plus measured netlist counts for x^m + x^k + 1.

    The published table covers trinomials with 2 < 2k < m; outside that,
    or when x^m + x^k + 1 is not primitive, UnsupportedTrinomial.  Degrees
    above the field cap raise UnsupportedDegree, as GF2m does.
    """
    if not (isinstance(m, int) and isinstance(k, int) and 1 <= k < m):
        raise UnsupportedTrinomial(f"need integers 1 <= k < m, got k={k}, m={m}")
    if not 2 < 2 * k < m:
        raise UnsupportedTrinomial(
            f"published rows require 2 < 2k < m; k={k}, m={m} falls outside")
    if m > MAX_DEGREE:  # before x^m is built: m may be far too large for it
        raise UnsupportedDegree(
            f"m must be an integer in 2..{MAX_DEGREE}, got {m}")
    tri = Gf2Poly((1 << m) | (1 << k) | 1)
    try:
        field = GF2m(m, tri)
    except (NotIrreducible, NotPrimitive):
        raise UnsupportedTrinomial(
            f"{tri.to_terms()} does not define a field in this library") from None
    par = general_multiplier_netlist(field)
    pc = par.gate_counts()
    step_x = emit_netlist(SerialStepSpec(field, "xor"))
    step_n = emit_netlist(SerialStepSpec(field, "nand"))
    cx, cn = step_x.gate_counts(), step_n.gate_counts()
    measured = (
        ("measured parallel (this library)", str(pc["AND"]), str(pc["NAND"]),
         str(pc["XOR"]), f"{par.depth} gate levels"),
        ("measured serial step x m, xor mode",
         f"{m} x {cx['AND']}", f"{m} x {cx['NAND']}", f"{m} x {cx['XOR']}",
         f"{step_x.depth} gate levels per step"),
        ("measured serial step x m, nand mode",
         f"{m} x {cn['AND']}", f"{m} x {cn['NAND']}", f"{m} x {cn['XOR']}",
         f"{step_n.depth} gate levels per step"),
    )
    return ComplexityReport(m, k, LITERATURE_ROWS, measured, _NOTES)
