"""Structure-level algebra on GF(2^m): conjugates, minimal polynomials,
roots, trace, and the dual/normal coordinate systems.

A minimal polynomial is read as the first GF(2)-linear dependency among
the powers 1, b, b^2, ..., by elimination on packed ints, not by
expanding the product of (X + c) over b's conjugacy class.

Coordinate vectors produced here are tuples in basis order (coefficient of
basis element 0 first).  The dual basis of a given basis {lambda_k} is the
unique {mu_j} with Tr(lambda_i * mu_j) = 1 exactly when i = j; it is found
by solving that trace system over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import bitmatrix
from .errors import DependentBasis, DimensionMismatch, Gf2mError
from .field import GF2m, FieldElement, _per_field
from .polynomial import Gf2Poly, _x_multiples

__all__ = [
    "ConjugacyClass",
    "BasisTriple",
    "conjugacy_class",
    "minimal_polynomial",
    "roots_in_field",
    "trace",
    "find_dual_basis",
    "dual_basis_coords",
    "normal_basis",
    "normal_basis_coords",
    "from_coords",
    "basis_triple",
    "basis_table",
]


@dataclass(frozen=True)
class ConjugacyClass:
    """The squaring orbit beta, beta^2, beta^4, ... of one element."""

    representative: FieldElement
    members: tuple[FieldElement, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _orbit(field: GF2m, bits: int) -> list[int]:
    """The squaring orbit bits, bits^2, bits^4, ... up to its first repeat."""
    orbit = [bits]
    while (cur := field._exp(orbit[-1], 2)) != bits:
        orbit.append(cur)
    return orbit


def conjugacy_class(b: FieldElement) -> ConjugacyClass:
    """Repeated squaring until the orbit closes; {0} degenerates to itself."""
    members = tuple(FieldElement(b.field, x) for x in _orbit(b.field, b.bits))
    return ConjugacyClass(b, members)


def minimal_polynomial(b: FieldElement) -> Gf2Poly:
    """Least-degree GF(2) polynomial with b as a root; 0 maps to X.

    It is the first GF(2)-linear dependency among the powers 1, b, b^2, ...
    (Lidl & Niederreiter, *Finite Fields*, ch. 2-3).  Each power is reduced
    by leading bit against the earlier ones, kept in echelon form, and bit
    m + j of a row records that b^j is in its sum.  The first power b^d
    that reduces to 0 is the sum of the powers its row records, so the row
    above bit m is X^d plus that sum: d products and O(d^2) int XORs,
    where expanding the product of (X + c) over the class takes O(d^2)
    products.
    """
    field, m = b.field, b.field.m
    mask = (1 << m) - 1
    pivots = [0] * m  # pivots[j] is the row with leading bit j, 0 if none
    power = 1
    for d in range(m + 1):  # m + 1 powers in m dimensions are dependent
        row = power | 1 << (m + d)
        while (low := row & mask) and (pivot := pivots[low.bit_length() - 1]):
            row ^= pivot
        if not low:
            break
        pivots[low.bit_length() - 1] = row
        power = field._exp(power, 1, b.bits)
    # the least dependency has degree at most the class size; b^(2^d) = b
    # says the class size divides d, so d is the class size
    if field._exp(b.bits, 1 << d) != b.bits:
        raise AssertionError(f"b^(2^{d}) != b for the degree-{d} "
                             "minimal polynomial")
    return Gf2Poly(row >> m)


def roots_in_field(f: Gf2Poly, field: GF2m) -> set[FieldElement]:
    """All elements of the field where f evaluates to zero (Horner scan)."""
    if f.is_zero:
        raise Gf2mError("the zero polynomial has no defined root set")
    roots = set()
    for x in range(field.order):
        acc = 0
        for i in reversed(range(f.bits.bit_length())):
            acc = field._exp(acc, 1, x) ^ ((f.bits >> i) & 1)
        if acc == 0:
            roots.add(FieldElement(field, x))
    return roots


def trace(b: FieldElement) -> int:
    """Tr(b) = b + b^2 + b^4 + ... + b^(2^(m-1)), always 0 or 1: a linear
    form, the parity of b's bits under row 0 of _trace_matrix."""
    return (b.bits & _trace_matrix(b.field)[0]).bit_count() & 1


# -- coordinate systems -------------------------------------------------------

@_per_field
def _coords_matrix(field: GF2m, basis: tuple[int, ...]) -> tuple[int, ...] | None:
    """The map from an element's bits to its coordinates over the basis with
    these bits: the inverse of the matrix whose columns they are, so one
    elimination both inverts it and checks the basis.  None when they are
    not one, fewer than m columns making a singular m x m matrix."""
    return bitmatrix.inverse(bitmatrix.transpose(basis, field.m))


@_per_field
def _trace_matrix(field: GF2m) -> tuple[int, ...]:
    """Row k has bit i = Tr(alpha^(i+k)): it maps b to (Tr(b * alpha^k))_k,
    b's coordinates over the dual of the standard basis.

    Tr(a) is the trace of the matrix of b -> a * b, whose column j is
    x^j * a mod phi, so Tr(x^t) is the parity of bit j of x^(t+j) mod phi
    over j < m: m and phi alone fix it.
    """
    m = field.m
    xs = _x_multiples(1, 3 * m - 2, m, field._phi)
    tr = [sum(xs[t + j] >> j & 1 for j in range(m)) & 1
          for t in range(2 * m - 1)]
    return tuple(sum(tr[i + k] << i for i in range(m)) for k in range(m))


def _basis_field(basis: Sequence[FieldElement]) -> GF2m:
    """The field of `basis`'s first element; an empty basis spans nothing."""
    if not basis:
        raise DependentBasis("a basis needs at least one element")
    return basis[0].field


def _basis_matrix(basis: Sequence[FieldElement]) -> tuple[GF2m, tuple[int, ...]]:
    """The field of `basis` and its coordinate matrix, after checking that
    `basis` is a basis of that field."""
    field = _basis_field(basis)
    if len(basis) != field.m:
        raise DependentBasis(f"need {field.m} basis elements, got {len(basis)}")
    field._same_field(*basis)
    inv = _coords_matrix(field, tuple(e.bits for e in basis))
    if inv is None:
        raise DependentBasis("proposed basis is linearly dependent over GF(2)")
    return field, inv


def find_dual_basis(basis: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """The unique {mu_j} with Tr(basis_i * mu_j) = (i == j)."""
    field, _ = _basis_matrix(basis)
    # gram row i has bit k = Tr(basis_i * alpha^k); mu_j's coordinates
    # solve gram . c = e_j, so they are the columns of gram^-1, which
    # exists because the basis is one and the trace form is nondegenerate.
    gram = [bitmatrix.mul_vec(_trace_matrix(field), e.bits) for e in basis]
    return tuple(FieldElement(field, col) for col in
                 bitmatrix.transpose(bitmatrix.inverse(gram), field.m))


def dual_basis_coords(b: FieldElement,
                      basis: Sequence[FieldElement]) -> tuple[int, ...]:
    """Coordinates of b over the supplied basis: Tr(b * mu_k), mu its dual.

    By the expansion z = sum of Tr(z * mu_k) * basis_k these are exactly
    b's coefficients over `basis`, so they are read off the basis's cached
    coordinate matrix; pass a dual basis itself to get the
    dual-representation coordinates.
    """
    field, inv = _basis_matrix(tuple(basis))
    field._same_field(b)
    return bitmatrix.unpack(bitmatrix.mul_vec(inv, b.bits), field.m)


def normal_basis(field: GF2m,
                 generator: FieldElement | None = None) -> tuple[FieldElement, ...]:
    """The conjugate basis gamma, gamma^2, gamma^4, ... gamma^(2^(m-1)).

    With no generator given, the lowest power of alpha whose conjugates
    are linearly independent is used (alpha^3 for GF(2^4): alpha itself
    fails because its four conjugates sum to zero).
    """
    if generator is None:
        orbit = _default_normal_orbit(field)
    else:
        field._same_field(generator)
        orbit = tuple(_orbit(field, generator.bits))
        if _coords_matrix(field, orbit) is None:
            raise DependentBasis(f"conjugates of {generator!r} do not form a basis")
    return tuple(FieldElement(field, x) for x in orbit)


@_per_field
def _default_normal_orbit(field: GF2m) -> tuple[int, ...]:
    for bits in map(field.antilog_table.item, range(1, field.order - 1)):
        orbit = tuple(_orbit(field, bits))
        if _coords_matrix(field, orbit) is not None:
            return orbit
    raise DependentBasis(f"no normal basis generator found for m={field.m}")


def normal_basis_coords(b: FieldElement,
                        generator: FieldElement | None = None) -> tuple[int, ...]:
    """Coordinates of b over the normal basis of its field."""
    return dual_basis_coords(b, normal_basis(b.field, generator))


def from_coords(basis: Sequence[FieldElement],
                coords: Sequence[int]) -> FieldElement:
    """Rebuild the element sum(coords[k] * basis[k])."""
    field = _basis_field(basis)
    field._same_field(*basis)
    if len(coords) != len(basis):
        raise DimensionMismatch(
            f"{len(coords)} coordinates for {len(basis)} basis elements")
    if any(not isinstance(c, int) or c not in (0, 1) for c in coords):
        raise Gf2mError(f"coordinates must be 0 or 1, got {tuple(coords)!r}")
    acc = 0
    for c, e in zip(coords, basis):
        acc ^= e.bits if c else 0
    return FieldElement(field, acc)


@dataclass(frozen=True)
class BasisTriple:
    """One element's coordinates in the standard, dual, and normal bases."""

    standard: tuple[int, ...]
    dual: tuple[int, ...]
    normal: tuple[int, ...]


@_per_field
def _table_bases(field: GF2m) -> tuple[tuple[FieldElement, ...], ...]:
    """The standard basis alpha^0..alpha^(m-1), its dual, and normal_basis."""
    std = tuple(FieldElement(field, 1 << k) for k in range(field.m))
    return std, find_dual_basis(std), normal_basis(field)


def basis_triple(b: FieldElement) -> BasisTriple:
    return BasisTriple(*map(dual_basis_coords, [b] * 3, _table_bases(b.field)))


def basis_table(field: GF2m) -> list[tuple[str, BasisTriple]]:
    """Rows (power label, triple) for 0 and every power of alpha.

    Coordinate k of alpha^e over a basis is Tr(alpha^e * mu_k), mu the
    dual basis; with mu_k = alpha^s that is t[(e + s) mod (2^m - 1)] of the
    trace sequence t[e] = Tr(alpha^e), so each column is a rotation of t.
    The standard basis and its dual are each other's dual, so only the
    normal basis's dual is solved here.
    """
    mask, log = _trace_matrix(field)[0], field.log_table.item
    t = [(x & mask).bit_count() & 1 for x in field.antilog_table.tolist()]
    std, dual, normal = _table_bases(field)
    shifts = [[log(mu.bits) for mu in duals]
              for duals in (dual, std, find_dual_basis(normal))]
    columns = [zip(*(t[s:] + t[:s] for s in ks)) for ks in shifts]
    return [("-", BasisTriple(*[(0,) * field.m] * 3))] + [
        (str(e), BasisTriple(*row)) for e, row in enumerate(zip(*columns))]
