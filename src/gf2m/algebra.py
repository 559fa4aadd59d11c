"""Structure-level algebra on GF(2^m): conjugates, minimal polynomials,
roots, trace, and the dual/normal coordinate systems.

Coordinate vectors produced here are tuples in basis order (coefficient of
basis element 0 first).  The dual basis of a given basis {lambda_k} is the
unique {mu_j} with Tr(lambda_i * mu_j) = 1 exactly when i = j; it is found
by solving that trace system over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import bitmatrix
from .errors import DependentBasis, Gf2mError
from .field import GF2m, FieldElement
from .polynomial import Gf2Poly

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


def conjugacy_class(b: FieldElement) -> ConjugacyClass:
    """Repeated squaring until the orbit closes; {0} degenerates to itself."""
    members = [b]
    cur = b.square()
    while cur != b:
        members.append(cur)
        cur = cur.square()
    return ConjugacyClass(b, tuple(members))


def minimal_polynomial(b: FieldElement) -> Gf2Poly:
    """Least-degree GF(2) polynomial with b as a root.

    Expands the product of (X + c) over the conjugacy class of b with
    in-field coefficient arithmetic; the cross terms cancel so every
    coefficient collapses to 0 or 1.  The zero element maps to X.
    """
    field = b.field
    if b.is_zero:
        return Gf2Poly(0b10)
    # coeffs[i] = coefficient of X^i, as field elements during expansion
    coeffs: list[FieldElement] = [field.one]
    for root in conjugacy_class(b).members:
        nxt = [field.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += root * c
        coeffs = nxt
    bits = 0
    for i, c in enumerate(coeffs):
        if c.bits > 1:
            raise AssertionError(
                f"minimal polynomial coefficient {c!r} not in GF(2)")
        bits |= c.bits << i
    return Gf2Poly(bits)


def roots_in_field(f: Gf2Poly, field: GF2m) -> set[FieldElement]:
    """All elements of the field where f evaluates to zero (Horner scan)."""
    if f.is_zero:
        raise Gf2mError("the zero polynomial has no defined root set")
    deg = f.bits.bit_length() - 1
    roots = set()
    for x in field.elements():
        acc = field.zero
        for i in range(deg, -1, -1):
            acc = field.mul_power(acc, x)
            if (f.bits >> i) & 1:
                acc += field.one
        if acc.is_zero:
            roots.add(x)
    return roots


def trace(b: FieldElement) -> int:
    """Tr(b) = b + b^2 + b^4 + ... + b^(2^(m-1)), always 0 or 1."""
    acc = b.field.zero
    cur = b
    for _ in range(b.field.m):
        acc += cur
        cur = cur.square()
    if acc.bits > 1:
        raise AssertionError(f"trace landed outside GF(2): {acc!r}")
    return acc.bits


# -- coordinate systems -------------------------------------------------------

@lru_cache(maxsize=None)
def _coords_matrix(basis: tuple[FieldElement, ...]) -> tuple[int, ...]:
    """The matrix taking an element's bits to its coordinates over `basis`.

    It is the inverse of the matrix whose columns are the basis vectors;
    built once per basis, after checking that the basis is one.
    """
    _check_basis(basis[0].field, basis)
    return bitmatrix.inverse(bitmatrix.transpose([e.bits for e in basis],
                                                 len(basis)))


def _coords(bits: int, m: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(m))


def _check_basis(field: GF2m, basis: Sequence[FieldElement]) -> None:
    if len(basis) != field.m:
        raise DependentBasis(f"need {field.m} basis elements, got {len(basis)}")
    for e in basis:
        field._same_field(e)
    if bitmatrix.inverse([e.bits for e in basis]) is None:
        raise DependentBasis("proposed basis is linearly dependent over GF(2)")


def find_dual_basis(basis: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """The unique {mu_j} with Tr(basis_i * mu_j) = (i == j)."""
    field = basis[0].field
    _check_basis(field, basis)
    m = field.m
    # gram row i has bit k = Tr(basis_i * alpha^k); mu_j's coordinates
    # solve gram . c = e_j, so they are the columns of gram^-1.
    gram = [sum(trace(basis[i] * field.alpha(k)) << k for k in range(m))
            for i in range(m)]
    inv = bitmatrix.inverse(gram)
    if inv is None:
        raise DependentBasis("trace system is singular for this basis")
    return tuple(FieldElement(field, col) for col in bitmatrix.transpose(inv, m))


def dual_basis_coords(b: FieldElement,
                      basis: Sequence[FieldElement]) -> tuple[int, ...]:
    """Coordinates of b over the supplied basis: Tr(b * mu_k), mu its dual.

    By the expansion z = sum of Tr(z * mu_k) * basis_k these are exactly
    b's coefficients over `basis`, so they are read off the basis's cached
    coordinate matrix; pass a dual basis itself to get the
    dual-representation coordinates.
    """
    basis = tuple(basis)
    inv = _coords_matrix(basis)
    basis[0].field._same_field(b)
    return _coords(bitmatrix.mul_vec(inv, b.bits), len(basis))


@lru_cache(maxsize=None)
def normal_basis(field: GF2m,
                 generator: FieldElement | None = None) -> tuple[FieldElement, ...]:
    """The conjugate basis gamma, gamma^2, gamma^4, ... gamma^(2^(m-1)).

    With no generator given, the lowest power of alpha whose conjugates
    are linearly independent is used (alpha^3 for GF(2^4): alpha itself
    fails because its four conjugates sum to zero).
    """
    if generator is not None:
        cand = _conjugate_tuple(generator)
        if cand is None:
            raise DependentBasis(
                f"conjugates of {generator!r} do not form a basis")
        return cand
    for e in range(1, field.order - 1):
        cand = _conjugate_tuple(field.alpha(e))
        if cand is not None:
            return cand
    raise DependentBasis(f"no normal basis generator found for m={field.m}")


def _conjugate_tuple(g: FieldElement) -> tuple[FieldElement, ...] | None:
    field = g.field
    members = [g]
    for _ in range(field.m - 1):
        members.append(members[-1].square())
    if bitmatrix.inverse([e.bits for e in members]) is None:
        return None
    return tuple(members)


def normal_basis_coords(b: FieldElement,
                        generator: FieldElement | None = None) -> tuple[int, ...]:
    """Coordinates of b over the normal basis of its field."""
    field = b.field
    inv = _coords_matrix(normal_basis(field, generator))
    return _coords(bitmatrix.mul_vec(inv, b.bits), field.m)


def from_coords(basis: Sequence[FieldElement],
                coords: Sequence[int]) -> FieldElement:
    """Rebuild the element sum(coords[k] * basis[k])."""
    field = basis[0].field
    acc = field.zero
    for c, e in zip(coords, basis):
        if c & 1:
            acc += e
    return acc


@dataclass(frozen=True)
class BasisTriple:
    """One element's coordinates in the standard, dual, and normal bases."""

    standard: tuple[int, ...]
    dual: tuple[int, ...]
    normal: tuple[int, ...]


@lru_cache(maxsize=None)
def _change_of_basis(field: GF2m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The field's standard-to-dual and standard-to-normal matrices.

    The dual of the dual of the standard basis is the standard basis, so
    dual coordinate k of b is Tr(b * alpha^k), and row k of the dual
    matrix has bit i = Tr(alpha^(i+k)).
    """
    m = field.m
    tr = [trace(field.alpha(e)) for e in range(2 * m - 1)]
    dual = tuple(sum(tr[i + k] << i for i in range(m)) for k in range(m))
    return dual, _coords_matrix(normal_basis(field))


def basis_triple(b: FieldElement) -> BasisTriple:
    m = b.field.m
    dual, normal = _change_of_basis(b.field)
    return BasisTriple(
        standard=_coords(b.bits, m),
        dual=_coords(bitmatrix.mul_vec(dual, b.bits), m),
        normal=_coords(bitmatrix.mul_vec(normal, b.bits), m),
    )


def basis_table(field: GF2m) -> list[tuple[str, BasisTriple]]:
    """Rows (power label, triple) for 0 and every power of alpha."""
    rows = [("-", basis_triple(field.zero))]
    for e in range(field.order - 1):
        rows.append((str(e), basis_triple(field.alpha(e))))
    return rows
