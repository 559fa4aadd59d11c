"""Conjugacy classes, minimal polynomials, traces, and the three bases."""

from __future__ import annotations

import gc
import weakref

import pytest

from conftest import fields_up_to
from gf2m import (
    GF2m,
    Gf2Poly,
    basis_table,
    basis_triple,
    conjugacy_class,
    dual_basis_coords,
    find_dual_basis,
    from_coords,
    minimal_polynomial,
    normal_basis,
    normal_basis_coords,
    roots_in_field,
    trace,
)
from gf2m.algebra import _trace_matrix
from gf2m.errors import DependentBasis, DimensionMismatch, Gf2mError

# Exponents e with Tr(alpha^e) = 1 in GF(2^4) over x^4 + x + 1.
GF16_TRACE_ONE = {3, 6, 9, 12, 7, 11, 13, 14}


# -- conjugacy classes ----------------------------------------------------------

def test_conjugacy_classes_partition_gf16(field4):
    seen: set[int] = set()
    sizes = []
    for e in range(15):
        a = field4.alpha(e)
        if a.bits in seen:
            continue
        cls = conjugacy_class(a)
        assert a in cls.members
        sizes.append(cls.size)
        assert not seen & {m.bits for m in cls.members}
        seen.update(m.bits for m in cls.members)
    assert sum(sizes) == 15
    assert sorted(sizes) == [1, 2, 4, 4, 4]


def test_conjugacy_class_members(field4):
    cls = conjugacy_class(field4.alpha(3))
    assert sorted(m.power.exponent for m in cls.members) == [3, 6, 9, 12]
    zero_cls = conjugacy_class(field4.zero)
    assert zero_cls.members == (field4.zero,)
    assert zero_cls.size == 1


def test_squaring_permutes_each_class(field4):
    for e in range(15):
        cls = conjugacy_class(field4.alpha(e))
        members = set(cls.members)
        assert {m.square() for m in cls.members} == members


# -- minimal polynomials ---------------------------------------------------------

GF16_MINPOLYS = {
    None: "X",
    0: "1 + X",
    1: "1 + X + X^4",
    3: "1 + X + X^2 + X^3 + X^4",
    5: "1 + X + X^2",
    7: "1 + X^3 + X^4",
}


def test_gf16_minimal_polynomial_table(field4):
    def terms(e):
        b = field4.zero if e is None else field4.alpha(e)
        return minimal_polynomial(b).to_terms("X", ascending=True, spaced=True)

    for e, expected in GF16_MINPOLYS.items():
        assert terms(e) == expected, e
    # every class member shares its representative's polynomial
    for e in range(15):
        rep = conjugacy_class(field4.alpha(e)).representative
        assert minimal_polynomial(field4.alpha(e)) == minimal_polynomial(rep)


def test_minimal_polynomials_vanish_on_their_class_only(field4):
    for e in range(15):
        mp = minimal_polynomial(field4.alpha(e))
        roots = roots_in_field(mp, field4)
        assert roots == set(conjugacy_class(field4.alpha(e)).members)


def test_minimal_polynomial_is_irreducible_with_gf2_coefficients(field4):
    from gf2m import is_irreducible
    for a in field4.elements():
        mp = minimal_polynomial(a)
        assert mp.degree >= 1
        if a.bits:
            assert is_irreducible(mp)
            assert mp.degree in (1, 2, 4)


def _classes(field):
    """(representative, class size) for 0 and for each class of nonzero
    elements, from the exponent orbits e * 2^k mod 2^m - 1."""
    n = field.order - 1
    seen = bytearray(n)
    yield field.zero, 1
    for e in range(n):
        size, k = 0, e
        while not seen[k]:
            seen[k] = 1
            size, k = size + 1, 2 * k % n
        if size:
            yield field.alpha(e), size


def _expanded_minimal_polynomial(b):
    """The product of (X + c) over b's conjugacy class, expanded with field
    coefficients that must all collapse to 0 or 1."""
    coeffs = [b.field.one]  # coeffs[i] is the coefficient of X^i
    for root in conjugacy_class(b).members:
        coeffs = [hi + root * lo for hi, lo in
                  zip([b.field.zero, *coeffs], [*coeffs, b.field.zero])]
    assert all(c.bits <= 1 for c in coeffs)
    return Gf2Poly(sum(c.bits << i for i, c in enumerate(coeffs)))


@pytest.mark.parametrize("m", range(2, 13))
def test_minimal_polynomial_of_every_class(m):
    """The degrees are the class sizes, the product over all classes is
    X^(2^m) + X, and for m <= 10 each matches the expanded product."""
    field = GF2m(m)
    product = Gf2Poly(1)
    for b, size in _classes(field):
        mp = minimal_polynomial(b)
        assert mp.degree == size, b
        if m <= 10:
            assert mp == _expanded_minimal_polynomial(b), b
        product = product * mp
    assert product == Gf2Poly(1 << field.order | 0b10)


def test_gf8_minimal_polynomials(field3):
    assert minimal_polynomial(field3.alpha(1)) == Gf2Poly.parse("1011")
    assert minimal_polynomial(field3.alpha(3)) == Gf2Poly.parse("1101")
    assert minimal_polynomial(field3.one) == Gf2Poly.parse("11")


# -- roots -----------------------------------------------------------------------

def test_roots_of_x4_x3_1(field4):
    roots = roots_in_field(Gf2Poly.parse("11001"), field4)
    assert {r.power.exponent for r in roots} == {7, 11, 13, 14}
    # expanding the product of (X + root) over the class recovers the poly
    assert minimal_polynomial(field4.alpha(7)) == Gf2Poly.parse("11001")


def test_roots_edge_cases(field4):
    assert roots_in_field(Gf2Poly.parse("10"), field4) == {field4.zero}
    assert roots_in_field(Gf2Poly(1), field4) == set()
    with pytest.raises(Gf2mError):
        roots_in_field(Gf2Poly(0), field4)


# -- trace -----------------------------------------------------------------------

def test_trace_values_gf16(field4):
    assert trace(field4.zero) == 0
    got = {e for e in range(15) if trace(field4.alpha(e)) == 1}
    assert got == GF16_TRACE_ONE


def test_trace_is_additive_and_square_invariant(field4):
    for a in field4.elements():
        assert trace(a.square()) == trace(a)
        for b in field4.elements():
            assert trace(a + b) == (trace(a) + trace(b)) % 2


def test_trace_is_the_sum_of_the_conjugates():
    for field in fields_up_to(10):
        for b in field.elements():
            acc = conj = b
            for _ in range(field.m - 1):
                conj = field.square(conj)
                acc = acc + conj
            assert trace(b) == acc.bits, (field, b)


def test_trace_and_dual_basis_run_without_tables(forbid_table_build):
    phi = Gf2Poly.parse("x^7+x^6+1")

    def run(field):
        std = [field.element(1 << k) for k in range(field.m)]
        dual = find_dual_basis(std)
        coords = [dual_basis_coords(b, dual) for b in field.elements()]
        return [[trace(b) for b in field.elements()], _trace_matrix(field),
                dual, coords, [from_coords(dual, c) for c in coords]]

    want = run(GF2m(7, phi))
    forbid_table_build()
    assert run(GF2m(7, phi)) == want


# -- dual basis --------------------------------------------------------------------

def _standard_basis(field):
    return tuple(field.alpha(k) if k else field.one for k in range(field.m))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_dual_basis_satisfies_the_trace_condition(m):
    field = GF2m(m)
    basis = _standard_basis(field)
    mu = find_dual_basis(basis)
    for i in range(m):
        for j in range(m):
            assert trace(basis[i] * mu[j]) == (1 if i == j else 0)


def test_dual_of_standard_basis_gf16(field4):
    mu = find_dual_basis(_standard_basis(field4))
    assert [e.power.exponent for e in mu] == [14, 2, 1, 0]


def test_dual_of_dual_is_the_original(field4):
    basis = _standard_basis(field4)
    assert find_dual_basis(find_dual_basis(basis)) == basis


def test_dual_coords_reconstruct_every_element(field4):
    basis = _standard_basis(field4)
    for a in field4.elements():
        coords = dual_basis_coords(a, basis)
        assert from_coords(basis, coords) == a


@pytest.mark.parametrize("m", range(2, 9))
def test_coordinate_maps_match_their_definitions(m):
    field = GF2m(m)
    std = _standard_basis(field)
    nb = normal_basis(field)
    bases = (std, find_dual_basis(std), nb)
    duals = [find_dual_basis(basis) for basis in bases]
    for b in field.elements():
        for basis, mu in zip(bases, duals):
            assert dual_basis_coords(b, basis) == tuple(
                trace(b * mu_k) for mu_k in mu)
        coords = normal_basis_coords(b)
        assert from_coords(nb, coords) == b
        assert coords == dual_basis_coords(b, nb)


@pytest.mark.parametrize("coords, error", [
    ((1,), DimensionMismatch),
    ((), DimensionMismatch),
    ((1, 0, 0, 0, 1), DimensionMismatch),
    ((2, 0, 0, 0), Gf2mError),
    ((0, -1, 0, 0), Gf2mError),
    ((0, 0, 1.0, 0), Gf2mError),
])
def test_from_coords_rejects_malformed_coordinates(field4, coords, error):
    with pytest.raises(error):
        from_coords(normal_basis(field4), coords)


def test_an_empty_basis_is_not_a_basis(field4):
    with pytest.raises(DependentBasis):
        from_coords((), ())
    with pytest.raises(DependentBasis):
        find_dual_basis(())
    with pytest.raises(DependentBasis):
        dual_basis_coords(field4.one, ())


def test_coordinate_maps_keep_their_errors(field4):
    dependent = (field4.one, field4.alpha(1), field4.alpha(4), field4.alpha(2))
    for _ in range(2):  # a failed basis is not remembered as a good one
        with pytest.raises(DependentBasis):
            dual_basis_coords(field4.one, dependent)
        with pytest.raises(DependentBasis):
            dual_basis_coords(field4.one, dependent[:3])
        with pytest.raises(DependentBasis):
            normal_basis_coords(field4.one, field4.alpha(1))


def test_coordinate_caches_are_freed_with_their_field():
    # a polynomial no other test uses, so no equal field shares the caches
    field = GF2m(6, Gf2Poly.parse("x^6+x^5+1"))
    ref = weakref.ref(field)
    basis_table(field)
    normal_basis_coords(field.alpha(5))
    dual_basis_coords(field.alpha(5), _standard_basis(field))
    del field
    gc.collect()
    assert ref() is None


def test_dependent_set_is_rejected(field4):
    # 1 + alpha + alpha^4 = 0, so this set cannot be a basis
    with pytest.raises(DependentBasis):
        find_dual_basis((field4.one, field4.alpha(1), field4.alpha(4),
                         field4.alpha(2)))
    with pytest.raises(Gf2mError):
        find_dual_basis((field4.one, field4.alpha(1)))  # wrong size


# -- normal basis --------------------------------------------------------------------

def test_normal_basis_gf16_uses_alpha_cubed(field4):
    nb = normal_basis(field4)
    assert [e.power.exponent for e in nb] == [3, 6, 12, 9]
    # each member is the square of the previous one
    for prev, cur in zip(nb, nb[1:]):
        assert prev.square() == cur


def test_alpha_conjugates_are_dependent_in_gf16(field4):
    with pytest.raises(DependentBasis):
        normal_basis(field4, field4.alpha(1))


def test_normal_coords_reconstruct_every_element(field4):
    nb = normal_basis(field4)
    for a in field4.elements():
        coords = normal_basis_coords(a)
        assert from_coords(nb, coords) == a


def test_squaring_is_a_rotation_in_the_normal_basis(field4):
    for a in field4.elements():
        coords = normal_basis_coords(a)
        rotated = (coords[-1],) + coords[:-1]
        assert normal_basis_coords(a.square()) == rotated


# -- the combined table ----------------------------------------------------------------

def test_basis_triple_of_one(field4):
    t = basis_triple(field4.one)
    assert t.standard == (1, 0, 0, 0)
    assert t.dual == (0, 0, 0, 1)
    assert t.normal == (1, 1, 1, 1)


def test_basis_table_tail_rows(field4):
    table = dict(basis_table(field4))
    assert len(table) == 16
    expected = {
        "12": ("1110", "0010"),
        "13": ("1100", "1011"),
        "14": ("1000", "0111"),
    }
    for label, (dual, normal) in expected.items():
        t = table[label]
        assert "".join(map(str, t.dual)) == dual
        assert "".join(map(str, t.normal)) == normal
    zero = table["-"]
    assert zero.standard == zero.dual == zero.normal == (0, 0, 0, 0)


@pytest.mark.parametrize("m", range(2, 13))
def test_basis_triple_is_the_basis_table_row(m):
    # the table rotates one trace sequence per column; basis_triple applies
    # one coordinate map per basis
    field = GF2m(m)
    table = basis_table(field)
    assert table[0] == ("-", basis_triple(field.zero))
    for e, row in enumerate(table[1:]):
        assert row == (str(e), basis_triple(field.alpha(e))), (m, e)


@pytest.mark.parametrize("m", [*range(2, 9), 12])
def test_basis_table_rows_are_consistent_with_reconstruction(m):
    field = GF2m(m)
    std = _standard_basis(field)
    mu = find_dual_basis(std)
    nb = normal_basis(field)
    for label, t in basis_table(field):
        a = field.zero if label == "-" else field.alpha(int(label))
        assert from_coords(std, t.standard) == a
        assert from_coords(mu, t.dual) == a
        assert from_coords(nb, t.normal) == a
