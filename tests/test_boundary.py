"""The public boundary: every multi-operand entry point rejects an operand
from another field, whether that field has another degree or the same
degree over another polynomial."""

from __future__ import annotations

import pytest

from gf2m import (
    GF2m,
    Gf2Poly,
    build_z_matrix,
    dual_basis_coords,
    from_coords,
    mat_vec_mul,
    normal_basis,
    normal_basis_coords,
    serial_interleaved_multiply,
)
from gf2m.errors import DimensionMismatch, FieldMismatch

HOME = GF2m(4)  # over x^4 + x + 1
OTHERS = {
    "other_m": GF2m(5),
    "other_poly": GF2m(4, Gf2Poly.parse("x^4+x^3+1")),
}


def _standard(field: GF2m):
    return tuple(field.alpha(k) for k in range(field.m))


# Each call takes one operand from the field h and the rest from HOME.
CALLS = {
    "add": lambda h: HOME.add(HOME.alpha(3), h.alpha(2)),
    "mul_power": lambda h: HOME.mul_power(HOME.alpha(3), h.alpha(2)),
    "mul_poly": lambda h: HOME.mul_poly(HOME.alpha(3), h.alpha(2)),
    "divide": lambda h: HOME.divide(HOME.alpha(3), h.alpha(2)),
    "mat_vec_mul": lambda h: mat_vec_mul(build_z_matrix(HOME.alpha(3)),
                                         h.alpha(2)),
    "serial_interleaved_multiply":
        lambda h: serial_interleaved_multiply(HOME.alpha(3), h.alpha(2)),
    "dual_basis_coords": lambda h: dual_basis_coords(h.alpha(2),
                                                     _standard(HOME)),
    "from_coords": lambda h: from_coords(_standard(HOME)[:3] + (h.alpha(3),),
                                         (1, 1, 1, 1)),
    "normal_basis": lambda h: normal_basis(HOME, h.alpha(3)),
    "normal_basis_coords": lambda h: normal_basis_coords(HOME.alpha(3),
                                                         h.alpha(3)),
}


@pytest.mark.parametrize("other", sorted(OTHERS))
@pytest.mark.parametrize("entry", sorted(CALLS))
def test_operand_from_another_field_is_rejected(entry, other):
    call = CALLS[entry]
    call(HOME)  # the same call with home operands is valid
    # a matrix and a vector of different sizes keep their own error
    want = (DimensionMismatch if (entry, other) == ("mat_vec_mul", "other_m")
            else FieldMismatch)
    with pytest.raises(want):
        call(OTHERS[other])
