"""
Building GF(2^m) and reading its three representations
=======================================================

Every nonzero element of GF(2^m) is simultaneously a power of the
generator alpha, a polynomial in alpha of degree < m, and an m-bit
vector.  This script builds the degree-3 and degree-4 fields and walks
through the table, addition, multiplication, and inversion.
"""

from gf2m import GF2m, Gf2Poly

# -- the degree-4 field over x^4 + x + 1 --------------------------------------

field = GF2m(4)
print(f"field: GF(2^4) over {field.prime_poly.to_terms('x')}")
print()

# power | polynomial | vector, one row per element (zero first)
print("power | polynomial        | vector")
for power, poly, vector in field.table_rows():
    print(f"{power:<5} | {poly:<17} | {vector}")
print()

# -- addition is bitwise xor of the vectors -----------------------------------

a7 = field.alpha(7)
a10 = field.alpha(10)
s = a7 + a10
print(f"alpha^7  = {a7.vector_str()}  ({a7.poly_str()})")
print(f"alpha^10 = {a10.vector_str()}  ({a10.poly_str()})")
print(f"sum      = {s.vector_str()}  = {s.power}")
print()

# -- multiplication is exponent addition mod 2^m - 1 ---------------------------

p = a7 * a10
print(f"alpha^7 * alpha^10 = alpha^{(7 + 10) % 15} = {p.vector_str()}")
print()

# -- inversion by repeated squaring --------------------------------------------
# The chain a, a^2, a^6, a^14, ... lands on a^(2^m - 2) = a^-1 after m - 1
# square-and-multiply steps.

a = field.alpha(7)
chain = field.inversion_trace(a)
print(f"inverting {a} through the square-and-multiply register:")
for k, r in enumerate(chain):
    print(f"  step {k}: {r.vector_str()}  = {r.power}")
print(f"check: {a} * {chain[-1]} = {a * chain[-1]}")
print()

# -- a different defining polynomial gives a different table -------------------

other = GF2m(4, Gf2Poly.parse("11001"))  # x^4 + x^3 + 1
print(f"over {other.prime_poly.to_terms('x')} instead, alpha^4 = "
      f"{other.alpha(4).vector_str()} (was {field.alpha(4).vector_str()})")

# -- the smaller degree-3 field -------------------------------------------------

small = GF2m(3)
print()
print(f"GF(2^3) over {small.prime_poly.to_terms('x')}:")
for power, poly, vector in small.table_rows():
    print(f"  {power:<3} {vector}  {poly}")
