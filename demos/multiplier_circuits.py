"""
From field multiplication to XOR/AND netlists
=============================================

Multiplication by a fixed element is linear over GF(2), so it is a
binary matrix -- and a matrix over GF(2) is nothing but a bank of XOR
trees.  This script derives constant-multiplier circuits, the general
two-operand multiplier, and the serial (one bit per clock) version,
counting gates along the way.
"""

from gf2m import (
    GF2m,
    SerialStepSpec,
    build_z_matrix,
    complexity_report,
    constant_equations,
    constant_mul_matrix,
    emit_netlist,
    general_multiplier_netlist,
    mat_vec_mul,
    serial_interleaved_multiply,
    xor_count,
    xor_count_estimate,
)

field = GF2m(4)

# -- a constant multiplier: z = alpha^13 * a ------------------------------------

print("multiplication by alpha^13 in GF(2^4):")
for line in constant_equations(field, 13):
    print(f"  {line}")
z13 = constant_mul_matrix(field, 13)
print(f"XOR gates needed: {xor_count(z13)}"
      f"  (average over all constants ~ {xor_count_estimate(4)})")
print()

# -- gate counts for every constant ----------------------------------------------

print("power : XOR count")
for i in range(field.order - 1):
    n = xor_count(constant_mul_matrix(field, i))
    print(f"  a^{i:<3}: {n} {'#' * n}")
print()

# -- the product matrix for a variable operand ------------------------------------
# Column j of Z(a) is the vector of x^j * a mod phi, so Z(a) b = a * b.

a = field.element(0b0110)
z = build_z_matrix(a)
b = field.alpha(7)
print(f"Z({a.vector_str()}) rows (bit j = coefficient of b_j):")
for i, row in enumerate(z.rows):
    bits = "".join(str((row >> j) & 1) for j in range(z.m))
    print(f"  row {i}: {bits}")
print(f"Z b = {mat_vec_mul(z, b).vector_str()}, "
      f"a * b = {(a * b).vector_str()}")
print()

# -- the general multiplier as a netlist -------------------------------------------

netlist = general_multiplier_netlist(field)
print(f"general multiplier, m = 4: {netlist.gate_counts()}, "
      f"depth {netlist.depth}")
out = netlist.simulate(
    {f"a_{i}": (a.bits >> i) & 1 for i in range(4)}
    | {f"b_{i}": (b.bits >> i) & 1 for i in range(4)})
c = sum(out[f"c_{i}"] << i for i in range(4))
print(f"simulated product bits {c:04b} == field product "
      f"{(a * b).vector_str()}")
print()

# -- the serial version: m clocks, one step circuit --------------------------------

prod, steps = serial_interleaved_multiply(a, b)
print("serial interleaved product, accumulator per clock:")
for k, p in enumerate(steps, start=1):  # register words, bit i = alpha^i
    print(f"  clock {k}: {format(p, '04b')}")
print(f"final accumulator = {prod.vector_str()}")

for mode in ("xor", "nand"):
    step = emit_netlist(SerialStepSpec(field, mode))
    print(f"one step in {mode} mode: {step.gate_counts()}, "
          f"depth {step.depth}")
print()

# -- measured counts next to the published trinomial table --------------------------

report = complexity_report(5, 2)
print(f"multiplier complexity over x^{report.m} + x^{report.k} + 1:")
for name, ands, nands, xors, delay in report.literature + report.measured:
    print(f"  {name:<42} AND {ands:<10} NAND {nands:<8} XOR {xors:<10} "
          f"{delay}")
