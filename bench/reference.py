"""Independent oracles and recorded reference values for the benchmark.

Nothing here imports gf2m: every check compares the library against
arithmetic written out again from the definitions (carry-less product and
reduction, a bit-level divider register) or against values recorded from
the library's initial release.
"""

from __future__ import annotations

import numpy as np

# Registry polynomials (bit i = coefficient of x^i) for the degrees the
# benchmark builds.  A field built on any other polynomial is a failure.
PHI = {
    4: 0b10011,
    8: 0b100011101,
    9: 0b1000010001,
    12: 0b1000001010011,
    16: 0b10001000000001011,
    18: 0b1000000000010000001,
    20: 0b100000000000000001001,
    22: 0b10000000000000000000011,
}

# Gate counts and depth of the emitted circuits.  They are outputs of the
# library, not speeds: any difference is a failure.
CIRCUIT_COSTS = {
    "general_m4": {"and": 16, "xor": 15, "nand": 0, "depth": 4},
    "serial_xor_m4": {"and": 4, "xor": 5, "nand": 0, "depth": 2},
    "serial_nand_m4": {"and": 4, "xor": 0, "nand": 20, "depth": 6},
    "general_m8": {"and": 64, "xor": 100, "nand": 0, "depth": 6},
    "serial_xor_m8": {"and": 8, "xor": 11, "nand": 0, "depth": 2},
    "serial_nand_m8": {"and": 8, "xor": 0, "nand": 44, "depth": 6},
    "general_m16": {"and": 256, "xor": 411, "nand": 0, "depth": 9},
    "serial_xor_m16": {"and": 16, "xor": 19, "nand": 0, "depth": 2},
    "serial_nand_m16": {"and": 16, "xor": 0, "nand": 76, "depth": 6},
}

# SHA-256 of the stdout of CLI commands whose output does not depend on the
# seed, recorded from the initial release.  The netlist of the general
# multiplier does not depend on --a, so its digest holds for every seed.
CLI_DIGESTS = {
    "field_table_s":
        "5fc1c611b277cbe8f9c46835d506e4520fae263b9f2f50c0da1caa3c59ee4400",
    "minpolys_s":
        "dd43267e5af361ea0acd23e9be3c2d505d6aeea8916ccf3e618cf2f2d947756b",
    "bases_s":
        "09077d29de4815e21bfc92a42071b9f9eb8b30411ddb8667e96459c68c275d2a",
    "report_gates_s":
        "e0fc21f282a59381b974e6b36a186d073106f0b965cef56d6c1212772a47f626",
    "netlist_emit_s":
        "7e10719c2f73e7bd492f9ef3948d9ae9884641ef426590400853f5945d7224e8",
}


def clmul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def reduce(x: int, phi: int) -> int:
    m = phi.bit_length() - 1
    while x.bit_length() > m:
        x ^= phi << (x.bit_length() - 1 - m)
    return x


def mulmod(a: int, b: int, phi: int) -> int:
    return reduce(clmul(a, b), phi)


def alpha_power(e: int, phi: int) -> int:
    """alpha^e by square-and-multiply on the polynomial x."""
    result, base = 1, 2
    while e:
        if e & 1:
            result = mulmod(result, base, phi)
        base = mulmod(base, base, phi)
        e >>= 1
    return result


def log_tables(phi: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, antilog) of GF(2^m) over phi, walked with xtime from scratch."""
    m = phi.bit_length() - 1
    n = (1 << m) - 1
    antilog = np.empty(n, dtype=np.int64)
    cur = 1
    for e in range(n):
        antilog[e] = cur
        cur <<= 1
        if cur >> m:
            cur ^= phi
    log = np.full(n + 1, -1, dtype=np.int64)
    log[antilog] = np.arange(n)
    return log, antilog


def products(log: np.ndarray, antilog: np.ndarray, a: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """a*b for arrays of field elements through the reference tables."""
    nonzero = (a != 0) & (b != 0)
    e = (log[np.where(a != 0, a, 1)] + log[np.where(b != 0, b, 1)]) % len(antilog)
    return np.where(nonzero, antilog[e], 0)


def table_errors(log: np.ndarray, antilog: np.ndarray, phi: int) -> list[str]:
    """Problems with a field's tables: antilog must walk alpha^0.. by xtime
    mod phi, visit every nonzero element once, and log must invert it."""
    m = phi.bit_length() - 1
    n = (1 << m) - 1
    antilog = np.asarray(antilog, dtype=np.int64)
    log = np.asarray(log, dtype=np.int64)
    errors = []
    if antilog.shape != (n,) or log.shape != (n + 1,):
        return [f"table shapes {antilog.shape} and {log.shape} for m={m}"]
    seen = np.zeros(n + 1, dtype=bool)
    seen[antilog] = True
    if seen[0] or not seen[1:].all():
        errors.append("antilog is not a permutation of 1..2^m-1")
    if not (log[antilog] == np.arange(n)).all():
        errors.append("log[antilog[e]] != e")
    x = antilog << 1
    x ^= np.where(x >> m, phi, 0)
    if antilog[0] != 1 or not (x[:-1] == antilog[1:]).all() or x[-1] != 1:
        errors.append("antilog[e+1] is not xtime(antilog[e]) mod phi")
    return errors


def lfsr_divide_table(g: int, p: int) -> bytes:
    """Expected stdout of ``lfsr divide --trace table`` for p / g.

    Clocks the divider register bit by bit (internal feedback, dividend
    MSB first) and lays the trace out as the CLI's aligned text table.
    """
    d = g.bit_length() - 1
    mask = (1 << d) - 1
    headers = ["clock", "input"] + [f"X{i}" for i in range(d)]
    rows = [["0", "-"] + ["0"] * d]
    state = 0
    for clock, i in enumerate(range(p.bit_length() - 1, -1, -1), start=1):
        bit = p >> i & 1
        feedback = state >> (d - 1) & 1
        state = ((state << 1 | bit) & mask) ^ (g & mask if feedback else 0)
        rows.append([str(clock), str(bit)] + [str(state >> k & 1) for k in range(d)])
    if state != reduce(p, g):
        raise AssertionError("reference register disagrees with polynomial mod")
    widths = [max(len(r[c]) for r in [headers] + rows) for c in range(len(headers))]

    def line(cells: list[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])] + [line(r) for r in rows]
    terms = [("1" if e == 0 else "X" if e == 1 else f"X^{e}")
             for e in range(state.bit_length() - 1, -1, -1) if state >> e & 1]
    remainder = (f"remainder = {state:b} ({'+'.join(terms) or '0'})\n")
    return ("\n".join(out) + "\n" + remainder).encode("utf-8")
