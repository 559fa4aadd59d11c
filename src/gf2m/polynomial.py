"""Polynomials over GF(2) packed into Python integers.

A polynomial a(x) = a_0 + a_1 x + ... + a_d x^d is stored as the integer
whose bit i is the coefficient a_i, so x^4 + x + 1 is 0b10011 = 19.
Addition is XOR, multiplication is carry-less, and division is the usual
shift-and-subtract with subtraction replaced by XOR.

Three text forms are accepted everywhere a polynomial can be typed in:

* binary, most significant coefficient first: ``"10011"``
* hexadecimal with a 0x prefix: ``"0x13"``
* a sum of terms in any order, each at most once: ``"x^4+x+1"``

A term's exponent may be at most ``MAX_TERM_EXPONENT`` (2^20), so a short
string cannot ask for a gigabyte-sized integer; the binary and hex forms
need one character per one or four coefficients and have no such bound.

The binary form is the canonical output; ``to_terms`` and ``to_hex`` cover
the other two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DegreeZero,
    DivisionByZeroPoly,
    Gf2mError,
    NotIrreducibleInput,
    UnsupportedDegree,
)

__all__ = [
    "Gf2Poly",
    "poly_divmod",
    "is_irreducible",
    "is_primitive",
    "substitute_x_power",
    "order_of_x",
    "primitive_poly",
    "PRIMITIVE_POLY_STRINGS",
    "MAX_TERM_EXPONENT",
]

MAX_TERM_EXPONENT = 1 << 20

_TERM_RE = re.compile(r"^(?:1|x(?:\^([0-9]+))?)$", re.IGNORECASE)
_HEX_RE = re.compile(r"[0-9a-fA-F]+")


@dataclass(frozen=True, order=True)
class Gf2Poly:
    """An immutable polynomial over GF(2), value-compared by coefficients."""

    bits: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise Gf2mError(f"polynomial bits must be an int, got {self.bits!r}")
        if self.bits < 0:
            raise Gf2mError("polynomial bits must be non-negative")

    @staticmethod
    def parse(text: str) -> "Gf2Poly":
        """Parse any of the three accepted text forms (see module docstring)."""
        s = text.strip()
        if not s:
            raise Gf2mError("empty polynomial string")
        if s[:2].lower() == "0x":
            if not _HEX_RE.fullmatch(s[2:]):
                raise Gf2mError(f"bad hex polynomial {text!r}")
            return Gf2Poly(int(s[2:], 16))
        if any(c in s for c in "xX^"):
            return Gf2Poly(_parse_terms(s))
        if set(s) <= {"0", "1"}:
            return Gf2Poly(int(s, 2))
        raise Gf2mError(f"bad polynomial {text!r}")

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else None

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def coefficient(self, i: int) -> int:
        return (self.bits >> i) & 1 if i >= 0 else 0

    def exponents(self) -> tuple[int, ...]:
        """Exponents with coefficient 1, in ascending order."""
        return tuple(i for i in range(self.bits.bit_length()) if (self.bits >> i) & 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_clmul(self.bits, other.bits))

    def __lshift__(self, k: int) -> "Gf2Poly":
        return Gf2Poly(self.bits << k)

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        return poly_divmod(self, other)

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        return poly_divmod(self, other)[0]

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return poly_divmod(self, other)[1]

    def square(self) -> "Gf2Poly":
        """a(x)^2, which over GF(2) is a(x^2)."""
        return Gf2Poly(_spread(self.bits, 2))

    def to_binary(self) -> str:
        return format(self.bits, "b")

    def to_hex(self) -> str:
        return format(self.bits, "#x")

    def to_terms(self, var: str = "x", *, ascending: bool = False,
                 spaced: bool = False) -> str:
        """Render as a sum of terms, e.g. ``x^4+x+1`` or ``1 + X + X^4``."""
        if not self.bits:
            return "0"
        names = []
        for e in self.exponents():
            if e == 0:
                names.append("1")
            elif e == 1:
                names.append(var)
            else:
                names.append(f"{var}^{e}")
        if not ascending:
            names.reverse()
        return (" + " if spaced else "+").join(names)

    def __str__(self) -> str:
        return self.to_binary()

    def __repr__(self) -> str:
        return f"Gf2Poly('{self.to_binary()}')"


def _parse_terms(s: str) -> int:
    bits = 0
    for raw in s.split("+"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if m is None:
            raise Gf2mError(f"bad polynomial term {raw!r}")
        if term == "1":
            e = 0
        elif m.group(1) is None:
            e = 1
        else:
            # the length test keeps int() off digit strings of any size
            digits = m.group(1).lstrip("0") or "0"
            if (len(digits) > len(str(MAX_TERM_EXPONENT))
                    or int(digits) > MAX_TERM_EXPONENT):
                raise Gf2mError(f"term {term!r} has an exponent above "
                                f"the bound {MAX_TERM_EXPONENT}")
            e = int(digits)
        if bits >> e & 1:
            raise Gf2mError(f"repeated term {term!r}: x^{e} appears twice")
        bits |= 1 << e
    return bits


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed polynomials."""
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def _xtime(bits: int, m: int, phi: int) -> int:
    """x * bits mod phi, for bits of degree below m = deg(phi)."""
    bits <<= 1
    if bits >> m & 1:
        bits ^= phi
    return bits


def _x_multiples(bits: int, count: int, m: int, phi: int) -> list[int]:
    """bits * x^k mod phi for k = 0..count-1, for bits of degree below m."""
    out = [bits]
    for _ in range(count - 1):
        out.append(_xtime(out[-1], m, phi))
    return out


def _spread(bits: int, step: int) -> int:
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= 1 << (i * step)
        bits >>= 1
        i += 1
    return out


def _divmod(n: int, d: int) -> tuple[int, int]:
    """Quotient and remainder of bit-packed n by bit-packed d != 0."""
    dlen = d.bit_length()
    q = 0
    while (shift := n.bit_length() - dlen) >= 0:
        q |= 1 << shift
        n ^= d << shift
    return q, n


def poly_divmod(num: Gf2Poly, den: Gf2Poly) -> tuple[Gf2Poly, Gf2Poly]:
    """Quotient and remainder of polynomial division over GF(2)."""
    if den.is_zero:
        raise DivisionByZeroPoly("polynomial division by zero")
    q, r = _divmod(num.bits, den.bits)
    return Gf2Poly(q), Gf2Poly(r)


def substitute_x_power(f: Gf2Poly, e: int) -> Gf2Poly:
    """f(x^e) for e >= 1."""
    if e < 1:
        raise Gf2mError("substitution power must be >= 1")
    return Gf2Poly(_spread(f.bits, e))


def _mulmod(a: int, b: int, f: int) -> int:
    return _divmod(_clmul(a, b), f)[1]


def _powmod(base: int, e: int, f: int) -> int:
    result = _divmod(1, f)[1]
    cur = _divmod(base, f)[1]
    while e:
        if e & 1:
            result = _mulmod(result, cur, f)
        cur = _mulmod(cur, cur, f)
        e >>= 1
    return result


def is_irreducible(f: Gf2Poly) -> bool:
    """Trial division by every polynomial of degree 1..deg(f)//2."""
    d = f.degree
    if d is None or d < 1:
        raise DegreeZero("irreducibility needs degree >= 1")
    if d == 1:
        return True
    for g in range(2, 1 << (d // 2 + 1)):
        if not _divmod(f.bits, g)[1]:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _order_of_x(f: int, n: int) -> int:
    """Order of x modulo bit-packed f, a divisor of n; 0 when x^n != 1."""
    if _powmod(2, n, f) != 1:
        return 0
    order = n
    for p in _prime_factors(n):
        while order % p == 0 and _powmod(2, order // p, f) == 1:
            order //= p
    return order


def order_of_x(f: Gf2Poly) -> int:
    """Multiplicative order of x modulo f, for irreducible f."""
    d = f.degree
    if d is None or d < 1:
        raise DegreeZero("order needs degree >= 1")
    if not is_irreducible(f):
        raise NotIrreducibleInput(f"{f} factors over GF(2)")
    if f.bits == 2:  # f = x: x is zero mod f, no order
        raise NotIrreducibleInput("x has no multiplicative order modulo x")
    order = _order_of_x(f.bits, (1 << d) - 1)
    if not order:
        raise AssertionError(f"x^(2^{d}-1) != 1 mod {f}, field axiom broken")
    return order


def is_primitive(f: Gf2Poly) -> bool:
    """True when x generates the full multiplicative group modulo f, by the
    order test alone: modulo a reducible f of degree d there are fewer than
    2^d - 1 units, so a reducible f (or f = x) answers False."""
    d = f.degree
    if d is None or d < 1:
        raise DegreeZero("primitivity needs degree >= 1")
    n = (1 << d) - 1
    return _order_of_x(f.bits, n) == n


# One primitive polynomial per degree, bit i = coefficient of x^i,
# written most significant coefficient first.
PRIMITIVE_POLY_STRINGS: dict[int, str] = {
    2: "111",
    3: "1011",
    4: "10011",
    5: "100101",
    6: "1000011",
    7: "10001001",
    8: "100011101",
    9: "1000010001",
    10: "10000001001",
    11: "100000000101",
    12: "1000001010011",
    13: "10000000011011",
    14: "100010001000011",
    15: "1000000000000011",
    16: "10001000000001011",
    17: "100000000000001001",
    18: "1000000000010000001",
    19: "10000000000000100111",
    20: "100000000000000001001",
    21: "1000000000000000000101",
    22: "10000000000000000000011",
    23: "100000000000000000100001",
    24: "1000000000000000010000111",
}


@lru_cache(maxsize=None)
def primitive_poly(m: int) -> Gf2Poly:
    """The registry polynomial of degree m (2 <= m <= 24)."""
    try:
        return Gf2Poly.parse(PRIMITIVE_POLY_STRINGS[m])
    except KeyError:
        raise UnsupportedDegree(f"no registry polynomial for degree {m}") from None
