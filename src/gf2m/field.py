"""GF(2^m) field construction and element arithmetic.

A field is built from a primitive polynomial phi of degree m.  Elements are
m-bit vectors in the standard (polynomial) basis: bit i is the coefficient
of alpha^i, where alpha is the primitive element, i.e. a root of phi.  The
printed vector form follows the usual table convention with the coefficient
of alpha^(m-1) leftmost, so alpha in GF(2^4) prints as "0010".

The first read of either table fills the antilog table alpha^0 ..
alpha^(2^m-2) by phi's own recurrence.  The first m powers are
x^0 .. x^(m-1).  After them, with k powers known, alpha^(k+e) =
alpha^k * alpha^e is the XOR of alpha^(j+e) over the set bits j of
alpha^k, so the next k - m + 1 powers (up to _CHUNK of them) are an XOR
of slices of the table already filled (each coordinate of alpha^e is a
linear recurring sequence with characteristic polynomial phi).  The log
table, the inverse permutation, is scattered in once the antilog table
is complete.  Both tables are native-dtype numpy arrays (uint32 antilog,
int32 log); GF2m._exp indexes memoryviews of the same buffers, which
return ints at about half the cost of ndarray.item.  Memory grows as 2^m,
8 bytes per element: degrees are capped at MAX_DEGREE = 24, the
registry's range, where the tables take 128 MiB and build in well under
a second.

Inside the library an element is its int bits.  The public methods check
their FieldElement operands once, compute on ints (every table product
goes through one kernel, GF2m._exp) and wrap only the value they return.

The tables serve the power form: alpha^e <-> bits, log/antilog products,
squaring orbits, walks in alpha-order and constant_xor_counts.  Every
linear map (the matrices, the netlists, the trace, the dual basis) needs
only m and phi.  A field is m and phi; the tables are built on their
first read, so a field that only serves linear maps never builds them.
A field pickles and copies as (m, phi) too: the copy builds its own
tables when it needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator

from .errors import (
    DivisionByZero,
    FieldMismatch,
    Gf2mError,
    NotIrreducible,
    NotPrimitive,
    UnsupportedDegree,
    ZeroInverse,
    ZeroToZero,
)
from .polynomial import (
    Gf2Poly,
    _mulmod,
    _xtime,
    is_irreducible,
    is_primitive,
    primitive_poly,
)

__all__ = ["GF2m", "FieldElement", "PowerForm", "MAX_DEGREE"]

MAX_DEGREE = 24
# The table build, the log scatter and table_rows take at most _CHUNK
# entries at a time: the build's XOR sources then stay in cache, and the
# other two hold no temporary the size of the table.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PowerForm:
    """Exponential representation: alpha^exponent, or ZERO (exponent None)."""

    exponent: int | None

    ZERO: ClassVar["PowerForm"]

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def __str__(self) -> str:
        return "-" if self.exponent is None else f"α^{self.exponent}"


PowerForm.ZERO = PowerForm(None)


class GF2m:
    """An immutable GF(2^m) instance, defined by m and phi; its log/antilog
    tables are a cache built on their first read, which loads numpy."""

    characteristic = 2

    def __init__(self, m: int, prime_poly: Gf2Poly | None = None):
        if not isinstance(m, int) or not 2 <= m <= MAX_DEGREE:
            raise UnsupportedDegree(
                f"m must be an integer in 2..{MAX_DEGREE}, got {m}")
        if prime_poly is None:
            prime_poly = primitive_poly(m)
        if prime_poly.degree != m:
            got = (f"has degree {prime_poly.degree}" if prime_poly
                   else "is the zero polynomial")
            raise Gf2mError(f"defining polynomial {got}, expected degree {m}")
        if not is_primitive(prime_poly):
            # trial division only names the failure
            if not is_irreducible(prime_poly):
                raise NotIrreducible(
                    f"{prime_poly.to_terms()} factors over GF(2)")
            raise NotPrimitive(f"{prime_poly.to_terms()} is irreducible but its "
                               "root does not generate the multiplicative group")
        self.m = m
        self.prime_poly = prime_poly
        self.order = 1 << m
        self._phi = prime_poly.bits
        self._memo: dict = {}  # _per_field's results, freed with the field
        self._tables = None  # (log, antilog, views), by _build_tables

    @property
    def log_table(self):
        """log_table[bits] = e with alpha^e = bits; log_table[0] = -1."""
        return (self._tables or self._build_tables())[0]

    @property
    def antilog_table(self):
        """antilog_table[e] = bits of alpha^e for e = 0..2^m-2."""
        return (self._tables or self._build_tables())[1]

    def _build_tables(self) -> tuple:
        import numpy as np  # loaded by the first table read, not on import
        m, phi = self.m, self._phi
        n = self.order - 1
        antilog = np.empty(n, dtype=np.uint32)
        antilog[:m] = [1 << j for j in range(m)]  # alpha^j = x^j for j < m
        k = m
        while k < n:
            # alpha^(k+e) is the XOR of alpha^(j+e) over the bits j of
            # alpha^k; for e < k - m + 1 every source slice ends by index k,
            # so it is filled and does not overlap the block
            c = _xtime(int(antilog[k - 1]), m, phi)
            size = min(k - m + 1, n - k, _CHUNK)
            block = antilog[k:k + size]
            taps = [j for j in range(m) if c >> j & 1]
            block[:] = antilog[taps[0]:taps[0] + size]
            for j in taps[1:]:
                block ^= antilog[j:j + size]
            k += size
        log = np.empty(self.order, dtype=np.int32)
        log[0] = -1
        for lo in range(0, n, _CHUNK):  # chunks keep the temporaries small
            hi = min(lo + _CHUNK, n)
            log[antilog[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        antilog.flags.writeable = False
        log.flags.writeable = False
        self._tables = log, antilog, memoryview(log), memoryview(antilog)
        return self._tables

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GF2m)
                and other.m == self.m and other._phi == self._phi)

    def __hash__(self) -> int:
        return hash((GF2m, self.m, self._phi))

    def __repr__(self) -> str:
        return f"GF2m({self.m}, Gf2Poly('{self.prime_poly.to_binary()}'))"

    def __reduce__(self):
        # a field is m and phi; the tables and the memo are a cache
        return GF2m, (self.m, self.prime_poly)

    # -- element construction ---------------------------------------------

    def element(self, value: "int | str | FieldElement") -> "FieldElement":
        """Coerce an int, a polynomial/vector string, or an element."""
        if isinstance(value, FieldElement):
            self._same_field(value)
            return value
        if isinstance(value, str):
            bits = Gf2Poly.parse(value).bits
        elif isinstance(value, int) and not isinstance(value, bool):
            bits = value
        else:
            raise Gf2mError(f"cannot make a field element from {value!r}")
        if not 0 <= bits < self.order:
            raise Gf2mError(f"value {value!r} does not fit in {self.m} bits")
        return FieldElement(self, bits)

    __call__ = element

    def alpha(self, e: int) -> "FieldElement":
        """alpha^e for any integer exponent e."""
        if not isinstance(e, int) or isinstance(e, bool):
            raise Gf2mError(f"exponent must be an integer, got {e!r}")
        return FieldElement(self, self._exp(0b10, e))  # alpha is x

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        for bits in range(self.order):
            yield FieldElement(self, bits)

    def nonzero_elements(self) -> Iterator["FieldElement"]:
        for bits in range(1, self.order):
            yield FieldElement(self, bits)

    def _same_field(self, *elems: "FieldElement") -> None:
        for e in elems:
            if not isinstance(e, FieldElement):
                raise Gf2mError(f"expected a FieldElement, got {e!r}")
            if e.field is not self and e.field != self:
                raise FieldMismatch("elements belong to different fields")

    def _exp(self, a: int, k: int, b: int = 1) -> int:
        """a^k * b on element bits, the one table kernel: any integer k,
        and 0 when a or b is 0 (callers rule out a = 0 with k <= 0)."""
        if not (a and b):
            return 0
        _, _, log, antilog = self._tables or self._build_tables()
        return antilog[(k * log[a] + log[b]) % (self.order - 1)]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        """Coordinate-wise XOR; doubles as subtraction."""
        self._same_field(a, b)
        return FieldElement(self, a.bits ^ b.bits)

    def mul_power(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        """Multiply through the log/antilog tables (exponent addition)."""
        self._same_field(a, b)
        return FieldElement(self, self._exp(a.bits, 1, b.bits))

    def mul_poly(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        """Multiply as polynomials and reduce mod the defining polynomial."""
        self._same_field(a, b)
        return FieldElement(self, _mulmod(a.bits, b.bits, self._phi))

    def inverse(self, a: "FieldElement") -> "FieldElement":
        """Multiplicative inverse from the tables: 1/alpha^e = alpha^-e."""
        self._same_field(a)
        if a.bits == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return FieldElement(self, self._exp(a.bits, -1))

    def inversion_trace(self, a: "FieldElement") -> list["FieldElement"]:
        """Register values 1, a^2, a^6, ... a^(2^m-2) of the inversion circuit.

        The register starts at 1 and is updated m-1 times with
        r <- (r * a)^2, so step k holds a^(2^(k+1) - 2) and the last
        entry is a^(2^m - 2) = 1/a, the reference inverse checks against.
        """
        self._same_field(a)
        if a.bits == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        regs = [1]
        for _ in range(self.m - 1):
            regs.append(self._exp(self._exp(regs[-1], 1, a.bits), 2))
        return [FieldElement(self, r) for r in regs]

    def divide(self, a: "FieldElement", b: "FieldElement") -> "FieldElement":
        self._same_field(a, b)
        if b.bits == 0:
            raise DivisionByZero("division by the zero element")
        return FieldElement(self, self._exp(b.bits, -1, a.bits))

    def square(self, a: "FieldElement") -> "FieldElement":
        """a*a via exponent doubling (the squaring matrix lives in mastrovito)."""
        self._same_field(a)
        return FieldElement(self, self._exp(a.bits, 2))

    def pow(self, a: "FieldElement", n: int) -> "FieldElement":
        self._same_field(a)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise Gf2mError(f"exponent must be a non-negative integer, got {n!r}")
        if a.bits == 0 and n == 0:
            raise ZeroToZero("0**0 is undefined here")
        return FieldElement(self, self._exp(a.bits, n))

    # -- representations ----------------------------------------------------

    def to_power_form(self, a: "FieldElement") -> PowerForm:
        self._same_field(a)
        return PowerForm(self.log_table.item(a.bits)) if a.bits else PowerForm.ZERO

    def from_power_form(self, p: PowerForm) -> "FieldElement":
        if p.exponent is None:
            return self.zero
        if not 0 <= p.exponent <= self.order - 2:
            raise Gf2mError(
                f"exponent {p.exponent} outside 0..{self.order - 2}")
        return self.alpha(p.exponent)

    def vector_str(self, a: "FieldElement") -> str:
        """m-bit vector, coefficient of alpha^(m-1) leftmost."""
        self._same_field(a)
        return format(a.bits, f"0{self.m}b")

    def poly_str(self, a: "FieldElement") -> str:
        """Sum of alpha powers, highest degree first; "0" for the zero element."""
        self._same_field(a)
        return _poly_text(a.bits)

    def format_row(self, a: "FieldElement") -> tuple[str, str, str]:
        """(power, polynomial, vector) strings, one representation table row."""
        self._same_field(a)
        return self._row(a.bits)

    def _row(self, bits: int) -> tuple[str, str, str]:
        power = PowerForm(self.log_table.item(bits) if bits else None)
        return str(power), _poly_text(bits), format(bits, f"0{self.m}b")

    def table_rows(self) -> Iterator[tuple[str, str, str]]:
        """All 2^m rows of the representation table, one at a time: 0
        first, then alpha^0..

        Row k is alpha^(k-1), in antilog order.  Its polynomial and its
        vector each join those of the high and low halves of its bits,
        looked up in tables that `_poly_text`, the one polynomial
        formatter, and `format` fill.
        """
        m, low = self.m, self.m // 2
        mask = (1 << low) - 1
        highs = [_poly_text(h << low) if h else ""
                 for h in range(1 << (m - low))]
        lows = [_poly_text(b) if b else "" for b in range(1 << low)]
        vhighs = [format(h, f"0{m - low}b") for h in range(1 << (m - low))]
        vlows = [format(b, f"0{low}b") for b in range(1 << low)]
        antilog = self.antilog_table
        yield self._row(0)
        for lo in range(0, len(antilog), _CHUNK):  # not the whole table as ints
            for k, bits in enumerate(antilog[lo:lo + _CHUNK].tolist(), lo):
                h, b = bits >> low, bits & mask
                high, rest = highs[h], lows[b]
                yield (f"α^{k}",
                       f"{high} + {rest}" if high and rest else high or rest,
                       vhighs[h] + vlows[b])


def _per_field(fn):
    """Memoize fn(field, *args) in field._memo, so that it is freed with
    the field; a call that raises stores nothing."""
    def cached(field: GF2m, *args):
        key = (fn, *args)
        try:
            return field._memo[key]
        except KeyError:
            value = field._memo[key] = fn(field, *args)
            return value
    return cached


def _poly_text(bits: int) -> str:
    """The element with these bits as a sum of alpha powers, from its bits
    alone: no table read."""
    return Gf2Poly(bits).to_terms("α", spaced=True)


@dataclass(frozen=True)
class FieldElement:
    """An element of a specific GF(2^m), value-compared by (field, bits)."""

    field: GF2m
    bits: int

    def __post_init__(self) -> None:
        if type(self.bits) is not int:
            raise Gf2mError(f"bits must be an int, got {self.bits!r}")
        if not 0 <= self.bits < self.field.order:
            raise Gf2mError(f"bits {self.bits} outside field of order "
                            f"{self.field.order}")

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.field.add(self, other)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.field.mul_power(self, other)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self.field.divide(self, other)

    def __pow__(self, n: int) -> "FieldElement":
        return self.field.pow(self, n)

    def inverse(self) -> "FieldElement":
        return self.field.inverse(self)

    def square(self) -> "FieldElement":
        return self.field.square(self)

    @property
    def power(self) -> PowerForm:
        return self.field.to_power_form(self)

    def vector_str(self) -> str:
        return self.field.vector_str(self)

    def poly_str(self) -> str:
        return self.field.poly_str(self)

    def __int__(self) -> int:
        return self.bits

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return self.vector_str()

    def __repr__(self) -> str:
        return f"FieldElement('{self.vector_str()}', m={self.field.m})"
