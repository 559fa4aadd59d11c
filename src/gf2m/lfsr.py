"""Clock-accurate LFSR simulation and LFSR polynomial division.

A register built from g(x) of degree d has d flip-flops, regs[i] being the
stage called X^i in the usual division tables; inside the module the
register is an int with bit i = regs[i], and tuples of stages exist only at
the public boundary: a `TraceRow` keeps its clock's register as that int,
`regs`, and `regs_after` unpacks it.  One `step` clocks the kind
`LfsrConfig.feedback` names.

Internal (divider) feedback taps sit at {i < d : g_i = 1}; a clock is
multiply-by-x mod g with the input XORed into stage 0:

    f = regs[d-1]
    regs'[0] = input xor f          (g_0 = 1)
    regs'[i] = regs[i-1] xor g_i*f

Feeding the dividend MSB-first from the all-zero state leaves p mod g in
the register, one trace row per input bit; the f stream is the quotient,
MSB-first, exposed on each row.

External (Fibonacci) feedback XORs the tapped stages regs[i-1] for each
i >= 1 with g_i = 1 (the degree-d term always contributes regs[d-1]),
shifts every bit up one stage, and loads feedback xor input at stage 0.
With a primitive g and any nonzero seed the autonomous register walks all
2^d - 1 nonzero states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bitmatrix import unpack
from .errors import BadConnectionPolynomial, Gf2mError, WidthMismatch
from .polynomial import Gf2Poly, _xtime

__all__ = ["LfsrConfig", "TraceRow", "from_polynomial", "step",
           "divide", "state_sequence", "period"]


@dataclass(frozen=True)
class LfsrConfig:
    g: Gf2Poly
    feedback: str  # "internal" | "external"

    def __post_init__(self) -> None:
        if self.degree < 1 or not self.g.bits & 1:
            raise BadConnectionPolynomial(
                "connection polynomial needs degree >= 1 and constant term 1")
        if self.feedback not in ("internal", "external"):
            raise BadConnectionPolynomial(
                f"unknown feedback kind {self.feedback!r}")

    @property
    def degree(self) -> int:
        return self.g.bits.bit_length() - 1

    @property
    def taps(self) -> tuple[int, ...]:
        """Stages i < degree with g_i = 1."""
        return tuple(i for i in range(self.degree) if (self.g.bits >> i) & 1)


@dataclass(frozen=True)
class TraceRow:
    clock: int
    input_bit: int
    regs: int  # the register after this clock: bit i = stage X^i
    feedback: int  # the f (quotient) bit consumed this clock
    degree: int  # the register's stage count

    @property
    def regs_after(self) -> tuple[int, ...]:
        """The register after this clock, stage X^0 first."""
        return unpack(self.regs, self.degree)


def from_polynomial(g: Gf2Poly, feedback: str = "internal") -> LfsrConfig:
    return LfsrConfig(g, feedback)


def _regs(config: LfsrConfig, state: tuple[int, ...]) -> int:
    if len(state) != config.degree:
        raise WidthMismatch(
            f"state has {len(state)} bits, register has {config.degree}")
    if any(not isinstance(b, int) or b not in (0, 1) for b in state):
        raise Gf2mError(f"register stages must be 0 or 1, got {state!r}")
    return sum(b << i for i, b in enumerate(state))


def _clock(config: LfsrConfig) -> Callable[[int, int], int]:
    """The register's clock on ints: (regs, input bit) -> regs after."""
    d, g = config.degree, config.g.bits
    if config.feedback == "internal":
        return lambda regs, bit: _xtime(regs, d, g) ^ bit
    mask, taps = (1 << d) - 1, g >> 1  # g_i taps stage i-1; g_d taps d-1
    return lambda regs, bit: (
        ((regs << 1) & mask) | (((regs & taps).bit_count() & 1) ^ bit))


def step(config: LfsrConfig, state: tuple[int, ...],
         input_bit: int) -> tuple[int, ...]:
    """One clock of the register kind config.feedback names."""
    if not isinstance(input_bit, int) or input_bit not in (0, 1):
        raise Gf2mError(f"input bit must be 0 or 1, got {input_bit!r}")
    regs = _clock(config)(_regs(config, state), input_bit)
    return unpack(regs, config.degree)


def divide(p: Gf2Poly, g: Gf2Poly) -> tuple[Gf2Poly, tuple[TraceRow, ...]]:
    """Remainder of p / g by clocking the divider register.

    The deg(p)+1 coefficients of p enter MSB-first from the all-zero state;
    the zero polynomial contributes a single 0 bit.  After the last clock
    the register holds p mod g, which must match the arithmetic remainder.
    """
    config = LfsrConfig(g, "internal")
    d = config.degree
    clock = _clock(config)
    regs = 0
    rows = []
    for n, bit in enumerate(map(int, format(p.bits, "b")), start=1):
        f = regs >> (d - 1)
        regs = clock(regs, bit)
        rows.append(TraceRow(n, bit, regs, f, d))
    return Gf2Poly(regs), tuple(rows)


def state_sequence(config: LfsrConfig, seed: tuple[int, ...],
                   clocks: int) -> list[tuple[int, ...]]:
    """States after each of `clocks` autonomous steps (zero input)."""
    clock = _clock(config)
    regs = _regs(config, seed)
    out = []
    for _ in range(clocks):
        regs = clock(regs, 0)
        out.append(unpack(regs, config.degree))
    return out


def period(config: LfsrConfig, seed: tuple[int, ...]) -> int:
    """Clocks until the autonomous register first revisits the seed."""
    start = regs = _regs(config, seed)
    if not start:
        raise Gf2mError("period of the all-zero state is degenerate")
    clock = _clock(config)
    for n in range(1, 1 << config.degree):
        regs = clock(regs, 0)
        if regs == start:
            return n
    raise AssertionError("state space exhausted without revisiting seed")
