"""Shift-register division traces, stepping semantics, and periods."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from gf2m import Gf2Poly, LfsrConfig, divide, from_polynomial, period, primitive_poly
from gf2m.errors import BadConnectionPolynomial, Gf2mError, WidthMismatch
from gf2m.lfsr import state_sequence, step

# Register trace of (x^7+x^6+x^3+x^2+x) / (x^5+x^3+x^2+1), X0..X4 per clock.
DIVISION_TRACE = ["10000", "11000", "01100", "00110", "10011",
                  "01111", "00001", "10110"]


# -- configuration -----------------------------------------------------------------

def test_from_polynomial_reads_taps():
    cfg = from_polynomial(Gf2Poly.parse("101101"))
    assert cfg.degree == 5
    assert cfg.taps == (0, 2, 3)
    assert cfg.feedback == "internal"


@pytest.mark.parametrize("bad", ["1", "0", "100"])  # degree 0 or g0 = 0
def test_from_polynomial_rejects_bad_connection(bad):
    with pytest.raises(BadConnectionPolynomial):
        from_polynomial(Gf2Poly.parse(bad))


def test_from_polynomial_rejects_bad_feedback_kind():
    with pytest.raises(BadConnectionPolynomial):
        from_polynomial(Gf2Poly.parse("1011"), "sideways")


@pytest.mark.parametrize("g, feedback", [
    (Gf2Poly(0b1010), "internal"),  # g0 = 0
    (Gf2Poly(0b1), "external"),  # degree 0
    (Gf2Poly(0b1011), "sideways"),
])
def test_direct_construction_checks_what_from_polynomial_checks(g, feedback):
    with pytest.raises(BadConnectionPolynomial):
        LfsrConfig(g, feedback)


# -- stepping ------------------------------------------------------------------------

def test_step_rejects_wrong_width():
    cfg = from_polynomial(Gf2Poly.parse("1011"))
    with pytest.raises(WidthMismatch):
        step(cfg, (0, 0), 1)


@pytest.mark.parametrize("feedback", ["internal", "external"])
@pytest.mark.parametrize("state", [(2, 0, 0), (0, -1, 0), (1, 0, 0.5), (1.0, 0, 0)])
def test_stages_must_be_bits(feedback, state):
    cfg = from_polynomial(Gf2Poly.parse("1011"), feedback)
    with pytest.raises(Gf2mError):
        step(cfg, state, 0)
    with pytest.raises(Gf2mError):
        period(cfg, state)
    with pytest.raises(Gf2mError):
        state_sequence(cfg, state, 3)


@pytest.mark.parametrize("feedback", ["internal", "external"])
@pytest.mark.parametrize("bit", [2, 3, -1, 1.0, "1", None])
def test_input_bit_must_be_a_bit(feedback, bit):
    cfg = from_polynomial(Gf2Poly.parse("1011"), feedback)
    with pytest.raises(Gf2mError):
        step(cfg, (0, 0, 1), bit)


def test_internal_step_spreads_feedback_into_taps():
    # g = x^3 + x + 1: on feedback, stage 0 gets input^f, stage 1 gets X0^f
    cfg = from_polynomial(Gf2Poly.parse("1011"))
    assert step(cfg, (0, 0, 1), 0) == (1, 1, 0)
    assert step(cfg, (0, 0, 1), 1) == (0, 1, 0)
    assert step(cfg, (1, 0, 0), 0) == (0, 1, 0)


def test_external_step_collects_taps_into_stage_zero():
    cfg = from_polynomial(Gf2Poly.parse("1011"), "external")
    # feedback = X2 ^ X0 (taps 0 and 1 read stages 2 and 0 shifted)
    assert step(cfg, (1, 0, 0), 0) == (1, 1, 0)
    assert step(cfg, (0, 0, 1), 0) == (1, 0, 0)


def test_step_follows_the_configured_feedback():
    # one state, one polynomial: the divider and the Fibonacci clock differ
    g = Gf2Poly.parse("1011")
    assert step(from_polynomial(g, "internal"), (1, 0, 0), 0) == (0, 1, 0)
    assert step(from_polynomial(g, "external"), (1, 0, 0), 0) == (1, 1, 0)


@pytest.mark.parametrize("g", ["1011", "11001", "101101", "11111",
                               "100011011"])
def test_external_step_is_the_fibonacci_recurrence(g):
    # stage 0 gets input xor the sum of g_i * regs[i-1] over i = 1..d
    cfg = from_polynomial(Gf2Poly.parse(g), "external")
    d, bits = cfg.degree, cfg.g.bits
    rng = random.Random(g)
    for _ in range(50):
        state = tuple(rng.randrange(2) for _ in range(d))
        u = rng.randrange(2)
        fb = u
        for i in range(1, d + 1):
            fb ^= (bits >> i & 1) & state[i - 1]
        assert step(cfg, state, u) == (fb,) + state[:-1]


def test_state_sequence_length_and_start():
    cfg = from_polynomial(Gf2Poly.parse("1011"), "external")
    seed = (1, 0, 0)
    seq = state_sequence(cfg, seed, 5)
    assert len(seq) == 5
    assert seq[0] == step(cfg, seed, 0)
    assert all(nxt == step(cfg, cur, 0) for cur, nxt in zip(seq, seq[1:]))


# -- division ---------------------------------------------------------------------------

def test_division_trace_reproduces_the_worked_table():
    g = Gf2Poly.parse("101101")
    p = Gf2Poly.parse("11001110")
    remainder, trace = divide(p, g)
    assert len(trace) == 8
    assert [r.input_bit for r in trace] == [1, 1, 0, 0, 1, 1, 1, 0]
    got = ["".join(str(b) for b in r.regs_after) for r in trace]
    assert got == DIVISION_TRACE
    # final register = remainder coefficients X^0..X^4 = 1,0,1,1,0
    assert trace[-1].regs_after == (1, 0, 1, 1, 0)
    assert remainder == Gf2Poly.parse("1101")  # x^3 + x^2 + 1


def test_division_quotient_appears_on_the_feedback_wire():
    g = Gf2Poly.parse("101101")
    p = Gf2Poly.parse("11001110")
    _, trace = divide(p, g)
    q = p // g
    fb_bits = [r.feedback for r in trace]
    # MSB-first feedback stream spells the quotient once it starts moving
    assert fb_bits == [0, 0, 0, 0, 0, 1, 1, 1]
    assert int("".join(map(str, fb_bits)), 2) == q.bits
    assert q == Gf2Poly.parse("111")


def test_divide_agrees_with_polynomial_divmod():
    rng = random.Random(20210817)
    checked = 0
    while checked < 1000:
        p = Gf2Poly(rng.randrange(0, 1 << 20))
        g = Gf2Poly(rng.randrange(1, 1 << 10) | 1)  # force g0 = 1
        if g.degree < 1:
            continue
        remainder, trace = divide(p, g)
        assert remainder == p % g
        assert len(trace) == max(p.bits.bit_length(), 1)
        checked += 1


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=(1 << 16) - 1))
def test_divide_gives_remainder_and_quotient_stream(p_bits, g_high):
    p, g = Gf2Poly(p_bits), Gf2Poly(g_high << 1 | 1)  # g0 = 1, degree >= 1
    remainder, trace = divide(p, g)
    assert remainder == p % g
    stream = "".join(str(r.feedback) for r in trace)
    assert int(stream, 2) == (p // g).bits


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=(1 << 16) - 1))
def test_trace_rows_keep_the_register_word(p_bits, g_high):
    p, g = Gf2Poly(p_bits), Gf2Poly(g_high << 1 | 1)
    remainder, trace = divide(p, g)
    for row in trace:
        assert len(row.regs_after) == row.degree == g.degree
        assert row.regs == sum(b << i for i, b in enumerate(row.regs_after))
    assert trace[-1].regs == remainder.bits


def test_divide_zero_polynomial():
    remainder, trace = divide(Gf2Poly(0), Gf2Poly.parse("1011"))
    assert remainder.is_zero
    assert len(trace) == 1
    assert trace[0].regs_after == (0, 0, 0)


def test_exact_division_leaves_zero_register():
    p = Gf2Poly.parse("10000001")  # x^7 + 1
    g = Gf2Poly.parse("1011")
    remainder, trace = divide(p, g)
    assert remainder.is_zero
    assert trace[-1].regs_after == (0, 0, 0)


# -- periods -------------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 11))
def test_external_lfsr_over_primitive_polynomial_has_full_period(m):
    cfg = from_polynomial(primitive_poly(m), "external")
    seed = (1,) + (0,) * (m - 1)
    assert period(cfg, seed) == (1 << m) - 1


def test_internal_lfsr_periods_match():
    cfg = from_polynomial(Gf2Poly.parse("1011"))
    assert period(cfg, (1, 0, 0)) == 7


def test_period_of_an_unchecked_config_is_refused():
    # g0 = 0 used to be read as g0 = 1, giving period 7
    with pytest.raises(BadConnectionPolynomial):
        period(LfsrConfig(Gf2Poly(0b1010), "internal"), (1, 0, 0))


def test_non_primitive_polynomial_has_short_period():
    # x^4 + x^3 + x^2 + x + 1 has order 5
    cfg = from_polynomial(Gf2Poly.parse("11111"), "external")
    assert period(cfg, (1, 0, 0, 0)) == 5


def test_period_rejects_zero_seed():
    cfg = from_polynomial(Gf2Poly.parse("1011"))
    with pytest.raises(Gf2mError):
        period(cfg, (0, 0, 0))
