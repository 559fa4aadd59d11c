"""Netlist construction, simulation, serialization, and parsing."""

from __future__ import annotations

import numpy as np
import pytest

from gf2m import NetlistBuilder, XorNetlist
from gf2m.errors import Gf2mError
from gf2m.netlist import Const


def _xor_pair() -> XorNetlist:
    nb = NetlistBuilder("toy")
    x = nb.add_input("x")
    y = nb.add_input("y")
    nb.output("s", nb.gate("XOR", x, y))
    return nb.build()


# -- semantics -------------------------------------------------------------------

@pytest.mark.parametrize("kind,table", [
    ("XOR", {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
    ("AND", {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
    ("NAND", {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
])
def test_gate_truth_tables(kind, table):
    nb = NetlistBuilder()
    x, y = nb.add_input("x"), nb.add_input("y")
    nb.output("o", nb.gate(kind, x, y))
    nl = nb.build()
    for (a, b), want in table.items():
        assert nl.simulate({"x": a, "y": b})["o"] == want


def test_four_nand_xor_rewrite():
    nb = NetlistBuilder()
    x, y = nb.add_input("x"), nb.add_input("y")
    nb.output("o", nb.xor2(x, y, mode="nand"))
    nl = nb.build()
    assert nl.gate_counts() == {"XOR": 0, "AND": 0, "NAND": 4}
    for a in (0, 1):
        for b in (0, 1):
            assert nl.simulate({"x": a, "y": b})["o"] == a ^ b


@pytest.mark.parametrize("mode", ["XOR", "Nand", "nor", ""])
def test_xor2_rejects_unknown_modes(mode):
    nb = NetlistBuilder()
    x, y = nb.add_input("x"), nb.add_input("y")
    with pytest.raises(Gf2mError, match="mode must be xor or nand"):
        nb.xor2(x, y, mode)
    assert nb.build().gates == ()


def test_xor_tree_is_balanced():
    nb = NetlistBuilder()
    leaves = [nb.add_input(f"i{k}") for k in range(8)]
    nb.output("o", nb.xor_tree(leaves))
    nl = nb.build()
    assert nl.gate_counts()["XOR"] == 7
    assert nl.depth == 3  # ceil(log2(8)), not 7 as a chain would give


def test_xor_tree_odd_and_trivial_sizes():
    for n in (1, 2, 3, 5, 6, 7):
        nb = NetlistBuilder()
        leaves = [nb.add_input(f"i{k}") for k in range(n)]
        nb.output("o", nb.xor_tree(leaves))
        nl = nb.build()
        assert nl.gate_counts()["XOR"] == n - 1
        want_depth = 0 if n == 1 else int(np.ceil(np.log2(n)))
        assert nl.depth == want_depth
        for bits in range(1 << n):
            vals = {f"i{k}": (bits >> k) & 1 for k in range(n)}
            assert nl.simulate(vals)["o"] == bin(bits).count("1") % 2


def test_empty_xor_tree_becomes_constant_zero():
    nb = NetlistBuilder()
    nb.add_input("unused")
    nb.output("o", nb.xor_tree([]))
    nl = nb.build()
    assert nl.simulate({"unused": 1})["o"] == 0
    assert any(c.value == 0 for c in nl.consts)


def test_constants_are_deduplicated():
    nb = NetlistBuilder()
    a = nb.const(0)
    b = nb.const(0)
    c = nb.const(1)
    nb.add_input("x")
    nb.output("z", a)
    nb.output("o", c)
    assert a == b == "zero" and c == "one"
    assert len(nb.build().consts) == 2


def test_builder_constant_other_than_0_or_1_is_rejected():
    nb = NetlistBuilder()
    nb.add_input("x")
    nb.output("o", nb.const(2))
    with pytest.raises(Gf2mError, match="not 0 or 1"):
        nb.build()


def test_direct_constant_other_than_0_or_1_is_rejected():
    for value in (2, -1, True, 1.0):
        with pytest.raises(Gf2mError, match="not 0 or 1"):
            XorNetlist(inputs=("x",), consts=(Const("c", value),), gates=(),
                       outputs=(("o", "c"),))


def test_input_named_like_a_constant_is_rejected_at_the_clash():
    nb = NetlistBuilder()
    nb.add_input("zero")
    with pytest.raises(Gf2mError, match="'zero' and 'one'"):
        nb.xor_tree([])
    nb = NetlistBuilder()
    nb.const(1)
    nb.add_input("zero")  # no constant 0 yet, so no clash
    with pytest.raises(Gf2mError, match="'zero' and 'one'"):
        nb.add_input("one")
    nb = NetlistBuilder()
    with pytest.raises(Gf2mError, match="names its gates g0, g1"):
        nb.add_input("g0")
    assert nb.add_input("g") == "g" and nb.add_input("g0x") == "g0x"


def test_simulate_accepts_numpy_arrays():
    nl = _xor_pair()
    x = np.array([0, 0, 1, 1], dtype=np.uint8)
    y = np.array([0, 1, 0, 1], dtype=np.uint8)
    out = nl.simulate({"x": x, "y": y})["s"]
    assert list(out) == [0, 1, 1, 0]


@pytest.mark.parametrize("x", [
    2, -1, 3, "1", 1.0, None, np.uint8(1),
    np.array([0, 2], dtype=np.uint8), np.array([0, -1], dtype=np.int64),
    np.array([0.0, 1.0]), np.array(["0", "1"]),
], ids=["int2", "int-1", "int3", "str", "float", "none", "uint8_scalar",
        "uint8_array_of_2", "int64_array_of_-1", "float_array", "str_array"])
def test_simulate_rejects_values_that_are_not_bits(x):
    # a NAND-mode XOR of 2 and 3 used to read 3, and an AND 2
    nb = NetlistBuilder()
    a, b = nb.add_input("x"), nb.add_input("y")
    nb.output("xor", nb.xor2(a, b, "nand"))
    nb.output("and", nb.gate("AND", a, b))
    nl = nb.build()
    with pytest.raises(Gf2mError, match="not 0, 1 or an integer array"):
        nl.simulate({"x": x, "y": 1})
    for y in (0, 1, True, np.array([1, 0], dtype=np.int8),
              np.array([True, False])):
        out = nl.simulate({"x": 1, "y": y})
        assert np.array_equal(out["xor"], 1 ^ np.asarray(y, dtype=int))
        assert np.array_equal(out["and"], np.asarray(y, dtype=int))


def test_simulate_requires_every_input():
    nl = _xor_pair()
    with pytest.raises(Gf2mError):
        nl.simulate({"x": 1})


# -- structure validation ------------------------------------------------------------

def test_unknown_gate_kind_rejected():
    nb = NetlistBuilder()
    x, y = nb.add_input("x"), nb.add_input("y")
    with pytest.raises(Gf2mError):
        nb.gate("OR", x, y)


def test_undefined_node_rejected():
    with pytest.raises(Gf2mError):
        XorNetlist(inputs=("x",), consts=(), gates=(),
                   outputs=(("o", "ghost"),))


def test_duplicate_names_rejected():
    nb = NetlistBuilder()
    nb.add_input("x")
    with pytest.raises(Gf2mError):
        nb.add_input("x")


def test_duplicate_output_ports_rejected():
    nb = NetlistBuilder()
    x = nb.add_input("x")
    nb.output("z", x)
    nb.output("z", x)
    with pytest.raises(Gf2mError):
        nb.build()
    with pytest.raises(Gf2mError):
        XorNetlist.parse("INPUT x\nOUTPUT z x\nOUTPUT z x\n")


def test_depth_of_gateless_netlist_is_zero():
    nb = NetlistBuilder()
    x = nb.add_input("x")
    nb.output("o", x)
    assert nb.build().depth == 0


# -- text format ------------------------------------------------------------------------

def test_serialize_parse_roundtrip():
    nb = NetlistBuilder("roundtrip demo")
    x, y = nb.add_input("x"), nb.add_input("y")
    t = nb.gate("NAND", x, y)
    nb.output("o", nb.gate("XOR", t, nb.const(1)))
    nl = nb.build()
    text = nl.serialize()
    again = XorNetlist.parse(text)
    assert again == nl
    assert again.serialize() == text
    assert text.startswith("# roundtrip demo\n")
    assert text.endswith("\n")


def test_parse_skips_comments_and_blanks():
    text = "\n".join([
        "# a comment",
        "INPUT x",
        "",
        "INPUT y",
        "GATE g0 XOR x y",
        "OUTPUT s g0",
        "",
    ])
    nl = XorNetlist.parse(text)
    assert nl.simulate({"x": 1, "y": 0})["s"] == 1


@pytest.mark.parametrize("bad", [
    "FROB x",
    "INPUT",
    "GATE g0 XOR x",
    "CONST c two",
    "CONST c 01",   # the value must be exactly 0 or 1
    "CONST x 1",    # a constant may not shadow the input x
    "OUTPUT o",
])
def test_parse_rejects_malformed_lines(bad):
    with pytest.raises(Gf2mError):
        XorNetlist.parse(f"INPUT x\n{bad}\n")


def test_json_shape_is_stable():
    nl = _xor_pair()
    d = nl.to_json()
    assert list(d.keys()) == ["label", "inputs", "consts", "gates",
                              "outputs", "depth", "counts"]
    assert d["counts"] == {"XOR": 1, "AND": 0, "NAND": 0}
    assert d == nl.to_json()
