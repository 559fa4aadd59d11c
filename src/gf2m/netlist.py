"""Combinational gate netlists: a small DAG of XOR/AND/NAND gates.

Text format, one item per line, gates in topological order:

    # optional comment
    INPUT a_0
    CONST zero 0
    GATE g0 XOR a_0 a_1
    OUTPUT z_0 g0

Gate ids are g0, g1, ... in emission order.  CONST lines only appear for
degenerate sources (an all-zero matrix row yields a constant-0 output).
OUTPUT ports form their own namespace, name each port once, and may
reference any node.  Inputs, constants and gates share one node namespace.

Simulation accepts, per input, the int 0 or 1 or an integer or bool numpy
array of 0s and 1s, so a whole batch of assignments can be evaluated in
one pass; any other value raises Gf2mError rather than being read as bits.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from .errors import Gf2mError

__all__ = ["Gate", "Const", "XorNetlist", "NetlistBuilder"]

_KINDS = ("XOR", "AND", "NAND")
_GATE_ID = re.compile(r"g[0-9]+")


@dataclass(frozen=True)
class Gate:
    gid: str
    kind: str
    a: str
    b: str


@dataclass(frozen=True)
class Const:
    name: str
    value: int


@dataclass(frozen=True)
class XorNetlist:
    """Immutable gate DAG with named inputs and outputs."""

    inputs: tuple[str, ...]
    consts: tuple[Const, ...]
    gates: tuple[Gate, ...]
    outputs: tuple[tuple[str, str], ...]
    label: str = ""
    depth: int = dc_field(init=False, default=0)

    def __post_init__(self) -> None:
        depths: dict[str, int] = {}
        for name in (*self.inputs, *(c.name for c in self.consts)):
            if name in depths:
                raise Gf2mError(f"duplicate node name {name!r}")
            depths[name] = 0
        for c in self.consts:
            if type(c.value) is not int or c.value not in (0, 1):
                raise Gf2mError(
                    f"constant {c.name!r} is {c.value!r}, not 0 or 1")
        for g in self.gates:
            if g.kind not in _KINDS:
                raise Gf2mError(f"unknown gate kind {g.kind!r}")
            if g.a not in depths or g.b not in depths:
                raise Gf2mError(f"gate {g.gid} uses undefined node")
            if g.gid in depths:
                raise Gf2mError(f"duplicate node name {g.gid!r}")
            depths[g.gid] = max(depths[g.a], depths[g.b]) + 1
        if len({port for port, _ in self.outputs}) != len(self.outputs):
            raise Gf2mError("duplicate output port")
        worst = 0
        for port, src in self.outputs:
            if src not in depths:
                raise Gf2mError(f"output {port} references undefined node {src!r}")
            worst = max(worst, depths[src])
        object.__setattr__(self, "depth", worst)

    def gate_counts(self) -> dict[str, int]:
        counts = {k: 0 for k in _KINDS}
        for g in self.gates:
            counts[g.kind] += 1
        return counts

    def simulate(self, assignment: Mapping[str, object]) -> dict[str, object]:
        """Evaluate all outputs; values may be 0/1 ints or numpy arrays."""
        values: dict[str, object] = {}
        for name in self.inputs:
            if name not in assignment:
                raise Gf2mError(f"missing value for input {name!r}")
            value = values[name] = assignment[name]
            if not _is_bits(value):
                raise Gf2mError(f"input {name!r} is {value!r}, not 0, 1 or "
                                "an integer array of 0s and 1s")
        for c in self.consts:
            values[c.name] = c.value
        for g in self.gates:
            a, b = values[g.a], values[g.b]
            if g.kind == "XOR":
                values[g.gid] = a ^ b
            elif g.kind == "AND":
                values[g.gid] = a & b
            else:  # NAND
                values[g.gid] = (a & b) ^ 1
        return {port: values[src] for port, src in self.outputs}

    def serialize(self) -> str:
        lines = []
        if self.label:
            lines.append(f"# {self.label}")
        lines.extend(f"INPUT {name}" for name in self.inputs)
        lines.extend(f"CONST {c.name} {c.value}" for c in self.consts)
        lines.extend(f"GATE {g.gid} {g.kind} {g.a} {g.b}" for g in self.gates)
        lines.extend(f"OUTPUT {port} {src}" for port, src in self.outputs)
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "XorNetlist":
        inputs: list[str] = []
        consts: list[Const] = []
        gates: list[Gate] = []
        outputs: list[tuple[str, str]] = []
        label = ""
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if not label:
                    label = line[1:].strip()
                continue
            parts = line.split()
            if parts[0] == "INPUT" and len(parts) == 2:
                inputs.append(parts[1])
            elif parts[0] == "CONST" and len(parts) == 3 and parts[2] in ("0", "1"):
                consts.append(Const(parts[1], int(parts[2])))
            elif parts[0] == "GATE" and len(parts) == 5:
                gates.append(Gate(parts[1], parts[2], parts[3], parts[4]))
            elif parts[0] == "OUTPUT" and len(parts) == 3:
                outputs.append((parts[1], parts[2]))
            else:
                raise Gf2mError(f"bad netlist line: {raw!r}")
        return XorNetlist(tuple(inputs), tuple(consts), tuple(gates),
                          tuple(outputs), label)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "inputs": list(self.inputs),
            "consts": [[c.name, c.value] for c in self.consts],
            "gates": [[g.gid, g.kind, g.a, g.b] for g in self.gates],
            "outputs": [[port, src] for port, src in self.outputs],
            "depth": self.depth,
            "counts": self.gate_counts(),
        }


def _is_bits(value: object) -> bool:
    """The int (or bool) 0 or 1, or an integer or bool numpy array of 0s
    and 1s."""
    if isinstance(value, int):
        return value in (0, 1)
    np = sys.modules.get("numpy")  # an array means numpy is loaded
    return (np is not None and isinstance(value, np.ndarray)
            and value.dtype.kind in "biu" and not (value >> 1).any())


def _const_clash(name: str) -> str:
    return (f"input name {name!r} clashes with a constant node: the builder "
            "names its constants 'zero' and 'one'")


class NetlistBuilder:
    """Accumulates nodes in emission order; gate ids are g0, g1, ..."""

    def __init__(self, label: str = ""):
        self.label = label
        self._inputs: list[str] = []
        self._consts: list[Const] = []
        self._gates: list[Gate] = []
        self._outputs: list[tuple[str, str]] = []
        self._const_names: dict[int, str] = {}

    def add_input(self, name: str) -> str:
        if name in self._inputs:
            raise Gf2mError(f"duplicate input name {name!r}")
        if name in self._const_names.values():
            raise Gf2mError(_const_clash(name))
        if _GATE_ID.fullmatch(name):
            raise Gf2mError(f"input name {name!r} clashes with a gate id: the "
                            "builder names its gates g0, g1, ...")
        self._inputs.append(name)
        return name

    def const(self, value: int) -> str:
        if value not in self._const_names:
            name = "zero" if value == 0 else "one"
            if name in self._inputs:
                raise Gf2mError(_const_clash(name))
            self._consts.append(Const(name, value))
            self._const_names[value] = name
        return self._const_names[value]

    def gate(self, kind: str, a: str, b: str) -> str:
        if kind not in _KINDS:
            raise Gf2mError(f"unknown gate kind {kind!r}")
        gid = f"g{len(self._gates)}"
        self._gates.append(Gate(gid, kind, a, b))
        return gid

    def xor_tree(self, nodes: list[str]) -> str:
        """Balanced XOR fold; order of `nodes` fixes tie-breaking."""
        if not nodes:
            return self.const(0)
        level = list(nodes)
        while len(level) > 1:
            nxt = [self.gate("XOR", level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def xor2(self, a: str, b: str, mode: str = "xor") -> str:
        """A single XOR, or its four-NAND rewrite in nand mode."""
        if mode == "xor":
            return self.gate("XOR", a, b)
        if mode != "nand":
            raise Gf2mError(f"mode must be xor or nand, got {mode!r}")
        t = self.gate("NAND", a, b)
        return self.gate("NAND", self.gate("NAND", a, t),
                         self.gate("NAND", t, b))

    def output(self, port: str, src: str) -> None:
        self._outputs.append((port, src))

    def build(self) -> XorNetlist:
        return XorNetlist(tuple(self._inputs), tuple(self._consts),
                          tuple(self._gates), tuple(self._outputs), self.label)
