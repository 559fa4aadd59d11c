"""Spans around calls into gf2m's public functions, installed from outside.

``Tracer.install`` replaces each target function with a wrapper wherever it
is bound: module attributes (including names other modules imported with
``from ... import``) and class attributes (aliases such as
``GF2m.__call__`` too).  A wrapper records one span per call, with its
name, start, end and parent span.  The self time of a span is its
duration minus the time its child spans cover.  Per layer group the tracer
keeps the call count, the self time, and the inclusive time of the
outermost spans of that group, so nested calls inside one group are not
counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Layer group -> "module:qualified.name" of every function it covers.
TARGETS = {
    "polynomial.clmul": ["polynomial:Gf2Poly.__mul__"],
    "polynomial.divmod": ["polynomial:poly_divmod"],
    "polynomial.primality": ["polynomial:is_irreducible",
                             "polynomial:is_primitive",
                             "polynomial:order_of_x"],
    "field.build": ["field:GF2m.__init__"],
    "field.op": [f"field:GF2m.{name}" for name in (
        "element", "alpha", "add", "mul_power", "mul_poly", "square", "pow",
        "divide")],
    "field.inverse": ["field:GF2m.inverse"],
    "field.format": [f"field:GF2m.{name}" for name in (
        "to_power_form", "poly_str", "vector_str", "format_row",
        "table_rows")],
    "mastrovito.matrix": [f"mastrovito:{name}" for name in (
        "build_z_matrix", "constant_mul_matrix", "squaring_matrix",
        "mat_vec_mul", "xor_count")],
    "mastrovito.serial": ["mastrovito:serial_interleaved_multiply"],
    "mastrovito.emit": [f"mastrovito:{name}" for name in (
        "general_multiplier_netlist", "emit_netlist", "symbolic_z_matrix")],
    "netlist.build": [f"netlist:NetlistBuilder.{name}" for name in (
        "add_input", "const", "gate", "xor_tree", "xor2", "output", "build")],
    "netlist.serialize": ["netlist:XorNetlist.serialize",
                          "netlist:XorNetlist.to_json"],
    "netlist.parse": ["netlist:XorNetlist.parse"],
    "netlist.simulate": ["netlist:XorNetlist.simulate"],
    "algebra.trace": ["algebra:trace"],
    "algebra.dual_basis": ["algebra:find_dual_basis"],
    "algebra.normal_coords": ["algebra:normal_basis_coords"],
    "algebra.minpoly": ["algebra:minimal_polynomial",
                        "algebra:conjugacy_class"],
    "algebra.basis_table": ["algebra:basis_table"],
    "lfsr.divide": ["lfsr:divide"],
    "cli.handler": [f"cli:{name}" for name in (
        "cmd_field_table", "cmd_minpolys", "cmd_bases", "cmd_constmul",
        "cmd_mastrovito", "cmd_lfsr_divide", "cmd_code_analyze",
        "cmd_report_gates", "cmd_errata")],
    "cli.render": ["cli:render_table", "cli:render_csv", "cli:render_json"],
}


def _table_bytes(args, result):
    return "field.table_bytes", sum(
        v.nbytes for v in vars(args[0]).values() if hasattr(v, "nbytes"))


# Counters read from a call's arguments or result: (counter name, amount).
COUNTERS = {
    "field:GF2m.__init__": _table_bytes,
    "netlist:NetlistBuilder.build":
        lambda args, result: ("netlist.gates_built", len(result.gates)),
    "algebra:basis_table":
        lambda args, result: ("algebra.basis_rows", len(result)),
    "lfsr:divide": lambda args, result: ("lfsr.clocks", len(result[1])),
}


class Tracer:
    def __init__(self, max_spans: int = 10000):
        self.max_spans = max_spans
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.dropped = 0
        self.calls: dict[str, int] = {g: 0 for g in TARGETS}
        self.incl: dict[str, float] = {g: 0.0 for g in TARGETS}
        self.self_s: dict[str, float] = {g: 0.0 for g in TARGETS}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.paused = False
        self._stack: list[list] = []  # [group, start, child time, span index]
        self._open: dict[str, int] = {g: 0 for g in TARGETS}

    def _wrap(self, group: str, name: str, fn, counter):
        stack, opened = self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = -1
            if len(self.spans) < self.max_spans:
                index = len(self.spans)
                parent = stack[-1][3] if stack else -1
                self.spans.append([name, 0.0, 0.0, parent])
            else:
                self.dropped += 1
            frame = [group, 0.0, 0.0, index]
            stack.append(frame)
            opened[group] += 1
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[group] -= 1
                duration = end - start
                self.calls[group] += 1
                self.self_s[group] += duration - frame[2]
                if not opened[group]:
                    self.incl[group] += duration
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    self.spans[index][1] = start
                    self.spans[index][2] = end
            if counter is not None:
                key, amount = counter(args, result)
                self.counters[key] = self.counters.get(key, 0) + amount
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "gf2m") -> None:
        """Wrap every target in every module of ``package`` that binds it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None
                   and (key == package or key.startswith(package + "."))]
        for group, targets in TARGETS.items():
            for target in targets:
                modname, qualname = target.split(":")
                owner = sys.modules.get(f"{package}.{modname}")
                path = qualname.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(path[-1]) if owner is not None else None
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(fn):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(group, qualname, fn, COUNTERS.get(target))
                if len(path) > 1:
                    for key, value in list(vars(owner).items()):
                        if value is raw:
                            setattr(owner, key, staticmethod(wrapper)
                                    if isinstance(raw, staticmethod) else wrapper)
                else:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, key, wrapper)

    @contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def summary(self) -> dict:
        return {"calls": self.calls, "incl": self.incl, "self": self.self_s,
                "counters": self.counters, "spans": len(self.spans),
                "dropped": self.dropped, "missing": self.missing}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
