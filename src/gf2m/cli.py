"""Command-line surface: regenerate the reference tables, export netlists,
and audit the errata registry.

Subcommands
-----------
field table     power/polynomial/vector table of a field
minpolys        conjugacy classes and their minimal polynomials
bases           standard/dual/normal coordinates of every element
constmul        constant-multiplier equations, netlist, or gate count
mastrovito      product matrix of a fixed element, or the general netlist
lfsr divide     polynomial division trace on the divider register
code analyze    distance/rate report for a block code read from a file
report gates    per-constant XOR counts, or the trinomial complexity table
errata          published-vs-computed discrepancy registry

Every subcommand takes ``--format table|csv|json``.  Handlers validate and
compute their data, then pass it to ``_render``, the only reader of the
format.  It returns an emitter, which ``main`` runs on ``sys.stdout.write``:
json writes a document built on demand, csv a header row and grid rows, and
table the grid or, where the command has one, its own text (netlists have no
csv form).  The renderers write as they format, a chunk of rows at a time,
so no command holds its whole output.  A JSON list of dicts with the same
keys is a record list (`_Records`): the keys and one row of values per
dict, often the rows csv and table print, rendered through one frame per
key set and no dict per row.  Exit codes: 0 success (also when the
reader closes the pipe early), 2 invalid input, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice, repeat

from . import algebra, code_metrics, mastrovito
from . import lfsr as lfsr_mod
from .errata import ERRATA
from .errors import Gf2mError
from .field import GF2m, PowerForm
from .netlist import XorNetlist
from .polynomial import Gf2Poly

__all__ = ["main", "build_parser"]


# -- rendering ---------------------------------------------------------------

Write = Callable[[str], object]
Emit = Callable[[Write], None]

# Rows (table lines, csv rows, JSON list members) per write: writes stay
# few, and no renderer holds more than this many formatted rows.
_CHUNK = 1024


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 write: Write) -> None:
    rows = rows if isinstance(rows, Sequence) else list(rows)
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    lines = (" | ".join(map(str.ljust, row, widths)).rstrip() + "\n"
             for row in chain([headers, ["-" * w for w in widths]], rows))
    for chunk in iter(lambda: "".join(islice(lines, _CHUNK)), ""):
        write(chunk)


def render_csv(headers: Sequence[str], rows: Iterable[Sequence[str]],
               write: Write) -> None:
    rows = chain([headers], rows)
    while chunk := list(islice(rows, _CHUNK)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(chunk)
        write(buf.getvalue())


_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


class _Records:
    """A JSON list of dicts that all have `keys`, in that order: each of
    `rows` holds one dict's values.  `render_json` writes it as
    ``[dict(zip(keys, row)) for row in rows]`` and builds no dict."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys: Sequence[str], rows: Iterable[Sequence[object]]):
        if len(set(keys)) != len(keys):
            raise ValueError(f"record keys repeat: {keys!r}")
        self.keys, self.rows = tuple(keys), rows


class _KeyPrefixes(dict):
    """The encoded `"key": ` of each dict key, made once per document."""

    def __missing__(self, key: str) -> str:
        prefix = self[key] = _encode_str(key) + ": "
        return prefix


def render_json(obj: object, write: Write) -> None:
    """Write ``json.dumps(obj, indent=2, ensure_ascii=False)`` plus a newline.

    An iterator renders as a list, and a `_Records` as its list of dicts.
    The document's dicts are written member by member and its lists
    _CHUNK members per write, as they are consumed, so a generator of rows
    is never held whole.  Each list member is one join of its own members'
    strings, and each record one ``%`` of the frame made once for its keys
    and depth; strings and scalars go through ``json``'s C encoders (with
    an indent, ``json`` itself encodes through its pure-Python generator).
    Every dict key must be a str, as in every document the CLI builds; any
    other raises TypeError, as does a record row of the wrong length.
    """
    prefixes = _KeyPrefixes()
    frames: dict[tuple[tuple[str, ...], str], str] = {}

    def records(o: _Records, newline: str) -> Iterator[str]:
        """The encoded records of `o`, each a dict at depth `newline`."""
        inner = newline + "  "
        frame = frames.get((o.keys, newline))
        if frame is None:
            # each % of a key doubled, so that only the %s slots format
            slots = [prefixes[k].replace("%", "%%") + "%s" for k in o.keys]
            frame = frames[o.keys, newline] = (
                "{" + inner + ("," + inner).join(slots) + newline + "}"
                if slots else "{}")
        return (frame % tuple([_encode_str(v) if isinstance(v, str)
                               else encode(v, inner) for v in row])
                for row in o.rows)

    def encode(o: object, newline: str) -> str:
        if isinstance(o, str):
            return _encode_str(o)
        inner = newline + "  "
        if isinstance(o, dict):
            brackets = "{}"
            members = [prefixes[k] + (_encode_str(v) if isinstance(v, str)
                                      else encode(v, inner))
                       for k, v in o.items()]
        elif isinstance(o, (list, tuple, Iterator)):
            brackets = "[]"
            members = [_encode_str(v) if isinstance(v, str)
                       else encode(v, inner) for v in o]
        elif isinstance(o, _Records):
            brackets = "[]"
            members = list(records(o, inner))
        else:
            return _encode_scalar(o)
        if not members:
            return brackets
        return (brackets[0] + inner + ("," + inner).join(members)
                + newline + brackets[1])

    def stream(o: object, newline: str) -> Iterator[str]:
        """`encode(o, newline)` in pieces, down to the members of lists."""
        inner = newline + "  "
        if isinstance(o, dict):
            sep = "{" + inner
            for k, v in o.items():
                yield sep + prefixes[k]
                yield from stream(v, inner)
                sep = "," + inner
            yield "{}" if sep[0] == "{" else newline + "}"
        elif isinstance(o, (list, tuple, Iterator, _Records)):
            sep = "[" + inner
            members = (records(o, inner) if isinstance(o, _Records)
                       else map(encode, o, repeat(inner)))
            while chunk := list(islice(members, _CHUNK)):
                yield sep + ("," + inner).join(chunk)
                sep = "," + inner
            yield "[]" if sep[0] == "[" else newline + "]"
        else:
            yield encode(o, newline)

    for piece in stream(obj, "\n"):
        write(piece)
    write("\n")


def _render(fmt: str, doc: Callable[[], object],
            headers: Sequence[str] = (),
            rows: Iterable[Sequence[str]] | None = (),
            text: Emit | None = None) -> Emit:
    """The emitter that writes the command's output in format `fmt`; the
    only reader of --format.

    `doc` and the emitter `text` run only when the returned emitter does,
    and only in their format, so a table or csv run never builds the JSON
    document.  `rows` is None for a netlist, which has no csv form; that
    error is raised here, before anything is written.
    """
    if fmt == "json":
        return lambda write: render_json(doc(), write)
    if fmt == "csv":
        if rows is None:
            raise Gf2mError("netlists have no csv form; use table or json")
        return lambda write: render_csv(headers, rows, write)
    return text or (lambda write: render_table(headers, rows, write))


def _render_netlist(fmt: str, netlist: XorNetlist) -> Emit:
    return _render(fmt, netlist.to_json, rows=None,
                   text=lambda write: write(netlist.serialize()))


def _render_items(fmt: str, doc: Callable[[], object],
                  items: Sequence[tuple[str, str]]) -> Emit:
    """A key/value report: a key,value grid, or `key = value` lines."""
    return _render(fmt, doc, ["key", "value"], items, lambda write: write(
        "".join(f"{key} = {value}\n" for key, value in items)))


def _make_field(m: int, poly_text: str | None = None) -> GF2m:
    poly = Gf2Poly.parse(poly_text) if poly_text is not None else None
    return GF2m(m, poly)


# -- subcommand handlers (each returns the emitter of its output) ------------

def cmd_field_table(args: argparse.Namespace) -> Emit:
    field = _make_field(args.m, args.poly)
    headers, rows = ("power", "polynomial", "vector"), field.table_rows()
    return _render(args.format, lambda: {
        "m": field.m,
        "prime_poly": field.prime_poly.to_binary(),
        "rows": _Records(headers, rows),
    }, headers, rows)


def cmd_minpolys(args: argparse.Namespace) -> Emit:
    field = _make_field(args.m)
    n = field.order - 1

    def row(labels, b):
        mp = algebra.minimal_polynomial(b)
        return (labels, mp.to_terms("X", ascending=True, spaced=True),
                mp.to_binary())

    classes = [row([str(PowerForm.ZERO)], field.zero)]
    seen = bytearray(n)
    for e in range(n):
        if seen[e]:
            continue
        # the class of alpha^e is its exponent orbit e * 2^k mod n
        orbit = [e]
        while (k := 2 * orbit[-1] % n) != e:
            orbit.append(k)
        for k in orbit:
            seen[k] = 1
        classes.append(row([f"α^{k}" for k in sorted(orbit)], field.alpha(e)))
    return _render(args.format, lambda: {
        "m": field.m,
        "classes": _Records(("elements", "minimal_polynomial", "binary"),
                            classes),
    }, ["elements", "minimal polynomial", "binary"],
        ((", ".join(labels), terms, binary)
         for labels, terms, binary in classes))


def cmd_bases(args: argparse.Namespace) -> Emit:
    field = _make_field(args.m)
    _, dual, normal = algebra._table_bases(field)
    powers = [PowerForm.ZERO] + [PowerForm(e) for e in range(field.order - 1)]
    headers = ("power", "standard", "dual", "normal")
    rows = [(str(power),
             "".join(map(str, t.standard)),
             "".join(map(str, t.dual)),
             "".join(map(str, t.normal)))
            for power, (_, t) in zip(powers, algebra.basis_table(field))]
    return _render(args.format, lambda: {
        "m": field.m,
        "dual_basis": [e.vector_str() for e in dual],
        "normal_basis": [str(e.power) for e in normal],
        "rows": _Records(headers, rows),
    }, headers, rows)


def cmd_constmul(args: argparse.Namespace) -> Emit:
    field = _make_field(args.m)
    power = args.power
    z = mastrovito.constant_mul_matrix(field, power)
    if args.emit == "netlist":
        return _render_netlist(args.format, mastrovito.emit_netlist(z))
    count = mastrovito.xor_count(z)
    estimate = str(mastrovito.xor_count_estimate(field.m))
    if args.emit == "count":
        return _render_items(args.format, lambda: {
            "m": field.m, "power": power, "xor_count": count,
            "estimate": estimate,
        }, [("xor_count", str(count)), ("estimate", estimate)])
    equations = mastrovito._row_equations(z, "a")
    return _render(args.format, lambda: {
        "m": field.m, "power": power, "equations": equations,
        "xor_count": count, "estimate": estimate,
    }, ["output", "terms"], [eq.split(" = ", 1) for eq in equations],
        lambda write: write("\n".join(equations) + "\n"))


def cmd_mastrovito(args: argparse.Namespace) -> Emit:
    field = _make_field(args.m)
    a = None if args.a is None else field.element(args.a)
    if args.emit == "netlist":
        return _render_netlist(args.format,
                               mastrovito.general_multiplier_netlist(field))
    if args.emit == "symbolic":
        sym = mastrovito.symbolic_z_matrix(field)
        return _render(args.format, lambda: {
            "m": field.m,
            "entries": [[list(ks) for ks in row] for row in sym],
        }, ["row"] + [f"b{j}" for j in range(field.m)],
            [[f"z{i}"] + [" + ".join(f"a{k}" for k in ks) or "0"
                          for ks in row]
             for i, row in enumerate(sym)])
    if a is None:
        raise Gf2mError("--emit matrix needs the fixed operand --a")
    z = mastrovito.build_z_matrix(a)
    bits = [format(row, f"0{field.m}b")[::-1] for row in z.rows]
    equations = mastrovito._row_equations(z, "b")
    return _render(args.format, lambda: {
        "m": field.m, "a": a.vector_str(), "rows": bits, "equations": equations,
    }, ["row", "bits", "equation"],
        [(f"z{i}", bits[i], equations[i]) for i in range(field.m)])


def cmd_lfsr_divide(args: argparse.Namespace) -> Emit:
    g = Gf2Poly.parse(args.g)
    p = Gf2Poly.parse(args.p)
    remainder, trace = lfsr_mod.divide(p, g)
    d = g.bits.bit_length() - 1
    headers = ["clock", "input"] + [f"X{i}" for i in range(d)]
    # formatted only by the one format that writes them: csv or --trace table
    rows = chain([["0", "-"] + ["0"] * d], (
        [str(r.clock), "01"[r.input_bit]] + ["01"[b] for b in r.regs_after]
        for r in trace))
    remainder_line = (f"remainder = {remainder.to_binary()} "
                      f"({remainder.to_terms('X')})\n")
    # --format json wins; otherwise --trace csv|table overrides --format
    fmt = "json" if args.format == "json" else args.trace or args.format

    def text(write: Write) -> None:
        if args.trace:
            render_table(headers, rows, write)
        write(remainder_line)

    return _render(fmt, lambda: {
        "g": g.to_binary(), "p": p.to_binary(),
        "remainder": remainder.to_binary(),
        "remainder_terms": remainder.to_terms("X"),
        "rows": _Records(("clock", "input", "regs"), (
            (r.clock, r.input_bit, r.regs_after) for r in trace)),
    }, headers, rows, text)


def cmd_code_analyze(args: argparse.Namespace) -> Emit:
    try:
        with open(args.words, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise Gf2mError(f"cannot read {args.words}: {exc}") from None
    words = [ln for ln in lines if ln and not ln.startswith("#")]
    book = code_metrics.CodeBook.from_words(words)
    report = code_metrics.analyze(book)
    items = [(key, str(value)) for key, value in report.items()
             if value is not None]
    return _render_items(args.format, lambda: dict(items), items)


def cmd_report_gates(args: argparse.Namespace) -> Emit:
    if args.k is not None:
        report = mastrovito.complexity_report(args.m, args.k)
        headers = ["design", "AND", "NAND", "XOR", "delay"]
        keys = ("design", "and", "nand", "xor", "delay")
        rows = list(report.literature) + list(report.measured)

        def text(write: Write) -> None:
            write(f"multiplier complexity over x^{report.m} + x^{report.k} + 1 "
                  f"(m = {report.m}, k = {report.k})\n\n")
            render_table(headers, rows, write)
            write("\n" + "".join(f"note: {n}\n" for n in report.notes))

        return _render(args.format, lambda: {
            "m": report.m, "k": report.k,
            "literature": _Records(keys, report.literature),
            "measured": _Records(keys, report.measured),
            "notes": list(report.notes),
        }, headers, rows, text)
    field = _make_field(args.m)
    estimate = str(mastrovito.xor_count_estimate(field.m))
    counts = [(str(PowerForm(i)), count) for i, count
              in enumerate(mastrovito.constant_xor_counts(field))]
    headers = ["power", "xor_count"]
    rows = [(p, str(c)) for p, c in counts]

    def text(write: Write) -> None:
        render_table(headers, rows, write)
        write(f"estimate = {estimate}\n")

    return _render(args.format, lambda: {
        "m": field.m, "estimate": estimate,
        "counts": _Records(headers, counts),
    }, headers, rows + [("estimate", estimate)], text)


def cmd_errata(args: argparse.Namespace) -> Emit:
    headers = ("id", "where", "published", "computed", "note")
    rows = [(e.eid, e.where, e.published, e.computed, e.note) for e in ERRATA]
    return _render(
        args.format, lambda: {"errata": _Records(headers, rows)}, headers,
        rows, lambda write: write("\n".join(f"{e.eid}: {e.where}\n"
                                            f"  published: {e.published}\n"
                                            f"  computed:  {e.computed}\n"
                                            f"  note: {e.note}\n"
                                            for e in ERRATA)))


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["table", "csv", "json"],
                     default="table", help="output format (default: table)")

    parser = argparse.ArgumentParser(
        prog="gf2m",
        description="GF(2^m) arithmetic tables, multiplier netlists, "
                    "and gate-count reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    field_p = sub.add_parser("field", help="field-level tables")
    field_sub = field_p.add_subparsers(dest="subcommand", required=True)
    ft = field_sub.add_parser("table", parents=[fmt],
                              help="power/polynomial/vector table")
    ft.add_argument("--m", type=int, required=True, help="extension degree")
    ft.add_argument("--poly", help="defining polynomial (default: registry)")
    ft.set_defaults(handler=cmd_field_table)

    mp = sub.add_parser("minpolys", parents=[fmt],
                        help="minimal polynomials by conjugacy class")
    mp.add_argument("--m", type=int, required=True)
    mp.set_defaults(handler=cmd_minpolys)

    ba = sub.add_parser("bases", parents=[fmt],
                        help="standard/dual/normal coordinates")
    ba.add_argument("--m", type=int, required=True)
    ba.set_defaults(handler=cmd_bases)

    cm = sub.add_parser("constmul", parents=[fmt],
                        help="constant multiplier for alpha^power")
    cm.add_argument("--m", type=int, required=True)
    cm.add_argument("--power", type=int, required=True,
                    help="exponent i of the constant alpha^i")
    cm.add_argument("--emit", choices=["equations", "netlist", "count"],
                    default="equations")
    cm.set_defaults(handler=cmd_constmul)

    ma = sub.add_parser("mastrovito", parents=[fmt],
                        help="product matrix or general multiplier netlist")
    ma.add_argument("--m", type=int, required=True)
    ma.add_argument("--a", help="fixed operand (binary, 0x hex, or x^ terms);"
                    " needed by --emit matrix")
    ma.add_argument("--emit", choices=["matrix", "netlist", "symbolic"],
                    default="matrix")
    ma.set_defaults(handler=cmd_mastrovito)

    lf = sub.add_parser("lfsr", help="shift-register computations")
    lf_sub = lf.add_subparsers(dest="subcommand", required=True)
    dv = lf_sub.add_parser("divide", parents=[fmt],
                           help="divide p by g on the divider register")
    dv.add_argument("--g", required=True, help="divisor polynomial")
    dv.add_argument("--p", required=True, help="dividend polynomial")
    dv.add_argument("--trace", choices=["table", "csv"],
                    help="print the per-clock register trace")
    dv.set_defaults(handler=cmd_lfsr_divide)

    co = sub.add_parser("code", help="block-code measurements")
    co_sub = co.add_subparsers(dest="subcommand", required=True)
    an = co_sub.add_parser("analyze", parents=[fmt],
                           help="distance/rate report for a word list")
    an.add_argument("--words", required=True,
                    help="file with one binary codeword per line")
    an.set_defaults(handler=cmd_code_analyze)

    rp = sub.add_parser("report", help="gate-count reports")
    rp_sub = rp.add_subparsers(dest="subcommand", required=True)
    rg = rp_sub.add_parser("gates", parents=[fmt],
                           help="XOR counts per constant, or --k for the "
                                "trinomial complexity table")
    rg.add_argument("--m", type=int, required=True)
    rg.add_argument("--k", type=int,
                    help="middle exponent of x^m + x^k + 1")
    rg.set_defaults(handler=cmd_report_gates)

    er = sub.add_parser("errata", parents=[fmt],
                        help="published-vs-computed discrepancy registry")
    er.set_defaults(handler=cmd_errata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        emit = args.handler(args)
        emit(sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: stop, and send what is still buffered
        # to devnull, so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Gf2mError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: invariant breach = 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0
