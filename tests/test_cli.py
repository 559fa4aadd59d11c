"""End-to-end CLI runs compared byte-for-byte against golden files."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import golden

from gf2m import Gf2Poly, divide
from gf2m.cli import _CHUNK, _Records, main, render_json, render_table

DATA_DIR = Path(__file__).parent / "data"


WORDS = str(DATA_DIR / "repetition_code.txt")
DIVIDE = ["lfsr", "divide", "--g", "101101", "--p", "11001110"]

GOLDEN_CASES = [
    ("field_table_m4.txt", ["field", "table", "--m", "4"]),
    ("field_table_m4.csv", ["field", "table", "--m", "4", "--format", "csv"]),
    ("field_table_m4.json", ["field", "table", "--m", "4", "--format", "json"]),
    ("field_table_m3.txt", ["field", "table", "--m", "3"]),
    ("minpolys_m4.txt", ["minpolys", "--m", "4"]),
    ("minpolys_m4.csv", ["minpolys", "--m", "4", "--format", "csv"]),
    ("minpolys_m4.json", ["minpolys", "--m", "4", "--format", "json"]),
    ("bases_m4.txt", ["bases", "--m", "4"]),
    ("bases_m4.csv", ["bases", "--m", "4", "--format", "csv"]),
    ("bases_m4.json", ["bases", "--m", "4", "--format", "json"]),
    ("constmul_a13_equations.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "equations"]),
    ("constmul_a13_equations.csv",
     ["constmul", "--m", "4", "--power", "13", "--format", "csv"]),
    ("constmul_a13_equations.json",
     ["constmul", "--m", "4", "--power", "13", "--format", "json"]),
    ("constmul_a13_count.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "count"]),
    ("constmul_a13_count.csv",
     ["constmul", "--m", "4", "--power", "13", "--emit", "count",
      "--format", "csv"]),
    ("constmul_a13_count.json",
     ["constmul", "--m", "4", "--power", "13", "--emit", "count",
      "--format", "json"]),
    ("constmul_a13_netlist.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "netlist"]),
    ("constmul_a13_netlist.json",
     ["constmul", "--m", "4", "--power", "13", "--emit", "netlist",
      "--format", "json"]),
    ("mastrovito_a0110_m4.txt", ["mastrovito", "--m", "4", "--a", "0110"]),
    ("mastrovito_a0110_m4.csv",
     ["mastrovito", "--m", "4", "--a", "0110", "--format", "csv"]),
    ("mastrovito_a0110_m4.json",
     ["mastrovito", "--m", "4", "--a", "0110", "--format", "json"]),
    ("mastrovito_symbolic_m4.txt",
     ["mastrovito", "--m", "4", "--a", "0110", "--emit", "symbolic"]),
    ("mastrovito_symbolic_m4.csv",
     ["mastrovito", "--m", "4", "--a", "0110", "--emit", "symbolic",
      "--format", "csv"]),
    ("mastrovito_symbolic_m4.json",
     ["mastrovito", "--m", "4", "--a", "0110", "--emit", "symbolic",
      "--format", "json"]),
    ("mastrovito_netlist_m4.txt",
     ["mastrovito", "--m", "4", "--a", "0110", "--emit", "netlist"]),
    ("mastrovito_netlist_m4.json",
     ["mastrovito", "--m", "4", "--a", "0110", "--emit", "netlist",
      "--format", "json"]),
    # the netlist does not depend on --a, so it may be left out
    ("mastrovito_netlist_m4.txt",
     ["mastrovito", "--m", "4", "--emit", "netlist"]),
    ("lfsr_divide_table.txt", DIVIDE + ["--trace", "table"]),
    ("lfsr_divide_trace.csv", DIVIDE + ["--trace", "csv"]),
    ("lfsr_divide_remainder.txt", DIVIDE),
    ("lfsr_divide_format.csv", DIVIDE + ["--format", "csv"]),
    ("lfsr_divide.json", DIVIDE + ["--format", "json"]),
    # --format json wins over --trace; otherwise --trace wins over --format
    ("lfsr_divide_trace_table_format_json.json",
     DIVIDE + ["--trace", "table", "--format", "json"]),
    ("lfsr_divide_trace_table_format_csv.txt",
     DIVIDE + ["--trace", "table", "--format", "csv"]),
    ("lfsr_divide_trace_csv_format_table.csv",
     DIVIDE + ["--trace", "csv", "--format", "table"]),
    ("code_analyze_repetition.txt", ["code", "analyze", "--words", WORDS]),
    ("code_analyze_repetition.csv",
     ["code", "analyze", "--words", WORDS, "--format", "csv"]),
    ("code_analyze_repetition.json",
     ["code", "analyze", "--words", WORDS, "--format", "json"]),
    ("report_gates_m4.txt", ["report", "gates", "--m", "4"]),
    ("report_gates_m4.csv", ["report", "gates", "--m", "4", "--format", "csv"]),
    ("report_gates_m4.json",
     ["report", "gates", "--m", "4", "--format", "json"]),
    ("report_gates_m5_k2.txt", ["report", "gates", "--m", "5", "--k", "2"]),
    ("report_gates_m5_k2.csv",
     ["report", "gates", "--m", "5", "--k", "2", "--format", "csv"]),
    ("report_gates_m5_k2.json",
     ["report", "gates", "--m", "5", "--k", "2", "--format", "json"]),
    ("errata.txt", ["errata"]),
    ("errata.csv", ["errata", "--format", "csv"]),
    ("errata.json", ["errata", "--format", "json"]),
]


def _case_ids(cases):
    """Each case's golden name, extended by its command where an earlier
    case already prints that golden, so that ids stay unique and stable."""
    ids = []
    for name, args in cases:
        ids.append("-".join([name, *(a.lstrip("-") for a in args)])
                   if name in ids else name)
    return ids


@pytest.mark.parametrize("name,args", GOLDEN_CASES,
                         ids=_case_ids(GOLDEN_CASES))
def test_golden_outputs(capsys, name, args):
    # In-process: the subprocess tests below cover ``python -m gf2m``.
    assert main(args) == 0
    assert capsys.readouterr() == (golden(name), "")


def test_report_gates_m13_digest(capsys):
    # sha256 of the output before the XOR counts came from the antilog table
    assert main(["report", "gates", "--m", "13"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e0fc21f282a59381b974e6b36a186d073106f0b965cef56d6c1212772a47f626")


def test_field_table_m15_json_digest(capsys):
    # sha256 of the output of json.dumps and per-element row formatting
    assert main(["field", "table", "--m", "15", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5fc1c611b277cbe8f9c46835d506e4520fae263b9f2f50c0da1caa3c59ee4400")


def test_identical_invocations_are_byte_identical(cli):
    first = cli("bases", "--m", "4", "--format", "json").stdout
    second = cli("bases", "--m", "4", "--format", "json").stdout
    assert first == second


# -- output format details ---------------------------------------------------------

def test_json_outputs_parse_and_keep_key_order(cli):
    out = cli("field", "table", "--m", "4", "--format", "json").stdout
    doc = json.loads(out)
    assert list(doc.keys()) == ["m", "prime_poly", "rows"]
    assert doc["prime_poly"] == "10011"
    assert len(doc["rows"]) == 16
    assert list(doc["rows"][0].keys()) == ["power", "polynomial", "vector"]

    out = cli("lfsr", "divide", "--g", "101101", "--p", "11001110",
              "--format", "json").stdout
    doc = json.loads(out)
    assert doc["remainder"] == "1101"
    assert len(doc["rows"]) == 8

    out = cli("errata", "--format", "json").stdout
    doc = json.loads(out)
    assert len(doc["errata"]) >= 4


# strings with non-ASCII, quote, backslash and control characters
json_text = st.text(st.sampled_from(
    "ab\u00e9\u03b1\U0001d400\"\\\n\t\x00\x1f\u2028 "))
# floats include nan and inf, which json writes as NaN and Infinity
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | json_text)
json_values = st.recursive(json_scalars, lambda inner: (
    st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(json_text, inner, max_size=4)), max_leaves=20)


def _rendered(value) -> str:
    out = io.StringIO()
    render_json(value, out.write)
    return out.getvalue()


def _lists_as_iterators(value):
    """`value` with each list, at any depth, replaced by an iterator."""
    if isinstance(value, list):
        return iter([_lists_as_iterators(v) for v in value])
    if isinstance(value, tuple):
        return tuple(_lists_as_iterators(v) for v in value)
    if isinstance(value, dict):
        return {k: _lists_as_iterators(v) for k, v in value.items()}
    return value


@given(json_values)
def test_render_json_matches_json_dumps(value):
    assert _rendered(value) == json.dumps(
        value, indent=2, ensure_ascii=False) + "\n"


@given(json_values)
def test_render_json_renders_iterators_as_lists(value):
    assert _rendered(_lists_as_iterators(value)) == json.dumps(
        value, indent=2, ensure_ascii=False) + "\n"


# unique keys, some with the % that record frames must escape
record_keys = st.lists(json_text | st.text(st.sampled_from('%s"\\\u00e9')),
                       unique=True, max_size=4)
records = record_keys.flatmap(lambda keys: st.tuples(st.just(keys), st.lists(
    st.lists(json_values, min_size=len(keys), max_size=len(keys)),
    max_size=4)))
# where a record list sits: `make()` gives a new one, and `rec(keys, rows)`
# is a record list whose rows hold one; "depths" has the same keys at two
# depths, each with its own frame
RECORD_NESTINGS = {
    "top": lambda make, rec: make(),
    "dict": lambda make, rec: {"m": 4, "rows": make()},
    "list": lambda make, rec: [None, make()],
    "record": lambda make, rec: rec(("r", "s"), [(make(), None)]),
    "depths": lambda make, rec: {"a": make(), "b": [make()]},
}


def _dicts(keys, rows):
    return [dict(zip(keys, row)) for row in rows]


@given(records, st.booleans(), st.sampled_from(sorted(RECORD_NESTINGS)))
def test_render_json_renders_records_as_their_dicts(keys_rows, lazy, nesting):
    keys, rows = keys_rows
    nest = RECORD_NESTINGS[nesting]
    doc = nest(lambda: _Records(keys, iter(rows) if lazy else rows), _Records)
    assert _rendered(doc) == json.dumps(
        nest(lambda: _dicts(keys, rows), _dicts),
        indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("doc,plain", [
    (_Records(("a",), []), []),
    ({"rows": _Records(("a", "b"), iter([]))}, {"rows": []}),
    ([_Records((), [])], [[]]),
    (_Records((), [(), ()]), [{}, {}]),
])
def test_render_json_renders_empty_records(doc, plain):
    assert _rendered(doc) == json.dumps(plain, indent=2) + "\n"


def test_render_json_writes_a_long_list_in_chunks():
    rows = [{"power": str(k), "vector": format(k, "b")} for k in range(5000)]
    writes = []
    render_json({"m": 4, "rows": iter(rows), "empty": iter([]),
                 "records": _Records(("power", "vector"),
                                     iter([tuple(r.values()) for r in rows]))},
                writes.append)
    assert "".join(writes) == json.dumps(
        {"m": 4, "rows": rows, "empty": [], "records": rows}, indent=2) + "\n"
    # one write per chunk of rows or records, and never more than a chunk
    # in a write
    assert max(w.count('"power"') for w in writes) == _CHUNK
    assert len(writes) < 30


def test_render_json_renders_nested_records_past_a_chunk():
    # a record list and a dict inside a list are encoded whole, through the
    # streaming walker; no Hypothesis list is long enough to reach a chunk
    keys = ("k", "bits", "meta")
    rows = [(k, [k & 1, str(k)], {"n": k, "s": "é%s"}) for k in
            range(2 * _CHUNK + 5)]
    inner = [("x", 1), ("y", [2, None])]
    doc = [_Records(keys, iter(rows)),
           {"a": 1.5, "records": _Records(("p", "q"), inner)}]
    assert _rendered(doc) == json.dumps(
        [_dicts(keys, rows), {"a": 1.5, "records": _dicts(("p", "q"), inner)}],
        indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("keys,row", [
    (("a", "b"), ("x",)), (("a", "b"), ("x", 1, None)), ((), ("x",)),
    (("a",), ()),
])
@pytest.mark.parametrize("nest", [lambda x: x, lambda x: [x]],
                         ids=["streamed", "nested"])
def test_render_json_rejects_a_record_row_of_the_wrong_length(keys, row, nest):
    with pytest.raises(TypeError):
        render_json(nest(_Records(keys, [("",) * len(keys), row])),
                    io.StringIO().write)


def test_records_reject_repeated_keys():
    with pytest.raises(ValueError, match="repeat"):
        _Records(("power", "vector", "power"), [])


# json.dumps rejects the first two too; it would quote the last two keys,
# but no document the CLI builds has a key other than a str
@pytest.mark.parametrize("value", [{(1, 2): 3}, [object()], {1: 0}, {None: 0}])
def test_render_json_rejects_non_json_values_and_non_str_keys(value):
    with pytest.raises(TypeError):
        render_json(value, io.StringIO().write)


class _CountingSink:
    """A text stdout that counts the UTF-8 bytes written and keeps none."""

    def __init__(self):
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("m,fmt,size", [
    pytest.param(16, "json", 9983194, id="json-9983194"),
    pytest.param(16, "csv", 5264559, id="csv-5264559"),
    # past one _CHUNK of the antilog table: the rows walk it chunk by chunk
    pytest.param(18, "csv", 23875086, id="m18-csv-23875086"),
])
def test_field_table_is_never_held_whole(monkeypatch, m, fmt, size):
    # numpy's first import allocates about 6 MiB; it is not the table's
    import numpy  # noqa: F401

    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        status = main(["field", "table", "--m", str(m), "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sink.bytes == size
    # the whole output is 5-24 MB as UTF-8, and far more as str objects
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("fmt,size", [("csv", 952968), ("json", 1974654)])
def test_minpolys_streams_its_classes(monkeypatch, fmt, size):
    import numpy  # noqa: F401 - its first import is not the classes'

    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        status = main(["minpolys", "--m", "16", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sink.bytes == size
    # 9.4 (csv) and 11.5 MiB (json) with every class held before the first
    # write; 2.9 and 4.6 MiB streamed
    assert peak < 7 << 20, peak


def test_lfsr_divide_formats_no_trace_row_it_does_not_write(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        status = main(["lfsr", "divide", "--g", "x^512+1", "--p", "x^2000+1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    # x^2000 = x^(2000 - 3 * 512) mod x^512 + 1
    assert out.getvalue() == f"remainder = 1{'0' * 463}1 (X^464+1)\n"
    # 65 MiB with every clock's row formatted as strings, and 8.4 MiB while
    # lfsr.divide kept a tuple of stages per clock; 0.65 MiB with one int
    # word per clock
    assert peak < 2 << 20, peak


# register degrees on each side of a stage header's change of width (X9,
# X10; X99, X100) and of a register byte's end (8, 16)
@pytest.mark.parametrize("d", [1, 7, 8, 9, 10, 11, 16, 17, 100, 101])
def test_lfsr_trace_matches_one_cell_per_stage(capsys, d):
    rng = random.Random(d)
    g = Gf2Poly(1 << d | rng.getrandbits(d) | 1)
    p = Gf2Poly(rng.getrandbits(3 * d + 20))
    _, trace = divide(p, g)
    # the oracle: one cell per stage, read from the public stage tuples
    headers = ["clock", "input"] + [f"X{i}" for i in range(d)]
    cells = [["0", "-"] + ["0"] * d] + [
        [str(r.clock), str(r.input_bit), *map(str, r.regs_after)]
        for r in trace]
    table, grid = io.StringIO(), io.StringIO()
    render_table(headers, cells, table.write)
    csv.writer(grid, lineterminator="\n").writerows([headers, *cells])

    def run(*extra: str) -> str:
        assert main(["lfsr", "divide", "--g", g.to_binary(),
                     "--p", p.to_binary(), *extra]) == 0
        return capsys.readouterr().out

    assert run("--trace", "table") == table.getvalue() + run()
    assert run("--trace", "csv") == grid.getvalue()
    rows = json.loads(run("--format", "json"))["rows"]
    assert [row["regs"] for row in rows] == [list(r.regs_after)
                                             for r in trace]


# cell text without "|", the column separator's mark
table_text = st.text(st.sampled_from("ab X01-\u00e9\u03b1"), max_size=4)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(table_text, min_size=n, max_size=n),
    st.lists(st.lists(table_text, min_size=n, max_size=n), max_size=4),
    st.lists(st.integers(0, n), min_size=2, max_size=2,
             unique=True).map(sorted))))
def test_render_table_rules_each_column_of_a_spanning_header(table):
    headers, rows, (start, stop) = table
    spelled = io.StringIO()
    render_table(headers, rows, spelled.write)
    widths = [max(map(len, column)) for column in zip(headers, *rows)]

    def span(cells):
        """`cells` with columns start..stop-1 as one pre-padded cell."""
        joined = " | ".join(map(str.ljust, cells[start:stop],
                                widths[start:stop]))
        return [*cells[:start], joined, *cells[stop:]]

    spanned = io.StringIO()
    render_table(span(headers), [span(row) for row in rows], spanned.write)
    assert spanned.getvalue() == spelled.getvalue()


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("lines", [0, 1])
def test_a_reader_that_closes_the_pipe_early_ends_a_clean_run(fmt, lines):
    # 0: the pipe is closed before the first write; 1: after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "gf2m", "field", "table", "--m", "16",
         "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_custom_defining_polynomial(cli):
    out = cli("field", "table", "--m", "4", "--poly", "x^4+x^3+1").stdout
    assert "α^4" in out
    # over x^4 + x^3 + 1 the fourth power is alpha^3 + 1
    assert "α^4   | α^3 + 1" in out


def test_polynomials_accepted_in_all_three_encodings(cli):
    binary = cli("lfsr", "divide", "--g", "101101", "--p", "11001110").stdout
    hexed = cli("lfsr", "divide", "--g", "0x2d", "--p", "0xce").stdout
    terms = cli("lfsr", "divide", "--g", "x^5+x^3+x^2+1",
                "--p", "x^7+x^6+x^3+x^2+x").stdout
    assert binary == hexed == terms


def test_constmul_netlist_json(cli):
    out = cli("constmul", "--m", "4", "--power", "13", "--emit", "netlist",
              "--format", "json").stdout
    doc = json.loads(out)
    assert doc["counts"] == {"XOR": 3, "AND": 0, "NAND": 0}


def test_mastrovito_netlist_and_symbolic(cli):
    text = cli("mastrovito", "--m", "4", "--a", "0110",
               "--emit", "netlist").stdout
    assert "INPUT b_0" in text and "OUTPUT c_3" in text
    sym = cli("mastrovito", "--m", "4", "--a", "0110",
              "--emit", "symbolic").stdout
    assert "a0 + a3" in sym


def test_mastrovito_needs_a_only_for_the_matrix(capsys):
    assert main(["mastrovito", "--m", "4", "--emit", "matrix"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--a" in err
    # a given --a is still parsed, so a bad one fails before the netlist
    assert main(["mastrovito", "--m", "4", "--a", "10011",
                 "--emit", "netlist"]) == 2


def test_report_gates_past_the_degree_cap_exits_2(capsys):
    # x^m + x^k + 1 for this m would be a 128 GiB int
    assert main(["report", "gates", "--m", "1099511627776", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


@pytest.mark.parametrize("args", [
    ["mastrovito", "--m", "24", "--emit", "netlist", "--format", "json"],
    ["mastrovito", "--m", "20", "--a", "10110011100011110000",
     "--emit", "netlist"],
    ["constmul", "--m", "20", "--power", "12345", "--emit", "netlist"],
    ["constmul", "--m", "20", "--power", "12345", "--emit", "count"],
])
def test_phi_only_commands_build_no_table(capsys, forbid_table_build, args):
    # In-process, so that the patched build is the one the command runs.
    forbid_table_build()
    assert main(args) == 0, capsys.readouterr().err


def test_report_gates_with_k_prints_both_sections(cli):
    out = cli("report", "gates", "--m", "5", "--k", "2").stdout
    assert "SPB multiplier based on NAND" in out
    assert "measured parallel (this library)" in out
    assert "note:" in out


def test_code_analyze_skips_comments_and_blanks(cli, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("# a comment\n000\n\n111\n", encoding="utf-8")
    out = cli("code", "analyze", "--words", str(words)).stdout
    assert "d_min = 3" in out


def test_code_analyze_rejects_a_words_file_that_is_not_utf8(cli, tmp_path):
    words = tmp_path / "words.txt"
    words.write_bytes(b"\xff\xfe0101\n")
    err = cli("code", "analyze", "--words", str(words), expect=2).stderr
    assert err.startswith(f"error: cannot read {words}:")


def test_code_analyze_takes_k_from_the_words(cli):
    parity = str(DATA_DIR / "even_parity_code.txt")
    out = cli("code", "analyze", "--words", parity).stdout
    assert "k = 2" in out and "rate = 2/3" in out
    cli("code", "analyze", "--words", parity, "--k", "1", expect=2)


# -- exit codes ----------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["field", "table", "--m", "99"],
    ["field", "table", "--m", "4", "--poly", "10101"],
    ["minpolys", "--m", "1"],
    ["constmul", "--m", "4", "--power", "15"],
    ["constmul", "--m", "4", "--power", "13", "--emit", "netlist",
     "--format", "csv"],
    ["mastrovito", "--m", "4", "--a", "10011"],
    ["lfsr", "divide", "--g", "100", "--p", "101"],
    ["code", "analyze", "--words", "/nonexistent/words.txt"],
    ["report", "gates", "--m", "6", "--k", "2"],
    ["field", "table", "--m", "25", "--poly", "x^25+x^3+1"],
    ["lfsr", "divide", "--p", "1011", "--g", "x^99999999999+1"],
    ["field", "table", "--m", "4", "--poly", "x^4+x^4+x+1"],
    ["field", "table", "--m", "4", "--poly", "0x1_3"],
    ["field", "table", "--m", "4", "--poly", "x^\uff14+x+1"],
    ["field", "table", "--m", "3", "--poly", ""],
    ["field", "table", "--m", "4", "--poly", "0"],
])
def test_validation_errors_exit_2(cli, args):
    proc = cli(*args, expect=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_unknown_subcommand_exits_2(cli):
    proc = cli("frobnicate", expect=2)
    assert proc.stderr != ""


def test_missing_required_argument_exits_2(cli):
    cli("field", "table", expect=2)
