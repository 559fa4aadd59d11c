"""End-to-end CLI runs compared byte-for-byte against golden files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import GOLDEN_DIR, golden

DATA_DIR = Path(__file__).parent / "data"


GOLDEN_CASES = [
    ("field_table_m4.txt", ["field", "table", "--m", "4"]),
    ("field_table_m4.csv", ["field", "table", "--m", "4", "--format", "csv"]),
    ("field_table_m4.json", ["field", "table", "--m", "4", "--format", "json"]),
    ("field_table_m3.txt", ["field", "table", "--m", "3"]),
    ("minpolys_m4.txt", ["minpolys", "--m", "4"]),
    ("bases_m4.txt", ["bases", "--m", "4"]),
    ("constmul_a13_equations.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "equations"]),
    ("constmul_a13_count.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "count"]),
    ("constmul_a13_netlist.txt",
     ["constmul", "--m", "4", "--power", "13", "--emit", "netlist"]),
    ("mastrovito_a0110_m4.txt", ["mastrovito", "--m", "4", "--a", "0110"]),
    ("lfsr_divide_table.txt",
     ["lfsr", "divide", "--g", "101101", "--p", "11001110",
      "--trace", "table"]),
    ("lfsr_divide_trace.csv",
     ["lfsr", "divide", "--g", "101101", "--p", "11001110", "--trace", "csv"]),
    ("lfsr_divide_remainder.txt",
     ["lfsr", "divide", "--g", "101101", "--p", "11001110"]),
    ("report_gates_m4.txt", ["report", "gates", "--m", "4"]),
    ("errata.txt", ["errata"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES,
                         ids=[name for name, _ in GOLDEN_CASES])
def test_golden_outputs(cli, name, args):
    proc = cli(*args)
    assert proc.stdout == golden(name)


def test_code_analyze_golden(cli):
    proc = cli("code", "analyze", "--words",
               str(DATA_DIR / "repetition_code.txt"))
    assert proc.stdout == golden("code_analyze_repetition.txt")


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
