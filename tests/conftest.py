"""Shared fixtures: reference fields and an end-to-end CLI runner."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from gf2m import GF2m, Gf2Poly, is_primitive, primitive_poly

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def field3() -> GF2m:
    return GF2m(3)


@pytest.fixture(scope="session")
def field4() -> GF2m:
    return GF2m(4)


@pytest.fixture(scope="session")
def cli():
    """Run the installed CLI via ``python -m gf2m`` and capture its output."""

    def run(*args: str, expect: int | None = 0) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, "-m", "gf2m", *args],
            capture_output=True, text=True, encoding="utf-8")
        if expect is not None:
            assert proc.returncode == expect, (
                f"gf2m {' '.join(args)} exited {proc.returncode}: "
                f"{proc.stderr}")
        return proc

    return run


@pytest.fixture
def forbid_table_build(monkeypatch):
    """Call the returned function to make every later table build raise."""

    def forbid() -> None:
        def build(field):
            raise AssertionError(f"{field!r} built its tables")

        monkeypatch.setattr(GF2m, "_build_tables", build)

    return forbid


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def fields_up_to(top: int):
    """GF(2^m) for m = 2..top over the default polynomial and, where there
    is one, the least other primitive polynomial of degree m."""
    for m in range(2, top + 1):
        default = primitive_poly(m)
        yield GF2m(m, default)
        other = next((Gf2Poly(bits) for bits in range((1 << m) + 1, 2 << m, 2)
                      if bits != default.bits and is_primitive(Gf2Poly(bits))),
                     None)
        if other is not None:
            yield GF2m(m, other)
