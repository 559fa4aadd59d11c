"""Every script under demos/ runs to completion, and a demo with a golden
transcript (tests/golden/demo_<name>.txt) prints exactly that."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = ROOT / "tests" / "golden"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN_DIR / f"demo_{script.stem}.txt"
    if golden.exists():
        assert proc.stdout == golden.read_text()
