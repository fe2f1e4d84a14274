"""Smoke runs of the study scripts in `scripts/` at tiny sizes, so that an API
change that breaks one of them fails here instead of going unseen."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcx

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["comb_scan.py", "--levels", "2", "3"],
    ["spiral_decompose.py", "--level", "3"],
    ["fuzz_duality.py", "--cases", "5"],
    ["decompose_rows.py", "--rows", "sierpinski_carpet:2", "cantor_comb:3"],
])
def test_study_script_runs(argv):
    src = str(Path(pcx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                       capture_output=True, text=True, env=env, timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip()
