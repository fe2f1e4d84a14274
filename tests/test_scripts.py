"""Smoke runs of the study scripts in `scripts/` at tiny sizes, so that an API
change that breaks one of them fails here instead of going unseen, and the
byte gate against the committed output manifest."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

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
    if argv[0] == "decompose_rows.py":  # the size metric, as `wc -l src/pcx/*.py` counts it
        counts = {f.name: f.read_bytes().count(b"\n") for f in Path(src, "pcx").glob("*.py")}
        assert p.stdout.splitlines()[0] == "src/pcx lines: " + ", ".join(
            f"{k} {counts[k]}" for k in sorted(counts)) + f"; total {sum(counts.values())}"


def test_decompose_rows_shows_a_failing_child():
    p = subprocess.run([sys.executable, str(ROOT / "scripts" / "decompose_rows.py"),
                        "--rows", "nosuchgen:3"], capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 2, p.stderr
    assert "unknown generator 'nosuchgen'" in p.stderr
    assert "CalledProcessError" not in p.stderr


def test_outputs_match_the_committed_manifest():
    """Every output of scripts/check_outputs.py, its exit code and its stderr
    text hash as scripts/outputs.sha256 records: the bytes of this checkout
    are pinned, not only compared with a parent's."""
    p = subprocess.run([sys.executable, str(ROOT / "scripts" / "check_outputs.py"),
                        "--manifest", str(ROOT / "scripts" / "outputs.sha256")],
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, (
        f"outputs differ from scripts/outputs.sha256 under numpy {np.__version__} "
        f"and scipy {scipy.__version__} (the manifest header names the versions "
        f"it was written with; float repr and label order depend on both)\n"
        + p.stdout + p.stderr)
