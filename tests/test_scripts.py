"""Smoke tests of the example scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import fluxline
from fluxline import io as fio

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    src = str(Path(fluxline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_reset_roundtrip_script_runs():
    proc = _run_script("run_reset_roundtrip.py", "2000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("T1_ge") == 2
    assert "saturation: fit" in proc.stdout


def test_filter_sweep_script_writes_the_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_script("run_filter_sweep.py", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == fio.SWEEP_HEADER
    assert len(lines) == 1 + 201
