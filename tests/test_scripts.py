"""Smoke tests of the example scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import fluxline

ROOT = Path(__file__).resolve().parent.parent


def test_reset_roundtrip_script_runs():
    src = str(Path(fluxline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ROOT / "scripts" / "run_reset_roundtrip.py"
    proc = subprocess.run([sys.executable, str(script), "2000"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("T1_ge") == 2
    assert "saturation: fit" in proc.stdout
