"""Smoke tests of the example scripts in scripts/."""

import math
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
    # Neighbouring biases set the suppression, not rounding at the parked one.
    report = {line.split(":")[0].strip(): line.split(":")[1].split()
              for line in proc.stdout.splitlines() if ":" in line}
    rabi = float(report["Rabi suppression sqrt ratio"][0])
    assert 10.0 < rabi < 1e4
    # The range starts off the parked bias too, so it gives the suppression
    # back within the rounding of the three 4-digit numbers (about 5e-4).
    low, high = (float(report["coupling gamma_qf range"][k]) for k in (0, 2))
    assert low > 1.0
    assert abs(math.sqrt(high / low) - rabi) <= 1e-3 * rabi


def test_fit_temp_memory_script_reports_each_child():
    proc = _run_script("run_fit_temp_memory.py", "2e4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "20000 shots in 20 windows of 1000"
    assert [line.split()[0] for line in lines[1:]] == ["import", "generate", "fit-temp"]
    for line in lines[1:]:
        fields = line.split()
        assert fields[1] == "peak" and float(fields[2]) > 0 and fields[3] == "MB"
    assert all(len(line.split()[-1]) == 64 for line in lines[2:])


# The study's report at its default 181.072 mK (seed 42): the window generator
# and the fit pipeline must reproduce it to the printed digit.
THERMOMETRY_PRECISION_REPORT = """\
target temperature 181.072 mK, shot time 34.2 us
 N_shot  N_win  mu_T (mK)  sigma_T (mK)  NET (mK/rtHz)  (dT/T)_SM
   1000    400    182.359         7.294         1.3490      1.265
   2000    400    181.913         5.296         1.3851      1.302
   5000    300    181.507         3.199         1.3230      1.246
  10000    200    181.650         2.530         1.4794      1.393

four-level quantum Cramer-Rao bound on (dT/T)_SM: 1.252
two-level bound for comparison:                 2.178
"""


def test_thermometry_precision_script_reports_the_study():
    proc = _run_script("run_thermometry_precision.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == THERMOMETRY_PRECISION_REPORT
