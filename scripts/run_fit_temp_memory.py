#!/usr/bin/env python3
"""Peak memory of `generate` and `fit-temp` on N thermal shots.

Writes a `generate windows` config for N shots (windows of 1000 shots from
a ring of five unit-variance clusters 6 sigma apart, at 181.072 mK) and the
matching `fit-temp` config, then runs `generate` and `fit-temp` each in a
fresh child process.  Each child prints its own peak resident memory,
VmHWM from /proc/self/status, which a fresh process counts from zero; a
child's ru_maxrss instead starts at the value of the process that spawned
it.  An import-only child gives the floor.

Prints one line per child: its peak memory in MB (VmHWM kB / 1024), its
wall time and the sha256 of its output, so that two checkouts can be
compared byte for byte.  The files go to a temporary directory (about 39
bytes per shot for the CSV).  Linux only.

Usage: python scripts/run_fit_temp_memory.py N
"""

import hashlib
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WINDOW = 1000
LADDER = {"f_ge_ghz": 3.9514, "f_ef_ghz": 3.8167, "f_fh_ghz": 3.6730}

# Runs the CLI on its arguments, if any, then prints the process's VmHWM in kB.
CHILD = """
import sys
from fluxline.cli import main
rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


def ring_model() -> dict:
    labels = ("g", "e", "f", "h", "k+")
    radius = 6.0 / (2.0 * math.sin(math.pi / len(labels)))
    return {"components": {
        lab: {"mean": [radius * math.cos(2 * math.pi * i / len(labels)),
                       radius * math.sin(2 * math.pi * i / len(labels))],
              "cov": [[1.0, 0.0], [0.0, 1.0]], "weight": 1.0 / len(labels)}
        for i, lab in enumerate(labels)}}


def run_child(name: str, args: list[str], out: Path | None) -> None:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *args],
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{name} failed ({proc.returncode}): {proc.stderr.strip()}")
    peak_mb = int(proc.stdout.split()[-1]) / 1024.0
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out else "-"
    print(f"{name:<8} peak {peak_mb:8.1f} MB  {wall:7.2f} s  sha256 {digest}")


def main(n_shots: int) -> None:
    n_win = n_shots // WINDOW
    if n_win < 2:
        sys.exit(f"N must be at least {2 * WINDOW}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(json.dumps(ring_model()))
        (tmp / "generate.json").write_text(json.dumps({
            "generator": "windows", "ladder": LADDER, "cluster_model": ring_model(),
            "temperature_mk": 181.072, "n_win": n_win, "n_shot": WINDOW, "seed": 0}))
        (tmp / "fit-temp.json").write_text(json.dumps({
            "shots_csv": str(tmp / "shots.csv"), "model_json": str(tmp / "model.json"),
            "ladder": LADDER, "window": WINDOW, "t_shot_us": 34.2}))
        print(f"{n_win * WINDOW} shots in {n_win} windows of {WINDOW}")
        run_child("import", [], None)
        for command, out in (("generate", "shots.csv"), ("fit-temp", "temps.json")):
            run_child(command, [command, "--config", str(tmp / f"{command}.json"),
                                "--out", str(tmp / out)], tmp / out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1].strip())
    main(int(float(sys.argv[1])))
