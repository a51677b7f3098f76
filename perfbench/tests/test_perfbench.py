"""Tests of the benchmark harness on tiny inputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
(about a minute; each case starts a few fresh interpreters).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload, trace, seed=5):
    out = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    return last_json(out.stdout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_prints_every_declared_metric_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in section}
            == {name: m["unit"] for name, m in result["metrics"].items()})
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_flipped_byte_in_generate_output_counts_as_failed(monkeypatch, capsys):
    summarize = wl.Generate.summarize
    seen = []

    def flip_second_output(self, out):
        seen.append(out)
        if len(seen) == 2:
            data = bytearray(out.read_bytes())
            data[-3] ^= 0x01
            out.write_bytes(bytes(data))
        return summarize(self, out)

    monkeypatch.setattr(wl.Generate, "summarize", flip_second_output)
    assert bench.main(["--workload", "generate", "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--tiny"]) == 0
    result = last_json(capsys.readouterr().out)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_traced_counts_agree_with_the_outputs():
    sweep = tiny("filter-sweep", 1)["metrics"]
    points = wl.SIZES["tiny"]["flux_points"]
    # The tiny grid's last point is half flux, where no filter root exists.
    assert sweep["network.error_rows"]["value"] == 1
    assert sweep["network.no_root_found"]["value"] == 1
    assert sweep["network.filter_frequency_exact_calls"]["value"] == points
    reset = tiny("fit-reset", 1)["metrics"]
    calls = reset["dynamics.populations_closed_form_calls"]["value"]
    assert calls > 0
    assert (reset["dynamics.time_points_evaluated"]["value"]
            == calls * wl.SIZES["tiny"]["t_points"])
    assert reset["io.rows_read"]["value"] == 3 * wl.SIZES["tiny"]["t_points"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("--workload", "generate", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
