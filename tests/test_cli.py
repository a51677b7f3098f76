"""Tests of the command-line front end: schemas, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fluxline
from fluxline import classify as cl
from fluxline import dynamics as dyn
from fluxline import fits
from fluxline import io as fio
from fluxline import network as nw
from fluxline import synth
from fluxline.cli import _FIT_MODELS, main
from fluxline.errors import RankDeficient

from conftest import LADDER_A, make_ring_model, model_curve
from test_dynamics import _deadline
from test_io import same_bytes

LADDER_CFG = LADDER_A

SWEEP_CFG = {
    "geometry": {"z0_ohm": 50.0, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5,
                 "x_s_mm": 2.0, "c_g_fF": 0.0, "c_d_fF": 4.4},
    "squid_array": {"n_squids": 5, "ic_junction_uA": 10.0},
    "qubit": {"f_q_GHz": 3.9, "c_q_fF": 143.0, "t1_internal_ms": 0.2},
    "drive_freq_GHz": 4.2,
    "flux_start": 0.0, "flux_stop": 0.45, "flux_points": 101,
    "mode": "clamped",
}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def model_dict():
    return fio.model_to_dict(make_ring_model())


def run_cli(command, config, out):
    """The finished ``fluxline COMMAND`` process, run apart so that its stderr
    holds numpy's warnings too, and a hang fails at the timeout."""
    src = str(Path(fluxline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "fluxline.cli", command,
                           "--config", config, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_unknown_command_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["filter-swep", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "invalid choice: 'filter-swep'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def exit_code(argv) -> int:
    """``main``'s return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestArgvReader:
    """The one grammar, COMMAND --config PATH --out PATH [--seed N]."""

    # argv (CFG and OUT stand for the paths), exit code, a stderr
    # substring, whether OUT was written.
    CASES = [
        (["generate", "--out", "OUT"], 2, "required: --config", False),
        (["generate", "--config", "CFG"], 2, "required: --out", False),
        (["generate", "--config", "CFG", "--out", "OUT", "--seed", "x"], 2,
         "argument --seed: invalid int value: 'x'", False),
        (["generate", "--config", "CFG", "--out", "OUT", "--seed"], 2,
         "argument --seed: expected one argument", False),
        (["generate", "--config", "--out", "OUT"], 2,
         "argument --config: expected one argument", False),
        (["generate", "--config=CFG", "--out=OUT"], 0, "", True),
        (["--seed", "43", "generate", "--config", "CFG", "--out", "OUT"], 0, "", True),
        (["--out", "OUT", "--seed=7", "--config", "CFG", "generate"], 0, "", True),
        (["generate", "fit-reset", "--config", "CFG", "--out", "OUT"], 2,
         "unrecognized arguments: fit-reset", False),
        (["generate", "--conf", "CFG", "--out", "OUT"], 2,
         "unrecognized arguments: --conf", False),
        (["--config", "CFG", "--out", "OUT"], 2, "required: COMMAND", False),
        (["generate", "--config", "CFG", "--out", "OUT", "-h"], 0, "", False),
        (["--help"], 0, "", False),
    ]

    @pytest.mark.parametrize("argv, code, stderr, written", CASES)
    def test_argument_lists(self, tmp_path, capsys, argv, code, stderr, written):
        cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 10, "n_shots_per_point": 500})
        out = tmp_path / "out.csv"
        argv = [a.replace("CFG", cfg).replace("OUT", str(out)) for a in argv]
        assert exit_code(argv) == code
        captured = capsys.readouterr()
        assert stderr in captured.err
        if code == 2:
            assert captured.err.startswith("usage: fluxline COMMAND --config PATH --out PATH")
            assert captured.err.endswith("\n") and captured.out == ""
        assert out.exists() == written

    def test_help_prints_the_usage_on_stdout(self, capsys):
        assert exit_code(["-h"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "usage: fluxline COMMAND --config PATH --out PATH [--seed N]",
            "commands: filter-sweep, fit-reset, fit-temp, fit-rb, fit-curve, classify,"
            " generate"]


class TestFilterSweep:
    def test_writes_header_and_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
        out = tmp_path / "sweep.csv"
        assert main(["filter-sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == fio.SWEEP_HEADER
        assert len(lines) == 1 + 101

    def test_row_error_marker_keeps_exit_zero(self, tmp_path, capsys):
        header = fio.SWEEP_HEADER.split(",")
        for mode, first_nan in (
                ("strict", "l_j_arr_H"),   # HalfFluxDivergence: the inductance fails
                ("clamped", "f_f_Hz")):    # NoRootFound: the clamped inductance is kept
            path = write_cfg(tmp_path, "cfg.json",
                             dict(SWEEP_CFG, flux_values=[0.3, 0.5], mode=mode))
            out = tmp_path / f"sweep-{mode}.csv"
            assert main(["filter-sweep", "--config", path, "--out", str(out)]) == 0
            assert capsys.readouterr().err == "1/2 flux points carry error markers\n"
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2
            assert all(math.isfinite(float(v)) for v in rows[0].values())
            cut = header.index(first_nan)
            assert all(math.isfinite(float(rows[1][k])) for k in header[:cut]), mode
            assert all(math.isnan(float(rows[1][k])) for k in header[cut:]), mode

    def test_overflowing_condition_writes_only_the_marker_line(self, tmp_path):
        # l_j_arr near 1e303 H: A l_s in the filter condition overflows to
        # +-inf, whose sign still brackets the root.  numpy's RuntimeWarning
        # goes to the process's stderr, so the command runs in its own process.
        cfg = dict(SWEEP_CFG, geometry=dict(SWEEP_CFG["geometry"], x_s_mm=5.525),
                   squid_array={"n_squids": 5, "ic_junction_uA": 1e-312}, flux_points=5)
        path, out = write_cfg(tmp_path, "cfg.json", cfg), tmp_path / "sweep.csv"
        proc = run_cli("filter-sweep", path, out)
        assert proc.returncode == 0
        assert proc.stderr == "5/5 flux points carry error markers\n"
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row["l_j_arr_H"]) > 1e302 for row in rows)
        assert all(math.isfinite(float(row["f_f_Hz"])) for row in rows)

    def test_overflowing_end_cap_writes_only_the_marker_line(self, tmp_path):
        # z0 w c_g overflows to inf, and to nan at c_g = 0: every point is
        # marked, and numpy's RuntimeWarnings stay out of stderr.
        cfg = dict(SWEEP_CFG, geometry=dict(SWEEP_CFG["geometry"], z0_ohm=1e308),
                   flux_points=5)
        proc = run_cli("filter-sweep", write_cfg(tmp_path, "cfg.json", cfg),
                       tmp_path / "sweep.csv")
        assert proc.returncode == 0
        assert proc.stderr == "5/5 flux points carry error markers\n"

    @pytest.mark.parametrize("change", [
        {"drive_freq_GHz": math.nan},
        {"drive_freq_GHz": math.inf},
        {"drive_freq_GHz": 0.0},
        {"drive_freq_GHz": -4.2},
        {"flux_values": [0.1, math.nan]},
        {"flux_values": [0.1, math.inf]},
        {"flux_start": math.nan},
        {"i_node_uA": math.nan},
        {"i_node_uA": -math.inf},
    ])
    def test_non_finite_or_bad_input_exit_1(self, tmp_path, capsys, change):
        path = write_cfg(tmp_path, "cfg.json", dict(SWEEP_CFG, **change))
        out = tmp_path / "sweep.csv"
        assert main(["filter-sweep", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("points", [2.5, 2.0, True, "5", 0, -3])
    def test_flux_points_must_be_a_positive_integer(self, tmp_path, capsys, points):
        path = write_cfg(tmp_path, "cfg.json", dict(SWEEP_CFG, flux_points=points))
        out = tmp_path / "sweep.csv"
        assert main(["filter-sweep", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: flux_points must be an integer from 1 to 2**63 - 1, got {points!r}\n")
        assert not out.exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["filter-sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_config_exit_1(self, tmp_path):
        cfg = write_cfg(tmp_path, "cfg.json", {"geometry": {}})
        assert main(["filter-sweep", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1


class TestEveryInputEnds:
    # Each of these ran without end, printed warnings before its error line,
    # or wrote a curve clipped at a negative length or to [0, 1].
    RATES = {"t1_ef_ns": 136.80, "t1_fh_ns": 128.84}

    @pytest.mark.parametrize("command, cfg, code, err", [
        ("generate", {"generator": "reset", "rates": {"t1_ge_ns": 1e-300, **RATES}}, 1,
         "error: gamma_ge must be finite and >= 0, got inf\n"),
        ("filter-sweep", dict(SWEEP_CFG, geometry=dict(SWEEP_CFG["geometry"], l_f_mm=1e-300,
                                                       x_s_mm=0.0)), 1,
         "error: v_p / (4 l_f) must be positive and finite, got inf Hz\n"),
        ("filter-sweep", dict(SWEEP_CFG, geometry=dict(SWEEP_CFG["geometry"],
                                                       v_p_m_per_s=1e308)), 1,
         "error: v_p / (4 l_f) must be positive and finite, got inf Hz\n"),
        ("generate", {"generator": "rb", "p_true": 0.99, "m_grid": [-10, 0, 10]}, 1,
         "error: sequence lengths must be >= 0\n"),
        ("generate", {"generator": "rb", "p_true": 0.995, "a": 0.9, "b": 0.5}, 1,
         "error: survival A p^m + B must lie in [0, 1], got 1.4 at m = 0.0\n"),
        ("generate", {"generator": "rb", "p_true": 0.99, "b": -0.2}, 1,
         "error: survival A p^m + B must lie in [0, 1], got -0.01698382936338544"
         " at m = 100.0\n"),
    ], ids=["infinite-rate", "short-filter", "fast-line", "negative-length",
            "survival-above-1", "survival-below-0"])
    def test_exits_with_one_line(self, tmp_path, command, cfg, code, err):
        out = tmp_path / "out"
        proc = run_cli(command, write_cfg(tmp_path, "cfg.json", cfg), out)
        assert proc.returncode == code
        assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_stiff_reset_is_evaluated(self, tmp_path):
        # A 1e-18 s lifetime from e: exp(-1e10) underflows to 0 by the first
        # time point, 10 ns.
        cfg = {"generator": "reset", "rates": {"t1_ge_ns": 1e-9, **self.RATES}}
        out = tmp_path / "reset.csv"
        proc = run_cli("generate", write_cfg(tmp_path, "cfg.json", cfg), out)
        assert (proc.returncode, proc.stderr) == (0, "")
        p_e = fio.read_reset_csv(out).curves[1].populations[:, 1]
        assert p_e.size > 0 and (p_e == 0.0).all()

    SHOTS = {"ladder": LADDER_CFG, "cluster_model": model_dict(), "temperature_mk": 181.072}

    @pytest.mark.parametrize("command, cfg, key", [
        ("filter-sweep", dict(SWEEP_CFG, squid_array={"n_squids": 10**400,
                                                      "ic_junction_uA": 10.0}),
         "squid_array.n_squids"),
        ("generate", {"generator": "thermal", **SHOTS, "n_shots": 10**30}, "n_shots"),
        ("generate", {"generator": "windows", **SHOTS, "n_win": 2, "n_shot": 10**30},
         "n_shot"),
        ("generate", {"generator": "reset", "rates": {"t1_ge_ns": 238.22, **RATES},
                      "n_shots_per_point": 10**30}, "n_shots_per_point"),
        ("generate", {"generator": "rb", "p_true": 0.99, "shots_per_point": 10**30},
         "shots_per_point"),
    ], ids=["n_squids", "n_shots", "n_shot", "n_shots_per_point", "shots_per_point"])
    def test_integer_beyond_int64_exits_1(self, tmp_path, capsys, command, cfg, key):
        # Each ended in an OverflowError traceback where numpy or a float met it.
        out = tmp_path / "out"
        assert exit_code([command, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                          "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cfg, err", [
        ({"generator": "thermal", **SHOTS, "n_shots": 0},
         "n_shots must be an integer from 1 to 2**63 - 1, got 0"),
        ({"generator": "windows", **SHOTS, "n_win": 2, "n_shot": 0},
         "n_shot must be an integer from 1 to 2**63 - 1, got 0"),
        ({"generator": "thermal", **SHOTS, "n_shots": 10, "n_model_levels": 3},
         "the level model needs at least 4 levels (g, e, f, h), got 3"),
        ({"generator": "windows", **SHOTS, "n_win": 2, "n_shot": 10, "n_model_levels": 3},
         "the level model needs at least 4 levels (g, e, f, h), got 3"),
    ], ids=["n_shots", "n_shot", "thermal-levels", "windows-levels"])
    def test_shot_generator_input_is_named(self, tmp_path, capsys, cfg, err):
        # A zero shot count was once named by the sampler's parameter n.
        out = tmp_path / "out"
        assert main(["generate", "--config", write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["thermal", "windows", "reset", "rb"])
    @pytest.mark.parametrize("channel", ["config", "flag"])
    def test_negative_seed_is_named(self, tmp_path, capsys, generator, channel):
        # numpy's "expected non-negative integer" once named neither input.
        cfg = {"thermal": {**self.SHOTS, "n_shots": 10},
               "windows": {**self.SHOTS, "n_win": 2, "n_shot": 10},
               "reset": {"rates": {"t1_ge_ns": 238.22, **self.RATES}},
               "rb": {"p_true": 0.99}}[generator]
        cfg = {"generator": generator, **cfg, **({"seed": -1} if channel == "config" else {})}
        out = tmp_path / "out"
        flag = ["--seed", "-1"] if channel == "flag" else []
        assert main(["generate", "--config", write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out), *flag]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, module, kernel, exc, err", [
        ("filter-sweep", SWEEP_CFG, nw, "flux_sweep",
         MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"
                     " and data type float64"),
         "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"
         " and data type float64\n"),
        ("generate", {"generator": "thermal", **SHOTS, "n_shots": 10**12}, synth,
         "gen_thermal_shots", MemoryError(), "error: MemoryError\n"),
    ], ids=["flux_sweep", "gen_thermal_shots"])
    def test_count_too_large_to_allocate_exits_1(self, tmp_path, capsys, monkeypatch, command,
                                                 cfg, module, kernel, exc, err):
        # Each ended in numpy's _ArrayMemoryError traceback; the kernel is
        # made to raise it here, so that nothing is allocated.
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, kernel, out_of_memory)
        out = tmp_path / "out"
        assert exit_code([command, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                          "--out", str(out)]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()


class TestDeeplyNestedJson:
    # Past the interpreter's recursion limit json.load raises RecursionError;
    # the file must read as any other unreadable JSON: exit 1, one line.
    DEEP = "[" * 1000 + "]" * 1000

    def check(self, capsys, argv, out):
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.endswith("is nested too deeply\n")
        assert not out.exists()

    def test_config(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(self.DEEP)
        self.check(capsys, ["filter-sweep", "--config", str(tmp_path / "cfg.json")],
                   tmp_path / "x.csv")

    @pytest.mark.parametrize("command", ["fit-temp", "classify"])
    def test_model_json(self, tmp_path, capsys, command):
        (tmp_path / "shots.csv").write_text("prep,i,q\n,0.5,1.5\n,2.0,-1.0\n")
        (tmp_path / "model.json").write_text(self.DEEP)
        cfg = {"shots_csv": str(tmp_path / "shots.csv"),
               "model_json": str(tmp_path / "model.json")}
        if command == "fit-temp":
            cfg.update({"ladder": LADDER_CFG, "window": 2, "t_shot_us": 34.2})
        self.check(capsys, [command, "--config", write_cfg(tmp_path, "cfg.json", cfg)],
                   tmp_path / "out.json")


class TestGenerateAndFitReset:
    def test_round_trip(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_start_ns": 20, "t_stop_ns": 2000, "t_points": 40,
            "n_shots_per_point": 20000, "seed": 3})
        reset_csv = tmp_path / "reset.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(reset_csv)]) == 0
        fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(reset_csv)})
        out = tmp_path / "rates.json"
        assert main(["fit-reset", "--config", fit_cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["t1_ns"]["gamma_ge"] == pytest.approx(238.22, rel=0.02)
        assert doc["t1_ns"]["gamma_ef"] == pytest.approx(136.80, rel=0.03)
        assert doc["t1_ns"]["gamma_fh"] == pytest.approx(128.84, rel=0.03)
        assert set(doc) >= {"rates_per_s", "t1_ns", "sigma_ns", "covariance", "floor"}

    def test_generated_bytes_deterministic(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 10, "n_shots_per_point": 500, "seed": 42})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", gen_cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_reset_independent_of_the_order_of_rows(self, tmp_path):
        # The curves are fitted level by level, whichever prep comes first.
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 20, "n_shots_per_point": 5000, "floor_p_inf": 0.985, "seed": 7})
        e_first, h_first = tmp_path / "e_first.csv", tmp_path / "h_first.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(e_first)]) == 0
        header, *rows = e_first.read_text().splitlines(keepends=True)
        assert rows[0].startswith("e,") and rows[-1].startswith("h,")
        h_first.write_text(header + "".join(sorted(rows, key=lambda row: "hfe".index(row[0]))))
        outs = []
        for csv_path in (e_first, h_first):
            fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(csv_path),
                                                       "fit_floor": True})
            outs.append(tmp_path / f"{csv_path.stem}.json")
            assert main(["fit-reset", "--config", fit_cfg, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 10, "n_shots_per_point": 500, "seed": 42})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", gen_cfg, "--out", str(b),
                     "--seed", "43"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_seed_flag_before_the_command_overrides(self, tmp_path):
        gen = {"generator": "reset",
               "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
               "t_points": 10, "n_shots_per_point": 500}
        cfg_42 = write_cfg(tmp_path, "gen42.json", dict(gen, seed=42))
        cfg_43 = write_cfg(tmp_path, "gen43.json", dict(gen, seed=43))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "43", "generate", "--config", cfg_42, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg_43, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_csv_exit_1(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("prep,time_s,p_g,p_e,p_f,p_h\n")
        fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(bad)})
        assert main(["fit-reset", "--config", fit_cfg,
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_fit_outside_physical_region_exit_2(self, tmp_path, capsys, monkeypatch):
        real = dyn.levenberg_marquardt

        def negative_rate(*args, **kwargs):
            x, fun, jac = real(*args, **kwargs)
            x[0] = -x[0]
            return x, fun, jac

        monkeypatch.setattr(dyn, "levenberg_marquardt", negative_rate)
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 10, "n_shots_per_point": 500, "seed": 42})
        reset_csv = tmp_path / "reset.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(reset_csv)]) == 0
        fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(reset_csv)})
        assert main(["fit-reset", "--config", fit_cfg,
                     "--out", str(tmp_path / "x.json")]) == 2
        assert "FitDiverged" in capsys.readouterr().err

    def test_unknown_generator_exit_1(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {"generator": "bogus"})
        assert main(["generate", "--config", gen_cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("prep", ["x", "", "g"])
    def test_unknown_prep_exit_1_before_integrating(self, tmp_path, capsys, monkeypatch,
                                                    prep):
        # "g" is a level but no preparation; no trajectory may be integrated.
        def integrated(*args, **kwargs):
            raise AssertionError("integrated before checking the preparation labels")

        monkeypatch.setattr(synth, "populations_closed_form", integrated)
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "preps": ["e", prep]})
        out = tmp_path / "x.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown preparation label {prep!r}\n"
        assert not out.exists()

    def test_repeated_prep_exit_1_writing_nothing(self, tmp_path, capsys):
        # A second "e" draw would replace the first in the dataset's dict.
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "reset",
            "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
            "t_points": 10, "preps": ["e", "e", "h"]})
        out = tmp_path / "x.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: duplicate preparation label 'e'\n"
        assert not out.exists()


class TestResetCsvBoundary:
    GOOD = ("prep,time_s,p_g,p_e,p_f,p_h\n"
            "e,0.0,0.0,1.0,0.0,0.0\n"
            "e,1e-7,0.3,0.7,0.0,0.0\n")

    @pytest.mark.parametrize("bad_row, reason", [
        ("e,2e-7,0.5,0.5", "6 fields"),
        ("e,2e-7,0.5,0.5,0.0,0.0,0.0", "6 fields"),
        ("e,2e-7,0.5,0.5,0.0,0.0,", "6 fields"),
        ("e,inf,0.5,0.5,0.0,0.0", "finite"),
        ("e,2e-7,0.5,nan,0.0,0.0", "finite"),
        ("e,2e-7,abc,0.5,0.0,0.0", "not numbers"),
        ("e,,0.5,0.5,0.0,0.0", "not numbers"),
    ])
    def test_malformed_row_exit_1_naming_line(self, tmp_path, capsys, bad_row, reason):
        reset_csv = tmp_path / "reset.csv"
        reset_csv.write_text(self.GOOD + bad_row + "\ne,3e-7,0.6,0.4,0.0,0.0\n")
        fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(reset_csv)})
        assert main(["fit-reset", "--config", fit_cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "reset CSV line 4" in err and reason in err

    def test_bad_header_exit_1(self, tmp_path, capsys):
        reset_csv = tmp_path / "reset.csv"
        reset_csv.write_text("prep,t,p_g,p_e,p_f,p_h\ne,0.0,0.0,1.0,0.0,0.0\n")
        fit_cfg = write_cfg(tmp_path, "fit.json", {"reset_csv": str(reset_csv)})
        assert main(["fit-reset", "--config", fit_cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "header" in capsys.readouterr().err

    def test_slightly_negative_population_accepted(self, tmp_path):
        reset_csv = tmp_path / "reset.csv"
        reset_csv.write_text(self.GOOD + "e,2e-7,1.002,-0.002,0.0,0.0\n")
        data = fio.read_reset_csv(reset_csv)
        assert data.curves[1].populations[-1, 1] == -0.002


class TestRbPipeline:
    def test_generate_fit_fidelity(self, tmp_path):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "rb", "p_true": 0.995125, "a": 0.5, "b": 0.5,
            "m_grid": list(range(0, 400, 10)), "shots_per_point": 20000,
            "seed": 12})
        curve = tmp_path / "rb.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(curve)]) == 0
        fit_cfg = write_cfg(tmp_path, "fit.json", {"curve_csv": str(curve),
                                                   "p_ref": 0.995125})
        out = tmp_path / "fit.json.out"
        assert main(["fit-rb", "--config", fit_cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["clifford_fidelity"] == pytest.approx(0.9987, abs=5e-4)
        assert "interleaved_fidelity" in doc

    def test_zero_reference_exit_1(self, tmp_path, capsys):
        from fluxline import synth
        m, y = synth.gen_rb_decay(0.995, 0.5, 0.5, np.arange(0.0, 400.0, 10.0),
                                  10000, seed=3)
        fio.write_curve_csv(tmp_path / "rb.csv", m, y)
        cfg = write_cfg(tmp_path, "fit.json", {"curve_csv": str(tmp_path / "rb.csv"),
                                               "p_ref": 0})
        assert main(["fit-rb", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "p_ref" in err

    @pytest.mark.parametrize("p_ref", [-0.5, 7.0])
    def test_reference_outside_unit_interval_exit_1(self, tmp_path, capsys, p_ref):
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "rb", "p_true": 0.99, "m_grid": list(range(0, 400, 10)),
            "shots_per_point": 10000, "seed": 3})
        curve = tmp_path / "rb.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(curve)]) == 0
        cfg = write_cfg(tmp_path, "fit.json", {"curve_csv": str(curve), "p_ref": p_ref})
        out = tmp_path / "x.json"
        assert main(["fit-rb", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: p_ref must lie in (0, 1]\n"
        assert not out.exists()

    def test_non_converging_fit_exit_2(self, tmp_path, capsys):
        # The seed-106 curve of the scipy reference sweep in test_fits, on
        # which scipy's least_squares does not converge either.
        from fluxline import synth
        p = np.random.default_rng(106).uniform(0.98, 0.9999)
        m, y = synth.gen_rb_decay(p, 0.5, 0.5, np.arange(0.0, 400.0, 10.0), 2000, seed=106)
        fio.write_curve_csv(tmp_path / "rb.csv", m, y)
        cfg = write_cfg(tmp_path, "fit.json", {"curve_csv": str(tmp_path / "rb.csv")})
        assert main(["fit-rb", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("solver error: FitDiverged: ") and "did not converge" in err


class TestFitCurve:
    @pytest.mark.parametrize("model", list(_FIT_MODELS))
    def test_noise_free_curve_gives_its_parameters(self, tmp_path, capsys, model):
        x, y, truth = model_curve(model)
        fio.write_curve_csv(tmp_path / "c.csv", x, y)
        cfg = write_cfg(tmp_path, "cfg.json", {"curve_csv": str(tmp_path / "c.csv"),
                                               "model": model})
        out = tmp_path / "fit.json"
        assert main(["fit-curve", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        params = json.loads(out.read_text())["params"]
        assert params.keys() == truth.keys()
        for name, value in truth.items():
            assert params[name] == pytest.approx(value, rel=1e-9, abs=0.0), name

    def test_constant_trace_decaying_cosine_exit_2(self, tmp_path, capsys):
        fio.write_curve_csv(tmp_path / "c.csv", np.linspace(0, 4e-7, 64), np.full(64, 0.5))
        cfg = write_cfg(tmp_path, "cfg.json", {"curve_csv": str(tmp_path / "c.csv"),
                                               "model": "decaying_cosine"})
        assert main(["fit-curve", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver error: NoOscillation: ")

    def test_rank_deficient_solve_exit_2(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise RankDeficient("Jacobian is rank deficient during the fit")

        monkeypatch.setattr(fits, "levenberg_marquardt", singular)
        t = np.linspace(0, 5e-4, 50)
        fio.write_curve_csv(tmp_path / "c.csv", t, 0.7 * np.exp(-t / 1e-4) + 0.2)
        cfg = write_cfg(tmp_path, "cfg.json", {"curve_csv": str(tmp_path / "c.csv"),
                                               "model": "exponential"})
        assert main(["fit-curve", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver error: RankDeficient: ")

    def test_unknown_model_exit_1(self, tmp_path):
        fio.write_curve_csv(tmp_path / "c.csv", [0, 1, 2], [1, 2, 3])
        cfg = write_cfg(tmp_path, "cfg.json", {"curve_csv": str(tmp_path / "c.csv"),
                                               "model": "sinc"})
        assert main(["fit-curve", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1

    def test_rb_model_left_to_fit_rb_exit_1(self, tmp_path, capsys):
        # fit-rb fits the benchmarking decay and reports its fidelities too.
        fio.write_curve_csv(tmp_path / "c.csv", [0, 1, 2], [1, 2, 3])
        cfg = write_cfg(tmp_path, "cfg.json", {"curve_csv": str(tmp_path / "c.csv"),
                                               "model": "rb"})
        assert main(["fit-curve", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == (
            "error: model must be 'exponential' or 'decaying_cosine' or "
            "'stretched_exponential' or 'quadratic_minimum', got 'rb'\n")


@pytest.mark.parametrize("command", ["fit-curve", "fit-rb"])
class TestCurveCsvBoundary:
    GOOD = "x,y\n0.0,1.0\n10.0,0.9\n"

    def run_fit(self, tmp_path, capsys, command, text):
        curve = tmp_path / "curve.csv"
        curve.write_text(text)
        cfg = {"curve_csv": str(curve)}
        if command == "fit-curve":
            cfg["model"] = "exponential"
        cfg = write_cfg(tmp_path, "fit.json", cfg)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("bad_row, reason", [
        ("20.0", "expected 2 fields (x,y), got 1"),
        ("20.0,0.8,0.01", "expected 2 fields (x,y), got 3"),
        ("20.0,0.8,", "expected 2 fields (x,y), got 3"),
        ("20.0,nan", "finite"),
        ("inf,0.8", "finite"),
        ("20.0,-inf", "finite"),
        ("20.0,abc", "not numbers"),
        (",0.8", "not numbers"),
    ])
    def test_malformed_row_exit_1_naming_line(self, tmp_path, capsys, command,
                                              bad_row, reason):
        err = self.run_fit(tmp_path, capsys, command,
                           self.GOOD + bad_row + "\n30.0,0.7\n")
        assert "curve CSV line 4" in err and reason in err

    def test_short_row_under_sigma_header(self, tmp_path, capsys, command):
        err = self.run_fit(tmp_path, capsys, command,
                           "x,y,sigma\n0.0,1.0,0.01\n10.0,0.9\n")
        assert "curve CSV line 3: expected 3 fields (x,y,sigma), got 2" in err

    def test_bad_header_exit_1(self, tmp_path, capsys, command):
        err = self.run_fit(tmp_path, capsys, command, "x,z\n0.0,1.0\n10.0,0.9\n")
        assert "header" in err

    def test_header_only_exit_1(self, tmp_path, capsys, command):
        err = self.run_fit(tmp_path, capsys, command, "x,y\n")
        assert "no data rows" in err

    def test_whitespace_only_body_exit_1(self, tmp_path, capsys, command):
        err = self.run_fit(tmp_path, capsys, command, "x,y\n \r\n\t\x0b\x0c\n")
        assert err == "error: curve CSV holds no data rows\n"


class TestThermometryPipeline:
    def test_windows_to_temperature_stats(self, tmp_path):
        model = model_dict()
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "windows", "ladder": LADDER_CFG, "cluster_model": model,
            "temperature_mk": 181.072, "n_win": 25, "n_shot": 2000, "seed": 5})
        shots = tmp_path / "shots.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(shots)]) == 0
        (tmp_path / "model.json").write_text(json.dumps(model))
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "shots_csv": str(shots), "model_json": str(tmp_path / "model.json"),
            "ladder": LADDER_CFG, "window": 2000, "t_shot_us": 34.2})
        out = tmp_path / "temps.json"
        assert main(["fit-temp", "--config", fit_cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_win"] == 25
        assert abs(doc["mu_T_K"] - 0.181072) < 0.01
        assert doc["net_K_per_sqrtHz"] == pytest.approx(
            doc["sigma_T_K"] * math.sqrt(2000 * 34.2e-6), rel=1e-12)
        assert len(doc["per_window"]) == 25
        assert {"t_eff_K", "r2", "chi2", "at_boundary"} <= set(doc["per_window"][0])
        assert doc["n_at_bound"] == 0

    def test_windows_at_bound_reported_not_dropped(self, tmp_path):
        model = model_dict()
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "windows", "ladder": LADDER_CFG, "cluster_model": model,
            "temperature_mk": 181.072, "n_win": 4, "n_shot": 2000, "seed": 5})
        shots = tmp_path / "shots.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(shots)]) == 0
        (tmp_path / "model.json").write_text(json.dumps(model))
        fit_cfg = write_cfg(tmp_path, "fit.json", {
            "shots_csv": str(shots), "model_json": str(tmp_path / "model.json"),
            "ladder": LADDER_CFG, "window": 2000, "t_shot_us": 34.2,
            "t_max_mk": 100.0})
        out = tmp_path / "temps.json"
        assert main(["fit-temp", "--config", fit_cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_at_bound"] == 4
        assert all(w["at_boundary"] for w in doc["per_window"])
        assert doc["mu_T_K"] == pytest.approx(0.1, rel=1e-5)

    def test_generate_names_missing_cluster_component(self, tmp_path, capsys):
        # At 300 mK levels above h are drawn, and this model has no k+.
        model = fio.model_to_dict(make_ring_model(labels=("g", "e", "f", "h")))
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "thermal", "ladder": LADDER_CFG, "cluster_model": model,
            "temperature_mk": 300.0, "n_shots": 2000, "seed": 1})
        out = tmp_path / "shots.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cluster_model has no 'k+' component, which level 4 needs\n")
        assert not out.exists()

    def test_generate_windows_leaves_no_partial_file(self, tmp_path, capsys):
        # Windows are written as drawn; the first level past h comes after
        # some have been written, and the file is removed with the error.
        model = fio.model_to_dict(make_ring_model(labels=("g", "e", "f", "h")))
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "windows", "ladder": LADDER_CFG, "cluster_model": model,
            "temperature_mk": 90.0, "n_win": 400, "n_shot": 100, "seed": 1})
        out = tmp_path / "shots.csv"
        assert main(["generate", "--config", gen_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cluster_model has no 'k+' component, which level")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_generate_windows_removes_an_out_file_that_existed(self, tmp_path, capsys):
        # The file was once removed only if this run had created it; one that
        # existed kept the 400 shots written before the error.
        model = fio.model_to_dict(make_ring_model(labels=("g", "e", "f", "h")))
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "windows", "ladder": LADDER_CFG, "cluster_model": model,
            "temperature_mk": 90.0, "n_win": 400, "n_shot": 100, "seed": 1})
        out = tmp_path / "pre.csv"
        fio.write_shots_csv(out, np.zeros((2, 2)))
        assert main(["generate", "--config", gen_cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_generate_caps_a_ladder_that_does_not_fall(self, tmp_path, capsys):
        # With f_ef and f_fh swapped the transitions past h rise and never
        # turn non-positive; the extension stops at its level cap, in
        # bounded time and memory, before the file is opened.
        ladder = {**LADDER_CFG, "f_ef_ghz": LADDER_CFG["f_fh_ghz"],
                  "f_fh_ghz": LADDER_CFG["f_ef_ghz"]}
        gen_cfg = write_cfg(tmp_path, "gen.json", {
            "generator": "thermal", "ladder": ladder, "cluster_model": model_dict(),
            "temperature_mk": 50.0, "n_shots": 100, "n_model_levels": 10**12})
        out = tmp_path / "shots.csv"
        tracemalloc.start()
        try:
            with _deadline(5):
                code = main(["generate", "--config", gen_cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ladder extension reached 100 levels")
        assert err.count("\n") == 1
        assert peak < 1e6
        assert not out.exists()


def fit_temp_cfg(tmp_path, shots_csv, window=2):
    (tmp_path / "model.json").write_text(json.dumps(model_dict()))
    return write_cfg(tmp_path, "fit.json", {
        "shots_csv": str(shots_csv), "model_json": str(tmp_path / "model.json"),
        "ladder": LADDER_CFG, "window": window, "t_shot_us": 34.2})


class TestShotCsvBoundary:
    GOOD = "prep,i,q\n,0.5,1.5\n,2.0,-1.0\n"

    @pytest.mark.parametrize("bad_row, reason", [
        (",nan,1.0", "finite"),
        (",1.0,-inf", "finite"),
        (",1.0", "3 fields"),
        (",1.0,2.0,3.0", "3 fields"),
        ("g,1.0,2.0,", "3 fields"),
        (",abc,2.0", "not numbers"),
        (",,2.0", "not numbers"),
    ])
    def test_malformed_row_exit_1_naming_line(self, tmp_path, capsys, bad_row, reason):
        shots = tmp_path / "shots.csv"
        shots.write_text(self.GOOD + bad_row + "\n,0.0,0.0\n")
        cfg = fit_temp_cfg(tmp_path, shots)
        assert main(["fit-temp", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 4" in err and reason in err

    def test_bad_header_exit_1(self, tmp_path, capsys):
        shots = tmp_path / "shots.csv"
        shots.write_text("prep,x,q\n,0.5,1.5\n")
        cfg = fit_temp_cfg(tmp_path, shots, window=1)
        assert main(["fit-temp", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_no_rows_exit_1(self, tmp_path, body):
        shots = tmp_path / "shots.csv"
        shots.write_text("prep,i,q\n" + body)
        cfg = fit_temp_cfg(tmp_path, shots, window=1)
        assert main(["fit-temp", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_exit_1(self, tmp_path, capsys, window):
        shots = tmp_path / "shots.csv"
        shots.write_text(self.GOOD)
        cfg = fit_temp_cfg(tmp_path, shots, window=window)
        assert main(["fit-temp", "--config", cfg,
                     "--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "window" in err



class TestClassifyCommand:
    def test_fit_model_and_matrix(self, tmp_path):
        model = make_ring_model()
        xy, codes = cl.sample_from_model(model, 800, seed=1)
        fio.write_shots_csv(tmp_path / "cal.csv", xy, codes, model.labels)
        cfg = write_cfg(tmp_path, "cfg.json", {
            "shots_csv": str(tmp_path / "cal.csv"),
            "save_model_json": str(tmp_path / "model.json")})
        out = tmp_path / "matrix.json"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        entries = np.array(doc["entries"])
        assert np.allclose(entries.sum(axis=1), 1.0, atol=1e-9)
        assert entries.diagonal().min() > 0.98
        saved = fio.model_from_dict(json.loads((tmp_path / "model.json").read_text()), "model")
        assert cl.min_pairwise_separation(saved) > 5.0

    def test_classify_unlabeled_counts(self, tmp_path):
        model = make_ring_model()
        xy, _ = cl.sample_from_model(model, 200, seed=2)
        fio.write_shots_csv(tmp_path / "shots.csv", xy)
        (tmp_path / "model.json").write_text(json.dumps(fio.model_to_dict(model)))
        cfg = write_cfg(tmp_path, "cfg.json", {
            "shots_csv": str(tmp_path / "shots.csv"),
            "model_json": str(tmp_path / "model.json")})
        out = tmp_path / "counts.json"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sum(doc["counts"].values()) == 1000

    def test_fit_out_of_iterations_exit_2(self, tmp_path, capsys):
        # Four preps of one cluster: EM does not converge in 500 iterations.
        xy = np.random.default_rng(0).normal(0, 0.5, size=(400, 2))
        fio.write_shots_csv(tmp_path / "cal.csv", xy, np.repeat(np.arange(4), 100),
                            ["g", "e", "f", "h"])
        cfg = write_cfg(tmp_path, "cfg.json", {"shots_csv": str(tmp_path / "cal.csv")})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("solver error: NotConverged: EM did not meet tol=1e-09 in 500")

    @pytest.mark.parametrize("with_model", [False, True])
    def test_one_component_model_exit_1_before_writing(self, tmp_path, capsys, with_model):
        # 50 shots all labelled g fit one component; a loaded model may hold one too.
        xy = np.random.default_rng(0).normal(size=(50, 2))
        fio.write_shots_csv(tmp_path / "cal.csv", xy, np.zeros(50, dtype=int), ["g"])
        cfg = {"shots_csv": str(tmp_path / "cal.csv"),
               "save_model_json": str(tmp_path / "model.json")}
        if with_model:
            one = {"components": {"g": model_dict()["components"]["g"]}}
            one["components"]["g"]["weight"] = 1.0
            (tmp_path / "one.json").write_text(json.dumps(one))
            cfg["model_json"] = str(tmp_path / "one.json")
        out = tmp_path / "matrix.json"
        assert main(["classify", "--config", write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: a mixture model needs at least 2 components, got 1\n")
        assert not out.exists() and not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("with_model", [False, True])
    def test_partly_empty_prep_labels_exit_1(self, tmp_path, capsys, with_model):
        # Every 7th label blanked: no "" component may be fitted or reported.
        model = make_ring_model()
        xy, codes = cl.sample_from_model(model, 100, seed=3)
        table = [*model.labels, ""]
        codes[::7] = len(model.labels)
        fio.write_shots_csv(tmp_path / "cal.csv", xy, codes, table)
        cfg = {"shots_csv": str(tmp_path / "cal.csv")}
        if with_model:
            (tmp_path / "model.json").write_text(json.dumps(fio.model_to_dict(model)))
            cfg["model_json"] = str(tmp_path / "model.json")
        out = tmp_path / "matrix.json"
        assert main(["classify", "--config", write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: shot CSV: 72 of 500 rows have an empty prep label; "
            "label every row or none\n")
        assert not out.exists()


def reference_labels(body: bytes) -> list[str]:
    """The label path the byte-level reader replaced: decode, split, partition."""
    return [line.partition(",")[0]
            for line in body.decode().split("\n") if line not in ("", "\r")]


# Label text as a CSV can hold it: no comma, no line end, valid UTF-8.
label_text = st.text(st.characters(blacklist_characters=",\n\r",
                                   blacklist_categories=("Cs",)), max_size=4)


class TestLabelCodes:
    """Labels cut from the bytes as codes into a first-appearance table."""

    BODIES = {
        "crlf": b"g,1,2\r\ne,3,4\r\n",
        "blank lines": b"\ng,1,2\n\n\r\ne,3,4\n\n",
        "spaces and utf-8": "ground state,1,2\n État é ,3,4\n\U0001d713,5,6\n"
                            "ground state,7,8\n".encode(),
        "mixed empty": b",1,2\ng,3,4\n,5,6\n",
        "interleaved": b"h,1,2\ne,3,4\nh,5,6\nf,7,8\ne,9,10\n",
        "no final newline": b"g,1,2\ne,3,4",
        "prefixes and nul": b"g,1,2\ngg,3,4\ng ,5,6\ng\x00,7,8\ng,9,10\n",
    }

    def check(self, path, body):
        ref = reference_labels(body)
        xy, codes, labels = fio.read_shots_csv(path)
        assert len(xy) == len(ref)
        if all(r == "" for r in ref):
            assert codes is labels is None
            return
        assert labels == list(dict.fromkeys(ref))
        assert codes.tolist() == [labels.index(r) for r in ref]

    @pytest.mark.parametrize("name", BODIES)
    def test_edge_case_bodies_match_the_reference(self, tmp_path, name):
        path = tmp_path / "s.csv"
        path.write_bytes(b"prep,i,q\n" + self.BODIES[name])
        self.check(path, self.BODIES[name])

    @given(labels=st.lists(label_text, min_size=1, max_size=20),
           blank=st.lists(st.sampled_from(["", "\n", "\r\n"]), min_size=20, max_size=20),
           crlf=st.booleans(), final_newline=st.booleans())
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_labels_match_the_reference(self, tmp_path, labels, blank, crlf, final_newline):
        end = "\r\n" if crlf else "\n"
        text = end.join(f"{lab},{k},0.5{blank[k]}" for k, lab in enumerate(labels))
        body = (text + (end if final_newline else "")).encode()
        path = tmp_path / "s.csv"
        path.write_bytes(b"prep,i,q\n" + body)
        self.check(path, body)

    @pytest.mark.parametrize("command, header, row, key", [
        ("classify", b"prep,i,q", b",0.5,1.5", "shots_csv"),
        ("fit-reset", b"prep,time_s,p_g,p_e,p_f,p_h", b",0.0,1,0,0,0", "reset_csv"),
    ])
    def test_label_not_utf8_exit_1_naming_line(self, tmp_path, capsys, command, header, row,
                                               key):
        data = tmp_path / "data.csv"
        data.write_bytes(header + b"\ne" + row + b"\n\n\xe9t\xe9" + row + b"\n")
        (tmp_path / "model.json").write_text(json.dumps(model_dict()))
        cfg = {key: str(data)}
        if command == "classify":
            cfg["model_json"] = str(tmp_path / "model.json")
        assert main([command, "--config", write_cfg(tmp_path, "cfg.json", cfg),
                     "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith(" CSV line 4: label is not UTF-8\n")


class TestRoundTripFormats:
    def test_reset_csv_round_trip(self, tmp_path, reset_rates):
        from fluxline import synth
        t = np.linspace(1e-8, 1e-6, 12)
        data = synth.gen_reset_curves(reset_rates, (1, 3), t, 1000, seed=0)
        fio.write_reset_csv(tmp_path / "r.csv", data)
        back = fio.read_reset_csv(tmp_path / "r.csv")
        for prep in (1, 3):
            assert np.array_equal(back.curves[prep].times, data.curves[prep].times)
            assert np.array_equal(back.curves[prep].populations,
                                  data.curves[prep].populations)

    def test_shots_csv_round_trip(self, tmp_path):
        xy = np.array([[0.125, -3.75], [1e-17, 2.0]])
        fio.write_shots_csv(tmp_path / "s.csv", xy, [1, 0], ["e", "g"])
        back, codes, labels = fio.read_shots_csv(tmp_path / "s.csv")
        assert np.array_equal(back, xy)
        assert codes.tolist() == [0, 1] and labels == ["g", "e"]

    def test_shots_csv_codes_need_their_table(self, tmp_path):
        # Codes alone would be written as the labels "0", "1", ...
        xy, codes = cl.sample_from_model(make_ring_model(), 10, seed=1)
        for args in ((codes,), (None, ["g"])):
            with pytest.raises(ValueError, match="together"):
                fio.write_shots_csv(tmp_path / "s.csv", xy, *args)
        assert not (tmp_path / "s.csv").exists()

    @given(xy=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=30),
           labelled=st.booleans(), data=st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shots_csv_matches_dictreader(self, tmp_path, xy, labelled, data):
        """Shot, reset and curve files: writer, then reader against csv.DictReader."""
        xy = np.array(xy, dtype=float)
        table = ["g", "e", "f", "h", "k+", ""]
        codes = preps = None
        if labelled:
            codes = data.draw(st.lists(st.integers(0, len(table) - 1),
                                       min_size=len(xy), max_size=len(xy)))
            preps = [table[c] for c in codes]
        path = tmp_path / "s.csv"
        fio.write_shots_csv(path, xy, codes, table if labelled else None)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref_xy = np.array([[float(r["i"]), float(r["q"])] for r in rows])
        ref_preps = [r["prep"] for r in rows]
        back, back_codes, labels = fio.read_shots_csv(path)
        assert np.array_equal(back, ref_xy) and np.array_equal(back, xy)
        if all(p == "" for p in ref_preps):
            assert back_codes is labels is None
        else:
            assert labels == list(dict.fromkeys(ref_preps))
            assert [labels[c] for c in back_codes] == ref_preps == preps

        # Curve: the same points as x, y.
        fio.write_curve_csv(path, xy[:, 0], xy[:, 1])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        x, y = fio.read_curve_csv(path)
        assert np.array_equal(x, [float(r["x"]) for r in rows])
        assert np.array_equal(y, [float(r["y"]) for r in rows])
        assert np.array_equal(x, xy[:, 0]) and np.array_equal(y, xy[:, 1])

        # Reset: a curve per drawn prepared level, each on its own increasing times.
        finite = st.floats(allow_nan=False, allow_infinity=False)
        curves = {}
        for level in data.draw(st.lists(st.sampled_from([1, 2, 3]),
                                        min_size=1, max_size=3, unique=True)):
            times = sorted(data.draw(st.lists(finite, min_size=1, max_size=10, unique=True)))
            pops = data.draw(st.lists(st.tuples(finite, finite, finite, finite),
                                      min_size=len(times), max_size=len(times)))
            curves[level] = dyn.ResetCurve(np.array(times), np.array(pops, dtype=float))
        fio.write_reset_csv(path, dyn.ResetDataset(curves))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        back = fio.read_reset_csv(path)
        ref = {}
        for r in rows:
            ref.setdefault(r["prep"], []).append([float(r[k]) for k in rows[0] if k != "prep"])
        assert list(back.curves) == fio.prep_levels(list(ref)) == sorted(curves)
        for level, table in zip(back.curves, ref.values()):
            table = np.array(table)
            assert np.array_equal(back.curves[level].times, table[:, 0])
            assert np.array_equal(back.curves[level].populations, table[:, 1:])
            assert np.array_equal(back.curves[level].times, curves[level].times)
            assert np.array_equal(back.curves[level].populations, curves[level].populations)

    def test_curve_csv_reads_sigma_column(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x,y,sigma\n0.0,1.0,0.125\n1e-05,0.5,-0.0\n")
        x, y = fio.read_curve_csv(path)
        assert x.tolist() == [0.0, 1e-05] and y.tolist() == [1.0, 0.5]
        # The column is checked though no fit reads it.
        path.write_text("x,y,sigma\n0.0,1.0,nan\n")
        with pytest.raises(ValueError, match="curve CSV line 2: values must be finite"):
            fio.read_curve_csv(path)

    def test_reset_rows_grouped_by_first_appearance_then_time(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("prep,time_s,p_g,p_e,p_f,p_h\n"
                        "h,2.0,0,0,0,1\ne,3.0,0,1,0,0\nh,1.0,1,0,0,0\ne,0.5,0,0,1,0\n")
        back = fio.read_reset_csv(path)
        assert list(back.curves) == [3, 1]
        assert back.curves[3].times.tolist() == [1.0, 2.0]
        assert back.curves[3].populations[:, 0].tolist() == [1.0, 0.0]
        assert back.curves[1].times.tolist() == [0.5, 3.0]

    def test_reset_rows_without_prep_exit_1(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("prep,time_s,p_g,p_e,p_f,p_h\n,0.0,0,1,0,0\n")
        with pytest.raises(ValueError, match="prep"):
            fio.read_reset_csv(path)

    def test_model_json_round_trip(self, tmp_path):
        # Rows given out of canonical order are written and read back in it,
        # every value bit for bit, whatever the key order of the file.
        model = make_ring_model(labels=("h", "k+", "e", "g", "f"),
                                weights=[0.1, 0.3, 0.2, 0.15, 0.25])
        fio.dump_json(fio.model_to_dict(model), tmp_path / "m.json")
        doc = fio.load_json(tmp_path / "m.json")
        assert list(doc["components"]) == list(cl.LABEL_ORDER)
        reversed_doc = {"components": dict(reversed(doc["components"].items()))}
        for back in (fio.model_from_dict(doc, "model"),
                     fio.model_from_dict(reversed_doc, "model")):
            assert back.labels == model.labels == cl.LABEL_ORDER
            for name in ("means", "covs", "weights"):
                assert getattr(back, name).tobytes() == getattr(model, name).tobytes()


# --- the block writer at its real block size -----------------------------------
#
# tests/test_io.py holds the one reference for the writer's bytes,
# ``reference_write_table``; its hypothesis test shrinks the block to a few
# rows, and these cases cross the real 8192-row block edge.

SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]


def mixed_values(n, seed):
    """n floats over 600 decades, every 7th one of SPECIAL_VALUES in turn."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[::7] = np.resize(SPECIAL_VALUES, values[::7].size)
    return values


class TestWritersMatchPerRowReference:
    """Each block writer against the per-value reference, across the block edge."""

    ROWS = [0, 1, 8191, 8192, 8193]

    @pytest.mark.parametrize("n", ROWS)
    @pytest.mark.parametrize("labelled", [False, True])
    def test_shots(self, tmp_path, n, labelled):
        xy = mixed_values(2 * n, n).reshape(n, 2)
        table = ["g", "e", "", "k+", "h"] if labelled else None
        codes = np.resize(np.arange(5), n) if labelled else None
        labels = map(table.__getitem__, codes.tolist()) if labelled else repeat("", n)
        same_bytes(tmp_path, lambda p: fio.write_shots_csv(p, xy, codes, table),
                   [(xy.T, labels)], fio.SHOT_HEADER)

    @pytest.mark.parametrize("n", ROWS)
    def test_curve(self, tmp_path, n):
        x, y = mixed_values(n, 1), mixed_values(n, 2)
        same_bytes(tmp_path, lambda p: fio.write_curve_csv(p, x, y), [((x, y), None)], "x,y")

    def test_curve_from_integer_lists(self, tmp_path):
        fio.write_curve_csv(tmp_path / "c.csv", [0, 1, 2], [1, 2, 3])
        assert (tmp_path / "c.csv").read_text() == "x,y\n0.0,1.0\n1.0,2.0\n2.0,3.0\n"

    @staticmethod
    def check_reset(tmp_path, data):
        same_bytes(tmp_path, lambda p: fio.write_reset_csv(p, data), [
            (np.column_stack([curve.times, curve.populations]).T,
             repeat(cl.LABEL_ORDER[level], curve.times.size))
            for level, curve in sorted(data.curves.items())], fio.RESET_HEADER)

    @pytest.mark.parametrize("n", ROWS)
    def test_reset(self, tmp_path, n):
        pops = mixed_values(4 * n, 3).reshape(n, 4)
        # Two curves, given out of sorted order; times strictly increasing.
        split = n // 2
        times = np.concatenate([[-math.inf, -0.0, 5e-324, 1e-5],
                                np.linspace(1e-4, 1e16, n)])[:n]
        self.check_reset(tmp_path, dyn.ResetDataset({
            3: dyn.ResetCurve(times[:n - split], pops[:n - split]),
            1: dyn.ResetCurve(times[:split], pops[n - split:]),
        }))

    def test_reset_without_curves(self, tmp_path):
        self.check_reset(tmp_path, dyn.ResetDataset({}))

    @pytest.mark.parametrize("n", ROWS)
    def test_flux_sweep(self, tmp_path, n):
        table = mixed_values(9 * n, 5).reshape(n, 9)
        errors = np.resize(np.array([None, "NoRootFound"], dtype=object), n)
        sweep = np.rec.fromarrays([*table.T, errors], names=nw.SWEEP_FIELDS + ("error",))
        same_bytes(tmp_path, lambda p: fio.write_flux_sweep_csv(p, sweep),
                   [(table.T, None)], fio.SWEEP_HEADER)


# Runs in a fresh interpreter: imports the CLI, runs each command named on
# the command line (name, config path, output path), and prints the watched
# modules (scipy's, and the costly imports in WATCHED) loaded after the
# import and after each command.  Then it reaches the fits module as a
# package attribute and by a from-import, and reports the watched modules
# loaded after that too.
_HYGIENE_SCRIPT = """
import json, sys
import fluxline.cli as cli
watched = set(sys.argv[2].split(","))
loaded = lambda: sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m in watched)
report = {"import fluxline.cli": loaded()}
for name, cfg, out in json.loads(sys.argv[1]):
    rc = cli.main([name, "--config", cfg, "--out", out])
    report[f"{name} {cfg}"] = loaded() if rc == 0 else f"exit {rc}"
import fluxline
by_attribute = fluxline.fits
from fluxline import fits
report["fits"] = [fits is by_attribute, hasattr(fits, "rb_fit"), loaded()]
print(json.dumps(report))
"""
# argparse (with the locale its first gettext call imports), numpy.ma
# (which a plain np.unique imports) and statistics (with the fractions and
# decimal it imports) each cost milliseconds of every run, and no command
# needs them.
WATCHED = ("argparse", "locale", "numpy.ma", "statistics", "fractions", "decimal")


class TestImportHygiene:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        """Watched modules after the import and after each command, from one process."""
        tmp_path = tmp_path_factory.mktemp("hygiene")
        (tmp_path / "model.json").write_text(json.dumps(model_dict()))
        # Labelled shots, so that classify also fits a model (EM) and
        # builds an assignment matrix.
        ring = make_ring_model()
        fio.write_shots_csv(tmp_path / "labelled.csv",
                            *cl.sample_from_model(ring, 100, seed=3), ring.labels)
        cfgs = {
            "windows": {"generator": "windows", "ladder": LADDER_CFG,
                        "cluster_model": model_dict(), "temperature_mk": 181.072,
                        "n_win": 2, "n_shot": 200, "seed": 3},
            "reset": {"generator": "reset",
                      "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
                      "t_points": 12, "n_shots_per_point": 1000, "floor_p_inf": 0.985},
            "temp": {"shots_csv": str(tmp_path / "shots.csv"),
                     "model_json": str(tmp_path / "model.json"),
                     "ladder": LADDER_CFG, "window": 200, "t_shot_us": 34.2},
            "sweep": dict(SWEEP_CFG, flux_points=5),
            "fit": {"reset_csv": str(tmp_path / "reset.csv"), "fit_floor": True},
            "classify": {"shots_csv": str(tmp_path / "shots.csv"),
                         "model_json": str(tmp_path / "model.json")},
            "fit-model": {"shots_csv": str(tmp_path / "labelled.csv"),
                          "save_model_json": str(tmp_path / "fitted.json")},
            "rb": {"generator": "rb", "p_true": 0.995, "shots_per_point": 1000, "seed": 3},
            "fit-rb": {"curve_csv": str(tmp_path / "rb.csv")},
            "fit-curve": {"curve_csv": str(tmp_path / "rb.csv"), "model": "exponential"},
        }
        paths = {k: write_cfg(tmp_path, f"{k}.json", v) for k, v in cfgs.items()}
        calls = [("generate", paths["windows"], str(tmp_path / "shots.csv")),
                 ("generate", paths["reset"], str(tmp_path / "reset.csv")),
                 ("fit-temp", paths["temp"], str(tmp_path / "temp.json")),
                 ("filter-sweep", paths["sweep"], str(tmp_path / "sweep.csv")),
                 ("fit-reset", paths["fit"], str(tmp_path / "fit.json")),
                 ("classify", paths["classify"], str(tmp_path / "counts.json")),
                 ("classify", paths["fit-model"], str(tmp_path / "matrix.json")),
                 ("generate", paths["rb"], str(tmp_path / "rb.csv")),
                 ("fit-rb", paths["fit-rb"], str(tmp_path / "rb.json")),
                 ("fit-curve", paths["fit-curve"], str(tmp_path / "curve.json"))]
        src = str(Path(fluxline.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", _HYGIENE_SCRIPT, json.dumps(calls),
                               ",".join(WATCHED)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report) == 2 + len(calls)
        return report

    def test_no_command_and_no_fits_access_loads_scipy(self, report):
        report = dict(report)
        same_module, has_rb_fit, report["fits"] = report.pop("fits")
        assert same_module and has_rb_fit
        assert {step: [m for m in mods if m not in WATCHED] for step, mods in report.items()} \
            == {step: [] for step in report}

    def test_no_command_loads_argparse_locale_or_numpy_ma(self, report):
        steps = {step: mods for step, mods in report.items() if step != "fits"}
        assert {step: [m for m in mods if m in WATCHED] for step, mods in steps.items()} \
            == {step: [] for step in steps}
