"""The four benchmark workloads: inputs made from a seed, output checks.

Each workload turns a seed into one or more *cases*.  A case is one CLI
call (its argv and output path) plus the generated input files it needs.
Inputs come from ``fluxline generate`` itself, so they are exactly what a
user of the tool would produce; they are cached by (generator config,
seed) because making the 1e6-shot CSV takes as long as analysing it.

``summarize`` reduces an output file to what the checks compare;
``compare`` returns a list of problems against a reference summary, with
the tolerances stated next to each workload; ``plausible`` checks a
summary against the generating truth when no recorded reference exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

LADDER_A = {"f_ge_ghz": 3.9514, "f_ef_ghz": 3.8167, "f_fh_ghz": 3.6730}
T_TRUE_MK = 181.072
T_SHOT_US = 34.2
RESET_T1_NS = {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84}
RESET_FLOOR = 0.985
RATE_NAMES = ("gamma_ge", "gamma_ef", "gamma_fh")

# Reference filter geometry, SQUID array and qubit (the README example),
# swept over the full half flux period.
SWEEP_BASE = {
    "geometry": {"z0_ohm": 50.0, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5,
                 "x_s_mm": 2.0, "c_g_fF": 0.0, "c_d_fF": 4.4},
    "squid_array": {"n_squids": 5, "ic_junction_uA": 10.0},
    "qubit": {"f_q_GHz": 3.9, "c_q_fF": 143.0, "t1_internal_ms": 0.2},
    "flux_start": 0.0, "flux_stop": 0.5,
    "mode": "clamped", "i_node_uA": 0.2,
}
# Columns of the sweep that do not depend on the drive frequency, and so
# are the same for every seed.
SWEEP_DRIVE_FREE = ("flux_ratio", "l_j_arr_H", "f_f_Hz")

# "full" is the benchmark; "tiny" is for the harness's own tests.  The
# 2e5 shots sit in the 1e5-1e7 range users analyse and keep one sample
# near a second, so a run holds enough samples for a steady median on a
# shared host.
SIZES = {
    "full": {"n_win": 200, "n_shot": 1000, "flux_points": 2001,
             "t_points": 1000, "reset_cases": 10},
    "tiny": {"n_win": 10, "n_shot": 1000, "flux_points": 41,
             "t_points": 60, "reset_cases": 2},
}

# Relative tolerances.  Fits may drift by ~1e-8 relative when a batched
# minimiser replaces the scalar one; 1e-6 admits that and nothing larger.
FIT_RTOL = 1e-6
# Sweep columns: the root solve is to 1e-12; a vectorised solver stays
# within ~4e-13.  The absolute term covers entries near an exact zero.
SWEEP_RTOL = 1e-9
SWEEP_ATOL_SHARE = 1e-12


def ring_model() -> dict:
    """Five unit-variance clusters (g, e, f, h, k+) 6 sigma apart on a ring."""
    labels = ("g", "e", "f", "h", "k+")
    radius = 6.0 / (2.0 * math.sin(math.pi / len(labels)))
    comps = {}
    for i, lab in enumerate(labels):
        angle = 2.0 * math.pi * i / len(labels)
        comps[lab] = {"mean": [radius * math.cos(angle), radius * math.sin(angle)],
                      "cov": [[1.0, 0.0], [0.0, 1.0]],
                      "weight": 1.0 / len(labels)}
    return {"components": comps}


def windows_generator(size: dict) -> dict:
    return {"generator": "windows", "ladder": LADDER_A,
            "cluster_model": ring_model(), "temperature_mk": T_TRUE_MK,
            "n_win": size["n_win"], "n_shot": size["n_shot"]}


def reset_generator(size: dict) -> dict:
    return {"generator": "reset", "rates": RESET_T1_NS,
            "t_start_ns": 10.0, "t_stop_ns": 2000.0,
            "t_points": size["t_points"], "n_shots_per_point": 10000,
            "floor_p_inf": RESET_FLOOR}


class Case:
    """One CLI call of a workload.

    ``inputs`` maps a file name to the generator config that makes it;
    ``build`` receives the paths of those files and the work directory
    and returns (argv, output path).
    """

    def __init__(self, seed: int, inputs: dict, build):
        self.seed = seed
        self.inputs = inputs
        self.build = build


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class FitTemp:
    name = "fit-temp"
    unit_of_work = "shot"

    def items(self, size):
        return size["n_win"] * size["n_shot"]

    def cases(self, seed, size):
        def build(files, work):
            cfg = _write_json(work / "fit-temp.config.json", {
                "shots_csv": str(files["shots.csv"]),
                "model_json": _write_json(work / "model.json", ring_model()),
                "ladder": LADDER_A, "window": size["n_shot"],
                "t_shot_us": T_SHOT_US})
            out = work / f"fit-temp-{seed}.json"
            return ["fit-temp", "--config", cfg, "--out", str(out)], out
        return [Case(seed, {"shots.csv": windows_generator(size)}, build)]

    def summarize(self, out: Path) -> dict:
        doc = json.loads(out.read_text())
        return {"n_win": doc["n_win"], "mu_T_K": doc["mu_T_K"],
                "sigma_T_K": doc["sigma_T_K"],
                "t_eff_K": [w["t_eff_K"] for w in doc["per_window"]]}

    def compare(self, got, ref):
        if got["n_win"] != ref["n_win"] or len(got["t_eff_K"]) != len(ref["t_eff_K"]):
            return [f"window count {got['n_win']} != {ref['n_win']}"]
        problems = [f"{k} {got[k]!r} != {ref[k]!r}" for k in ("mu_T_K", "sigma_T_K")
                    if _rel_diff(got[k], ref[k]) > FIT_RTOL]
        bad = [i for i, (a, b) in enumerate(zip(got["t_eff_K"], ref["t_eff_K"]))
               if _rel_diff(a, b) > FIT_RTOL]
        if bad:
            problems.append(f"{len(bad)} windows differ, first at {bad[0]}")
        return problems

    def plausible(self, got, size, base_ref):
        problems = []
        if got["n_win"] != size["n_win"]:
            problems.append(f"n_win {got['n_win']} != {size['n_win']}")
        if not all(math.isfinite(t) and t > 0 for t in got["t_eff_K"]):
            problems.append("a window temperature is not finite and positive")
        t_true = T_TRUE_MK * 1e-3
        if not abs(got["mu_T_K"] - t_true) < 0.05 * t_true:
            problems.append(f"mu_T_K {got['mu_T_K']!r} is not within 5% of {t_true}")
        return problems


class Generate:
    name = "generate"
    unit_of_work = "shot"

    def items(self, size):
        return size["n_win"] * size["n_shot"]

    def cases(self, seed, size):
        def build(files, work):
            cfg = _write_json(work / "generate.config.json", windows_generator(size))
            out = work / f"generate-{seed}.csv"
            return ["generate", "--config", cfg, "--out", str(out),
                    "--seed", str(seed)], out
        return [Case(seed, {}, build)]

    def summarize(self, out: Path) -> dict:
        data = out.read_bytes()
        return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                "header": data[:data.find(b"\n")].decode(),
                "rows": data.count(b"\n") - 1}

    def compare(self, got, ref):
        if got["sha256"] != ref["sha256"]:
            return [f"sha256 {got['sha256'][:16]}... != {ref['sha256'][:16]}..."]
        return []

    def plausible(self, got, size, base_ref):
        problems = []
        if got["header"] != "prep,i,q":
            problems.append(f"header {got['header']!r}")
        if got["rows"] != self.items(size):
            problems.append(f"{got['rows']} rows, expected {self.items(size)}")
        return problems


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class FilterSweep:
    name = "filter-sweep"
    unit_of_work = "flux point"

    def items(self, size):
        return size["flux_points"]

    @staticmethod
    def drive_ghz(seed: int) -> float:
        """The seed picks the drive frequency: 4.2 GHz at seed 0, +1 MHz per step."""
        return round(4.2 + 0.001 * (seed % 100), 6)

    def cases(self, seed, size):
        def build(files, work):
            cfg = dict(SWEEP_BASE, flux_points=size["flux_points"],
                       drive_freq_GHz=self.drive_ghz(seed))
            path = _write_json(work / "filter-sweep.config.json", cfg)
            out = work / f"filter-sweep-{seed}.csv"
            return ["filter-sweep", "--config", path, "--out", str(out)], out
        return [Case(seed, {}, build)]

    def summarize(self, out: Path) -> dict:
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in rec] for rec in reader]
        columns = {name: [r[k] for r in rows] for k, name in enumerate(header)}
        # The CSV drops the row's error field; a failed point is written
        # with nan from the filter frequency on.
        errors = [k for k, v in enumerate(columns.get("f_f_Hz", [])) if math.isnan(v)]
        return {"columns": columns, "error_rows": errors}

    def compare(self, got, ref, names=None):
        if got["error_rows"] != ref["error_rows"]:
            return [f"error rows {got['error_rows']} != {ref['error_rows']}"]
        problems = []
        for name in names or ref["columns"]:
            a, b = got["columns"].get(name), ref["columns"][name]
            if a is None or len(a) != len(b):
                problems.append(f"column {name} missing or of another length")
                continue
            finite = [abs(v) for v in b if math.isfinite(v)]
            atol = SWEEP_ATOL_SHARE * max(finite, default=0.0)
            bad = [k for k, (x, y) in enumerate(zip(a, b)) if not _close(x, y, atol)]
            if bad:
                problems.append(f"column {name}: {len(bad)} rows differ, first at {bad[0]}")
        return problems

    def plausible(self, got, size, base_ref):
        # Roots do not depend on the drive, so every seed must reproduce the
        # seed-0 reference's error rows and drive-free columns.
        if base_ref is None:
            return []
        return self.compare(got, base_ref, names=SWEEP_DRIVE_FREE)


def _close(x, y, atol) -> bool:
    if math.isnan(y) or math.isnan(x):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(y) or math.isinf(x):
        return x == y
    return abs(x - y) <= SWEEP_RTOL * max(abs(x), abs(y)) + atol


class FitReset:
    name = "fit-reset"
    unit_of_work = "data point"

    def items(self, size):
        return 3 * size["t_points"]

    def cases(self, seed, size):
        """Several datasets per seed.

        The Levenberg-Marquardt path length, and with it the run time,
        depends on the noise draw: the closed form is evaluated 90 to 153
        times per fit.  The mean over several draws is what a user fitting
        many datasets sees, and it varies far less from seed to seed.
        """
        k = size["reset_cases"]
        return [self._case(seed * k + j, size) for j in range(k)]

    def _case(self, case_seed, size):
        def build(files, work):
            cfg = _write_json(work / f"fit-reset.{case_seed}.config.json",
                              {"reset_csv": str(files["reset.csv"]), "fit_floor": True})
            out = work / f"fit-reset-{case_seed}.json"
            return ["fit-reset", "--config", cfg, "--out", str(out)], out
        return Case(case_seed, {"reset.csv": reset_generator(size)}, build)

    def summarize(self, out: Path) -> dict:
        doc = json.loads(out.read_text())
        return {"rates_per_s": doc["rates_per_s"], "floor": doc["floor"],
                "sigma_rates_per_s": doc["sigma_rates_per_s"]}

    def compare(self, got, ref):
        problems = [f"{n} {got['rates_per_s'][n]!r} != {ref['rates_per_s'][n]!r}"
                    for n in RATE_NAMES
                    if _rel_diff(got["rates_per_s"][n], ref["rates_per_s"][n]) > FIT_RTOL]
        if _rel_diff(got["floor"], ref["floor"]) > FIT_RTOL:
            problems.append(f"floor {got['floor']!r} != {ref['floor']!r}")
        return problems

    def plausible(self, got, size, base_ref):
        truth = dict(zip(RATE_NAMES, (1e9 / RESET_T1_NS[k] for k in RESET_T1_NS)))
        sig = got["sigma_rates_per_s"]
        problems = [f"{n} is {abs(got['rates_per_s'][n] - truth[n]) / sig[n]:.1f} sigma off"
                    for n in RATE_NAMES
                    if not abs(got["rates_per_s"][n] - truth[n]) < 6.0 * sig[n]]
        if not abs(got["floor"] - RESET_FLOOR) < 6.0 * sig["p_inf"]:
            problems.append(f"floor {got['floor']!r} is more than 6 sigma from {RESET_FLOOR}")
        return problems


WORKLOADS = {w.name: w for w in (FitTemp(), Generate(), FilterSweep(), FitReset())}
