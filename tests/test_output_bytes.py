"""The bytes of seeded outputs, pinned by sha256.

Seeded generators must write byte-identical files (ROADMAP aim 2), so a
rewrite of a generator or of the CSV writer has to leave these hashes as
they are.  Each generate hash was computed with the writer that formatted
every value with ``repr`` and joined the fields row by row, and the draw
that emitted each cluster component through a boolean mask; the rewrites
must not move them.  The window model has non-identity covariances, so a
changed rounding order in the draw would show.
"""

import hashlib
import json

import pytest

from fluxline.cli import main

from conftest import LADDER_A

# Clusters with correlated, unequal covariances; 300 mK draws every one.
SKEWED_MODEL = {"components": {
    "g": {"mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 0.8]], "weight": 0.4},
    "e": {"mean": [6.0, 0.1], "cov": [[1.3, -0.2], [-0.2, 0.9]], "weight": 0.3},
    "f": {"mean": [3.0, 5.2], "cov": [[0.7, 0.1], [0.1, 1.1]], "weight": 0.2},
    "h": {"mean": [-3.0, 5.2], "cov": [[1.1, 0.4], [0.4, 1.2]], "weight": 0.05},
    "k+": {"mean": [-6.0, 0.0], "cov": [[0.9, -0.3], [-0.3, 1.4]], "weight": 0.05}}}

CASES = {
    "generate windows": ("generate", {
        "generator": "windows", "ladder": LADDER_A, "cluster_model": SKEWED_MODEL,
        "temperature_mk": 300.0, "n_win": 4, "n_shot": 250}),
    "generate thermal": ("generate", {
        "generator": "thermal", "ladder": LADDER_A, "cluster_model": SKEWED_MODEL,
        "temperature_mk": 181.072, "n_shots": 1000}),
    "generate reset": ("generate", {
        "generator": "reset",
        "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
        "t_points": 40, "n_shots_per_point": 10000, "floor_p_inf": 0.985}),
    "generate rb": ("generate", {"generator": "rb", "p_true": 0.995125}),
    # Over the whole half period, so the no-root rows near half flux write nan.
    "filter-sweep": ("filter-sweep", {
        "geometry": {"z0_ohm": 50.0, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5,
                     "x_s_mm": 2.0, "c_g_fF": 0.0, "c_d_fF": 4.4},
        "squid_array": {"n_squids": 5, "ic_junction_uA": 10.0},
        "qubit": {"f_q_GHz": 3.9, "c_q_fF": 143.0, "t1_internal_ms": 0.2},
        "drive_freq_GHz": 4.2, "flux_start": 0.0, "flux_stop": 0.5,
        "flux_points": 41, "mode": "clamped"}),
}

# The fits of those outputs, pinned the same way: a change that should leave
# a fit's result as it is must not move a byte of its JSON.  Each reads the
# output of a generate case above: name -> (command, config key of the
# input, generate case, rest of the config).
ANALYSES = {
    "fit-reset": ("fit-reset", "reset_csv", "generate reset", {"fit_floor": False}),
    "fit-reset floor": ("fit-reset", "reset_csv", "generate reset", {"fit_floor": True}),
    "fit-rb": ("fit-rb", "curve_csv", "generate rb", {}),
    "fit-curve exponential": ("fit-curve", "curve_csv", "generate rb", {"model": "exponential"}),
    # The model that drew the windows classifies them; it is written to its own file.
    "fit-temp": ("fit-temp", "shots_csv", "generate windows", {
        "model_json": SKEWED_MODEL, "ladder": LADDER_A, "window": 250, "t_shot_us": 1.0}),
}

SHA256 = {
    "generate windows": "817af8d4d6f0c58b1c3b707e3186d16f98bab9be7dbf14672b35befdc46fffd0",
    "generate thermal": "2beccf9471a0f398c63fad358db84cc8171a5578bae4d0cf079444304a658fea",
    "generate reset": "cdb56a3bf3c3c3d34e48eadcc63f9f686f730a55b9b05d6003145e5c3502b776",
    "generate rb": "9715e4cf6cf0709730e6a1319089b702375b5e68ded2224c90e05cf257749f32",
    "filter-sweep": "04903e1c98ef816f12d53af4e6934a9ecf41fcd7cb8a8d87f338ba2b02c562c3",
    "fit-reset": "482d6909fda874fa268b0d6bd09af1a83591473f29d0376a0596e7312381cf2a",
    "fit-reset floor": "6516f99c2f24464f816c08a6b8e12cb4d44423107302d2a18c409a6b1b381697",
    "fit-rb": "47b051328d1da57cc87cd7f8c06fbdd654c2c530c3535eacd17214ef07ef3de6",
    "fit-curve exponential": "a2dbb699372f5a0c08cfb1329162a27345181c2571486d734851b35c921e3e8d",
    "fit-temp": "37911964c1151398d88e845613441fc8d65cbc8aa1d3c66a5ad510c0ada24972",
}


def run(tmp_path, command: str, cfg: dict, stem: str):
    path, out = tmp_path / f"{stem}.json", tmp_path / f"{stem}.out"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    return out


def output_sha256(tmp_path, name: str) -> str:
    if name in ANALYSES:
        command, key, source, cfg = ANALYSES[name]
        cfg = {**cfg, key: str(run(tmp_path, *CASES[source], "input"))}
        if "model_json" in cfg:
            model = tmp_path / "model.json"
            model.write_text(json.dumps(cfg["model_json"]))
            cfg["model_json"] = str(model)
    else:
        command, cfg = CASES[name]
    return hashlib.sha256(run(tmp_path, command, cfg, "output").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", [*CASES, *ANALYSES])
def test_seeded_output_bytes_are_pinned(tmp_path, name):
    assert output_sha256(tmp_path, name) == SHA256[name]
