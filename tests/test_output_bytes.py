"""The bytes of seeded outputs, pinned by sha256.

Seeded generators must write byte-identical files (ROADMAP aim 2), so a
rewrite of a generator or of the CSV writer has to leave these hashes as
they are.  Each hash was computed with the writer that formatted every
value with ``repr`` and joined the fields row by row, and the draw that
emitted each cluster component through a boolean mask; the rewrites must
not move them.  The window model has non-identity covariances, so a
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

SHA256 = {
    "generate windows": "817af8d4d6f0c58b1c3b707e3186d16f98bab9be7dbf14672b35befdc46fffd0",
    "generate thermal": "2beccf9471a0f398c63fad358db84cc8171a5578bae4d0cf079444304a658fea",
    "generate reset": "cdb56a3bf3c3c3d34e48eadcc63f9f686f730a55b9b05d6003145e5c3502b776",
    "generate rb": "9715e4cf6cf0709730e6a1319089b702375b5e68ded2224c90e05cf257749f32",
    "filter-sweep": "5be08e4fe132366a0e4111a9eff0949bd681094f8e974b763e633ad5639318c8",
}


def output_sha256(tmp_path, name: str) -> str:
    command, cfg = CASES[name]
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_seeded_output_bytes_are_pinned(tmp_path, name):
    assert output_sha256(tmp_path, name) == SHA256[name]
