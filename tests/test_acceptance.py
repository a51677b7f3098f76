"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured figures.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fluxline import classify as cl
from fluxline import dynamics as dyn
from fluxline import fits
from fluxline import io as fio
from fluxline import network as nw
from fluxline import synth
from fluxline import thermometry as th
from fluxline.cli import main as cli_main

from conftest import LADDER_A, REF_ARRAY, REF_GEOMETRY, RESET_T1, make_ring_model
from oracle import populations_ode


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_quarter_wave_identity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        geom = nw.FilterGeometry(
            z0=rng.uniform(20, 120),
            v_p=rng.uniform(0.8e8, 2.0e8),
            l_f=rng.uniform(2e-3, 2e-2),
            x_s=0.0,
            c_g=0.0,
        )
        geom = replace(geom, x_s=rng.uniform(0, geom.l_f))
        f = nw.filter_frequency_exact(geom, 0.0)
        worst = max(worst, abs(f - geom.f0) / geom.f0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "quarter-wave identity", ok,
           f"worst rel err {worst:.2e} over 100 geometries in {elapsed:.2f}s")


def test_criterion_02_first_order_vs_exact():
    geom = nw.FilterGeometry(**{**REF_GEOMETRY, "x_s": 0.0})
    worst_inside = 0.0
    for scale in np.linspace(0.0, 0.3, 31):
        l_s = scale * geom.z0 / (4.0 * geom.f0)
        f_exact = nw.filter_frequency_exact(geom, l_s)
        f_first = nw.filter_frequency_first_order(geom.f0, l_s, geom.z0)
        worst_inside = max(worst_inside, abs(f_first - f_exact) / f_exact)
    # beyond the stated validity range the divergence is reported, not asserted
    beyond = {}
    for scale in (0.5, 0.8, 1.2):
        l_s = scale * geom.z0 / (4.0 * geom.f0)
        f_exact = nw.filter_frequency_exact(geom, l_s)
        f_first = nw.filter_frequency_first_order(geom.f0, l_s, geom.z0)
        beyond[scale] = abs(f_first - f_exact) / f_exact
    ok = worst_inside <= 0.01
    report(2, "first-order filter pull", ok,
           f"worst rel dev {worst_inside:.4%} on [0, 0.3]; beyond: "
           + ", ".join(f"{k}: {v:.2%}" for k, v in beyond.items()))


def test_criterion_03_coupling_cancellation_and_dynamic_range():
    start = time.perf_counter()
    geom = nw.FilterGeometry(**REF_GEOMETRY)
    arr = nw.SquidArray(**REF_ARRAY)
    qubit = nw.QubitLoad(f_q=3.9e9, c_q=143e-15, t1_internal=2e-4)
    grid = np.linspace(0.0, 0.45, 201)
    # drive parked at the filter frequency of an in-grid bias, the idle
    # operating point of the device
    drive = nw.filter_frequency_exact(
        geom, nw.squid_array_inductance(arr, grid[150]))

    worst_re_yq = 0.0
    for flux in grid:
        l_j = nw.squid_array_inductance(arr, flux)
        f_f = nw.filter_frequency_exact(geom, l_j)
        worst_re_yq = max(worst_re_yq,
                          nw.qubit_admittance(geom, l_j, 2 * math.pi * f_f).real)

    rows = nw.flux_sweep(geom, arr, qubit, grid, drive, mode="clamped")
    gammas = np.array([r.gamma_qf for r in rows])
    assert all(r.error is None for r in rows)
    dyn_range = gammas.max() / gammas.min()
    elapsed = time.perf_counter() - start
    ok = worst_re_yq < 1e-15 and dyn_range >= 1e5 and elapsed < 10.0
    report(3, "coupling cancellation", ok,
           f"max ReYq(f_f) {worst_re_yq:.2e} S, gamma dynamic range "
           f"{dyn_range:.2e}, {elapsed:.1f}s for 201 biases")


def test_criterion_04_multilevel_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    t_grid = np.geomspace(1e-9, 1e-4, 100)
    rates_list = []
    for k in range(1000):
        g = 10 ** rng.uniform(4, 8, 3)
        if k % 10 == 0:
            g[1] = g[0] * (1 + 1e-9)   # near-degenerate pair
        if k % 10 == 1:
            g[2] = g[1] * (1 + 1e-12)  # nearly exactly degenerate pair
        if k % 10 == 2:
            g[1] = g[0]
            g[2] = g[0]                # fully degenerate cascade
        rates_list.append(dyn.DecayRates(*g))
    init = np.array([0.0, 0.0, 0.0, 1.0])  # prepared in h
    ode = populations_ode(t_grid, rates_list, init)
    worst = 0.0
    for i, rates in enumerate(rates_list):
        closed = dyn.populations_closed_form(t_grid, rates, init)
        worst = max(worst, np.abs(ode[i] - closed).max())
    # cross-validate the batched integrator against its one-system calls
    for rates in rates_list[::101]:
        single = populations_ode(t_grid, [rates], init)[0]
        closed = dyn.populations_closed_form(t_grid, rates, init)
        worst = max(worst, np.abs(single - closed).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(4, "closed form vs ODE oracle", ok,
           f"max abs err {worst:.2e} over 1000 triples x 100 points "
           f"in {elapsed:.1f}s")


def test_criterion_05_reset_round_trip():
    rates = dyn.DecayRates.from_t1(*RESET_T1)
    t_grid = np.linspace(20e-9, 2.0e-6, 40)
    data = synth.gen_reset_curves(rates, (1, 2, 3), t_grid, 100000, seed=3)
    fit = dyn.fit_decay_rates(data)
    zs = {}
    for name in ("gamma_ge", "gamma_ef", "gamma_fh"):
        zs[name] = abs(getattr(fit.rates, name)
                       - getattr(rates, name)) / fit.sigmas[name]
    within_sigma = all(z <= 1.0 for z in zs.values())

    t_late = np.linspace(0.2e-6, 8e-6, 25)
    floored = synth.gen_reset_curves(rates, (1, 2, 3), t_late, 100000,
                                     floor_p_inf=0.985, seed=3)
    late = np.concatenate([c.populations[c.times > 4e-6, 0]
                           for c in floored.curves.values()])
    saturation_ok = np.all(np.abs(late - 0.985) <= 0.002)

    e_row = np.array([0.0, 1.0, 0.0, 0.0])
    residual = 1.0 - dyn.populations_closed_form(5.0 / rates.gamma_ge, rates, e_row)[0, 0]
    residual_ok = (residual == pytest.approx(math.exp(-5.0), rel=1e-12)
                   and residual < 0.007)

    ok = within_sigma and saturation_ok and residual_ok
    report(5, "reset round trip", ok,
           "z = " + ", ".join(f"{n} {z:.2f}" for n, z in zs.items())
           + f"; late P_g {late.mean():.4f}; e^-5 residual {residual:.5f}")


def test_criterion_06_thermal_floor_cross_check():
    ladder = th.LevelLadder(f_ge_ghz=3.9003, f_ef_ghz=3.7654, f_fh_ghz=3.6211)
    p_g = th.boltzmann_populations(0.045, ladder, 4)[0]
    ok = 0.982 <= p_g <= 0.987
    report(6, "thermal floor cross-check", ok, f"P_g(45 mK) = {p_g:.5f}")


def multinomial_windows(seed: int, n_win: int, n_shot: int, probs) -> np.ndarray:
    """(n_win, 4) g, e, f, h populations of exactly classified windows.

    Each window draws multinomial level counts from its own substream;
    levels above h are excluded and the rest renormalized.
    """
    counts = np.array([synth.window_rng(seed, w).multinomial(n_shot, probs)[:4]
                       for w in range(n_win)])
    return counts / counts.sum(axis=1, keepdims=True)


def test_criterion_07_thermometry_round_trip_and_precision():
    ladder = th.LevelLadder(**LADDER_A)

    t_grid = np.geomspace(0.010, 5.0, 200)
    exact = np.array([th.boltzmann_populations(t, ladder, 4) for t in t_grid])
    worst_rt = float(np.max(np.abs(th.fit_temperature_batch(exact, ladder).t_eff - t_grid)
                            / t_grid))
    rt_ok = worst_rt < 1e-8

    # exact-classification synthetic windows: multinomial level counts from
    # the six-level thermal distribution, overflow excluded and renormalized
    t_true = 0.181072
    n_shot, n_win = 5000, 1000
    cfg = synth.ShotGenConfig(ladder=ladder, cluster_model=make_ring_model(),
                              seed=21)
    probs = th.boltzmann_populations(t_true, cfg.ladder, cfg.n_model_levels)
    temps = th.fit_temperature_batch(
        multinomial_windows(21, n_win, n_shot, probs), ladder).t_eff
    mu, sigma, sigma_mu = th.window_statistics(temps)
    mean_ok = abs(mu - t_true) <= 3 * sigma_mu

    # multinomial-theory prediction via finite differences of the
    # four-level thermal populations
    dt = 1e-6
    p0 = th.boltzmann_populations(t_true, ladder, 4)
    dp = (th.boltzmann_populations(t_true + dt, ladder, 4)
          - th.boltzmann_populations(t_true - dt, ladder, 4)) / (2 * dt)
    sigma_theory = 1.0 / math.sqrt(n_shot * float(np.sum(dp**2 / p0)))
    sigma_ok = abs(sigma - sigma_theory) <= 0.2 * sigma_theory

    sizes = (1000, 2000, 4000, 8000)
    sigmas = []
    for j, n in enumerate(sizes):
        tt = th.fit_temperature_batch(
            multinomial_windows(100 + j, 300, n, probs), ladder).t_eff
        sigmas.append(tt.std(ddof=1))
    slope = np.polyfit(np.log([n * 34.2e-6 for n in sizes]), np.log(sigmas), 1)[0]
    slope_ok = abs(slope + 0.5) <= 0.05

    net_value = th.net(3.540e-3, 5000 * 34.2e-6)
    net_ok = (net_value == pytest.approx(3.540e-3 * math.sqrt(0.171), rel=1e-12)
              and net_value == pytest.approx(1.464e-3, abs=1e-6))

    ok = rt_ok and mean_ok and sigma_ok and slope_ok and net_ok
    report(7, "thermometry round trip and precision", ok,
           f"round-trip {worst_rt:.1e}; mu {mu * 1e3:.3f} mK "
           f"(|bias| {abs(mu - t_true) / sigma_mu:.2f} sigma_mu); sigma "
           f"{sigma * 1e3:.3f} vs theory {sigma_theory * 1e3:.3f} mK; "
           f"slope {slope:.3f}; NET {net_value * 1e3:.4f} mK/sqrtHz")


def test_criterion_08_qcrb_identity_and_efficiency():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    # identity between the explicit bounds and the energy-variance form is
    # asserted inside qcrb_bound at 1e-10 relative
    for _ in range(100):
        ladder = th.LevelLadder(
            f_ge_ghz=rng.uniform(2.0, 6.0),
            f_ef_ghz=rng.uniform(1.8, 5.8),
            f_fh_ghz=rng.uniform(1.6, 5.6))
        t = 10 ** rng.uniform(-2, 0.7)
        for n in (2, 3, 4):
            assert th.qcrb_bound(t, ladder, n) > 0
    ladder = th.LevelLadder(**LADDER_A)
    ratios = {}
    for t_true in (0.100, 0.200, 0.400):
        p4 = th.boltzmann_populations(t_true, ladder, 4)
        temps = th.fit_temperature_batch(
            multinomial_windows(77, 2000, 1000, p4), ladder).t_eff
        precision = temps.std(ddof=1) / temps.mean() * math.sqrt(1000)
        ratios[t_true] = precision / th.qcrb_bound(t_true, ladder, 4)
    elapsed = time.perf_counter() - start
    ok = all(r <= 1.3 for r in ratios.values()) and elapsed < 120.0
    report(8, "quantum Cramer-Rao benchmarks", ok,
           "efficiency ratio " + ", ".join(
               f"{t * 1e3:.0f} mK: {r:.3f}" for t, r in ratios.items())
           + f"; identity checked on 100 random pairs; {elapsed:.0f}s")


def test_criterion_09_classification():
    eps = cl.bayes_error(6.0)
    bayes_ok = abs(eps - 1.3499e-3) <= 1e-7

    two = cl.GmmModel(("g", "e"), [[0.0, 0.0], [6.0, 0.0]], [np.eye(2)] * 2, [0.5, 0.5])
    conf = cl.synthetic_confusion(two, 100000, seed=7)
    tol = 3 * math.sqrt(eps * (1 - eps) / 100000)
    confusion_ok = (abs(conf.entry("g", "e") - eps) <= tol
                    and abs(conf.entry("e", "g") - eps) <= tol)

    rng = np.random.default_rng(15)
    affine_worst = 0.0
    model = make_ring_model(("g", "e", "f"), separation=5.0)
    for _ in range(25):
        a = rng.normal(size=(2, 2)) + 2.5 * np.eye(2)
        b = rng.normal(size=2)
        moved = cl.GmmModel(model.labels, model.means @ a.T + b, a @ model.covs @ a.T,
                            model.weights)
        for pair in (("g", "e"), ("e", "f"), ("g", "f")):
            affine_worst = max(affine_worst, abs(
                cl.pairwise_separation(model, *pair)
                - cl.pairwise_separation(moved, *pair)))
    affine_ok = affine_worst < 1e-9

    ok = bayes_ok and confusion_ok and affine_ok
    report(9, "classification", ok,
           f"bayes(6) = {eps:.6e}; confusion dev ({abs(conf.entry('g', 'e') - eps):.2e},"
           f" {abs(conf.entry('e', 'g') - eps):.2e}) vs 3sig {tol:.2e}; "
           f"affine worst {affine_worst:.1e}")


def test_criterion_10_rb_formulas():
    k = 45.0 / 24.0
    f_ref = fits.clifford_fidelity(0.995125, k)
    formula_ok = abs(f_ref - 0.9987) <= 5e-5

    identities_ok = (fits.interleaved_fidelity(0.9952, 0.9952) == 1.0
                     and fits.interleaved_fidelity(0.9952, 0.0) == 0.5)

    m_grid = np.arange(0, 400, 10, dtype=float)
    mm, y = synth.gen_rb_decay(0.995125, 0.5, 0.5, m_grid, 10000, seed=3)
    res = fits.rb_fit(mm, y)
    f_est = fits.clifford_fidelity(res.params["p"], k)
    sigma_f = res.sigmas["p"] / (2 * k)
    z = abs(f_est - f_ref) / sigma_f
    pipeline_ok = z <= 1.0

    ok = formula_ok and identities_ok and pipeline_ok
    report(10, "benchmarking formulas", ok,
           f"F(0.995125) = {f_ref:.5f}; identities exact; pipeline z = {z:.2f}")


def test_criterion_11_determinism(tmp_path):
    checks = {}

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "generator": "reset",
        "rates": {"t1_ge_ns": 238.22, "t1_ef_ns": 136.80, "t1_fh_ns": 128.84},
        "t_points": 25, "n_shots_per_point": 4000, "seed": 11}))
    outs = []
    for name in ("a.csv", "b.csv"):
        assert cli_main(["generate", "--config", str(gen_cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    checks["reset generator"] = outs[0] == outs[1]

    model = fio.model_to_dict(make_ring_model())
    win_cfg = tmp_path / "win.json"
    win_cfg.write_text(json.dumps({
        "generator": "windows", "ladder": LADDER_A, "cluster_model": model,
        "temperature_mk": 181.072, "n_win": 4, "n_shot": 800, "seed": 11}))
    outs = []
    for name in ("w1.csv", "w2.csv"):
        assert cli_main(["generate", "--config", str(win_cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    checks["window generator"] = outs[0] == outs[1]

    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({"reset_csv": str(tmp_path / "a.csv")}))
    outs = []
    for name in ("f1.json", "f2.json"):
        assert cli_main(["fit-reset", "--config", str(fit_cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    checks["reset fit"] = outs[0] == outs[1]

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "geometry": {"z0_ohm": 50.0, "v_p_m_per_s": 1.17e8, "l_f_mm": 6.5,
                     "x_s_mm": 2.0, "c_d_fF": 4.4},
        "squid_array": {"n_squids": 5, "ic_junction_uA": 10.0},
        "qubit": {"f_q_GHz": 3.9},
        "drive_freq_GHz": 4.2, "flux_points": 21, "flux_stop": 0.45}))
    outs = []
    for name in ("s1.csv", "s2.csv"):
        assert cli_main(["filter-sweep", "--config", str(sweep_cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    checks["flux sweep"] = outs[0] == outs[1]

    rb_cfg = tmp_path / "rb.json"
    rb_cfg.write_text(json.dumps({
        "generator": "rb", "p_true": 0.995125,
        "m_grid": list(range(0, 200, 10)), "shots_per_point": 2000, "seed": 5}))
    outs = []
    for name in ("r1.csv", "r2.csv"):
        assert cli_main(["generate", "--config", str(rb_cfg),
                         "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name).read_bytes())
    checks["rb generator"] = outs[0] == outs[1]

    ok = all(checks.values())
    report(11, "determinism", ok,
           ", ".join(f"{k}: {'same' if v else 'DIFFER'}" for k, v in checks.items()))
