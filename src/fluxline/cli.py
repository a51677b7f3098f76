"""Command-line front end for sweeps, fits and synthetic-data generation.

Every subcommand reads a JSON config (--config), writes its result to
--out, and is deterministic given (config, seed).  Exit codes: 0 success,
1 configuration or input error, 2 solver or fit failure.  Config schemas
are documented in the README; boundary units (GHz, ns, us, fF, nH, mm,
uA, mK) are converted once at parse time and the core runs in SI.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classify as cl
from . import dynamics as dyn
from . import io as fio
from . import network as nw
from . import synth
from . import thermometry as th
from .errors import FluxlineError


class ConfigError(Exception):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _flux_grid(cfg: dict) -> np.ndarray:
    if "flux_values" in cfg:
        grid = np.asarray(cfg["flux_values"], dtype=float)
    else:
        n = cfg.get("flux_points", 101)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"flux_points must be an integer >= 1, got {n!r}")
        grid = np.linspace(float(cfg.get("flux_start", 0.0)),
                           float(cfg.get("flux_stop", 0.5)), n)
    if grid.size == 0:
        raise ConfigError("flux grid is empty")
    if not np.isfinite(grid).all():
        raise ConfigError("flux grid holds a non-finite value")
    return grid


def cmd_filter_sweep(cfg: dict, out: str, seed) -> int:
    geom = fio.geometry_from_config(_require(cfg, "geometry"))
    arr = fio.squid_array_from_config(_require(cfg, "squid_array"))
    qubit = fio.qubit_from_config(_require(cfg, "qubit"))
    drive = float(_require(cfg, "drive_freq_GHz"))
    if not (np.isfinite(drive) and drive > 0):
        raise ConfigError(f"drive_freq_GHz must be finite and positive, got {drive}")
    i_node = float(cfg.get("i_node_uA", 0.2))
    if not np.isfinite(i_node):
        raise ConfigError(f"i_node_uA must be finite, got {i_node}")
    rows = nw.flux_sweep(
        geom, arr, qubit,
        _flux_grid(cfg),
        drive_freq=drive * fio.GHZ,
        mode=cfg.get("mode", "clamped"),
        i_node=i_node * fio.UA,
        reference_flux=float(cfg.get("reference_flux", 0.0)),
    )
    fio.write_flux_sweep_csv(out, rows)
    n_err = sum(1 for r in rows if r.error is not None)
    if n_err:
        print(f"{n_err}/{len(rows)} flux points carry error markers", file=sys.stderr)
    return 0


def cmd_fit_reset(cfg: dict, out: str, seed) -> int:
    data = fio.read_reset_csv(_require(cfg, "reset_csv"))
    fit = dyn.fit_decay_rates(data, fit_floor=bool(cfg.get("fit_floor", False)))
    names = ("gamma_ge", "gamma_ef", "gamma_fh")
    doc = {
        "rates_per_s": {n: getattr(fit.rates, n) for n in names},
        "t1_ns": {n: 1e9 / getattr(fit.rates, n) for n in names},
        "sigma_ns": {n: 1e9 * fit.sigmas[n] / getattr(fit.rates, n) ** 2
                     for n in names},
        "sigma_rates_per_s": fit.sigmas,
        "covariance": fit.covariance,
        "floor": fit.floor,
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
    }
    fio.dump_json(doc, out)
    return 0


def _fit_result_doc(res) -> dict:
    return {
        "params": res.params,
        "sigmas": res.sigmas,
        "covariance": res.covariance,
        "residual_rms": res.residual_rms,
        "converged": res.converged,
        "at_bound": res.at_bound,
        "rank_deficient": res.rank_deficient,
    }


def cmd_fit_rb(cfg: dict, out: str, seed) -> int:
    from . import fits  # the only scipy user; other commands skip its import
    x, y, _ = fio.read_curve_csv(_require(cfg, "curve_csv"))
    res = fits.rb_fit(x, y)
    k = float(cfg.get("pulses_per_clifford", 45.0 / 24.0))
    doc = _fit_result_doc(res)
    doc["pulses_per_clifford"] = k
    doc["clifford_fidelity"] = fits.clifford_fidelity(res.params["p"], k)
    if "p_ref" in cfg:
        doc["interleaved_fidelity"] = fits.interleaved_fidelity(
            float(cfg["p_ref"]), res.params["p"])
    fio.dump_json(doc, out)
    return 0


def cmd_fit_curve(cfg: dict, out: str, seed) -> int:
    from . import fits
    x, y, _ = fio.read_curve_csv(_require(cfg, "curve_csv"))
    model = _require(cfg, "model")
    fitters = {
        "exponential": fits.fit_exponential,
        "decaying_cosine": fits.fit_decaying_cosine,
        "stretched_exponential": fits.fit_stretched_exponential,
        "rb": fits.rb_fit,
        "quadratic_minimum": fits.fit_quadratic_minimum,
    }
    if model not in fitters:
        raise ConfigError(f"unknown fit model {model!r}; choose from {sorted(fitters)}")
    fio.dump_json(_fit_result_doc(fitters[model](x, y)), out)
    return 0


def cmd_fit_temp(cfg: dict, out: str, seed) -> int:
    xy, _ = fio.read_shots_csv(_require(cfg, "shots_csv"))
    model = fio.model_from_dict(fio.load_json(_require(cfg, "model_json")))
    ladder = fio.ladder_from_config(_require(cfg, "ladder"))
    window = int(_require(cfg, "window"))
    if window < 1:
        raise ConfigError(f"window must be >= 1 shot, got {window}")
    t_shot = float(_require(cfg, "t_shot_us")) * fio.US
    bounds = (float(cfg.get("t_min_mk", 1.0)) * fio.MK,
              float(cfg.get("t_max_mk", 20000.0)) * fio.MK)
    n_win = xy.shape[0] // window
    if n_win < 1:
        raise ConfigError(f"fewer shots ({xy.shape[0]}) than one window ({window})")

    indices = cl.assign_indices(model, xy[:n_win * window])
    counts = cl.window_counts(indices, len(model.labels), window)
    fit = th.fit_temperature_batch(cl.level_populations(counts, model.labels),
                                   ladder, bounds=bounds)
    per_window = [{"t_eff_K": t, "r2": r2, "chi2": chi2, "at_boundary": at_bound}
                  for t, r2, chi2, at_bound in zip(
                      fit.t_eff.tolist(), fit.r_squared.tolist(),
                      fit.chi2_min.tolist(), fit.at_boundary.tolist())]
    doc = {"n_win": n_win, "n_shot": window, "t_shot_s": t_shot,
           "n_at_bound": int(fit.at_boundary.sum()), "per_window": per_window}
    if n_win >= 2:
        series = th.WindowSeries(fit.t_eff, window, t_shot)
        mu, sigma, sigma_mu = th.window_statistics(series)
        doc.update({
            "mu_T_K": mu,
            "sigma_T_K": sigma,
            "sigma_mu_K": sigma_mu,
            "net_K_per_sqrtHz": th.net(sigma, series.t_meas),
        })
    fio.dump_json(doc, out)
    return 0


def cmd_classify(cfg: dict, out: str, seed) -> int:
    xy, prep = fio.read_shots_csv(_require(cfg, "shots_csv"))
    if "model_json" in cfg:
        model = fio.model_from_dict(fio.load_json(cfg["model_json"]))
    else:
        if prep is None:
            raise ConfigError("fitting a model needs prep labels in the shot CSV")
        model = cl.fit_gmm(xy, labels=sorted(set(prep.tolist())),
                           init=cfg.get("init", "supervised"), prep_labels=prep,
                           seed=0 if seed is None else seed)
    if "save_model_json" in cfg:
        fio.dump_json(fio.model_to_dict(model), cfg["save_model_json"])
    if prep is not None:
        matrix = cl.assignment_matrix(model, xy, prep)
        doc = fio.matrix_to_dict(matrix)
        doc["min_pairwise_separation"] = cl.min_pairwise_separation(model)
        fio.dump_json(doc, out)
    else:
        per_label = np.bincount(cl.assign_indices(model, xy), minlength=len(model.labels))
        counts = dict(zip(model.labels, per_label.tolist()))
        fio.dump_json({"counts": counts,
                       "min_pairwise_separation": cl.min_pairwise_separation(model)},
                      out)
    return 0


def cmd_generate(cfg: dict, out: str, seed) -> int:
    kind = _require(cfg, "generator")
    seed = int(cfg.get("seed", 0) if seed is None else seed)
    if kind == "thermal" or kind == "windows":
        ladder = fio.ladder_from_config(_require(cfg, "ladder"))
        model = fio.model_from_dict(_require(cfg, "cluster_model"))
        gen_cfg = synth.ShotGenConfig(
            ladder=ladder, cluster_model=model,
            n_model_levels=int(cfg.get("n_model_levels", 6)), seed=seed)
        temperature = float(_require(cfg, "temperature_mk")) * fio.MK
        if kind == "thermal":
            xy = synth.gen_thermal_shots(gen_cfg, temperature, int(_require(cfg, "n_shots")))
        else:
            windows = synth.gen_window_series(
                gen_cfg, temperature, int(_require(cfg, "n_win")),
                int(_require(cfg, "n_shot")))
            xy = np.vstack(windows)
        fio.write_shots_csv(out, xy)
    elif kind == "reset":
        rates = fio.rates_from_config(_require(cfg, "rates"))
        t_grid = np.linspace(float(cfg.get("t_start_ns", 10.0)) * fio.NS,
                             float(cfg.get("t_stop_ns", 2000.0)) * fio.NS,
                             int(cfg.get("t_points", 40)))
        data = synth.gen_reset_curves(
            rates, cfg.get("preps", ["e", "f", "h"]), t_grid,
            int(cfg.get("n_shots_per_point", 10000)),
            floor_p_inf=cfg.get("floor_p_inf"), seed=seed)
        fio.write_reset_csv(out, data)
    elif kind == "rb":
        m_grid = np.asarray(cfg.get("m_grid", list(range(0, 400, 10))), dtype=float)
        m, y = synth.gen_rb_decay(
            float(_require(cfg, "p_true")), float(cfg.get("a", 0.5)),
            float(cfg.get("b", 0.5)), m_grid,
            int(cfg.get("shots_per_point", 10000)), seed=seed)
        fio.write_curve_csv(out, m, y)
    else:
        raise ConfigError(f"unknown generator {kind!r}; "
                          "choose from thermal, windows, reset, rb")
    return 0


_COMMANDS = {
    "filter-sweep": cmd_filter_sweep,
    "fit-reset": cmd_fit_reset,
    "fit-temp": cmd_fit_temp,
    "fit-rb": cmd_fit_rb,
    "fit-curve": cmd_fit_curve,
    "classify": cmd_classify,
    "generate": cmd_generate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxline",
        description="Tunable drive-line filter modeling and multilevel "
                    "qubit analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args.out, args.seed)
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FluxlineError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
