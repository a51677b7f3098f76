"""Command-line front end for sweeps, fits and synthetic-data generation.

Every command reads a JSON config (--config), writes its result to
--out, and is deterministic given (config, seed).  Exit codes: 0 success,
1 configuration or input error (an input too large to allocate included),
2 solver or fit failure.  ``main`` checks the config once against the
command's key table below (documented in the README), so each ``cmd_*``
takes checked values, in SI, under their keys.
"""

from __future__ import annotations

import sys

import numpy as np

from . import classify as cl
from . import dynamics as dyn
from . import fits
from . import io as fio
from . import network as nw
from . import synth
from . import thermometry as th
from .errors import FluxlineError


# Key tables for fio.read_config: key -> (kind, default[, lab unit]), where a
# default of ... marks a required key.  A section lists its keys in the order
# of the fields of the class built from it; fio.model_from_dict reads models.
_GEOMETRY = {"z0_ohm": ("number", ...), "v_p_m_per_s": ("number", ...),
             "l_f_mm": ("number", ..., fio.MM), "x_s_mm": ("number", ..., fio.MM),
             "c_g_fF": ("number", 0.0, fio.FF), "c_d_fF": ("number", 0.0, fio.FF),
             "z_source_ohm": ("number", 50.0)}
_SQUID_ARRAY = {"n_squids": ("integer", ...), "ic_junction_uA": ("number", ..., fio.UA),
                "l_fixed_per_squid_nH": ("number", 0.0, fio.NH), "clamp_epsilon": ("number", 1e-3)}
_QUBIT = {"f_q_GHz": ("number", ..., fio.GHZ), "c_q_fF": ("number", 143.0, fio.FF),
          "t1_internal_ms": ("number or null", None, fio.MS)}
_LADDER = {"f_ge_ghz": ("number", ...), "f_ef_ghz": ("number", ...), "f_fh_ghz": ("number", ...),
           "kb_over_h": ("kb_over_h", "rounded")}
_RATES = {"t1_ge_ns": ("positive", ..., fio.NS), "t1_ef_ns": ("positive", ..., fio.NS),
          "t1_fh_ns": ("positive", ..., fio.NS)}
_SHOT_GENERATOR = {"ladder": (_LADDER, ...), "cluster_model": ("object", ...),
                   "temperature_mk": ("number", ..., fio.MK), "n_model_levels": ("integer", 6)}
_GENERATORS = {
    "thermal": {**_SHOT_GENERATOR, "n_shots": ("count", ...)},
    "windows": {**_SHOT_GENERATOR, "n_win": ("integer", ...), "n_shot": ("count", ...)},
    "reset": {"rates": (_RATES, ...), "t_start_ns": ("number", 10.0, fio.NS),
              "t_stop_ns": ("number", 2000.0, fio.NS), "t_points": ("count", 40),
              "preps": ("strings", ["e", "f", "h"]), "n_shots_per_point": ("integer", 10000),
              "floor_p_inf": ("number or null", None)},
    "rb": {"p_true": ("number", ...), "a": ("number", 0.5), "b": ("number", 0.5),
           "m_grid": ("numbers", list(range(0, 400, 10))), "shots_per_point": ("integer", 10000)},
}
# fit-curve model name -> function of fluxline.fits.
_FIT_MODELS = {"exponential": fits.fit_exponential, "decaying_cosine": fits.fit_decaying_cosine,
               "stretched_exponential": fits.fit_stretched_exponential,
               "quadratic_minimum": fits.fit_quadratic_minimum}
_SCHEMAS = {
    "filter-sweep": {"geometry": (_GEOMETRY, ...), "squid_array": (_SQUID_ARRAY, ...),
                     "qubit": (_QUBIT, ...), "drive_freq_GHz": ("positive", ..., fio.GHZ),
                     "flux_values": ("numbers", None), "flux_start": ("number", 0.0),
                     "flux_stop": ("number", 0.5), "flux_points": ("count", 101),
                     "mode": (("clamped", "strict"), "clamped"),
                     "i_node_uA": ("number", 0.2, fio.UA), "reference_flux": ("number", 0.0)},
    "fit-reset": {"reset_csv": ("string", ...), "fit_floor": ("bool", False)},
    "fit-temp": {"shots_csv": ("string", ...), "model_json": ("string", ...),
                 "ladder": (_LADDER, ...), "window": ("count", ...),
                 "t_shot_us": ("positive", ..., fio.US),
                 "t_min_mk": ("number", 1.0, fio.MK), "t_max_mk": ("number", 20000.0, fio.MK)},
    "fit-rb": {"curve_csv": ("string", ...), "pulses_per_clifford": ("number", 45.0 / 24.0),
               "p_ref": ("number", None)},
    "fit-curve": {"curve_csv": ("string", ...), "model": (tuple(_FIT_MODELS), ...)},
    "classify": {"shots_csv": ("string", ...), "model_json": ("string", None),
                 "save_model_json": ("string", None)},
    "generate": {"generator": (tuple(_GENERATORS), ...), "seed": ("integer", 0)},
}


def config_schema(command: str, cfg) -> dict:
    """The key table of ``command``; generate's depends on the config's generator."""
    schema = _SCHEMAS[command]
    generator = cfg.get("generator") if command == "generate" and type(cfg) is dict else None
    return {**schema, **_GENERATORS[generator]} if generator in tuple(_GENERATORS) else schema


def cmd_filter_sweep(cfg: dict, out: str, seed) -> int:
    flux = cfg["flux_values"]
    if flux is None:
        flux = np.linspace(cfg["flux_start"], cfg["flux_stop"], cfg["flux_points"])
    sweep = nw.flux_sweep(
        nw.FilterGeometry(*cfg["geometry"].values()), nw.SquidArray(*cfg["squid_array"].values()),
        nw.QubitLoad(*cfg["qubit"].values()), flux, drive_freq=cfg["drive_freq_GHz"],
        mode=cfg["mode"], i_node=cfg["i_node_uA"], reference_flux=cfg["reference_flux"])
    fio.write_flux_sweep_csv(out, sweep)
    n_err = sum(e is not None for e in sweep.error)
    if n_err:
        print(f"{n_err}/{len(sweep)} flux points carry error markers", file=sys.stderr)
    return 0


def cmd_fit_reset(cfg: dict, out: str, seed) -> int:
    data = fio.read_reset_csv(cfg["reset_csv"])
    fit = dyn.fit_decay_rates(data, fit_floor=cfg["fit_floor"])
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
    x, y = fio.read_curve_csv(cfg["curve_csv"])
    res = fits.rb_fit(x, y)
    k = cfg["pulses_per_clifford"]
    doc = _fit_result_doc(res)
    doc["pulses_per_clifford"] = k
    doc["clifford_fidelity"] = fits.clifford_fidelity(res.params["p"], k)
    if cfg["p_ref"] is not None:
        doc["interleaved_fidelity"] = fits.interleaved_fidelity(cfg["p_ref"], res.params["p"])
    fio.dump_json(doc, out)
    return 0


def cmd_fit_curve(cfg: dict, out: str, seed) -> int:
    x, y = fio.read_curve_csv(cfg["curve_csv"])
    fio.dump_json(_fit_result_doc(_FIT_MODELS[cfg["model"]](x, y)), out)
    return 0


def cmd_fit_temp(cfg: dict, out: str, seed) -> int:
    model = fio.model_from_dict(fio.load_json(cfg["model_json"]), "model_json")
    window, t_shot = cfg["window"], cfg["t_shot_us"]
    # The shots are classified a block at a time; one index per shot is kept.
    indices = np.concatenate([cl.assign_indices(model, xy)
                              for xy in fio.read_shot_blocks(cfg["shots_csv"])])
    n_win = indices.size // window
    if n_win < 1:
        raise ValueError(f"fewer shots ({indices.size}) than one window ({window})")

    fit = th.fit_temperature_batch(cl.level_populations(indices, model.labels, window),
                                   th.LevelLadder(*cfg["ladder"].values()),
                                   bounds=(cfg["t_min_mk"], cfg["t_max_mk"]))
    per_window = [{"t_eff_K": t, "r2": r2, "chi2": chi2, "at_boundary": at_bound}
                  for t, r2, chi2, at_bound in zip(
                      fit.t_eff.tolist(), fit.r_squared.tolist(),
                      fit.chi2_min.tolist(), fit.at_boundary.tolist())]
    doc = {"n_win": n_win, "n_shot": window, "t_shot_s": t_shot,
           "n_at_bound": int(fit.at_boundary.sum()), "per_window": per_window}
    if n_win >= 2:
        mu, sigma, sigma_mu = th.window_statistics(fit.t_eff)
        doc.update({
            "mu_T_K": mu,
            "sigma_T_K": sigma,
            "sigma_mu_K": sigma_mu,
            "net_K_per_sqrtHz": th.net(sigma, window * t_shot),
        })
    fio.dump_json(doc, out)
    return 0


def cmd_classify(cfg: dict, out: str, seed) -> int:
    xy, codes, labels = fio.read_shots_csv(cfg["shots_csv"])
    if codes is not None and "" in labels:
        raise ValueError(f"shot CSV: {np.count_nonzero(codes == labels.index(''))} of "
                         f"{codes.size} rows have an empty prep label; label every row or none")
    if cfg["model_json"] is not None:
        model = fio.model_from_dict(fio.load_json(cfg["model_json"]), "model_json")
    elif codes is None:
        raise ValueError("fitting a model needs prep labels in the shot CSV")
    else:
        model = cl.fit_gmm(xy, labels, codes)
    if cfg["save_model_json"] is not None:
        fio.dump_json(fio.model_to_dict(model), cfg["save_model_json"])
    if codes is not None:
        matrix = cl.assignment_matrix(model, xy, codes, labels)
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
    kind = cfg["generator"]
    seed = cfg["seed"] if seed is None else seed
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if kind == "thermal" or kind == "windows":
        inputs = (th.LevelLadder(*cfg["ladder"].values()),
                  fio.model_from_dict(cfg["cluster_model"], "cluster_model"),
                  cfg["n_model_levels"], cfg["temperature_mk"])
        if kind == "thermal":
            xy = synth.gen_thermal_shots(*inputs, cfg["n_shots"], seed)
        else:
            xy = synth.iter_window_series(*inputs, cfg["n_win"], cfg["n_shot"], seed)
        fio.write_shots_csv(out, xy)
    elif kind == "reset":
        t_grid = np.linspace(cfg["t_start_ns"], cfg["t_stop_ns"], cfg["t_points"])
        data = synth.gen_reset_curves(
            dyn.DecayRates.from_t1(*cfg["rates"].values()), fio.prep_levels(cfg["preps"]),
            t_grid, cfg["n_shots_per_point"], floor_p_inf=cfg["floor_p_inf"], seed=seed)
        fio.write_reset_csv(out, data)
    else:
        m, y = synth.gen_rb_decay(cfg["p_true"], cfg["a"], cfg["b"], cfg["m_grid"],
                                  cfg["shots_per_point"], seed=seed)
        fio.write_curve_csv(out, m, y)
    return 0


# The function of each command in _SCHEMAS: cmd_<name, "-" as "_">.
_COMMANDS = {name: globals()["cmd_" + name.replace("-", "_")] for name in _SCHEMAS}


# The CLI's one grammar, COMMAND --config PATH --out PATH [--seed N]: each
# option's (metavar, conversion, default), a default of ... marking it required.
_OPTIONS = {"--config": ("PATH", str, ...), "--out": ("PATH", str, ...),
            "--seed": ("N", int, None)}
_USAGE = "".join(
    ["usage: fluxline COMMAND"]
    + [f" {name} {metavar}" if default is ... else f" [{name} {metavar}]"
       for name, (metavar, _, default) in _OPTIONS.items()]
    + [f"\ncommands: {', '.join(_COMMANDS)}\n"])


def _usage_error(reason: str):
    sys.stderr.write(f"{_USAGE}fluxline: error: {reason}\n")
    sys.exit(2)


def read_argv(argv) -> tuple[str, str, str, int | None]:
    """(command, config path, output path, seed) from the argument list.

    Options come in any order, before or after the command, as ``--opt
    VALUE`` or ``--opt=VALUE``.  ``-h`` or ``--help`` prints the usage and
    exits 0; a bad argument list prints the usage and the reason to stderr
    and exits 2.
    """
    words, given = [], {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_USAGE)
            sys.exit(0)
        name, eq, value = arg.partition("=")
        if name in _OPTIONS:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    _usage_error(f"argument {name}: expected one argument")
            given[name] = value
        elif arg.startswith("-"):
            _usage_error(f"unrecognized arguments: {arg}")
        else:
            words.append(arg)
    if not words:
        _usage_error("the following arguments are required: COMMAND")
    if words[0] not in _COMMANDS:
        _usage_error(f"argument COMMAND: invalid choice: {words[0]!r} "
                     f"(choose from {', '.join(map(repr, _COMMANDS))})")
    if len(words) > 1:
        _usage_error(f"unrecognized arguments: {' '.join(words[1:])}")
    missing = [name for name, (_, _, default) in _OPTIONS.items()
               if default is ... and name not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    values = []
    for name, (_, convert, default) in _OPTIONS.items():
        try:
            values.append(convert(given[name]) if name in given else default)
        except ValueError:
            _usage_error(f"argument {name}: invalid {convert.__name__} value: {given[name]!r}")
    return (words[0], *values)


def main(argv=None) -> int:
    command, config, out, seed = read_argv(sys.argv[1:] if argv is None else argv)
    try:
        cfg = fio.load_json(config)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8 or too deep
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = fio.read_config(cfg, config_schema(command, cfg))
        return _COMMANDS[command](cfg, out, seed)
    except (KeyError, ValueError, OSError, MemoryError) as exc:
        # MemoryError: a count too large to allocate, named by numpy's message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except FluxlineError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
