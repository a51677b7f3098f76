#!/usr/bin/env python3
"""Reset-curve generation and global rate refit.

Samples multinomial reset trajectories from the reference lifetimes,
refits the sequential cascade, and compares truth against the estimates
with their one-sigma uncertainties, with and without the thermal floor.

Usage: python scripts/run_reset_roundtrip.py [shots_per_point]
"""

import sys

import numpy as np

from fluxline import dynamics as dyn
from fluxline import synth

N_SHOTS = int(sys.argv[1]) if len(sys.argv) > 1 else 100000

truth = dyn.DecayRates.from_t1(238.22e-9, 136.80e-9, 128.84e-9)
t_grid = np.linspace(20e-9, 2.0e-6, 40)

print(f"{N_SHOTS} shots per point, 40 points, preparations e/f/h")
for floor in (None, 0.985):
    data = synth.gen_reset_curves(truth, (1, 2, 3), t_grid, N_SHOTS,
                                  floor_p_inf=floor, seed=3)
    fit = dyn.fit_decay_rates(data, fit_floor=floor is not None)
    label = "no floor" if floor is None else f"floor {floor}"
    print(f"\n--- {label} ---")
    for name in ("gamma_ge", "gamma_ef", "gamma_fh"):
        t1_true = 1e9 / getattr(truth, name)
        rate = getattr(fit.rates, name)
        t1_est = 1e9 / rate
        t1_sigma = 1e9 * fit.sigmas[name] / rate**2
        z = abs(rate - getattr(truth, name)) / fit.sigmas[name]
        print(f"  T1_{name[-2:]}: true {t1_true:7.2f} ns   fit {t1_est:7.2f}"
              f" +/- {t1_sigma:.2f} ns   (z = {z:.2f})")
    if fit.floor is not None:
        print(f"  saturation: fit {fit.floor:.4f} +/- {fit.sigmas['p_inf']:.4f}")
    print(f"  residual rms {fit.residual_rms:.2e} over {fit.n_points} points")
