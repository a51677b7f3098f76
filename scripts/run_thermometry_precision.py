#!/usr/bin/env python3
"""Windowed thermometry precision study.

Generates thermal single-shot windows at a fixed temperature, runs the
classification + Boltzmann-fit pipeline per window, and reports the
temperature statistics, their scaling with window size, the
noise-equivalent temperature, and the distance to the four-level quantum
Cramer-Rao bound.

Usage: python scripts/run_thermometry_precision.py [T_mK]
"""

import math
import sys

import numpy as np

from fluxline import classify as cl
from fluxline import synth
from fluxline import thermometry as th

T_TRUE = (float(sys.argv[1]) if len(sys.argv) > 1 else 181.072) * 1e-3
T_SHOT = 34.2e-6
N_LEVELS, SEED = 6, 42  # levels in the thermal distribution; seed of the windows

ladder = th.LevelLadder(f_ge_ghz=3.9514, f_ef_ghz=3.8167, f_fh_ghz=3.6730)


def separated_clusters(separation=6.0):
    labels = ("g", "e", "f", "h", "k+")
    radius = separation / (2 * math.sin(math.pi / len(labels)))
    angles = [2 * math.pi * i / len(labels) for i in range(len(labels))]
    return cl.GmmModel(labels, [[radius * math.cos(a), radius * math.sin(a)] for a in angles],
                       [np.eye(2)] * len(labels), [1.0 / len(labels)] * len(labels))


model = separated_clusters()

print(f"target temperature {T_TRUE * 1e3:.3f} mK, shot time {T_SHOT * 1e6:.1f} us")
print(f"{'N_shot':>7} {'N_win':>6} {'mu_T (mK)':>10} {'sigma_T (mK)':>13} "
      f"{'NET (mK/rtHz)':>14} {'(dT/T)_SM':>10}")

bound4 = th.qcrb_bound(T_TRUE, ladder, 4)
for n_shot, n_win in ((1000, 400), (2000, 400), (5000, 300), (10000, 200)):
    xy = np.vstack(list(synth.iter_window_series(ladder, model, N_LEVELS, T_TRUE,
                                                  n_win, n_shot, SEED)))
    fit = th.fit_temperature_batch(
        cl.level_populations(cl.assign_indices(model, xy), model.labels, n_shot), ladder)
    mu, sigma, sigma_mu = th.window_statistics(fit.t_eff)
    net = th.net(sigma, n_shot * T_SHOT)
    precision = sigma / mu * math.sqrt(n_shot)
    print(f"{n_shot:>7} {n_win:>6} {mu * 1e3:>10.3f} {sigma * 1e3:>13.3f} "
          f"{net * 1e3:>14.4f} {precision:>10.3f}")

print(f"\nfour-level quantum Cramer-Rao bound on (dT/T)_SM: {bound4:.3f}")
print("two-level bound for comparison:                 "
      f"{th.qcrb_bound(T_TRUE, ladder, 2):.3f}")
