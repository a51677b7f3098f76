#!/usr/bin/env python3
"""Flux sweep of the reference tunable filter.

Solves the exact filter frequency, qubit coupling and current margin over
one half flux period, writes the sweep CSV and prints a summary of the
tuning range and coupling suppression.

The drive is parked on the filter frequency of one bias, so there the
drive equals f_f to the root solver's 1e-12 and gamma_qf is whatever
rounding leaves of a zero, about 1e-18 1/s, and moves with the solver's
last step.  The printed gamma_qf range and the Rabi suppression therefore
start from the smallest gamma_qf at the other biases, which the physics
sets.

Usage: python scripts/run_filter_sweep.py [out.csv]
"""

import math
import sys

import numpy as np

from fluxline import io as fio
from fluxline import network as nw

OUT = sys.argv[1] if len(sys.argv) > 1 else "filter_sweep.csv"

geom = nw.FilterGeometry(z0=50.0, v_p=1.17e8, l_f=6.5e-3, x_s=2.0e-3,
                         c_g=0.0, c_d=4.4e-15)
arr = nw.SquidArray(n_squids=5, ic_junction=10e-6)
qubit = nw.QubitLoad(f_q=3.9e9, c_q=143e-15, t1_internal=2e-4)

grid = np.linspace(0.0, 0.45, 201)
PARKED = 150
# park the drive at the filter frequency of a mid-sweep bias: the idle
# configuration, where the radiative channel closes
drive = nw.filter_frequency_exact(geom, nw.squid_array_inductance(arr, grid[PARKED]))

sweep = nw.flux_sweep(geom, arr, qubit, grid, drive, mode="clamped")
fio.write_flux_sweep_csv(OUT, sweep)

f_f, gamma, margin = sweep.f_f, sweep.gamma_qf, sweep.margin
print(f"wrote {OUT} ({len(sweep)} biases, drive {drive / 1e9:.4f} GHz)")
print(f"bare quarter-wave frequency : {geom.f0 / 1e9:.4f} GHz")
print(f"filter frequency range      : {f_f.min() / 1e9:.4f} - {f_f.max() / 1e9:.4f} GHz")
gamma_off = np.delete(gamma, PARKED).min()
print(f"coupling gamma_qf range     : {gamma_off:.3e} - {gamma.max():.3e} 1/s off the parked bias")
print(f"Rabi suppression sqrt ratio : {math.sqrt(gamma.max() / gamma_off):.3e} off the parked bias")
print(f"worst nonlinearity margin   : {margin.max():.3f} (design gate < 0.25)")
