"""Modeling and analysis toolkit for flux-tunable quarter-wave drive-line
filters and the multilevel qubit experiments they enable: reset dynamics,
Boltzmann thermometry with Cramer-Rao benchmarks, single-shot IQ
classification, and benchmarking curve fits.  It needs numpy alone.
"""

from . import classify, dynamics, errors, fits, network, synth, thermometry

__all__ = [
    "classify",
    "dynamics",
    "errors",
    "fits",
    "network",
    "synth",
    "thermometry",
]

__version__ = "0.1.0"
