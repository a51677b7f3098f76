"""Modeling and analysis toolkit for flux-tunable quarter-wave drive-line
filters and the multilevel qubit experiments they enable: reset dynamics,
Boltzmann thermometry with Cramer-Rao benchmarks, single-shot IQ
classification, and benchmarking curve fits.

``fits`` is the only module that needs scipy, so it is imported on first
use rather than with the package.
"""

import importlib

from . import classify, dynamics, errors, network, synth, thermometry

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


def __getattr__(name):
    if name == "fits":
        return importlib.import_module(".fits", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
