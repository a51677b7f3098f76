"""Shared fixtures: reference device parameters and cluster models."""

import math

import numpy as np
import pytest

from fluxline import classify as cl
from fluxline import network as nw
from fluxline import thermometry as th
from fluxline.dynamics import DecayRates

# Reference tunable-filter geometry: 6.5 mm stub (bare quarter-wave
# frequency 4.5 GHz), SQUID array 2 mm from the node, 4.4 fF qubit coupler.
REF_GEOMETRY = dict(z0=50.0, v_p=1.17e8, l_f=6.5e-3, x_s=2.0e-3,
                    c_g=0.0, c_d=4.4e-15)
# Five 10 uA SQUIDs in series.
REF_ARRAY = dict(n_squids=5, ic_junction=10e-6)

# Transition-frequency ladders of two reference devices (GHz).
LADDER_A = dict(f_ge_ghz=3.9514, f_ef_ghz=3.8167, f_fh_ghz=3.6730)
LADDER_B = dict(f_ge_ghz=3.9003, f_ef_ghz=3.7654, f_fh_ghz=3.6211)

# Reset-configuration lifetimes of the reference device (s).
RESET_T1 = (238.22e-9, 136.80e-9, 128.84e-9)

# A noise-free curve of each fit-curve model: its x grid, true parameters
# and model function.
_MODEL_CURVES = {
    "exponential": (np.linspace(0.0, 5e-4, 50), {"A": 0.7, "tau": 1e-4, "B": 0.2},
                    lambda t, p: p["A"] * np.exp(-t / p["tau"]) + p["B"]),
    "decaying_cosine": (
        np.linspace(0.0, 2e-6, 64), {"A": 0.4, "f": 5e6, "phi": 0.3, "tau": 1e-6, "B": 0.5},
        lambda t, p: (p["A"] * np.cos(2 * math.pi * p["f"] * t + p["phi"])
                      * np.exp(-t / p["tau"]) + p["B"])),
    "stretched_exponential": (np.linspace(0.0, 4e-6, 30), {"T2DD": 1.5e-6, "alpha": 1.7},
                              lambda t, p: np.exp(-(t / p["T2DD"]) ** p["alpha"])),
    "quadratic_minimum": (np.linspace(-1.0, 1.0, 21), {"x0": 0.2, "y0": 0.3, "curvature": 5.0},
                          lambda x, p: p["y0"] + 0.5 * p["curvature"] * (x - p["x0"]) ** 2),
}


def model_curve(model: str):
    """x, y and true parameters of a noise-free curve of a fit-curve model."""
    x, params, function = _MODEL_CURVES[model]
    return x, function(x, params), params


@pytest.fixture
def geometry() -> nw.FilterGeometry:
    return nw.FilterGeometry(**REF_GEOMETRY)


@pytest.fixture
def squid_array() -> nw.SquidArray:
    return nw.SquidArray(**REF_ARRAY)


@pytest.fixture
def qubit() -> nw.QubitLoad:
    return nw.QubitLoad(f_q=3.9e9, c_q=143e-15, t1_internal=2e-4)


@pytest.fixture
def ladder_a() -> th.LevelLadder:
    return th.LevelLadder(**LADDER_A)


@pytest.fixture
def ladder_b() -> th.LevelLadder:
    return th.LevelLadder(**LADDER_B)


@pytest.fixture
def reset_rates() -> DecayRates:
    return DecayRates.from_t1(*RESET_T1)


def make_ring_model(labels=("g", "e", "f", "h", "k+"), separation=6.0,
                    sigma=1.0, weights=None) -> cl.GmmModel:
    """Equal clusters on a ring with the given nearest-neighbor separation."""
    k = len(labels)
    radius = separation * sigma / (2.0 * math.sin(math.pi / k))
    if weights is None:
        weights = [1.0 / k] * k
    angles = [2.0 * math.pi * i / k for i in range(k)]
    return cl.GmmModel(tuple(labels),
                       [[radius * math.cos(a), radius * math.sin(a)] for a in angles],
                       [sigma**2 * np.eye(2)] * k, weights)


@pytest.fixture
def ring_model() -> cl.GmmModel:
    return make_ring_model()
