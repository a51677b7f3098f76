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
