"""Boltzmann thermometry on a four-level transmon ladder.

Level energies are built from the three measured transition frequencies,
E0 = 0, E1 = f_ge, E2 = f_ge + f_ef, E3 = f_ge + f_ef + f_fh, expressed in
GHz so that k_B / h converts between temperature and dimensionless
Boltzmann factors; ``level_energies`` continues the ladder past h for the
shot generator's extended manifold.  The working value of k_B / h is the
rounded 20.84 GHz/K carried by the device analysis; construct a ladder
with ``kb_over_h_ghz_per_k=KB_OVER_H_CODATA`` for the CODATA constant.

The temperature estimate minimizes a chi-square-like cost between the
measured and thermal populations over a bounded interval, and the module
also provides the quantum Cramer-Rao lower bound on the normalized
single-measurement precision, and windowed precision statistics (mean,
standard deviation, noise-equivalent temperature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundMismatch, InvalidPopulations, TooFewWindows

#: Rounded conversion constant used throughout the device analysis (GHz/K).
KB_OVER_H_ROUNDED = 20.84
#: CODATA value of k_B / h in GHz/K.
KB_OVER_H_CODATA = 1.380649e-23 / 6.62607015e-34 / 1e9

# Thermal probabilities are floored here in the chi-square denominator.
_P_TH_FLOOR = 1e-12
# Rows seeded on the temperature grid at a time: the seed's cost matrix
# holds this many rows, about 2 MB, however many windows are fitted.
_SEED_ROWS = 1024
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LevelLadder:
    """Transition frequencies (GHz) of the g-e-f-h ladder."""

    f_ge_ghz: float
    f_ef_ghz: float
    f_fh_ghz: float
    kb_over_h_ghz_per_k: float = KB_OVER_H_ROUNDED

    def __post_init__(self):
        # Positive tests, so that NaN fails them.
        if not all(f > 0 for f in (self.f_ge_ghz, self.f_ef_ghz, self.f_fh_ghz)):
            raise ValueError("transition frequencies must be positive")
        if not self.kb_over_h_ghz_per_k > 0:
            raise ValueError("kb_over_h_ghz_per_k must be positive")


def level_energies(ladder: LevelLadder, n_levels: int) -> np.ndarray:
    """Energies (GHz) of the lowest ``n_levels`` >= 4 levels above the ground state.

    Past h the transition frequencies keep falling by the constant
    anharmonicity step f_ef - f_fh; the first that is not positive raises
    ValueError before any further level is built.
    """
    transitions = [ladder.f_ge_ghz, ladder.f_ef_ghz, ladder.f_fh_ghz]
    step = ladder.f_ef_ghz - ladder.f_fh_ghz
    while len(transitions) < n_levels - 1:
        transitions.append(transitions[-1] - step)
        if transitions[-1] <= 0:
            raise ValueError("ladder extension produced non-positive transition frequency")
    return np.cumsum([0.0, *transitions])


def boltzmann_populations(temperature: float, ladder: LevelLadder, n_levels: int) -> np.ndarray:
    """Thermal populations of the lowest ``n_levels`` levels at one temperature."""
    # A positive test, so that a NaN temperature fails it.
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    return _boltzmann(np.array([temperature]), ladder, level_energies(ladder, n_levels))[0]


def _boltzmann(temps: np.ndarray, ladder: LevelLadder, energies: np.ndarray) -> np.ndarray:
    """(len(temps), len(energies)) thermal populations of levels at ``energies`` (GHz)."""
    beta = 1.0 / (ladder.kb_over_h_ghz_per_k * np.asarray(temps, dtype=float))
    w = np.exp(-np.outer(beta, energies))
    return w / w.sum(axis=1, keepdims=True)


def _chi2(meas: np.ndarray, p_th: np.ndarray) -> np.ndarray:
    """Chi-square-like cost of each row of ``meas`` against the thermal rows ``p_th``."""
    return (((meas - p_th) ** 2) / np.maximum(p_th, _P_TH_FLOOR)).sum(axis=1)


@dataclass(frozen=True)
class TemperatureFits:
    """Best-fit temperatures and quality metrics of many windows, one per row."""

    t_eff: np.ndarray
    r_squared: np.ndarray
    chi2_min: np.ndarray
    at_boundary: np.ndarray


def fit_temperature_batch(
    populations: np.ndarray,
    ladder: LevelLadder,
    bounds: tuple[float, float] = (1e-3, 20.0),
) -> TemperatureFits:
    """Effective temperature of each row of (W, 4) g, e, f, h populations.

    Each row's temperature minimizes the chi-square-like population cost.
    The minimum is seeded on a 256-point log grid over ``bounds`` and
    refined by golden-section search (Kiefer 1953) in log T to a width of
    1e-10, all rows at once; an optimum within 1e-6 (relative) of either
    bound is flagged ``at_boundary``.  Fitting exact thermal populations
    returns the generating temperature to better than 1e-8 relative.
    """
    t_min, t_max = bounds
    if not 0 < t_min < t_max:
        raise ValueError("bounds must satisfy 0 < t_min < t_max")
    p = np.asarray(populations, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError(f"populations must have shape (W, 4), got {p.shape}")
    valid = np.all(p >= 0, axis=1) & (np.abs(p.sum(axis=1) - 1.0) <= 1e-6)
    if not valid.all():
        row = int(np.argmin(valid))
        raise InvalidPopulations(f"populations of row {row} invalid: {p[row]}")

    # The four level energies, built once for every cost of the fit.
    energies = level_energies(ladder, 4)
    # Seed: cost on the grid accumulated level by level, _SEED_ROWS rows at
    # a time; the bracket is the best grid point's neighbours.
    grid = np.geomspace(t_min, t_max, 256)
    p_grid = _boltzmann(grid, ladder, energies)
    den = np.maximum(p_grid, _P_TH_FLOOR)
    best = np.empty(p.shape[0], dtype=np.intp)
    for start in range(0, p.shape[0], _SEED_ROWS):
        cost = 0.0
        for j in range(4):
            cost = cost + (p[start:start + _SEED_ROWS, j, None] - p_grid[:, j]) ** 2 / den[:, j]
        best[start:start + _SEED_ROWS] = np.argmin(cost, axis=1)
    a = np.log(grid[np.maximum(best - 1, 0)])
    b = np.log(grid[np.minimum(best + 1, grid.size - 1)])

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = (_chi2(p, _boltzmann(np.exp(v), ladder, energies)) for v in (c, d))
    while (active := b - a > 1e-10).any():
        left = active & (fc < fd)  # the minimum lies in [a, d]
        right = active & ~left
        b, a = np.where(left, d, b), np.where(right, c, a)
        d, c = np.where(left, c, d), np.where(right, d, c)
        fd, fc = np.where(left, fc, fd), np.where(right, fd, fc)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_probe = _chi2(p, _boltzmann(np.exp(probe), ladder, energies))
        c, fc = np.where(left, probe, c), np.where(left, f_probe, fc)
        d, fd = np.where(right, probe, d), np.where(right, f_probe, fd)
    t_eff = np.clip(np.exp(0.5 * (a + b)), t_min, t_max)

    at_boundary = (t_eff <= t_min * (1.0 + 1e-6)) | (t_eff >= t_max * (1.0 - 1e-6))
    p_th = _boltzmann(t_eff, ladder, energies)
    chi2_min = _chi2(p, p_th)
    ss_res = ((p - p_th) ** 2).sum(axis=1)
    ss_tot = ((p - p.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_squared = np.where(ss_tot > 0.0, 1.0 - ss_res / ss_tot,
                             np.where(ss_res <= 1e-24, 1.0, -np.inf))
    return TemperatureFits(t_eff, r_squared, chi2_min, at_boundary)


def qcrb_bound(temperature: float, ladder: LevelLadder, n_levels: int) -> float:
    """Lower bound on the normalized single-measurement precision (dT/T).

    For a thermal state diagonal in energy, the quantum Fisher information
    is Var(E) / (k_B T^2)^2, so (dT/T)_SM >= k_B T / sqrt(Var_T(E)).  The
    bound is evaluated both from an explicit pairwise sum over the levels
    (written with decaying exponentials so it cannot overflow) and from the
    energy-variance moments of the same Boltzmann weights; the two routes
    must agree to 1e-10 relative.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if n_levels not in (2, 3, 4):
        raise ValueError("n_levels must be 2, 3 or 4")
    energies = level_energies(ladder, 4)[:n_levels]
    x = energies / (ladder.kb_over_h_ghz_per_k * temperature)

    explicit = math.sqrt(_explicit_bound_sq(x))

    # Generic route: energy variance of the truncated thermal state.
    prob = _boltzmann(np.array([temperature]), ladder, energies)[0]
    var = float((prob * x**2).sum() - ((prob * x).sum()) ** 2)
    generic = 1.0 / math.sqrt(var)

    if abs(explicit - generic) > 1e-10 * generic:
        raise BoundMismatch(
            f"explicit ({explicit!r}) and energy-variance ({generic!r}) "
            "bounds disagree beyond 1e-10"
        )
    return explicit


def _explicit_bound_sq(x: np.ndarray) -> float:
    """Explicit truncated-ladder bound on (dT/T)^2 from the reduced level
    energies x (x_0 = 0): (sum_i e_i)^2 / sum_{i<j} (x_i - x_j)^2 e_i e_j
    with e_i = exp(-x_i), pairs summed in the order (0, 1), (0, 2), ...
    """
    x = x.tolist()
    e = [math.exp(-v) for v in x]
    n = len(x)
    den = sum((x[i] - x[j]) ** 2 * e[i] * e[j] for i in range(n) for j in range(i + 1, n))
    return sum(e) ** 2 / den


def window_statistics(temps) -> tuple[float, float, float]:
    """Sample mean, unbiased standard deviation and standard error of window temperatures.

    Returns (mu_T, sigma_T, sigma_mu) with sigma_mu = sigma_T / sqrt(N_win).
    """
    temps = np.asarray(temps, dtype=float)
    if temps.size < 2:
        raise TooFewWindows("window statistics need at least 2 windows")
    mu = float(temps.mean())
    sigma = float(temps.std(ddof=1))
    return mu, sigma, sigma / math.sqrt(temps.size)


def net(sigma_t: float, t_meas: float) -> float:
    """Noise-equivalent temperature sigma_T * sqrt(t_meas), in K/sqrt(Hz)."""
    if not t_meas > 0:
        raise ValueError("t_meas must be positive")
    return sigma_t * math.sqrt(t_meas)
