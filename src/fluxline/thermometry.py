"""Boltzmann thermometry on a four-level transmon ladder.

Level energies are built from the three measured transition frequencies,
E0 = 0, E1 = f_ge, E2 = f_ge + f_ef, E3 = f_ge + f_ef + f_fh, expressed in
GHz so that k_B / h converts between temperature and dimensionless
Boltzmann factors; ``level_energies`` continues the ladder past h for the
shot generator's extended manifold.  The working value of k_B / h is the
rounded 20.84 GHz/K carried by the device analysis; construct a ladder
with ``kb_over_h_ghz_per_k=KB_OVER_H_CODATA`` for the CODATA constant.

The temperature estimate minimizes a chi-square-like cost between measured
and thermal populations within bounds, at the one root of its rising slope
in 1/T (``fits.bracketed_roots``).  The module also provides the quantum
Cramer-Rao lower bound on the normalized single-measurement precision, and
windowed statistics (mean, standard deviation, noise-equivalent temperature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundMismatch, InvalidPopulations, TooFewWindows
from .fits import bracketed_roots

#: Rounded conversion constant used throughout the device analysis (GHz/K).
KB_OVER_H_ROUNDED = 20.84
#: CODATA value of k_B / h in GHz/K.
KB_OVER_H_CODATA = 1.380649e-23 / 6.62607015e-34 / 1e9

# Thermal probabilities are floored here in the chi-square denominator.
_P_TH_FLOOR = 1e-12
# Most levels ``level_energies`` builds; a ladder whose transitions do not
# fall past h would otherwise grow with any n_levels asked for.
_MAX_LEVELS = 100


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
    ValueError before any further level is built, and so does a level past
    the ``_MAX_LEVELS``-th.
    """
    transitions = [ladder.f_ge_ghz, ladder.f_ef_ghz, ladder.f_fh_ghz]
    step = ladder.f_ef_ghz - ladder.f_fh_ghz
    while len(transitions) < n_levels - 1:
        if len(transitions) == _MAX_LEVELS - 1:
            raise ValueError(f"ladder extension reached {_MAX_LEVELS} levels"
                             f" with positive transition frequencies; {n_levels} asked for")
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
    return _normalized(-np.outer(beta, energies))


def _normalized(log_w: np.ndarray) -> np.ndarray:
    """Rows of weights exp(log_w), each scaled to sum 1 (a max-shifted softmax)."""
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
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

    Each row's T in ``bounds`` minimizes sum_j (p^_j - p_j)^2 / p_j, which
    for a row summing to s is sum_j p^_j^2 e^(beta E_j) sum_j e^(-beta E_j)
    - 2 s + 1 with beta = 1/(k_B T): a sum off by up to 1e-6 only shifts it.
    Sums of exponentials are log-convex, so the product's log slope (the
    mean energy under weights p^_j^2 e^(beta E_j) minus the thermal one)
    rises in beta, and its one root is the minimum.  A slope >= 0 at t_max
    or <= 0 at t_min puts the row at that bound; ``fits.bracketed_roots``
    finds the other roots to 1e-12 in beta.  An optimum within 1e-6
    (relative) of a bound is flagged ``at_boundary``.  Exact thermal rows
    return their temperature to better than 1e-11 relative.
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

    # The four level energies, built once for every slope of the fit.
    energies = level_energies(ladder, 4)
    log_sq = 2.0 * np.log(p, out=np.full_like(p, -np.inf), where=p > 0)  # -inf if empty

    def slope(beta, rows):
        tilt = np.outer(beta, energies)
        return (_normalized(log_sq[rows] + tilt) - _normalized(-tilt)) @ energies

    kb = ladder.kb_over_h_ghz_per_k
    beta_lo, beta_hi = (np.full(p.shape[0], 1.0 / (kb * t)) for t in (t_max, t_min))
    f_lo, f_hi = slope(beta_lo, slice(None)), slope(beta_hi, slice(None))
    inside = np.flatnonzero((f_lo < 0.0) & (f_hi > 0.0))
    beta = bracketed_roots(lambda x, live: slope(x, inside[live]), beta_lo[inside],
                           beta_hi[inside], f_lo[inside], f_hi[inside], 1e-12)
    t_eff = np.where(f_hi <= 0.0, t_min, t_max)
    t_eff[inside] = np.clip(1.0 / (kb * beta), t_min, t_max)

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
