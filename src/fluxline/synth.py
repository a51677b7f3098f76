"""Seeded Monte Carlo generators for thermal IQ shots, reset curves and
benchmarking decays.

These generators are the independent oracles for every estimator in the
repository: thermal shots exercise the classification and thermometry
pipeline, multinomially sampled reset trajectories exercise the rate fits,
and binomial benchmarking decays exercise the survival fit.  Every
generator is a pure function of (configuration, seed); per-window
substreams are split from the base seed with a counter key so that window
parallelism cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import GmmModel
from .dynamics import (
    DecayRates,
    PopulationVector,
    ResetCurve,
    ResetDataset,
    apply_thermal_floor,
    populations_ode,
)
from .thermometry import LevelLadder

# Cluster component of each level index: g, e, f, h, then k+ for >= 4.
_COMPONENTS = ("g", "e", "f", "h", "k+")


@dataclass(frozen=True)
class GillespieDecay:
    """In-window relaxation model: sequential jumps read at sample_instant."""

    rates: DecayRates
    t_readout: float
    sample_instant: float

    def __post_init__(self):
        if not 0.0 <= self.sample_instant <= self.t_readout:
            raise ValueError("need 0 <= sample_instant <= t_readout")


@dataclass(frozen=True)
class ShotGenConfig:
    """Configuration for thermal single-shot generation.

    ``n_model_levels`` extends the Boltzmann distribution past h by
    continuing the transition-frequency ladder with a constant
    anharmonicity step; any occupation above h is emitted from the
    overflow cluster.  ``readout_decay=None`` keeps estimator tests exact;
    a GillespieDecay reproduces the reduced-fidelity regime of in-window
    relaxation qualitatively.
    """

    ladder: LevelLadder
    cluster_model: GmmModel
    n_model_levels: int = 6
    readout_decay: GillespieDecay | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_model_levels < 4:
            raise ValueError("n_model_levels must be >= 4")


def window_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one window, split by a counter key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def extended_level_energies(ladder: LevelLadder, n_levels: int) -> np.ndarray:
    """Level energies (GHz) extended past h with a constant anharmonicity step."""
    transitions = [ladder.f_ge_ghz, ladder.f_ef_ghz, ladder.f_fh_ghz]
    step = ladder.f_ef_ghz - ladder.f_fh_ghz
    while len(transitions) < n_levels - 1:
        transitions.append(transitions[-1] - step)
    if any(f <= 0 for f in transitions):
        raise ValueError("ladder extension produced non-positive transition frequency")
    return np.concatenate([[0.0], np.cumsum(transitions)])


def thermal_level_probabilities(cfg: ShotGenConfig, temperature: float) -> np.ndarray:
    """Boltzmann occupation over the extended n-level manifold."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    energies = extended_level_energies(cfg.ladder, cfg.n_model_levels)
    w = np.exp(-energies / (cfg.ladder.kb_over_h_ghz_per_k * temperature))
    return w / w.sum()


def _gillespie_levels(levels: np.ndarray, decay: GillespieDecay,
                      rng: np.random.Generator) -> np.ndarray:
    """Relax levels <= h sequentially and read the state at sample_instant."""
    seq = np.array([decay.rates.gamma_ge, decay.rates.gamma_ef, decay.rates.gamma_fh])
    lvl = levels.copy()
    t = np.zeros(lvl.size)
    done = np.zeros(lvl.size, dtype=bool)
    for _ in range(3):
        active = ~done & (lvl >= 1) & (lvl <= 3)
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        rate = seq[lvl[idx] - 1]
        with np.errstate(divide="ignore"):
            dt = rng.exponential(1.0, idx.size) / rate
        t_new = t[idx] + dt
        hop = t_new <= decay.sample_instant
        t[idx] = t_new
        lvl[idx[hop]] -= 1
        done[idx[~hop]] = True
    return lvl


def _thermal_shot_sampler(cfg: ShotGenConfig):
    """``draw(temperature, n, rng)``, the (n, 2) thermal IQ shots of one window.

    Levels are sampled from the extended Boltzmann distribution, optionally
    relaxed by the Gillespie walk, then emitted from the matching cluster
    Gaussian (levels >= 4 from the overflow component).  The per-run setup,
    each component's Cholesky factor and each temperature's level
    probabilities, is done once per sampler, not once per window.
    """
    factors = {k: (comp.mean, np.linalg.cholesky(comp.cov))
               for k, name in enumerate(_COMPONENTS)
               if (comp := cfg.cluster_model.components.get(name)) is not None}
    probs = {}

    def draw(temperature: float, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        if temperature not in probs:
            probs[temperature] = thermal_level_probabilities(cfg, temperature)
        levels = rng.choice(cfg.n_model_levels, size=n, p=probs[temperature])
        if cfg.readout_decay is not None:
            levels = _gillespie_levels(levels, cfg.readout_decay, rng)

        z = rng.standard_normal((n, 2))
        comp_idx = np.minimum(levels, 4)
        # Shots grouped by component; the stable sort keeps each group's rows
        # in window order, so each product sees the rows a mask would select.
        order = np.argsort(comp_idx, kind="stable")
        zs = np.take(z, order, axis=0)
        ends = np.cumsum(np.bincount(comp_idx)).tolist()
        for k, (start, stop) in enumerate(zip([0, *ends], ends)):
            if start == stop:
                continue
            if k not in factors:
                raise ValueError(f"cluster_model has no {_COMPONENTS[k]!r} component,"
                                 f" which level {levels[order[start:stop]].min()} needs")
            mean, chol = factors[k]
            zs[start:stop] = mean + zs[start:stop] @ chol.T
        # Back to window order by the inverse permutation; np.take gathers
        # rows faster than a fancy-indexed assignment scatters them.
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        return np.take(zs, inverse, axis=0)

    return draw


def gen_thermal_shots(cfg: ShotGenConfig, temperature: float, n: int,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw n thermal IQ shots; returns an (n, 2) array (see ``_thermal_shot_sampler``)."""
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _thermal_shot_sampler(cfg)(temperature, n, rng)


def gen_reset_curves(rates: DecayRates, preps, t_grid, n_shots_per_point: int,
                     floor_p_inf: float | None = None, seed: int = 0) -> ResetDataset:
    """Multinomial samples around the integrated reset trajectories.

    The underlying truth comes from ``populations_ode`` (itself verified
    against the closed forms), so the round trip through
    ``fit_decay_rates`` exercises both solution paths.
    """
    if n_shots_per_point < 1:
        raise ValueError("n_shots_per_point must be >= 1")
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    curves = {}
    for prep in preps:
        p = populations_ode(t_grid, rates, PopulationVector.pure(prep))
        if floor_p_inf is not None:
            p = apply_thermal_floor(p, floor_p_inf)
        p = np.clip(p, 0.0, None)
        p /= p.sum(axis=1, keepdims=True)
        counts = np.array([rng.multinomial(n_shots_per_point, row) for row in p])
        curves[prep] = ResetCurve(t_grid, counts / n_shots_per_point)
    return ResetDataset(curves)


def gen_rb_decay(p_true: float, a: float, b: float, m_grid, shots_per_point: int,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Binomial samples of the survival curve A p^m + B."""
    if not 0.0 < p_true <= 1.0:
        raise ValueError("p_true must lie in (0, 1]")
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    m_grid = np.asarray(m_grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    prob = np.clip(a * p_true**m_grid + b, 0.0, 1.0)
    survived = rng.binomial(shots_per_point, prob)
    return m_grid, survived / shots_per_point


def gen_window_series(cfg: ShotGenConfig, t_profile, n_win: int, n_shot: int,
                      seed: int | None = None) -> list[np.ndarray]:
    """Raw shot sets for n_win windows, one independent substream each.

    ``t_profile`` maps the window index to a temperature (a constant works
    too).  Windows are reproducible individually, so parallel generation
    cannot reorder the aggregate output.  The list form of
    ``iter_window_series``.
    """
    return list(iter_window_series(cfg, t_profile, n_win, n_shot, seed))


def iter_window_series(cfg: ShotGenConfig, t_profile, n_win: int, n_shot: int,
                       seed: int | None = None):
    """Iterator drawing the windows of ``gen_window_series`` one at a time."""
    if n_win < 2:
        raise ValueError("n_win must be >= 2")
    base_seed = cfg.seed if seed is None else seed
    profile = t_profile if callable(t_profile) else (lambda _w: float(t_profile))
    draw = _thermal_shot_sampler(cfg)
    return (draw(profile(w), n_shot, window_rng(base_seed, w)) for w in range(n_win))
