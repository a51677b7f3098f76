"""Seeded Monte Carlo generators for thermal IQ shots, reset curves and
benchmarking decays.

These generators are the independent oracles for every estimator in the
repository: thermal shots exercise the classification and thermometry
pipeline, multinomially sampled reset trajectories exercise the rate fits,
and binomial benchmarking decays exercise the survival fit.  Thermal
levels are drawn from ``thermometry.boltzmann_populations`` over the
extended manifold.  A reset trajectory starts from the (4,) population row
``np.eye(4)[level]`` of its prepared level, 1, 2 or 3.
Every generator is a pure function of (configuration, seed); per-window
substreams are split from the base seed with a counter key so that window
parallelism cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import LABEL_ORDER, GmmModel
from .dynamics import DecayRates, ResetCurve, ResetDataset, apply_thermal_floor, populations_ode
from .thermometry import LevelLadder, boltzmann_populations


@dataclass(frozen=True)
class ShotGenConfig:
    """Configuration for thermal single-shot generation.

    ``n_model_levels`` extends the Boltzmann distribution past h along
    ``thermometry.level_energies``; any occupation above h is emitted from
    the overflow cluster.  Each shot is emitted from the cluster of the level
    it was drawn in, so the estimators see no in-window relaxation.
    ``seed`` seeds every generator that takes the configuration.
    """

    ladder: LevelLadder
    cluster_model: GmmModel
    n_model_levels: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.n_model_levels < 4:
            raise ValueError("n_model_levels must be >= 4")


def window_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one window, split by a counter key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _thermal_shot_sampler(cfg: ShotGenConfig, temperature: float):
    """``draw(n, rng)``, the (n, 2) thermal IQ shots of one window at ``temperature``.

    Levels are sampled from the extended Boltzmann distribution, then
    emitted from the matching cluster Gaussian (levels >= 4 from the
    overflow component).  The per-run setup, the level probabilities and
    each component's Cholesky factor, is done once per sampler, not once
    per window.
    """
    probs = boltzmann_populations(temperature, cfg.ladder, cfg.n_model_levels)
    model = cfg.cluster_model
    factors = {LABEL_ORDER.index(lab): (mean, chol) for lab, mean, chol
               in zip(model.labels, model.means, np.linalg.cholesky(model.covs))
               if lab in LABEL_ORDER}

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        levels = rng.choice(cfg.n_model_levels, size=n, p=probs)
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
                raise ValueError(f"cluster_model has no {LABEL_ORDER[k]!r} component,"
                                 f" which level {levels[order[start:stop]].min()} needs")
            mean, chol = factors[k]
            zs[start:stop] = mean + zs[start:stop] @ chol.T
        # Back to window order by the inverse permutation; np.take gathers
        # rows faster than a fancy-indexed assignment scatters them.
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n)
        return np.take(zs, inverse, axis=0)

    return draw


def gen_thermal_shots(cfg: ShotGenConfig, temperature: float, n: int) -> np.ndarray:
    """Draw n thermal IQ shots; returns an (n, 2) array (see ``_thermal_shot_sampler``)."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return _thermal_shot_sampler(cfg, temperature)(n, rng)


def gen_reset_curves(rates: DecayRates, levels, t_grid, n_shots_per_point: int,
                     floor_p_inf: float | None = None, seed: int = 0) -> ResetDataset:
    """Multinomial samples around the integrated reset trajectories.

    The underlying truth comes from one ``populations_ode`` call that
    integrates every preparation at once (the integrator is itself verified
    against the closed forms), so the round trip through
    ``fit_decay_rates`` exercises both solution paths.  Its rows are
    non-negative and sum to 1, ``apply_thermal_floor`` keeps both, and all
    rows are sampled unchanged in one multinomial draw, prepared level by
    prepared level (each 1, 2 or 3, none twice) in the order given.
    """
    if n_shots_per_point < 1:
        raise ValueError("n_shots_per_point must be >= 1")
    levels = list(levels)  # checked before any integration; a dict merges a repeat
    if len(set(levels)) != len(levels) or not set(levels) <= {1, 2, 3}:
        raise ValueError(f"prepared levels must be distinct, each 1, 2 or 3, got {levels}")
    t_grid = np.asarray(t_grid, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = populations_ode(t_grid, [rates] * len(levels), np.eye(4)[levels])
    if floor_p_inf is not None:
        p = apply_thermal_floor(p, floor_p_inf)
    fractions = rng.multinomial(n_shots_per_point, p) / n_shots_per_point
    return ResetDataset({k: ResetCurve(t_grid, f) for k, f in zip(levels, fractions)})


def gen_rb_decay(p_true: float, a: float, b: float, m_grid, shots_per_point: int,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Binomial samples of the survival curve A p^m + B."""
    if not 0.0 < p_true <= 1.0:
        raise ValueError("p_true must lie in (0, 1]")
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    m_grid = np.asarray(m_grid, dtype=float)
    if not (m_grid >= 0).all():
        raise ValueError("sequence lengths must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    prob = np.clip(a * p_true**m_grid + b, 0.0, 1.0)
    survived = rng.binomial(shots_per_point, prob)
    return m_grid, survived / shots_per_point


def iter_window_series(cfg: ShotGenConfig, temperature: float, n_win: int, n_shot: int):
    """Iterator drawing the raw shot sets of n_win windows at one temperature.

    Window w is drawn from its own substream ``window_rng(cfg.seed, w)``, so
    each window is reproducible alone and parallel generation cannot
    reorder the aggregate output.
    """
    if n_win < 2:
        raise ValueError("n_win must be >= 2")
    draw = _thermal_shot_sampler(cfg, temperature)
    return (draw(n_shot, window_rng(cfg.seed, w)) for w in range(n_win))
