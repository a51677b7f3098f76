"""Reference integrator of the reset cascade, used by the tests alone.

``populations_ode`` integrates dP/dt = M P with an adaptive Dormand-Prince
4(5) scheme (Dormand and Prince 1980), independently of the divided
differences behind ``fluxline.dynamics.populations_closed_form``; it is
the reference that acceptance criterion 4 and ``test_dynamics`` hold the
closed form to.
"""

import math

import numpy as np


class StepFailure(Exception):
    """The adaptive integrator could not meet its tolerance."""


def rate_matrix(rates) -> np.ndarray:
    """Generator M of dP/dt = M P in (g, e, f, h) ordering for ``DecayRates``."""
    m = np.zeros((4, 4))
    m[0, 1] = rates.gamma_ge
    m[1, 1] = -rates.gamma_ge
    m[1, 2] = rates.gamma_ef
    m[2, 2] = -rates.gamma_ef
    m[2, 3] = rates.gamma_fh
    m[3, 3] = -rates.gamma_fh
    return m


# Dormand-Prince 4(5) tableau, FSAL form.
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])
# Step-controller tolerances of the oracle, relative and absolute.
_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
# Steps an integration may take beyond one per output time.  The test suite
# takes at most 4914 and a 1000-point reset curve about 1200; a lifetime of
# 1e-18 s over a 2 us grid would take about 1e12.
_ODE_MAX_STEPS = 50_000


def populations_ode(t_grid, rates_list, init) -> np.ndarray:
    """Adaptive Dormand-Prince 4(5) integration of many rate triples at once.

    System s integrates ``rates_list[s]`` from row s of the (len(rates_list),
    4) ``init`` matrix; a (4,) ``init`` starts every system.  All systems
    step on a shared adaptive grid (the step controller obeys the worst
    per-system error, to _ODE_RTOL and _ODE_ATOL), which amortizes the
    solver overhead over thousands of rate sets.  Steps land exactly on the
    requested times, so no interpolation enters the oracle.  Integration
    noise that pushes a fully decayed level marginally negative is set to
    0 and each row is renormalised.  Returns shape (len(rates_list),
    len(t_grid), 4).  Raises StepFailure if the step size collapses or the
    steps exceed ``len(t_grid)`` + ``_ODE_MAX_STEPS``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    # Positive tests, so that NaN times fail them; a NaN or infinite grid
    # point would never be reached and the stepper would not return.
    if (t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all()
            or not (np.diff(t_grid) > 0).all()):
        raise ValueError("t_grid must be non-empty, finite and strictly increasing")
    if not t_grid[0] >= 0:
        raise ValueError("t_grid must be non-negative")
    mats = np.stack([rate_matrix(r) for r in rates_list])
    n_sys = mats.shape[0]
    y = np.broadcast_to(init, (n_sys, 4))
    out = np.empty((n_sys, t_grid.size, 4))

    t = 0.0
    k_idx = 0
    if t_grid[0] == 0.0:
        out[:, 0] = y
        k_idx = 1
    max_rate = np.abs(mats).max()
    h = min(0.01 / max_rate if max_rate > 0 else t_grid[-1], t_grid[-1])
    k = np.empty((7, n_sys, 4))
    k[0] = np.einsum("sij,sj->si", mats, y)
    n_steps = 0
    while k_idx < t_grid.size:
        if n_steps == t_grid.size + _ODE_MAX_STEPS:
            raise StepFailure(f"cascade too stiff: {n_steps} steps reached only "
                              f"t = {t:.3e} s of {t_grid[-1]:.3e} s")
        n_steps += 1
        h = min(h, t_grid[k_idx] - t)
        on_grid = h >= t_grid[k_idx] - t
        for stage in range(1, 6):
            ys = y + h * np.einsum("r,rsi->si", _DP_A[stage, :stage], k[:stage])
            k[stage] = np.einsum("sij,sj->si", mats, ys)
        y_new = y + h * np.einsum("r,rsi->si", _DP_B[:6], k[:6])
        k[6] = np.einsum("sij,sj->si", mats, y_new)
        err = h * np.einsum("r,rsi->si", _DP_E, k)
        scale = _ODE_ATOL + _ODE_RTOL * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean((err / scale) ** 2, axis=1)).max()
        if err_norm <= 1.0:
            t = t + h
            y = y_new
            k[0] = k[6]
            if on_grid:
                out[:, k_idx] = y
                k_idx += 1
            factor = 10.0 if err_norm == 0.0 else min(10.0, 0.9 * err_norm**-0.2)
        else:
            factor = max(0.2, 0.9 * err_norm**-0.2)
        h *= factor
        if h <= 0.0 or not math.isfinite(h):
            raise StepFailure(f"step size collapsed at t = {t:.3e}")
    # Integration noise can push fully decayed levels marginally negative.
    out[(out < 0.0) & (out > -1e-9)] = 0.0
    out /= out.sum(axis=2, keepdims=True)
    return out
