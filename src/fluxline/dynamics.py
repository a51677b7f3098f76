"""Four-level downward-transition rate equations and reset-curve fitting.

Level populations P = (P_g, P_e, P_f, P_h) obey dP/dt = M P with only
downward rates Gamma_ij from level j to level i < j::

    dP_g/dt =  G_ge P_e + G_gf P_f + G_gh P_h
    dP_e/dt = -G_ge P_e + G_ef P_f + G_eh P_h
    dP_f/dt = -(G_gf + G_ef) P_f + G_fh P_h
    dP_h/dt = -(G_gh + G_eh + G_fh) P_h

with the shorthand A_f = G_gf + G_ef and A_h = G_gh + G_eh + G_fh.  The
matrix is lower triangular, so the solution is a sum of exponentials with
removable 1/(Gamma_i - Gamma_j) poles at rate degeneracies; those are
evaluated through divided-difference helpers that switch to series limits
instead of relying on cancellation.

The closed forms are cross-checked against an in-house adaptive
Dormand-Prince 4(5) integrator, ``populations_ode_batch``, whose one-row
call ``populations_ode`` is also the truth behind synthetic reset curves.
Measured reset curves are fitted to the closed forms by
``fits.levenberg_marquardt``, fluxline's one least-squares solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUnhandled, FitDiverged, RankDeficient, StepFailure
from .fits import levenberg_marquardt

LEVELS = ("g", "e", "f", "h")
_PREP_INDEX = {"e": 1, "f": 2, "h": 3}

# |delta| * t below this switches divided differences to series limits.
_SERIES_CUT = 1e-6


@dataclass(frozen=True)
class DecayRates:
    """Downward transition rates in 1/s; non-sequential rates default to 0."""

    gamma_ge: float
    gamma_ef: float
    gamma_fh: float
    gamma_gf: float = 0.0
    gamma_gh: float = 0.0
    gamma_eh: float = 0.0

    def __post_init__(self):
        for name in ("gamma_ge", "gamma_ef", "gamma_fh",
                     "gamma_gf", "gamma_gh", "gamma_eh"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def a_f(self) -> float:
        """Total depopulation rate of level f."""
        return self.gamma_gf + self.gamma_ef

    @property
    def a_h(self) -> float:
        """Total depopulation rate of level h."""
        return self.gamma_gh + self.gamma_eh + self.gamma_fh

    @property
    def is_sequential(self) -> bool:
        return self.gamma_gf == self.gamma_gh == self.gamma_eh == 0.0

    def rate_matrix(self) -> np.ndarray:
        """Generator M of dP/dt = M P in (g, e, f, h) ordering."""
        m = np.zeros((4, 4))
        m[0, 1] = self.gamma_ge
        m[0, 2] = self.gamma_gf
        m[0, 3] = self.gamma_gh
        m[1, 1] = -self.gamma_ge
        m[1, 2] = self.gamma_ef
        m[1, 3] = self.gamma_eh
        m[2, 2] = -self.a_f
        m[2, 3] = self.gamma_fh
        m[3, 3] = -self.a_h
        return m

    @classmethod
    def from_t1(cls, t1_ge: float, t1_ef: float, t1_fh: float) -> "DecayRates":
        """Sequential rates from the three lifetimes T1_ij = 1/Gamma_ij."""
        return cls(1.0 / t1_ge, 1.0 / t1_ef, 1.0 / t1_fh)


@dataclass(frozen=True)
class PopulationVector:
    """Normalized occupation of the four lowest levels."""

    p_g: float
    p_e: float
    p_f: float
    p_h: float

    def __post_init__(self):
        vals = (self.p_g, self.p_e, self.p_f, self.p_h)
        if any(v < 0.0 or v > 1.0 for v in vals):
            raise ValueError(f"populations must lie in [0, 1], got {vals}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {sum(vals)!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_g, self.p_e, self.p_f, self.p_h])

    @classmethod
    def from_array(cls, p) -> "PopulationVector":
        p = np.asarray(p, dtype=float)
        return cls(*p)

    @classmethod
    def pure(cls, level: str) -> "PopulationVector":
        vals = [0.0, 0.0, 0.0, 0.0]
        vals[LEVELS.index(level)] = 1.0
        return cls(*vals)


@dataclass(frozen=True)
class PointerCalibration:
    """Complex pointer value of each level in the IQ plane."""

    s_g: complex
    s_e: complex
    s_f: complex
    s_h: complex

    def __post_init__(self):
        vals = (self.s_g, self.s_e, self.s_f, self.s_h)
        if len({complex(v) for v in vals}) < 2:
            raise ValueError("at least two pointer values must be distinct")

    def as_array(self) -> np.ndarray:
        return np.array([self.s_g, self.s_e, self.s_f, self.s_h], dtype=complex)


@dataclass(frozen=True)
class ResetCurve:
    """Measured populations versus time for one preparation."""

    times: np.ndarray
    populations: np.ndarray  # shape (n_times, 4) in (g, e, f, h) order

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        # A positive test, so that NaN times fail it.
        if t.ndim != 1 or not (np.diff(t) > 0).all():
            raise ValueError("times must be strictly increasing")
        if p.shape != (t.size, 4):
            raise ValueError("populations must have shape (len(times), 4)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)


@dataclass(frozen=True)
class ResetDataset:
    """Reset curves keyed by preparation label ('e', 'f' or 'h')."""

    curves: dict[str, ResetCurve]

    def __post_init__(self):
        for label in self.curves:
            if label not in _PREP_INDEX:
                raise ValueError(f"unknown preparation label {label!r}")


# --- degeneracy-safe exponential helpers --------------------------------------
#
# The cascade solution is built from divided differences of exp(-x t),
# which are bounded for nonnegative rates and reduce the removable
# 1/(Gamma_i - Gamma_j) poles to well-conditioned limits.  Rates are
# scalars and t is an array.  _psi evaluates each of its branches only on
# the time points that take it; the series helpers _m1 and _m3 still
# evaluate both of theirs and pick per point, so the one not taken may
# divide by zero (the kernel silences those warnings).

def _phi(x: float, t: np.ndarray) -> np.ndarray:
    """(1 - exp(-x t)) / x for x >= 0, the integral of exp(-x s) on [0, t]."""
    if x == 0.0:
        return t
    return -np.expm1(-x * t) / x


def _m1(z: np.ndarray) -> np.ndarray:
    """Derivative of M(z) = (1 - exp(-z)) / z."""
    series = (-1.0 / 2.0 + z * (1.0 / 3.0 + z * (-1.0 / 8.0 + z * (1.0 / 30.0
              + z * (-1.0 / 144.0 + z * (1.0 / 840.0 + z * (-1.0 / 5760.0
              + z / 45360.0)))))))
    direct = (np.exp(-z) * (z + 1.0) - 1.0) / (z * z)
    return np.where(np.abs(z) < 0.1, series, direct)


def _m3(z: np.ndarray) -> np.ndarray:
    """Third derivative of M(z)."""
    series = -1.0 / 4.0 + z * (1.0 / 5.0 + z * (-1.0 / 12.0 + z / 42.0))
    direct = (np.exp(-z) * (z**3 + 3.0 * z**2 + 6.0 * z + 6.0) - 6.0) / z**4
    return np.where(np.abs(z) < 0.1, series, direct)


def _dd1(u: float, v: float, t: np.ndarray) -> np.ndarray:
    """First divided difference (exp(-u t) - exp(-v t)) / (v - u), symmetric."""
    lo = min(u, v)
    return np.exp(-lo * t) * _phi(abs(v - u), t)


def _psi(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """(phi(a, t) - phi(b, t)) / (b - a) for 0 <= a <= b.

    Branches keep the evaluation well conditioned over the whole range:
    a series limit for near-degenerate arguments, an exact algebraic
    rearrangement when a t is order one or larger, and the direct
    difference in the small-a t regime where it is benign.  Each branch
    is evaluated only on the time points that take it, and its values are
    scattered into one output.
    """
    d = (b - a) * t
    series = d < _SERIES_CUT
    rearranged = ~series & (a * t >= 0.1)
    direct = ~(series | rearranged)
    out = np.empty_like(t)
    if series.any():  # _m1 and _m3 cost about 50 numpy calls even on no points
        ts, ds = t[series], d[series]
        m = 0.5 * (a + b) * ts
        out[series] = ts * ts * (-_m1(m) - ds * ds / 24.0 * _m3(m))
    tr = t[rearranged]
    out[rearranged] = (_phi(b, tr) - _dd1(a, b, tr)) / a
    td = t[direct]
    out[direct] = (_phi(a, td) - _phi(b, td)) / (b - a)
    return out


def _dd2(x: float, y: float, z: float, t: np.ndarray) -> np.ndarray:
    """Second divided difference of exp(-s t) over {x, y, z}, symmetric."""
    x0, x1, x2 = sorted((x, y, z))
    return np.exp(-x0 * t) * _psi(x1 - x0, x2 - x0, t)


def _populations_closed(t: np.ndarray, rates: DecayRates, init: np.ndarray) -> np.ndarray:
    """Analytic solution on the 1-D grid t for each row of the (m, 4) init
    matrix, shape (m, n, 4).

    The exponentials and divided differences depend on the rates and t
    alone, so they are computed once and shared by every initial state.
    """
    g = rates.gamma_ge
    af = rates.a_f
    ah = rates.a_h
    e0, f0, h0 = (init[:, k, None] for k in (1, 2, 3))

    out = np.empty((init.shape[0], t.size, 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[..., 3] = p_h = h0 * np.exp(-ah * t)
        out[..., 2] = p_f = f0 * np.exp(-af * t) + h0 * rates.gamma_fh * _dd1(af, ah, t)
        out[..., 1] = p_e = (e0 * np.exp(-g * t)
                             + rates.gamma_ef * f0 * _dd1(g, af, t)
                             + h0 * (rates.gamma_ef * rates.gamma_fh * _dd2(g, af, ah, t)
                                     + rates.gamma_eh * _dd1(g, ah, t)))
    out[..., 0] = 1.0 - p_e - p_f - p_h
    if not np.isfinite(out).all():
        raise DegenerateUnhandled("closed-form evaluation produced non-finite values")
    return out


def populations_closed_form(t_grid, rates: DecayRates, init: PopulationVector) -> np.ndarray:
    """Analytic populations on a time grid; rows ordered (g, e, f, h)."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    return _populations_closed(t_grid, rates, init.as_array()[None])[0]


def ground_population_closed_form(
    t: float,
    rates: DecayRates,
    prep: str,
    mode: str = "sequential",
) -> float:
    """Ground-state population at time t after preparing 'e', 'f' or 'h'.

    ``mode='sequential'`` requires the non-sequential rates to vanish and
    evaluates the pure-cascade solution; ``mode='general'`` admits direct
    f -> g, h -> g and h -> e channels through the same A_f / A_h forms.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if prep not in _PREP_INDEX:
        raise ValueError(f"prep must be one of {sorted(_PREP_INDEX)}, got {prep!r}")
    if mode == "sequential":
        if not rates.is_sequential:
            raise ValueError("sequential mode requires the non-sequential rates to be 0")
    elif mode != "general":
        raise ValueError(f"mode must be 'sequential' or 'general', got {mode!r}")
    p_g = populations_closed_form(t, rates, PopulationVector.pure(prep))[0, 0]
    return min(max(float(p_g), 0.0), 1.0)


def populations_ode(
    t_grid,
    rates: DecayRates,
    init: PopulationVector,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> np.ndarray:
    """Populations from adaptive Dormand-Prince 4(5) integration.

    Independent numerical oracle for the closed forms: the one-row call of
    ``populations_ode_batch``.  Returns an array of shape (len(t_grid), 4).
    Raises StepFailure if the integrator cannot meet its tolerance.
    """
    out = populations_ode_batch(t_grid, [rates], init, rtol=rtol, atol=atol)[0]
    # Integration noise can push fully decayed levels marginally negative.
    tiny = (out < 0.0) & (out > -1e-9)
    out[tiny] = 0.0
    out /= out.sum(axis=1, keepdims=True)
    return out


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


def populations_ode_batch(
    t_grid,
    rates_list,
    init: PopulationVector,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> np.ndarray:
    """Adaptive Dormand-Prince 4(5) integration of many rate triples at once.

    Steps all systems on a shared adaptive grid (the step controller obeys
    the worst per-system error), which amortizes the solver overhead when
    validating thousands of rate sets.  Steps land exactly on the requested
    times, so no interpolation enters the oracle.  Returns shape
    (len(rates_list), len(t_grid), 4).  Raises StepFailure if the step size
    collapses.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    # Positive tests, so that NaN times fail them; a NaN or infinite grid
    # point would never be reached and the stepper would not return.
    if (t_grid.ndim != 1 or t_grid.size == 0 or not np.isfinite(t_grid).all()
            or not (np.diff(t_grid) > 0).all()):
        raise ValueError("t_grid must be non-empty, finite and strictly increasing")
    if not t_grid[0] >= 0:
        raise ValueError("t_grid must be non-negative")
    mats = np.stack([r.rate_matrix() for r in rates_list])
    n_sys = mats.shape[0]
    y = np.tile(init.as_array(), (n_sys, 1))
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
    while k_idx < t_grid.size:
        h = min(h, t_grid[k_idx] - t)
        on_grid = h >= t_grid[k_idx] - t
        for stage in range(1, 6):
            ys = y + h * np.einsum("r,rsi->si", _DP_A[stage, :stage], k[:stage])
            k[stage] = np.einsum("sij,sj->si", mats, ys)
        y_new = y + h * np.einsum("r,rsi->si", _DP_B[:6], k[:6])
        k[6] = np.einsum("sij,sj->si", mats, y_new)
        err = h * np.einsum("r,rsi->si", _DP_E, k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
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
    return out


def averaged_signal(
    t_grid,
    rates: DecayRates,
    init: PopulationVector,
    cal: PointerCalibration,
) -> np.ndarray:
    """Complex averaged readout signal S(t) = sum_i P_i(t) s_i."""
    populations = populations_closed_form(t_grid, rates, init)
    return populations @ cal.as_array()


def apply_thermal_floor(populations: np.ndarray, p_inf: float) -> np.ndarray:
    """Impose a saturation floor p_inf on the relaxed (ground) weight.

    The relaxed fraction P_g of the floorless solution is split p_inf to
    ground and (1 - p_inf) to the first excited level, so curves start at
    the prepared state and saturate at (p_inf, 1 - p_inf, 0, 0).  This is
    the steady-state-offset reading of the thermal floor; residual thermal
    weight above level e is neglected.
    """
    if not 0.0 < p_inf <= 1.0:
        raise ValueError("p_inf must lie in (0, 1]")
    p = np.array(populations, dtype=float, copy=True)
    pg = p[..., 0].copy()
    p[..., 0] = p_inf * pg
    p[..., 1] += (1.0 - p_inf) * pg
    return p


@dataclass(frozen=True)
class DecayRatesFit:
    """Result of a global reset-curve fit."""

    rates: DecayRates
    sigmas: dict[str, float]
    covariance: np.ndarray
    floor: float | None = None
    residual_rms: float = math.nan
    n_points: int = 0


def _seed_gamma(times: np.ndarray, p_g: np.ndarray) -> float:
    """Crude rate estimate from the ground-population rise of one curve.

    The distance to the observed saturation level decays exponentially
    with the slowest rate whether or not a thermal floor is present.
    """
    resid = p_g[-1] - p_g
    top = resid.max()
    mask = (resid > 0.02 * top) & (resid > 1e-9)
    if top > 0 and mask.sum() >= 2:
        slope = np.polyfit(times[mask], np.log(resid[mask]), 1)[0]
        if slope < 0:
            return -slope
    return 1.0 / max(times[-1] / 5.0, 1e-12)


def fit_decay_rates(
    data: ResetDataset,
    fit_floor: bool = False,
    initial_guess: DecayRates | None = None,
) -> DecayRatesFit:
    """Global nonlinear least squares of the sequential cascade to reset data.

    All four populations of every preparation enter one unweighted
    residual vector.  Each residual is one closed-form call on the union of
    the preparations' time grids, from which each preparation's rows are
    gathered, and the gathered floorless model is kept per rate triple, so
    the difference column of p_inf evaluates no closed form.  It is
    minimised by ``fits.levenberg_marquardt`` on a forward-difference
    Jacobian with no bounds, stopping when the scaled step or
    the relative cost decrease falls to 1e-14, within 200 (p + 1) residual
    evaluations for p parameters.  Each prepared level seeds its own rate
    (prep e gamma_ge, f gamma_ef, h gamma_fh) from the log-linear decay of
    its population towards the last value; a level not prepared keeps the
    guess (g0, 1.7 g0, 2.5 g0), g0 from the ground-population rise of the
    first preparation.
    Uncertainties come from the cluster-robust (sandwich) covariance
    (J^T J)^-1 (sum_b s_b s_b^T) (J^T J)^-1 * B / (B - p), with J the
    forward-difference Jacobian at the optimum and one score
    s_b = J_b^T r_b per (preparation, time) block of four populations.  With
    ``fit_floor`` a shared saturation parameter p_inf is added through
    ``apply_thermal_floor``.  A fit that runs out of evaluations, or stops
    at a rate <= 0 or a floor outside (0, 1], raises FitDiverged.
    """
    preps = sorted(data.curves, key=lambda s: _PREP_INDEX[s])
    if len(preps) < 2:
        raise ValueError("need at least 2 preparations")
    for prep in preps:
        if data.curves[prep].times.size < 5:
            raise ValueError("need at least 5 time points per preparation")
    t_grids = [data.curves[p].times for p in preps]
    measured = np.concatenate([data.curves[p].populations.ravel() for p in preps])
    t_all, time_index = np.unique(np.concatenate(t_grids), return_inverse=True)
    # Row of each data point in the kernel output seen as (preps * times, 4);
    # one take of these rows costs a tenth of a 2-D fancy index.
    kernel_row = np.repeat(np.arange(len(preps)) * t_all.size,
                           [t.size for t in t_grids]) + time_index
    inits = np.array([PopulationVector.pure(p).as_array() for p in preps])

    if initial_guess is not None:
        theta0 = [initial_guess.gamma_ge, initial_guess.gamma_ef, initial_guess.gamma_fh]
    else:
        first = data.curves[preps[0]]
        g0 = _seed_gamma(first.times, first.populations[:, 0])
        theta0 = [g0, 1.7 * g0, 2.5 * g0]
        # A prepared level k empties at its own rate gamma_{k-1,k} alone.
        for prep in preps:
            k = _PREP_INDEX[prep]
            curve = data.curves[prep]
            theta0[k - 1] = _seed_gamma(curve.times, -curve.populations[:, k])
    if fit_floor:
        p_late = max(data.curves[p].populations[-1, 0] for p in preps)
        theta0 = theta0 + [min(max(p_late, 0.5), 1.0)]

    names = ["gamma_ge", "gamma_ef", "gamma_fh"] + (["p_inf"] if fit_floor else [])

    def physical(theta: list) -> bool:
        return (theta[0] > 0 and theta[1] > 0 and theta[2] > 0
                and (not fit_floor or 0.0 < theta[3] <= 1.0))

    # The difference column of p_inf moves only the floor and reuses the
    # model at x; four entries hold x and the three rate columns' points.
    # Every caller shares a cached model, so it is read-only.
    @functools.lru_cache(maxsize=4)
    def floorless(g, ef, fh):
        model = _populations_closed(t_all, DecayRates(g, ef, fh), inits).reshape(-1, 4)
        model = model.take(kernel_row, axis=0)
        model.flags.writeable = False
        return model

    def residuals(x):
        theta = x.tolist()
        if not physical(theta):
            return np.full(measured.size, 1e3)
        model = floorless(*theta[:3])
        if fit_floor:
            model = apply_thermal_floor(model, theta[3])
        return model.ravel() - measured

    n_params = len(theta0)
    x, fun, jac = levenberg_marquardt(residuals, theta0, max_nfev=200 * (n_params + 1))
    if not physical(x.tolist()):
        raise FitDiverged(f"reset fit left the physical region at {x.tolist()}")

    dof = measured.size - n_params
    try:
        bread = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("Jacobian is rank deficient at the optimum") from exc
    if not np.all(np.isfinite(bread)) or dof <= 0:
        raise RankDeficient("uncertainties undefined (rank-deficient or no dof)")
    # The four populations of a block are correlated; plain residual-variance
    # scaling assumes independent residuals and understates the uncertainty
    # of shot-noise data by a factor of 2 to 3.
    n_blocks = measured.size // 4
    jac_blocks = jac.reshape(n_blocks, 4, n_params)
    res_blocks = fun.reshape(n_blocks, 4)
    scores = np.einsum("bip,bi->bp", jac_blocks, res_blocks)
    meat = scores.T @ scores
    cov = bread @ meat @ bread * (n_blocks / max(n_blocks - n_params, 1))
    sigmas = {n: math.sqrt(max(cov[i, i], 0.0)) for i, n in enumerate(names)}

    rates = DecayRates(x[0], x[1], x[2])
    floor = float(x[3]) if fit_floor else None
    rms = math.sqrt(np.mean(fun**2))
    return DecayRatesFit(rates, sigmas, cov, floor, rms, measured.size)
