"""Four-level reset cascade rate equations and reset-curve fitting.

Level populations P = (P_g, P_e, P_f, P_h) obey dP/dt = M P for the
sequential g <- e <- f <- h cascade, each level decaying only to the one
below it at the rate Gamma_ij from level j to level i::

    dP_g/dt =  G_ge P_e
    dP_e/dt = -G_ge P_e + G_ef P_f
    dP_f/dt = -G_ef P_f + G_fh P_h
    dP_h/dt = -G_fh P_h

The matrix is lower triangular, so the solution is a sum of exponentials
with removable 1/(Gamma_i - Gamma_j) poles at rate degeneracies; those are
evaluated through divided-difference helpers that switch to series limits
instead of relying on cancellation.

A state is a (4,) numpy row of these populations.  Reset curves are keyed
by the prepared level k (1, 2 or 3) and start from ``np.eye(4)[k]``; only
``io.prep_levels`` maps the preparation labels e, f and h to these levels.

The closed form is fluxline's one solution of the cascade, one call for
any (..., 4) stack of initial rows: the reset fit and ``synth``'s reset
curves both evaluate it, and ``tests/oracle.py`` cross-checks it with an
independent adaptive Dormand-Prince 4(5) integrator.  Reset curves are
fitted to it by ``fits.levenberg_marquardt``, the one least-squares solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateUnhandled, FitDiverged, RankDeficient
from .fits import levenberg_marquardt

# |delta| * t below this switches divided differences to series limits.
_SERIES_CUT = 1e-6


@dataclass(frozen=True)
class DecayRates:
    """Rates of the sequential cascade in 1/s."""

    gamma_ge: float
    gamma_ef: float
    gamma_fh: float

    def __post_init__(self):
        for name in ("gamma_ge", "gamma_ef", "gamma_fh"):
            # A positive test, so that NaN fails it; from_t1 of a lifetime
            # whose reciprocal overflows gives an infinite rate.
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")

    @classmethod
    def from_t1(cls, t1_ge: float, t1_ef: float, t1_fh: float) -> "DecayRates":
        """Sequential rates from the three lifetimes T1_ij = 1/Gamma_ij."""
        return cls(1.0 / t1_ge, 1.0 / t1_ef, 1.0 / t1_fh)


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
    """Reset curves keyed by prepared level: 1, 2 or 3."""

    curves: dict[int, ResetCurve]

    def __post_init__(self):
        if not self.curves.keys() <= {1, 2, 3}:
            raise ValueError(f"curves are keyed by level 1, 2 or 3, got {list(self.curves)}")


# --- degeneracy-safe exponential helpers --------------------------------------
#
# The cascade solution is built from divided differences of exp(-x t),
# which are bounded for nonnegative rates and reduce the removable
# 1/(Gamma_i - Gamma_j) poles to well-conditioned limits.  Rates are
# scalars and t is an array.  _psi evaluates each of its branches only on
# the time points that take it; the series helpers _m1 and _m3 still
# evaluate both of theirs and pick per point, so the one not taken may
# divide by zero (the closed form silences those warnings).

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


def populations_closed_form(t_grid, rates: DecayRates, init) -> np.ndarray:
    """Analytic populations on a time grid from each (4,) row of the
    (..., 4) ``init``, shape (..., len(t_grid), 4); rows ordered (g, e, f, h).

    The exponentials and divided differences depend on the rates and t
    alone, so they are computed once and broadcast over every initial row.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    init = np.asarray(init, dtype=float)
    g, ef, fh = rates.gamma_ge, rates.gamma_ef, rates.gamma_fh
    e0, f0, h0 = (init[..., k, None] for k in (1, 2, 3))

    out = np.empty(init.shape[:-1] + (t.size, 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[..., 3] = p_h = h0 * np.exp(-fh * t)
        out[..., 2] = p_f = f0 * np.exp(-ef * t) + h0 * fh * _dd1(ef, fh, t)
        out[..., 1] = p_e = (e0 * np.exp(-g * t)
                             + ef * f0 * _dd1(g, ef, t)
                             # h0 scales the whole product: the rounding the
                             # pinned fit-reset outputs were computed with.
                             + h0 * (ef * fh * _dd2(g, ef, fh, t)))
    out[..., 0] = 1.0 - p_e - p_f - p_h
    if not np.isfinite(out).all():
        raise DegenerateUnhandled("closed-form evaluation produced non-finite values")
    return out


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
    floor: float | None
    residual_rms: float
    n_points: int


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


def fit_decay_rates(data: ResetDataset, fit_floor: bool = False) -> DecayRatesFit:
    """Global nonlinear least squares of the sequential cascade to reset data.

    All four populations of every preparation enter one unweighted
    residual vector.  Each residual is one closed-form call on the union of
    the preparations' time grids, from which each preparation's rows are
    gathered, and the gathered floorless model is kept per rate triple, so
    the difference column of p_inf evaluates no closed form.  It is
    minimised by ``fits.levenberg_marquardt`` on a one-sided difference
    Jacobian within the box of rates > 0 and a floor in (0, 1], stopping
    when the scaled step or the relative cost decrease falls to 1e-14,
    within 200 (p + 1) residual evaluations for p parameters.  Each
    prepared level k seeds its own rate gamma_{k-1,k} from the log-linear
    decay of its population towards the last value; a level not prepared
    keeps the guess (g0, 1.7 g0, 2.5 g0), g0 from the ground-population
    rise of the lowest prepared level.
    Uncertainties come from the cluster-robust (sandwich) covariance
    (J^T J)^-1 (sum_b s_b s_b^T) (J^T J)^-1 * B / (B - p), with J the
    difference Jacobian at the optimum, taken backward where a forward step
    would leave the box (a floor within 1e-6 of 1), and one score
    s_b = J_b^T r_b per (preparation, time) block of four populations.  With
    ``fit_floor`` a shared saturation parameter p_inf is added through
    ``apply_thermal_floor``.  FitDiverged is raised only when the fit runs
    out of evaluations or returns a point outside the box.
    """
    levels = sorted(data.curves)
    curves = [data.curves[k] for k in levels]
    if len(curves) < 2:
        raise ValueError("need at least 2 preparations")
    if min(c.times.size for c in curves) < 5:
        raise ValueError("need at least 5 time points per preparation")
    t_grids = [c.times for c in curves]
    measured = np.concatenate([c.populations.ravel() for c in curves])
    t_all, time_index = np.unique(np.concatenate(t_grids), return_inverse=True)
    # Row of each data point in the kernel output seen as (preps * times, 4);
    # one take of these rows costs a tenth of a 2-D fancy index.
    kernel_row = np.repeat(np.arange(len(curves)) * t_all.size,
                           [t.size for t in t_grids]) + time_index
    inits = np.eye(4)[levels]

    g0 = _seed_gamma(curves[0].times, curves[0].populations[:, 0])
    theta0 = [g0, 1.7 * g0, 2.5 * g0]
    # A prepared level k empties at its own rate gamma_{k-1,k} alone.
    for k, curve in zip(levels, curves):
        theta0[k - 1] = _seed_gamma(curve.times, -curve.populations[:, k])
    if fit_floor:
        p_late = max(c.populations[-1, 0] for c in curves)
        theta0 = theta0 + [min(max(p_late, 0.5), 1.0)]

    names = ["gamma_ge", "gamma_ef", "gamma_fh"] + (["p_inf"] if fit_floor else [])
    lo, hi = np.zeros(len(names)), np.array([np.inf, np.inf, np.inf, 1.0][:len(names)])

    # The difference column of p_inf moves only the floor and reuses the
    # model at x; four entries hold x and the three rate columns' points.
    # Every caller shares a cached model, so it is read-only.
    @functools.lru_cache(maxsize=4)
    def floorless(g, ef, fh):
        model = populations_closed_form(t_all, DecayRates(g, ef, fh), inits).reshape(-1, 4)
        model = model.take(kernel_row, axis=0)
        model.flags.writeable = False
        return model

    def residuals(x):
        theta = x.tolist()
        model = floorless(*theta[:3])
        if fit_floor:
            model = apply_thermal_floor(model, theta[3])
        return model.ravel() - measured

    n_params = len(theta0)
    x, fun, jac = levenberg_marquardt(residuals, theta0, lo=lo, hi=hi)
    if not ((x > lo) & (x <= hi)).all():
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
