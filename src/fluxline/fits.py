"""Shared nonlinear curve-fit primitives for coherence and benchmarking data.

Models:

* exponential decay        y = A exp(-t / tau) + B
* decaying cosine          y = A cos(2 pi f t + phi) exp(-t / tau) + B
* stretched exponential    y = exp(-(t / T2DD)^alpha)
* benchmarking decay       y = A p^m + B

plus the fidelity formulas derived from the benchmarking decay parameter
and a quadratic-minimum helper for two-stage pulse calibrations.  Every
fit seeds itself from the data (log-linear regression or the spectral
peak), runs a least-squares refinement, and reports one-sigma parameter
uncertainties from the residual-scaled inverse normal matrix when the
Jacobian has full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import FitDiverged, NoOscillation

_ALPHA_BOUNDS = (0.3, 5.0)


@dataclass(frozen=True)
class FitResult:
    """Converged parameters, uncertainties and diagnostics of one fit."""

    params: dict[str, float]
    sigmas: dict[str, float] | None
    covariance: np.ndarray | None
    residual_rms: float
    converged: bool
    at_bound: bool = False
    rank_deficient: bool = False


def _finish(res, names, n_points, at_bound=False) -> FitResult:
    params = dict(zip(names, (float(v) for v in res.x)))
    rms = math.sqrt(np.mean(res.fun**2)) if res.fun.size else math.nan
    dof = n_points - len(names)
    converged = bool(res.success) and not at_bound
    sigmas = None
    cov = None
    rank_deficient = False
    jtj = res.jac.T @ res.jac
    if dof > 0 and np.all(np.isfinite(jtj)):
        try:
            cov = np.linalg.inv(jtj) * (2.0 * res.cost / dof)
            sigmas = {n: math.sqrt(max(cov[i, i], 0.0)) for i, n in enumerate(names)}
        except np.linalg.LinAlgError:
            rank_deficient = True
    else:
        rank_deficient = True
    if rank_deficient or not converged:
        sigmas = None
    return FitResult(params, sigmas, cov, rms, converged, at_bound, rank_deficient)


def _validate_xy(t, y, n_min):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and y must be 1-D arrays of equal length")
    if t.size < n_min:
        raise ValueError(f"need at least {n_min} points, got {t.size}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly increasing")
    return t, y


def fit_exponential(t, y) -> FitResult:
    """Fit y = A exp(-t / tau) + B.

    Seeded by log-linear regression on the detrended data.  Constant
    traces come back flagged rank_deficient with tau unidentifiable rather
    than raising.
    """
    t, y = _validate_xy(t, y, 4)
    names = ("A", "tau", "B")
    spread = float(np.ptp(y))
    if spread <= 1e-14 * max(1.0, abs(float(np.mean(y)))):
        flat = least_squares(lambda th: th[0] * np.exp(-t / th[1]) + th[2] - y,
                             [0.0, t[-1] - t[0], float(np.mean(y))], max_nfev=1)
        result = _finish(flat, names, t.size)
        return FitResult(result.params, None, None, result.residual_rms,
                         True, False, True)

    b0 = float(y[-1])
    z = y - b0
    sign = 1.0 if z[np.argmax(np.abs(z))] >= 0 else -1.0
    mask = sign * z > 1e-3 * spread
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(t[mask], np.log(sign * z[mask]), 1)
        tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0])
        a0 = sign * math.exp(intercept)
    else:
        tau0 = t[-1] - t[0]
        a0 = float(y[0] - b0)
    tau0 = min(max(tau0, 1e-3 * (t[-1] - t[0])), 1e3 * (t[-1] - t[0]))

    def model(th, tt):
        return th[0] * np.exp(-tt / th[1]) + th[2]

    res = least_squares(lambda th: model(th, t) - y, [a0, tau0, b0],
                        jac=lambda th: exponential_jacobian(th, t),
                        bounds=([-np.inf, 1e-300, -np.inf], [np.inf, np.inf, np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not res.success:
        raise FitDiverged(f"exponential fit failed: {res.message}")
    return _finish(res, names, t.size)


def exponential_jacobian(params, t):
    """Analytic Jacobian of the exponential model, columns (A, tau, B)."""
    a, tau, _ = params
    t = np.asarray(t, dtype=float)
    e = np.exp(-t / tau)
    return np.column_stack([e, a * t / tau**2 * e, np.ones_like(t)])


def fit_decaying_cosine(t, y) -> FitResult:
    """Fit y = A cos(2 pi f t + phi) exp(-t / tau) + B.

    The frequency is seeded by the spectral peak of the detrended series;
    a peak below the noise floor raises NoOscillation.
    """
    t, y = _validate_xy(t, y, 8)
    names = ("A", "f", "phi", "tau", "B")
    z = y - y.mean()
    if float(np.ptp(y)) <= 1e-14 * max(1.0, abs(float(y.mean()))):
        raise NoOscillation("trace has no amplitude")
    dt = float(np.median(np.diff(t)))
    spec = np.fft.rfft(z)
    mag = np.abs(spec[1:])
    if mag.size == 0 or mag.max() == 0.0:
        raise NoOscillation("empty spectrum")
    noise_floor = np.median(mag)
    peak = int(np.argmax(mag)) + 1
    if mag[peak - 1] < 3.0 * noise_floor:
        raise NoOscillation("spectral peak below noise floor")
    freqs = np.fft.rfftfreq(t.size, dt)
    f0 = float(freqs[peak])
    if f0 <= 0:
        raise NoOscillation("no nonzero spectral peak")
    a0 = 2.0 * mag[peak - 1] / t.size
    phi0 = float(np.angle(spec[peak]))
    tau0 = t[-1] - t[0]
    b0 = float(y.mean())

    def resid(th):
        return (th[0] * np.cos(2.0 * math.pi * th[1] * t + th[2])
                * np.exp(-t / th[3]) + th[4] - y)

    res = least_squares(resid, [a0, f0, phi0, tau0, b0],
                        bounds=([-np.inf, 0.0, -2 * math.pi, 1e-300, -np.inf],
                                [np.inf, np.inf, 2 * math.pi, np.inf, np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not res.success:
        raise FitDiverged(f"decaying-cosine fit failed: {res.message}")
    return _finish(res, names, t.size)


def fit_stretched_exponential(t, y) -> FitResult:
    """Fit y = exp(-(t / T2DD)^alpha) with alpha constrained to [0.3, 5].

    y must lie in (0, 1]; the seed comes from the log-log linearization
    ln(-ln y) = alpha ln t - alpha ln T2DD.  An optimum pinned at an alpha
    bound is returned with converged=False and at_bound=True.
    """
    t, y = _validate_xy(t, y, 5)
    if np.any(y <= 0) or np.any(y > 1.0):
        raise ValueError("y must lie in (0, 1]")
    names = ("T2DD", "alpha")
    mask = (y < 1.0) & (t > 0)
    if mask.sum() >= 2:
        u = np.log(t[mask])
        v = np.log(-np.log(y[mask]))
        slope, intercept = np.polyfit(u, v, 1)
        alpha0 = min(max(slope, _ALPHA_BOUNDS[0]), _ALPHA_BOUNDS[1])
        t2_0 = math.exp(-intercept / max(slope, 1e-3))
    else:
        alpha0, t2_0 = 1.0, t[-1]
    t2_0 = min(max(t2_0, 1e-6 * t[-1]), 1e6 * t[-1])

    def resid(th):
        return np.exp(-((t / th[0]) ** th[1])) - y

    res = least_squares(resid, [t2_0, alpha0],
                        bounds=([1e-300, _ALPHA_BOUNDS[0]], [np.inf, _ALPHA_BOUNDS[1]]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not res.success:
        raise FitDiverged(f"stretched-exponential fit failed: {res.message}")
    alpha = res.x[1]
    at_bound = (abs(alpha - _ALPHA_BOUNDS[0]) < 1e-9
                or abs(alpha - _ALPHA_BOUNDS[1]) < 1e-9)
    return _finish(res, names, t.size, at_bound=at_bound)


def rb_fit(m, p_g) -> FitResult:
    """Fit ground-state survival P_g(m) = A p^m + B over sequence lengths.

    Seeded by a linearized log fit of (P_g - B_hat); flat traces return
    p = 1 with the amplitude split flagged rank_deficient.
    """
    m = np.asarray(m, dtype=float)
    p_g = np.asarray(p_g, dtype=float)
    if m.shape != p_g.shape or m.ndim != 1:
        raise ValueError("m and p_g must be 1-D arrays of equal length")
    if np.unique(m).size < 5:
        raise ValueError("need at least 5 distinct sequence lengths")
    order = np.argsort(m)
    m, p_g = m[order], p_g[order]
    names = ("A", "p", "B")

    spread = float(np.ptp(p_g))
    if spread <= 1e-12:
        return FitResult({"A": 0.0, "p": 1.0, "B": float(p_g.mean())},
                         None, None, float(p_g.std()), True, False, True)

    b0 = float(p_g[-1])
    z = p_g - b0
    mask = z > 1e-3 * spread
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(m[mask], np.log(z[mask]), 1)
        p0 = min(max(math.exp(slope), 1e-6), 1.0)
        a0 = math.exp(intercept)
    else:
        p0, a0 = 0.99, float(p_g[0] - b0)

    def resid(th):
        return th[0] * th[1] ** m + th[2] - p_g

    res = least_squares(resid, [a0, p0, b0], jac=lambda th: rb_jacobian(th, m),
                        bounds=([-np.inf, 1e-12, -np.inf], [np.inf, 1.0, np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    if not res.success:
        raise FitDiverged(f"benchmarking fit failed: {res.message}")
    return _finish(res, names, m.size)


def rb_jacobian(params, m):
    """Analytic Jacobian of A p^m + B, columns (A, p, B)."""
    a, p, _ = params
    m = np.asarray(m, dtype=float)
    pm = p**m
    return np.column_stack([pm, a * m * p ** np.maximum(m - 1, 0.0), np.ones_like(m)])


def clifford_fidelity(p_ref: float, k: float = 45.0 / 24.0) -> float:
    """Average fidelity per Clifford, 1 - (1 - p_ref) / (2 k).

    ``k`` is the average number of primitive pulses per Clifford in the
    compilation (45/24 for the standard single-qubit set).
    """
    if not 0.0 <= p_ref <= 1.0:
        raise ValueError("p_ref must lie in [0, 1]")
    if k <= 0:
        raise ValueError("k must be positive")
    return 1.0 - (1.0 - p_ref) / (2.0 * k)


def interleaved_fidelity(p_ref: float, p_int: float) -> float:
    """Interleaved-gate fidelity 1 - (1 - p_int / p_ref) / 2.

    Values slightly above one are reported as-is; they arise from
    statistical fluctuations when p_int > p_ref.
    """
    if p_ref == 0:
        raise ValueError("p_ref must be nonzero")
    return 1.0 - 0.5 * (1.0 - p_int / p_ref)


def fit_quadratic_minimum(x, y) -> FitResult:
    """Least-squares parabola through (x, y); params (x0, y0, curvature).

    Helper for two-stage calibrations that locate the minimum of an
    error-amplification metric versus a swept pulse parameter.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    coeffs, res_info = np.polyfit(x, y, 2, full=True)[:2]
    a, b, c = coeffs
    if a <= 0:
        return FitResult({"x0": math.nan, "y0": math.nan, "curvature": float(2 * a)},
                         None, None, math.nan, False, False, True)
    x0 = -b / (2 * a)
    y0 = c - b**2 / (4 * a)
    rms = math.sqrt(res_info[0] / x.size) if res_info.size else 0.0
    return FitResult({"x0": float(x0), "y0": float(y0), "curvature": float(2 * a)},
                     None, None, float(rms), True)
