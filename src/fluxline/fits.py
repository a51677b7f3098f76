"""The solvers, and the curve fits built on them.

``levenberg_marquardt`` is fluxline's one nonlinear least-squares solver:
the scale-invariant damped Gauss-Newton step of Marquardt 1963 (see Moré
1978), with an optional analytic Jacobian and an optional box.  The reset
fit in ``dynamics`` and the curve fits here run on it; the filter root in
``network`` and the temperature fit run on ``bracketed_roots``.  Models:

* exponential decay        y = A exp(-t / tau) + B
* decaying cosine          y = A cos(2 pi f t + phi) exp(-t / tau) + B
* stretched exponential    y = exp(-(t / T2DD)^alpha)
* benchmarking decay       y = A p^m + B

plus the fidelity formulas derived from the benchmarking decay parameter
and a quadratic-minimum helper for two-stage pulse calibrations.  Every
fit seeds itself from the data (log-linear regression or the spectral
peak), refines it on the model's analytic Jacobian within its bounds, and
reports one-sigma parameter uncertainties from the residual-scaled
inverse normal matrix when the Jacobian has full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged, NoOscillation, RankDeficient

_ALPHA_BOUNDS = (0.3, 5.0)
# A fit of p parameters may spend this many times p + 1 evaluations of its residuals.
_NFEV_PER_PARAM = 200


@dataclass(frozen=True)
class FitResult:
    """Converged parameters, uncertainties and diagnostics of one fit."""

    params: dict[str, float]
    sigmas: dict[str, float] | None
    covariance: np.ndarray | None
    residual_rms: float
    converged: bool
    at_bound: bool
    rank_deficient: bool


def _fd_jacobian(fun, x: np.ndarray, f: np.ndarray, lo, hi) -> np.ndarray:
    """One-sided difference Jacobian, step 1e-6 sign(x) max(1, |x|) per
    column, reversed where it would leave the box lo <= x <= hi."""
    h = 1e-6 * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where((x + h < lo) | (x + h > hi), -h, h)
    jac = np.empty((f.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] += h[i]
        # Divided straight into the column: no temporary to copy there.  J
        # stays row-major (n, p), so J^T f keeps its BLAS summation order.
        np.divide(fun(xi) - f, xi[i] - x[i], out=jac[:, i])
    return jac


def levenberg_marquardt(fun, x0, jac=None, lo=-np.inf, hi=np.inf):
    """Minimise |fun(x)|^2 over the box lo <= x <= hi; return x, fun(x), J(x).

    Each step solves (J^T J + lam diag(J^T J)) dx = -J^T f, Marquardt's
    scale-invariant damping, with J from ``jac(x)`` or, without it, forward
    differences, each taken backward where the forward point would leave
    the box.  A step component that would cross a bound goes 99% of the
    way to it instead, so every iterate stays strictly inside the box, and
    the other components are solved again with it held there.  A step that
    lowers the cost is taken and lam shrinks tenfold; otherwise lam grows
    tenfold and J is kept.  The run stops when the step, scaled by the
    column norms of J, or the relative cost decrease is <= 1e-14.
    FitDiverged is raised once ``_NFEV_PER_PARAM`` (p + 1) = 200 (p + 1)
    evaluations of fun are spent for p parameters (difference columns
    included, analytic Jacobians not), RankDeficient when the damped system
    is singular.
    """
    x = np.array(x0, dtype=float)
    max_nfev = _NFEV_PER_PARAM * (x.size + 1)
    f = fun(x)
    cost = f @ f
    nfev, lam, J = 1, 1e-3, None
    while True:
        if nfev >= max_nfev:
            raise FitDiverged(f"least-squares fit did not converge within {max_nfev} evaluations")
        if J is None:
            if jac is None:
                J = _fd_jacobian(fun, x, f, lo, hi)
                nfev += x.size
            else:
                J = jac(x)
            jtj, grad = J.T @ J, J.T @ f
            scale = np.sqrt(np.diag(jtj))
        damped = jtj + lam * np.diag(np.diag(jtj))
        try:
            step = np.linalg.solve(damped, -grad)
            trial = x + step
            held = np.zeros(x.size, dtype=bool)
            while (cross := ~held & ((trial < lo) | (trial > hi))).any():
                held |= cross
                step[cross] = 0.99 * (np.where(trial < lo, lo, hi) - x)[cross]
                free = ~held
                rhs = -grad[free] - damped[np.ix_(free, held)] @ step[held]
                step[free] = np.linalg.solve(damped[np.ix_(free, free)], rhs)
                trial = x + step
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("Jacobian is rank deficient during the fit") from exc
        f_new = fun(trial)
        nfev += 1
        cost_new = f_new @ f_new
        done = np.linalg.norm(scale * step) <= 1e-14 * np.linalg.norm(scale * x)
        if cost_new < cost:
            done = done or cost - cost_new <= 1e-14 * cost
            x, f, cost, J = trial, f_new, cost_new, None
            lam /= 10.0
        else:
            lam *= 10.0
        if done:
            if J is None:
                J = _fd_jacobian(fun, x, f, lo, hi) if jac is None else jac(x)
            return x, f, J


def bracketed_roots(fun, a, b, fa, fb, rtol):
    """One root in each bracket a < b, all at once: fluxline's one root finder.

    ``fa``, ``fb`` are ``fun`` at the ends, of opposite sign, or one is zero and
    its end is the root; ``fun(x, live)`` evaluates the brackets ``live``.
    Illinois regula falsi (Dowell & Jarratt 1971): two steps in a row that
    move one end halve ``fun`` at the other; a step keeps half the stop width
    from either end (Dekker) and is the midpoint where fa - fb overflows.  A
    bracket returns where ``fun`` is zero, or its midpoint at b - a <= rtol |b|.
    """
    roots = np.where(fa == 0.0, a, b)
    live = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    a, b, fa, fb = a[live], b[live], fa[live], fb[live]
    side = np.zeros(live.size)  # +1 after a step that moved a, -1 after one that moved b
    while live.size:
        with np.errstate(invalid="ignore", over="ignore"):
            gap = fa - fb
            x = a + (b - a) * np.where(np.isfinite(gap), fa / gap, 0.5)
        half_tol = 0.5 * rtol * np.abs(b)
        x = np.clip(x, a + half_tol, b - half_tol)
        fx = fun(x, live)
        move_a = (fx > 0) == (fa > 0)
        a, b = np.where(move_a, x, a), np.where(move_a, b, x)
        fa = np.where(move_a, fx, np.where(side < 0, 0.5 * fa, fa))
        fb = np.where(move_a, np.where(side > 0, 0.5 * fb, fb), fx)
        side = np.where(move_a, 1.0, -1.0)
        done = (fx == 0.0) | (b - a <= rtol * np.abs(b))
        if done.any():
            roots[live[done]] = np.where(fx == 0.0, x, 0.5 * (a + b))[done]
            live, a, b, fa, fb, side = (v[~done] for v in (live, a, b, fa, fb, side))
    return roots


def _finish(x, fun, jac, names, n_points, at_bound=False) -> FitResult:
    """The result at the solver's optimum; sigmas need full rank and no bound hit."""
    dof = n_points - len(names)
    jtj = jac.T @ jac
    cov = sigmas = None
    rank_deficient = dof <= 0 or not np.all(np.isfinite(jtj))
    if not rank_deficient:
        try:
            cov = np.linalg.inv(jtj) * (fun @ fun / dof)
        except np.linalg.LinAlgError:
            rank_deficient = True
    if not (rank_deficient or at_bound):
        sigmas = {n: math.sqrt(max(cov[i, i], 0.0)) for i, n in enumerate(names)}
    params = dict(zip(names, (float(v) for v in x)))
    return FitResult(params, sigmas, cov, math.sqrt(np.mean(fun**2)), not at_bound, at_bound,
                     rank_deficient)


def _validate_xy(t, y, n_min):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("t and y must be 1-D arrays of equal length")
    if t.size < n_min:
        raise ValueError(f"need at least {n_min} points, got {t.size}")
    # Positive tests, so that NaN fails them.
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("t and y must be finite")
    if not (np.diff(t) > 0).all():
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
        return FitResult({"A": 0.0, "tau": float(t[-1] - t[0]), "B": float(y.mean())},
                         None, None, float(y.std()), True, False, True)

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

    x, fun, jac = levenberg_marquardt(
        lambda th: th[0] * np.exp(-t / th[1]) + th[2] - y, [a0, tau0, b0],
        jac=lambda th: exponential_jacobian(th, t),
        lo=[-np.inf, 1e-300, -np.inf])
    return _finish(x, fun, jac, names, t.size)


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

    x, fun, jac = levenberg_marquardt(
        resid, [a0, f0, phi0, tau0, b0],
        jac=lambda th: decaying_cosine_jacobian(th, t),
        lo=[-np.inf, 0.0, -2 * math.pi, 1e-300, -np.inf],
        hi=[np.inf, np.inf, 2 * math.pi, np.inf, np.inf])
    return _finish(x, fun, jac, names, t.size)


def decaying_cosine_jacobian(params, t):
    """Analytic Jacobian of the decaying cosine, columns (A, f, phi, tau, B)."""
    a, f, phi, tau, _ = params
    t = np.asarray(t, dtype=float)
    arg = 2.0 * math.pi * f * t + phi
    e = np.exp(-t / tau)
    c = np.cos(arg) * e
    s = -a * np.sin(arg) * e
    return np.column_stack([c, 2.0 * math.pi * t * s, s, a * t / tau**2 * c, np.ones_like(t)])


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

    x, fun, jac = levenberg_marquardt(
        lambda th: np.exp(-((t / th[0]) ** th[1])) - y, [t2_0, alpha0],
        jac=lambda th: stretched_exponential_jacobian(th, t),
        lo=[1e-300, _ALPHA_BOUNDS[0]], hi=[np.inf, _ALPHA_BOUNDS[1]])
    at_bound = bool(min(abs(x[1] - b) for b in _ALPHA_BOUNDS) < 1e-9)
    return _finish(x, fun, jac, names, t.size, at_bound=at_bound)


def stretched_exponential_jacobian(params, t):
    """Analytic Jacobian of exp(-(t / T2DD)^alpha), columns (T2DD, alpha).

    u ln(t / T2DD) with u = (t / T2DD)^alpha is taken as its limit 0 at t = 0.
    """
    t2, alpha = params
    r = np.asarray(t, dtype=float) / t2
    u = r**alpha
    y = np.exp(-u)
    log_r = np.log(r, out=np.zeros_like(r), where=r > 0)
    return np.column_stack([y * alpha * u / t2, -y * u * log_r])


def rb_fit(m, p_g) -> FitResult:
    """Fit ground-state survival P_g(m) = A p^m + B over sequence lengths m >= 0.

    Seeded by a linearized log fit of (P_g - B_hat); flat traces return
    p = 1 with the amplitude split flagged rank_deficient.
    """
    m = np.asarray(m, dtype=float)
    p_g = np.asarray(p_g, dtype=float)
    if m.shape != p_g.shape or m.ndim != 1:
        raise ValueError("m and p_g must be 1-D arrays of equal length")
    if not (np.isfinite(m).all() and np.isfinite(p_g).all()):
        raise ValueError("m and p_g must be finite")
    if not (m >= 0).all():
        raise ValueError("sequence lengths must be >= 0")
    order = np.argsort(m)
    m, p_g = m[order], p_g[order]
    # Distinct lengths counted on the sorted grid: np.unique imports numpy.ma.
    if np.count_nonzero(np.diff(m)) < 4:
        raise ValueError("need at least 5 distinct sequence lengths")
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

    x, fun, jac = levenberg_marquardt(
        resid, [a0, p0, b0], jac=lambda th: rb_jacobian(th, m),
        lo=[-np.inf, 1e-12, -np.inf], hi=[np.inf, 1.0, np.inf])
    return _finish(x, fun, jac, names, m.size)


def rb_jacobian(params, m):
    """Analytic Jacobian of A p^m + B, columns (A, p, B)."""
    a, p, _ = params
    m = np.asarray(m, dtype=float)
    pm = p**m
    return np.column_stack([pm, a * m * p ** np.maximum(m - 1, 0.0), np.ones_like(m)])


def clifford_fidelity(p_ref: float, k: float) -> float:
    """Average fidelity per Clifford, 1 - (1 - p_ref) / (2 k).

    ``k`` is the average number of primitive pulses per Clifford in the
    compilation (45/24 for the standard single-qubit set).
    """
    if not 0.0 <= p_ref <= 1.0:
        raise ValueError("p_ref must lie in [0, 1]")
    if not k > 0:
        raise ValueError("k must be positive")
    return 1.0 - (1.0 - p_ref) / (2.0 * k)


def interleaved_fidelity(p_ref: float, p_int: float) -> float:
    """Interleaved-gate fidelity 1 - (1 - p_int / p_ref) / 2.

    Values slightly above one are reported as-is; they arise from
    statistical fluctuations when p_int > p_ref.
    """
    if not 0.0 < p_ref <= 1.0:
        raise ValueError("p_ref must lie in (0, 1]")
    return 1.0 - 0.5 * (1.0 - p_int / p_ref)


def fit_quadratic_minimum(x, y) -> FitResult:
    """Least-squares parabola through (x, y); params (x0, y0, curvature).

    Helper for two-stage calibrations that locate the minimum of an
    error-amplification metric versus a swept pulse parameter.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    coeffs, res_info = np.polyfit(x, y, 2, full=True)[:2]
    a, b, c = coeffs
    if a <= 0:
        return FitResult({"x0": math.nan, "y0": math.nan, "curvature": float(2 * a)},
                         None, None, math.nan, False, False, True)
    x0 = -b / (2 * a)
    y0 = c - b**2 / (4 * a)
    rms = math.sqrt(res_info[0] / x.size) if res_info.size else 0.0
    return FitResult({"x0": float(x0), "y0": float(y0), "curvature": float(2 * a)},
                     None, None, float(rms), True, False, False)
