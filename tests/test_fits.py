"""Tests of the shared curve-fit primitives and fidelity formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

from fluxline import fits, synth
from fluxline.errors import FitDiverged, NoOscillation


def central_diff_jacobian(model, params, t, step=1e-7):
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(params.size):
        d = np.zeros_like(params)
        d[i] = step * max(abs(params[i]), 1e-12)
        cols.append((model(params + d, t) - model(params - d, t)) / (2 * d[i]))
    return np.column_stack(cols)


class TestFitExponential:
    def test_noiseless_round_trip(self):
        t = np.linspace(0, 600e-6, 80)
        y = 0.9 * np.exp(-t / 100e-6) + 0.05
        res = fits.fit_exponential(t, y)
        assert res.converged
        assert res.params["tau"] == pytest.approx(100e-6, rel=1e-8)
        assert res.params["A"] == pytest.approx(0.9, rel=1e-8)
        assert res.params["B"] == pytest.approx(0.05, rel=1e-6)
        assert res.residual_rms <= 1e-10

    def test_constant_trace_rank_deficient(self):
        t = np.linspace(0, 1e-3, 20)
        res = fits.fit_exponential(t, np.full(20, 0.42))
        assert res.rank_deficient
        assert res.sigmas is None
        assert res.params["B"] == pytest.approx(0.42)
        assert abs(res.params["A"]) < 1e-9

    def test_negative_amplitude(self):
        t = np.linspace(0, 5e-4, 50)
        y = -0.5 * np.exp(-t / 80e-6) + 1.0
        res = fits.fit_exponential(t, y)
        assert res.params["A"] == pytest.approx(-0.5, rel=1e-7)
        assert res.params["tau"] == pytest.approx(80e-6, rel=1e-7)

    def test_coverage_with_noise(self):
        t = np.linspace(0, 600e-6, 60)
        clean = 0.9 * np.exp(-t / 100e-6) + 0.05
        rng = np.random.default_rng(42)
        hits = 0
        n_rep = 200
        for _ in range(n_rep):
            res = fits.fit_exponential(t, clean + rng.normal(0, 0.009, t.size))
            if abs(res.params["tau"] - 100e-6) <= res.sigmas["tau"]:
                hits += 1
        assert hits / n_rep >= 0.60

    def test_jacobian_against_central_differences(self):
        t = np.linspace(0, 5e-4, 25)
        params = (0.7, 1.2e-4, 0.1)
        model = lambda th, tt: th[0] * np.exp(-tt / th[1]) + th[2]
        analytic = fits.exponential_jacobian(params, t)
        numeric = central_diff_jacobian(model, params, t)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestFitDecayingCosine:
    def test_rabi_frequency_recovery(self):
        t = np.linspace(0, 400e-9, 101)
        y = 0.45 * np.cos(2 * np.pi * 12.5e6 * t + 0.4) * np.exp(-t / 2e-6) + 0.5
        res = fits.fit_decaying_cosine(t, y)
        assert res.params["f"] == pytest.approx(12.5e6, rel=1e-6)
        assert res.residual_rms <= 1e-10

    def test_zero_amplitude_raises(self):
        t = np.linspace(0, 400e-9, 64)
        with pytest.raises(NoOscillation):
            fits.fit_decaying_cosine(t, np.full(64, 0.5))

    def test_detuned_ramsey_within_one_sigma(self):
        t = np.linspace(0, 20e-6, 200)
        f_true, t2_true = 0.61e6, 7e-6
        clean = 0.5 * np.cos(2 * np.pi * f_true * t + 0.1) * np.exp(-t / t2_true) + 0.5
        rng = np.random.default_rng(5)
        res = fits.fit_decaying_cosine(t, clean + rng.normal(0, 0.01, t.size))
        assert abs(res.params["f"] - f_true) <= res.sigmas["f"]
        assert abs(res.params["tau"] - t2_true) <= 2 * res.sigmas["tau"]

    def test_jacobian_against_central_differences(self):
        t = np.linspace(0, 20e-6, 60)
        params = (0.45, 0.61e6, 0.4, 7e-6, 0.5)
        model = lambda th, tt: (th[0] * np.cos(2 * np.pi * th[1] * tt + th[2])
                                * np.exp(-tt / th[3]) + th[4])
        analytic = fits.decaying_cosine_jacobian(params, t)
        numeric = central_diff_jacobian(model, params, t)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestFitStretchedExponential:
    def test_round_trip(self):
        t = np.linspace(2e-6, 4e-4, 60)
        y = np.exp(-((t / 1e-4) ** 1.8))
        res = fits.fit_stretched_exponential(t, y)
        assert res.converged
        assert res.params["alpha"] == pytest.approx(1.8, rel=1e-6)
        assert res.params["T2DD"] == pytest.approx(1e-4, rel=1e-6)

    def test_reduces_to_plain_exponential(self):
        t = np.linspace(2e-6, 4e-4, 60)
        y = np.exp(-(t / 1e-4))
        res = fits.fit_stretched_exponential(t, y)
        assert res.params["alpha"] == pytest.approx(1.0, abs=1e-6)
        exp_res = fits.fit_exponential(t, y)
        assert res.params["T2DD"] == pytest.approx(exp_res.params["tau"], rel=1e-6)

    def test_alpha_pinned_at_bound_flagged(self):
        t = np.linspace(1e-6, 1e-4, 40)
        y = np.clip(np.exp(-((t / 3e-5) ** 0.12)), 1e-12, 1.0)  # true alpha below range
        res = fits.fit_stretched_exponential(t, y)
        assert res.at_bound
        assert not res.converged
        assert res.params["alpha"] == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize("t0", [0.0, 2e-6])
    @pytest.mark.parametrize("alpha", [0.4, 1.8])
    def test_jacobian_against_central_differences(self, t0, alpha):
        # The grid from t = 0 takes the limit u ln(t / T2DD) -> 0 there.
        t = np.linspace(t0, 4e-4, 40)
        params = (1e-4, alpha)
        model = lambda th, tt: np.exp(-((tt / th[0]) ** th[1]))
        analytic = fits.stretched_exponential_jacobian(params, t)
        numeric = central_diff_jacobian(model, params, t)
        assert np.all(np.isfinite(analytic))
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_domain_validation(self):
        t = np.linspace(1e-6, 1e-4, 10)
        with pytest.raises(ValueError):
            fits.fit_stretched_exponential(t, np.linspace(-0.1, 0.9, 10))


class TestRbFit:
    def test_round_trip(self):
        m = np.arange(0, 400, 8, dtype=float)
        y = 0.5 * 0.995125**m + 0.5
        res = fits.rb_fit(m, y)
        assert res.params["p"] == pytest.approx(0.995125, rel=1e-8)
        assert res.residual_rms <= 1e-10

    def test_flat_data(self):
        m = np.arange(0, 100, 5, dtype=float)
        res = fits.rb_fit(m, np.full(m.size, 0.8))
        assert res.params["p"] == 1.0
        assert res.rank_deficient

    def test_coverage_with_binomial_noise(self):
        from fluxline import synth
        hits = 0
        n_rep = 100
        m = np.arange(0, 400, 10, dtype=float)
        for seed in range(n_rep):
            mm, y = synth.gen_rb_decay(0.995125, 0.5, 0.5, m, 2000, seed=seed)
            res = fits.rb_fit(mm, y)
            if abs(res.params["p"] - 0.995125) <= res.sigmas["p"]:
                hits += 1
        assert hits / n_rep >= 0.60

    def test_needs_five_lengths(self):
        with pytest.raises(ValueError):
            fits.rb_fit(np.array([0, 1, 2, 3.0]), np.array([1, 0.9, 0.8, 0.7]))

    def test_negative_lengths_rejected(self):
        m = np.arange(-10.0, 100.0, 10.0)
        with pytest.raises(ValueError, match="^sequence lengths must be >= 0$"):
            fits.rb_fit(m, 0.5 * 0.99 ** np.abs(m) + 0.5)

    def test_jacobian_against_central_differences(self):
        m = np.arange(0, 200, 10, dtype=float)
        params = (0.5, 0.995, 0.5)
        model = lambda th, mm: th[0] * th[1] ** mm + th[2]
        analytic = fits.rb_jacobian(params, m)
        numeric = central_diff_jacobian(model, params, m)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


# Primitive pulses per Clifford of the standard single-qubit set.
K_STD = 45.0 / 24.0


class TestFidelities:
    def test_clifford_reference_point(self):
        assert fits.clifford_fidelity(0.995125, K_STD) == pytest.approx(0.9987, abs=5e-5)

    def test_clifford_endpoints(self):
        assert fits.clifford_fidelity(1.0, K_STD) == 1.0
        assert fits.clifford_fidelity(0.0, K_STD) == pytest.approx(1 - 1 / 3.75, rel=1e-12)

    @given(p=st.floats(0, 1), dp=st.floats(1e-6, 0.1))
    @settings(max_examples=50)
    def test_clifford_affine_increasing(self, p, dp):
        hi = min(p + dp, 1.0)
        assert fits.clifford_fidelity(hi, K_STD) >= fits.clifford_fidelity(p, K_STD)
        # affine: midpoint value is the mean of the endpoint values
        mid = 0.5 * (p + hi)
        ends = fits.clifford_fidelity(p, K_STD) + fits.clifford_fidelity(hi, K_STD)
        assert fits.clifford_fidelity(mid, K_STD) == pytest.approx(0.5 * ends, rel=1e-12)

    def test_clifford_rejects_nan_pulse_count(self):
        with pytest.raises(ValueError, match="^k must be positive$"):
            fits.clifford_fidelity(0.99, math.nan)

    def test_interleaved_identities(self):
        assert fits.interleaved_fidelity(0.9952, 0.9952) == 1.0
        assert fits.interleaved_fidelity(0.9952, 0.0) == 0.5
        assert fits.interleaved_fidelity(0.9952, 0.9948) == pytest.approx(0.9998, abs=1e-4)

    def test_interleaved_above_unity_reported_as_is(self):
        assert fits.interleaved_fidelity(0.995, 0.996) > 1.0

    def test_interleaved_zero_reference(self):
        with pytest.raises(ValueError):
            fits.interleaved_fidelity(0.0, 0.5)

    @given(p_int=st.floats(0, 1), dp=st.floats(1e-6, 0.1))
    @settings(max_examples=50)
    def test_interleaved_increasing_in_p_int(self, p_int, dp):
        assert (fits.interleaved_fidelity(0.99, min(p_int + dp, 1.0))
                >= fits.interleaved_fidelity(0.99, p_int))


class TestQuadraticMinimum:
    def test_vertex_recovery(self):
        x = np.linspace(-1, 2, 25)
        y = 3.0 * (x - 0.4) ** 2 + 0.7
        res = fits.fit_quadratic_minimum(x, y)
        assert res.converged
        assert res.params["x0"] == pytest.approx(0.4, rel=1e-9)
        assert res.params["y0"] == pytest.approx(0.7, rel=1e-9)

    def test_concave_flagged(self):
        x = np.linspace(-1, 1, 15)
        res = fits.fit_quadratic_minimum(x, -x**2)
        assert not res.converged


@pytest.mark.parametrize("shape", ["unequal", "2-D"])
@pytest.mark.parametrize("fit", [fits.fit_exponential, fits.fit_decaying_cosine,
                                 fits.fit_stretched_exponential, fits.rb_fit,
                                 fits.fit_quadratic_minimum], ids=lambda fit: fit.__name__)
def test_bad_shapes_raise_value_error(fit, shape):
    # fit_quadratic_minimum gave numpy's TypeError from inside polyfit.
    x = np.arange(12.0)
    y = np.exp(-x / 5.0)
    x, y = (x, y[:-1]) if shape == "unequal" else (x.reshape(2, 6), y.reshape(2, 6))
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        fit(x, y)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("fit", [fits.fit_exponential, fits.fit_decaying_cosine,
                                 fits.fit_stretched_exponential, fits.rb_fit,
                                 fits.fit_quadratic_minimum], ids=lambda fit: fit.__name__)
def test_non_finite_data_raise_before_any_fit(monkeypatch, capfd, fit, column, value):
    # A NaN in t passed the order check: LAPACK printed to stderr, or the
    # fit spent its whole budget, before an error that did not name it.
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran on non-finite data")

    monkeypatch.setattr(fits, "levenberg_marquardt", no_fit)
    monkeypatch.setattr(np, "polyfit", no_fit)
    x = np.arange(10.0)
    y = np.exp(-x / 5.0)
    (x if column == "x" else y)[3] = value
    with pytest.raises(ValueError, match="must be finite"):
        fit(x, y)
    assert capfd.readouterr().err == ""


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        t = np.linspace(0, 500e-6, 50)
        rng = np.random.default_rng(3)
        y = 0.8 * np.exp(-t / 90e-6) + 0.1 + rng.normal(0, 0.01, t.size)
        a = fits.fit_exponential(t, y)
        b = fits.fit_exponential(t, y)
        assert a.params == b.params
        assert a.sigmas == b.sigmas


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


class TestLevenbergMarquardt:
    def test_solver_reaches_rosenbrock_minimum(self):
        x, fun, jac = fits.levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        assert np.abs(x - 1.0).max() < 1e-7
        assert np.abs(fun).max() < 1e-7
        assert jac.shape == (2, 2)

    def test_max_nfev_raises_fit_diverged(self, monkeypatch):
        monkeypatch.setattr(fits, "_NFEV_PER_PARAM", 3)
        with pytest.raises(FitDiverged, match="^least-squares fit did not converge within 9 "):
            fits.levenberg_marquardt(rosenbrock, [-1.2, 1.0])

    @pytest.mark.parametrize("analytic", [False, True])
    def test_bounded_rosenbrock_minimum_on_the_box(self, analytic):
        # With x0 <= 0.5 the minimum moves from (1, 1) to the box at (0.5, 0.25).
        jac = (lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])) if analytic else None
        x, fun, _ = fits.levenberg_marquardt(rosenbrock, [-1.2, 1.0], jac=jac,
                                             hi=[0.5, np.inf])
        assert 0.5 - 1e-12 <= x[0] <= 0.5
        assert x[1] == pytest.approx(0.25, abs=1e-10)
        assert fun @ fun == pytest.approx(0.25, rel=1e-10)

    def test_step_across_a_tiny_lower_bound_stays_positive(self):
        # The free step from 1 lands near -1; 99% of the way to lo = 1e-300
        # is 0.01, where plain projection x + (clip(x + dx) - x) rounds to 0.
        points = []

        def fun(x):
            points.append(float(x[0]))
            return np.array([x[0] + 1.0])

        x, _, _ = fits.levenberg_marquardt(fun, [1.0], jac=lambda x: np.ones((1, 1)),
                                           lo=1e-300)
        assert points[1] == pytest.approx(0.01, rel=1e-12)
        assert min(points) > 0.0
        assert 0.0 < x[0] < 1e-12

    def test_difference_jacobian_never_steps_out_of_the_box(self):
        # x0 sits 1e-10 below hi, where a forward step of 1e-6 would leave the
        # box and fun raises; the difference column is taken backward instead.
        lo, hi = np.zeros(2), np.ones(2)

        def fun(x):
            if ((x < lo) | (x > hi)).any():
                raise ValueError(f"evaluated outside the box at {x}")
            return np.array([x[0] - 2.0, x[1] - 0.5, x[0] * x[1]])

        x, _, jac = fits.levenberg_marquardt(fun, [1.0 - 1e-10, 0.3], lo=lo, hi=hi)
        assert np.isfinite(jac).all()
        assert 1.0 - 1e-9 < x[0] <= 1.0


class TestBracketedRoots:
    @staticmethod
    def solve(fun, a, b, rtol):
        """``bracketed_roots`` on ``fun(x, live)``, and the sizes of ``live`` per call."""
        sizes = []

        def counted(x, live):
            sizes.append(live.size)
            return fun(x, live)

        every = np.arange(a.size)
        roots = fits.bracketed_roots(counted, a, b, fun(a, every), fun(b, every), rtol)
        return roots, sizes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brentq_on_rising_and_falling_functions(self, seed):
        # sign * (x exp(k x) - c) on [0.1, 3]: rising for sign +1, falling for
        # -1, and from nearly linear (k small) to steep (k = 4).
        rng = np.random.default_rng(seed)
        n, rtol = 40, 1e-12
        k, sign = rng.uniform(0.01, 4.0, n), rng.choice([-1.0, 1.0], n)
        a, b = np.full(n, 0.1), np.full(n, 3.0)
        c = rng.uniform(a * np.exp(k * a), b * np.exp(k * b))

        def fun(x, live):
            return sign[live] * (x * np.exp(k[live] * x) - c[live])

        roots, sizes = self.solve(fun, a, b, rtol)
        ref = np.array([brentq(lambda x, i=i: fun(np.array([x]), np.array([i]))[0],
                               a[i], b[i], xtol=1e-300, rtol=4 * np.finfo(float).eps)
                        for i in range(n)])
        assert np.all(np.abs(roots - ref) <= rtol * ref)
        # Brackets finish on different iterations, and each finished one
        # leaves the live set.
        assert sizes[0] == n and len(set(sizes)) > 2
        assert sizes == sorted(sizes, reverse=True)

    def test_zero_at_an_end_is_the_root(self):
        # fa == 0 returns a and fb == 0 returns b, with no evaluation; the
        # third bracket is solved alone.
        a, b = np.array([1.0, 1.0, 1.0]), np.array([2.0, 3.0, 4.0])
        targets = np.array([1.0, 3.0, 2.5])
        roots, sizes = self.solve(lambda x, live: x - targets[live], a, b, 1e-12)
        assert roots[0] == 1.0 and roots[1] == 3.0
        assert abs(roots[2] - 2.5) <= 1e-12 * 2.5
        assert set(sizes) == {1}

    def test_overflowing_gap_takes_the_midpoint(self):
        # fa - fb overflows to -inf, so the first step is the midpoint 2,
        # not the secant point; the root at 1.25 is still found.
        points = []

        def fun(x, live):
            points.append(float(x[0]))
            return 1e308 * np.tanh(x - 1.25)

        a, b = np.array([0.0]), np.array([4.0])
        fa, fb = fun(a, None), fun(b, None)
        assert float(fa[0]) - float(fb[0]) == -math.inf
        roots = fits.bracketed_roots(fun, a, b, fa, fb, 1e-12)
        assert points[2] == 2.0
        assert abs(roots[0] - 1.25) <= 1e-12 * 1.25


# --- scipy reference fits ----------------------------------------------------
#
# The curve fits as they were before fluxline had one solver: each fit runs
# with levenberg_marquardt swapped for scipy's bounded least_squares (TRF)
# at xtol = ftol = gtol = 1e-15, on the same residuals, seeds and bounds.
# The exponential and rb fits passed their analytic Jacobians, the decaying
# cosine and the stretched exponential used scipy's difference Jacobian.

_SCIPY_ANALYTIC_JAC = {"exponential": True, "rb": True,
                       "decaying_cosine": False, "stretched_exponential": False}
_FITS = {"exponential": fits.fit_exponential, "rb": fits.rb_fit,
         "decaying_cosine": fits.fit_decaying_cosine,
         "stretched_exponential": fits.fit_stretched_exponential}


def _scipy_reference(monkeypatch, model, x, y):
    def solve(fun, x0, jac=None, lo=-np.inf, hi=np.inf):
        res = least_squares(fun, x0, jac=jac if _SCIPY_ANALYTIC_JAC[model] else "2-point",
                            bounds=(lo, hi), xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if not res.success:
            raise FitDiverged(f"fit failed: {res.message}")
        return res.x, res.fun, res.jac

    with monkeypatch.context() as patch:
        patch.setattr(fits, "levenberg_marquardt", solve)
        return _outcome(model, x, y)


def _outcome(model, x, y):
    try:
        return _FITS[model](x, y)
    except (FitDiverged, NoOscillation) as exc:
        return type(exc).__name__


def _curve(model, seed):
    rng = np.random.default_rng(seed)
    if model == "exponential":
        t = np.linspace(0, 600e-6, 60)
        return t, 0.9 * np.exp(-t / rng.uniform(20e-6, 300e-6)) + 0.05 + rng.normal(0, 0.01, 60)
    if model == "rb":
        p = rng.uniform(0.98, 0.9999)
        return synth.gen_rb_decay(p, 0.5, 0.5, np.arange(0, 400, 10.0), 2000, seed=seed)
    if model == "decaying_cosine":
        t = np.linspace(0, 20e-6, 200)
        f, tau, phi = rng.uniform(0.2e6, 2e6), rng.uniform(2e-6, 30e-6), rng.uniform(-3, 3)
        y = 0.5 * np.cos(2 * np.pi * f * t + phi) * np.exp(-t / tau) + 0.5
        return t, y + rng.normal(0, 0.02, t.size)
    t = np.linspace(0, 4e-4, 60)
    t2, alpha = rng.uniform(30e-6, 200e-6), rng.uniform(0.2, 5.5)
    return t, np.clip(np.exp(-((t / t2) ** alpha)) + rng.normal(0, 0.005, t.size), 1e-6, 1.0)


def _cost(model, res, x, y):
    p = res.params
    if model == "exponential":
        m = p["A"] * np.exp(-x / p["tau"]) + p["B"]
    elif model == "rb":
        m = p["A"] * p["p"] ** x + p["B"]
    elif model == "decaying_cosine":
        m = p["A"] * np.cos(2 * np.pi * p["f"] * x + p["phi"]) * np.exp(-x / p["tau"]) + p["B"]
    else:
        m = np.exp(-((x / p["T2DD"]) ** p["alpha"]))
    return float(np.sum((m - y) ** 2))


def _param_gap(new, ref):
    """Largest relative parameter difference; the phase phi compares in radians."""
    return max(abs(new.params[k] - ref.params[k])
               / (1.0 if k == "phi" else max(abs(new.params[k]), abs(ref.params[k])))
               for k in new.params)


# Twice the largest gap seen over 200 seeded fits per model.
_PARAM_TOL = {"exponential": 1.2e-7, "stretched_exponential": 3.5e-6, "rb": 4e-5,
              "decaying_cosine": 2.3e-5}
# rb covers seed 82 (about 650 evaluations) and seed 106, which diverges on
# both solvers.
_SEEDS = {"exponential": range(40), "decaying_cosine": range(40),
          "stretched_exponential": range(40), "rb": range(80, 120)}


@pytest.mark.filterwarnings("error")
class TestFitsMatchScipyReference:
    @pytest.mark.parametrize("model", list(_FITS))
    def test_seeded_sweep(self, monkeypatch, model):
        mismatches = []
        for seed in _SEEDS[model]:
            x, y = _curve(model, seed)
            new, ref = _outcome(model, x, y), _scipy_reference(monkeypatch, model, x, y)
            if isinstance(new, str) or isinstance(ref, str):
                if new != ref:
                    mismatches.append((seed, "outcome", new, ref))
                continue
            flags, flags_ref = [(r.at_bound, r.rank_deficient, r.converged) for r in (new, ref)]
            if flags != flags_ref:
                mismatches.append((seed, "flags", flags, flags_ref))
            cost, cost_ref = _cost(model, new, x, y), _cost(model, ref, x, y)
            if cost > cost_ref * (1 + 1e-12):
                mismatches.append((seed, "cost", cost, cost_ref))
            if abs(cost - cost_ref) <= 1e-9 * cost_ref and _param_gap(new, ref) > _PARAM_TOL[model]:
                mismatches.append((seed, "params", new.params, ref.params))
        assert mismatches == []

    def test_exponential_seed_29_converges_inside_the_box(self, monkeypatch):
        # Plain projection onto tau >= 1e-300 divided by zero here.
        x, y = _curve("exponential", 29)
        new = fits.fit_exponential(x, y)
        ref = _scipy_reference(monkeypatch, "exponential", x, y)
        assert new.converged and not new.rank_deficient
        assert _param_gap(new, ref) <= _PARAM_TOL["exponential"]

    def test_rb_seed_82_needs_more_than_400_evaluations(self, monkeypatch):
        x, y = _curve("rb", 82)
        real, calls = fits.levenberg_marquardt, []

        def counting(fun, *args, **kwargs):
            return real(lambda th: calls.append(1) or fun(th), *args, **kwargs)

        monkeypatch.setattr(fits, "levenberg_marquardt", counting)
        new = fits.rb_fit(x, y)
        assert len(calls) > 400
        ref = _scipy_reference(monkeypatch, "rb", x, y)
        assert new.converged
        assert _param_gap(new, ref) <= _PARAM_TOL["rb"]
