"""Tests of the shared curve-fit primitives and fidelity formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline import fits
from fluxline.errors import NoOscillation


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

    def test_jacobian_against_central_differences(self):
        m = np.arange(0, 200, 10, dtype=float)
        params = (0.5, 0.995, 0.5)
        model = lambda th, mm: th[0] * th[1] ** mm + th[2]
        analytic = fits.rb_jacobian(params, m)
        numeric = central_diff_jacobian(model, params, m)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestFidelities:
    def test_clifford_reference_point(self):
        assert fits.clifford_fidelity(0.995125) == pytest.approx(0.9987, abs=5e-5)

    def test_clifford_endpoints(self):
        assert fits.clifford_fidelity(1.0) == 1.0
        assert fits.clifford_fidelity(0.0) == pytest.approx(1 - 1 / 3.75, rel=1e-12)

    @given(p=st.floats(0, 1), dp=st.floats(1e-6, 0.1))
    @settings(max_examples=50)
    def test_clifford_affine_increasing(self, p, dp):
        hi = min(p + dp, 1.0)
        assert fits.clifford_fidelity(hi) >= fits.clifford_fidelity(p)
        # affine: midpoint value is the mean of the endpoint values
        mid = 0.5 * (p + hi)
        assert fits.clifford_fidelity(mid) == pytest.approx(
            0.5 * (fits.clifford_fidelity(p) + fits.clifford_fidelity(hi)), rel=1e-12)

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


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        t = np.linspace(0, 500e-6, 50)
        rng = np.random.default_rng(3)
        y = 0.8 * np.exp(-t / 90e-6) + 0.1 + rng.normal(0, 0.01, t.size)
        a = fits.fit_exponential(t, y)
        b = fits.fit_exponential(t, y)
        assert a.params == b.params
        assert a.sigmas == b.sigmas
