"""Tests of the seeded synthetic-data generators."""

import math
import tracemalloc

import numpy as np
import pytest

from fluxline import classify as cl
from fluxline import dynamics as dyn
from fluxline import synth
from fluxline import thermometry as th


@pytest.fixture
def shot_inputs(ladder_a, ring_model):
    """(ladder, cluster model, level count) of the thermal shot generators."""
    return ladder_a, ring_model, 6


SEED = 11


def _window_temperatures(model, windows, ladder):
    """Fitted temperature of each window of shots: classify, count, fit."""
    pops = cl.level_populations(cl.assign_indices(model, np.concatenate(windows)),
                                model.labels, windows[0].shape[0])
    return th.fit_temperature_batch(pops, ladder).t_eff


class TestLadderExtension:
    def test_constant_anharmonicity_step(self, ladder_a):
        energies = th.level_energies(ladder_a, 6)
        transitions = np.diff(energies)
        step = ladder_a.f_ef_ghz - ladder_a.f_fh_ghz
        assert transitions[3] == pytest.approx(ladder_a.f_fh_ghz - step, rel=1e-12)
        assert transitions[4] == pytest.approx(ladder_a.f_fh_ghz - 2 * step, rel=1e-12)

    def test_four_levels_match_base_ladder(self, ladder_a):
        ge, ef, fh = ladder_a.f_ge_ghz, ladder_a.f_ef_ghz, ladder_a.f_fh_ghz
        assert np.array_equal(th.level_energies(ladder_a, 4),
                              [0.0, ge, ge + ef, ge + ef + fh])

    def test_non_positive_transition_raises_before_the_rest_is_built(self, ladder_a):
        # ladder_a's transitions fall by 0.1437 GHz a level and pass zero at
        # the 29th; the rest of the 999999 are never built.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="non-positive transition"):
                th.level_energies(ladder_a, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("n_levels", [0, 2, 3])
    def test_fewer_than_four_levels_raise(self, ladder_a, n_levels):
        # Four energies were once returned for any n_levels below 4.
        match = rf"^the level model needs at least 4 levels \(g, e, f, h\), got {n_levels}$"
        with pytest.raises(ValueError, match=match):
            th.level_energies(ladder_a, n_levels)
        with pytest.raises(ValueError, match=match):
            th.boltzmann_populations(0.1, ladder_a, n_levels)

    def test_probabilities_normalized(self, ladder_a):
        p = th.boltzmann_populations(0.3, ladder_a, 6)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(p) < 0)


class TestThermalShots:
    def test_cold_limit_all_ground(self, shot_inputs):
        # every shot must come from the ground cluster; check positions,
        # since even perfect emission leaves the classifier its Bayes error
        xy = synth.gen_thermal_shots(*shot_inputs, 1e-3, 500, SEED)
        model = shot_inputs[1]
        g_mean = model.means[model.labels.index("g")]
        assert np.linalg.norm(xy - g_mean, axis=1).max() < 6.0

    def test_determinism(self, shot_inputs):
        a = synth.gen_thermal_shots(*shot_inputs, 0.18, 400, SEED)
        b = synth.gen_thermal_shots(*shot_inputs, 0.18, 400, SEED)
        assert np.array_equal(a, b)

    def test_missing_component_named_with_its_level(self, shot_inputs):
        ladder, full, n_levels = shot_inputs
        k_plus = full.labels.index("k+")
        kept = cl.GmmModel(full.labels[:k_plus], full.means[:k_plus], full.covs[:k_plus],
                           full.weights[:k_plus] / (1.0 - full.weights[k_plus]))
        # Cold enough that no level above h is drawn: the overflow cluster
        # is never needed and the shots equal those of the full model.
        assert np.array_equal(synth.gen_thermal_shots(ladder, kept, n_levels, 0.05, 2000, SEED),
                              synth.gen_thermal_shots(*shot_inputs, 0.05, 2000, SEED))
        with pytest.raises(ValueError,
                           match=r"^cluster_model has no 'k\+' component, which level 4 needs$"):
            synth.gen_thermal_shots(ladder, kept, n_levels, 0.3, 2000, SEED)

    def test_level_frequencies_match_boltzmann(self, shot_inputs):
        n = 1_000_000
        ladder, model, n_levels = shot_inputs
        xy = synth.gen_thermal_shots(ladder, model, n_levels, 0.25, n, SEED)
        indices = cl.assign_indices(model, xy)
        probs = th.boltzmann_populations(0.25, ladder, n_levels)
        expected = np.concatenate([probs[:4], [probs[4:].sum()]])
        for k, lab in enumerate(("g", "e", "f", "h", "k+")):
            observed = np.count_nonzero(indices == model.labels.index(lab)) / n
            tol = 4 * math.sqrt(expected[k] * (1 - expected[k]) / n) + 2e-3
            # classification adds a small cross-talk floor on top of the
            # multinomial band
            assert abs(observed - expected[k]) < tol

    def test_window_pipeline_matches_target_temperature(self, shot_inputs, ladder_a):
        windows = list(synth.iter_window_series(*shot_inputs, 0.181072, 120, 5000, SEED))
        temps = _window_temperatures(shot_inputs[1], windows, ladder_a)
        mu, sigma, sigma_mu = th.window_statistics(temps)
        # classification cross-talk at separation 6 biases mu by about +0.4 mK
        assert abs(mu - 0.181072) < 1e-3
        assert 2e-3 < sigma < 5e-3


def reference_draw(ladder, model, n_levels, temperature, n, rng):
    """One window of thermal shots, each component emitted through a boolean mask.

    The draw as it was before ``_thermal_shot_sampler`` grouped the shots
    by a sort; also returns the shots drawn per component.
    """
    levels = rng.choice(n_levels, size=n,
                        p=th.boltzmann_populations(temperature, ladder, n_levels))
    z = rng.standard_normal((n, 2))
    xy = np.empty((n, 2))
    comp_idx = np.minimum(levels, 4)
    for k in np.flatnonzero(np.bincount(comp_idx)).tolist():
        sel = comp_idx == k
        j = model.labels.index(cl.LABEL_ORDER[k])
        xy[sel] = model.means[j] + z[sel] @ np.linalg.cholesky(model.covs[j]).T
    return xy, np.bincount(comp_idx, minlength=5)


def random_cluster_model(seed: int) -> cl.GmmModel:
    """Five clusters with random means and random correlated covariances."""
    rng = np.random.default_rng(seed)
    means, covs = [], []
    for _ in range(5):
        a = rng.standard_normal((2, 2))
        means.append(6.0 * rng.standard_normal(2))
        covs.append(a @ a.T + 0.1 * np.eye(2))
    return cl.GmmModel(("g", "e", "f", "h", "k+"), means, covs, [0.2] * 5)


class TestDrawMatchesMaskedReference:
    def test_random_covariances_bit_for_bit(self, ladder_a):
        counts = []
        for seed in range(20):
            inputs = (ladder_a, random_cluster_model(seed), 6)
            for w, temperature in enumerate((0.05, 0.181072, 0.4, 1.5)):
                want, per_component = reference_draw(*inputs, temperature, 300,
                                                     synth.window_rng(seed, w))
                got = synth._thermal_shot_sampler(*inputs, temperature)(
                    300, synth.window_rng(seed, w))
                assert got.tobytes() == want.tobytes(), (seed, temperature)
                counts.append(per_component)
        counts = np.array(counts)
        # Windows where some component drew no shot, and where each drew some.
        assert (counts == 0).any(axis=1).any() and (counts > 0).all(axis=1).any()


class TestResetCurves:
    def test_time_zero_is_pure_preparation(self, reset_rates):
        data = synth.gen_reset_curves(reset_rates, (1, 2), np.array([0.0, 1e-7]),
                                      5000, seed=1)
        assert data.curves[1].populations[0, 1] == 1.0
        assert data.curves[2].populations[0, 2] == 1.0

    def test_large_n_round_trip_within_one_sigma(self, reset_rates):
        t = np.linspace(20e-9, 2e-6, 40)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 1_000_000,
                                      seed=3)
        fit = dyn.fit_decay_rates(data)
        for name in ("gamma_ge", "gamma_ef", "gamma_fh"):
            assert (abs(getattr(fit.rates, name) - getattr(reset_rates, name))
                    <= fit.sigmas[name])

    def test_floor_saturation_regime(self, reset_rates):
        t = np.array([1.2e-6])
        data = synth.gen_reset_curves(reset_rates, (1,), t, 200000,
                                      floor_p_inf=0.985, seed=6)
        p_g = data.curves[1].populations[0, 0]
        # five lifetimes with a 98.5 percent ceiling put P_g near 0.98
        assert 0.96 < p_g < 0.99

    def test_determinism(self, reset_rates):
        t = np.linspace(1e-8, 1e-6, 10)
        a = synth.gen_reset_curves(reset_rates, (1,), t, 1000, seed=5)
        b = synth.gen_reset_curves(reset_rates, (1,), t, 1000, seed=5)
        assert np.array_equal(a.curves[1].populations, b.curves[1].populations)

    def test_one_integration_for_every_preparation(self, reset_rates, monkeypatch):
        calls = []

        def evaluate(t_grid, rates, init):
            calls.append((rates, np.array(init)))
            return dyn.populations_closed_form(t_grid, rates, init)

        monkeypatch.setattr(synth, "populations_closed_form", evaluate)
        t = np.linspace(1e-8, 1e-6, 10)
        data = synth.gen_reset_curves(reset_rates, (3, 1, 2), t, 1000, seed=5)
        assert len(calls) == 1
        rates, inits = calls[0]
        assert rates == reset_rates
        assert np.array_equal(inits, np.eye(4)[[3, 1, 2]])
        assert list(data.curves) == [3, 1, 2]

    @pytest.mark.parametrize("levels", [(1, 1), (0,)])
    def test_bad_levels_raise_before_integrating(self, reset_rates, monkeypatch, levels):
        # A repeated level would be merged by the dataset's dict; level 0
        # is the ground state, no preparation.
        def integrated(*args, **kwargs):
            raise AssertionError("integrated before checking the levels")

        monkeypatch.setattr(synth, "populations_closed_form", integrated)
        with pytest.raises(ValueError, match="^prepared levels must be distinct"):
            synth.gen_reset_curves(reset_rates, levels, [1e-7, 2e-7], 100)

    def test_rounding_below_zero_is_clamped_before_the_draw(self, reset_rates):
        # From h the bare closed form reads P_g = -1.1e-16 at 8 of these
        # points, which rng.multinomial rejects with "pvals < 0".
        t = np.geomspace(1e-15, 1e-5, 200)
        p = dyn.populations_closed_form(t, reset_rates, np.eye(4)[3])
        assert (p < 0.0).any()
        data = synth.gen_reset_curves(reset_rates, (3,), t, 100)
        assert data.curves[3].populations.min() >= 0.0


class TestRbDecay:
    def test_flat_at_unity_p(self):
        m, y = synth.gen_rb_decay(1.0, 0.4, 0.5, np.arange(0, 100, 10), 100000,
                                  seed=2)
        assert np.all(np.abs(y - 0.9) < 0.01)

    def test_pipeline_recovers_fidelity(self):
        from fluxline import fits
        m = np.arange(0, 400, 10, dtype=float)
        mm, y = synth.gen_rb_decay(0.995125, 0.5, 0.5, m, 10000, seed=12)
        res = fits.rb_fit(mm, y)
        f_est = fits.clifford_fidelity(res.params["p"], 45.0 / 24.0)
        assert f_est == pytest.approx(0.9987, abs=5e-4)

    def test_determinism(self):
        a = synth.gen_rb_decay(0.99, 0.5, 0.5, np.arange(0, 50, 5), 500, seed=9)
        b = synth.gen_rb_decay(0.99, 0.5, 0.5, np.arange(0, 50, 5), 500, seed=9)
        assert np.array_equal(a[1], b[1])


class TestIterWindows:
    def test_minimal_series(self, shot_inputs):
        windows = list(synth.iter_window_series(*shot_inputs, 0.2, 2, 50, SEED))
        assert len(windows) == 2
        assert windows[0].shape == (50, 2)

    def test_step_profile_tracked(self, shot_inputs, ladder_a):
        # A step between two runs, each at one temperature.
        windows = [*synth.iter_window_series(*shot_inputs, 0.12, 5, 4000, SEED),
                   *synth.iter_window_series(*shot_inputs, 0.30, 5, 4000, SEED)]
        temps = _window_temperatures(shot_inputs[1], windows, ladder_a)
        assert np.all(temps[:5] < 0.2)
        assert np.all(temps[5:] > 0.2)

    def test_sigma_scaling_with_window_size(self, ladder_a):
        # white-noise scaling: log-log slope of sigma versus t_meas is -1/2;
        # window sizes of 1000 and up keep the estimator in its asymptotic
        # regime, and 300 windows keep the sigma estimates to ~4 percent
        sizes = (1000, 2000, 4000, 8000)
        probs = th.boltzmann_populations(0.181072, ladder_a, 6)
        sigmas = []
        for j, n_shot in enumerate(sizes):
            counts = np.array([synth.window_rng(100 + j, w).multinomial(n_shot, probs)[:4]
                               for w in range(300)])
            pops = counts / counts.sum(axis=1, keepdims=True)
            temps = th.fit_temperature_batch(pops, ladder_a).t_eff
            sigmas.append(np.std(temps, ddof=1))
        slope = np.polyfit(np.log(sizes), np.log(sigmas), 1)[0]
        assert abs(slope + 0.5) < 0.05

    def test_substreams_independent_of_other_windows(self, shot_inputs):
        full = list(synth.iter_window_series(*shot_inputs, 0.2, 6, 40, SEED))
        # regenerating window 4 alone must reproduce the same shots
        alone = synth._thermal_shot_sampler(*shot_inputs, 0.2)(40, synth.window_rng(SEED, 4))
        assert np.array_equal(full[4], alone)
