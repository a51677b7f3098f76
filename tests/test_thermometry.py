"""Tests of Boltzmann thermometry, precision bounds and window statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline import thermometry as th
from fluxline.errors import BoundMismatch, FluxlineError, InvalidPopulations, TooFewWindows

from conftest import LADDER_A, LADDER_B


def brute_force_boltzmann(temperature, ladder):
    """Independent direct evaluation of the truncated thermal weights."""
    energies = [0.0,
                ladder.f_ge_ghz,
                ladder.f_ge_ghz + ladder.f_ef_ghz,
                ladder.f_ge_ghz + ladder.f_ef_ghz + ladder.f_fh_ghz]
    w = [math.exp(-e / (ladder.kb_over_h_ghz_per_k * temperature)) for e in energies]
    z = sum(w)
    return [v / z for v in w]


class TestBoltzmannPopulations:
    def test_equipartition_limit(self, ladder_a):
        p = th.boltzmann_populations(1e6, ladder_a, 4)
        assert np.allclose(p, 0.25, atol=1e-6)

    def test_thermal_floor_regime(self, ladder_b):
        # 45 mK on the second reference ladder sits in the 98.4 percent
        # ground-occupation regime
        p = th.boltzmann_populations(0.045, ladder_b, 4)
        assert 0.982 <= p[0] <= 0.987
        assert p[0] == pytest.approx(brute_force_boltzmann(0.045, ladder_b)[0],
                                     rel=1e-12)

    def test_reference_point_first_ladder(self, ladder_a):
        p = th.boltzmann_populations(0.181072, ladder_a, 4)
        assert np.allclose(p, brute_force_boltzmann(0.181072, ladder_a), rtol=1e-12)
        assert np.allclose(p, [0.655, 0.230, 0.084, 0.032], atol=5e-4)

    @given(t=st.floats(1e-3, 1e6))
    @settings(max_examples=80)
    def test_normalized_and_decreasing(self, t):
        ladder = th.LevelLadder(**LADDER_A)
        p = th.boltzmann_populations(t, ladder, 4)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(np.diff(p) < 0)

    @given(t=st.floats(2e-2, 10.0))
    @settings(max_examples=40)
    def test_ground_population_decreasing_in_t(self, t):
        # below ~20 mK the change in P_g falls under double-precision
        # resolution, so strict monotonicity is only testable above it
        ladder = th.LevelLadder(**LADDER_A)
        p_lo = th.boltzmann_populations(t, ladder, 4)
        p_hi = th.boltzmann_populations(t * 1.01, ladder, 4)
        assert p_hi[0] < p_lo[0]
        for i in (1, 2, 3):
            assert p_hi[i] / p_hi[0] > p_lo[i] / p_lo[0]

    def test_codata_switch_changes_result(self):
        pap = th.LevelLadder(**LADDER_A)
        cod = th.LevelLadder(**LADDER_A, kb_over_h_ghz_per_k=th.KB_OVER_H_CODATA)
        assert (th.boltzmann_populations(0.1, pap, 4)[0]
                != th.boltzmann_populations(0.1, cod, 4)[0])

    @pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
    def test_rejects_nan_or_nonpositive_temperature(self, ladder_a, t):
        with pytest.raises(ValueError, match="^temperature must be positive$"):
            th.boltzmann_populations(t, ladder_a, 4)

    @pytest.mark.parametrize("field", ["f_ge_ghz", "f_ef_ghz", "f_fh_ghz", "kb_over_h_ghz_per_k"])
    def test_ladder_rejects_nan(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            th.LevelLadder(**{**LADDER_A, field: math.nan})


def fit_one(p, ladder, **kwargs):
    """(t_eff, r_squared, at_boundary) of a one-row ``fit_temperature_batch`` call."""
    fit = th.fit_temperature_batch(np.asarray(p, dtype=float)[None, :], ladder, **kwargs)
    return float(fit.t_eff[0]), float(fit.r_squared[0]), bool(fit.at_boundary[0])


class TestFitTemperature:
    def test_round_trip_exact(self, ladder_a):
        for t in np.geomspace(0.01, 5.0, 60):
            t_eff, r2, at_boundary = fit_one(
                th.boltzmann_populations(t, ladder_a, 4), ladder_a)
            assert abs(t_eff - t) / t < 1e-11
            assert r2 > 1.0 - 1e-12
            assert not at_boundary

    def test_uniform_populations_hit_upper_bound(self, ladder_a):
        t_eff, _, at_boundary = fit_one([0.25, 0.25, 0.25, 0.25], ladder_a)
        assert at_boundary
        assert t_eff == pytest.approx(20.0, rel=1e-5)

    def test_rejects_bad_populations(self, ladder_a):
        with pytest.raises(InvalidPopulations):
            fit_one([0.4, 0.3, 0.1, 0.1], ladder_a)  # sums to 0.9

    def test_custom_bounds_flag_lower(self, ladder_a):
        p = th.boltzmann_populations(0.010, ladder_a, 4)
        t_eff, _, at_boundary = fit_one(p, ladder_a, bounds=(0.05, 1.0))
        assert at_boundary
        assert t_eff == pytest.approx(0.05, rel=1e-5)
        # An all-ground row's cost falls towards t_min and flattens to zero
        # on the way; the fit stays at the bound rather than on the plateau.
        t_eff, _, at_boundary = fit_one([1.0, 0.0, 0.0, 0.0], ladder_a, bounds=(1e-4, 50.0))
        assert at_boundary
        assert t_eff == 1e-4


def scalar_fit_reference(p, ladder, bounds=(1e-3, 20.0)):
    """Per-window golden-section fit as the batch kernel's reference.

    This is the scalar loop the one-window fit ran before the batched
    kernel replaced it, with exp and log taken from numpy.  It seeds on a
    256-point log grid and narrows the golden-section bracket to 1e-10 in
    log T, so on a flat chi-square minimum it lands up to about 1e-6 from
    the root the kernel solves for.  Returns (t_eff, r_squared, chi2_min,
    at_boundary).
    """
    t_min, t_max = bounds
    energies = th.level_energies(ladder, 4)
    grid = np.geomspace(t_min, t_max, 256)
    best = int(np.argmin(th._chi2(p, th._boltzmann(grid, ladder, energies))))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]

    def cost(log_t):
        return float(th._chi2(p, th._boltzmann(np.array([np.exp(log_t)]), ladder, energies))[0])

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(np.log(lo)), float(np.log(hi))
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = cost(d)
    t_eff = min(max(float(np.exp(0.5 * (a + b))), t_min), t_max)
    at_boundary = (t_eff <= t_min * (1.0 + 1e-6)) or (t_eff >= t_max * (1.0 - 1e-6))
    p_fit = th.boltzmann_populations(t_eff, ladder, 4)
    chi2_min = float(th._chi2(p, p_fit[None])[0])
    ss_res = float(((p - p_fit) ** 2).sum())
    ss_tot = float(((p - p.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res <= 1e-24 else -math.inf
    return t_eff, r_squared, chi2_min, at_boundary


def reference_rows(ladder):
    """Multinomial windows of 50, 1000 and 20000 shots from 20 mK to 2 K,
    and three rows pinned at either bound: uniform (hot), pure ground and
    an empty f and h (cold)."""
    rng = np.random.default_rng(5)
    rows = []
    for t in np.geomspace(0.02, 2.0, 100):
        p4 = th.boltzmann_populations(t, ladder, 4)
        for n_shot in (50, 1000, 20000):
            counts = rng.multinomial(n_shot, p4)
            rows.append(counts / counts.sum())
    rows += [np.full(4, 0.25), np.array([1.0, 0.0, 0.0, 0.0]),
             np.array([0.5, 0.5, 0.0, 0.0])]
    return np.array(rows)


class TestFitTemperatureBatch:
    @pytest.mark.parametrize("bounds", [(1e-3, 20.0), (0.05, 0.3)])
    def test_equals_scalar_reference(self, ladder_a, bounds):
        # The golden-section reference stops at a width of 1e-10 in log T on
        # a flat minimum, so it misses the root by up to about 1e-6.
        pops = reference_rows(ladder_a)
        fit = th.fit_temperature_batch(pops, ladder_a, bounds=bounds)
        ref = [scalar_fit_reference(p, ladder_a, bounds) for p in pops]
        t_eff, _, chi2_min, at_boundary = map(np.array, zip(*ref))
        assert fit.at_boundary.any() and not fit.at_boundary.all()
        assert np.array_equal(fit.at_boundary, at_boundary)
        assert np.all(np.abs(fit.t_eff - t_eff) <= 1e-6 * t_eff)
        assert np.all(fit.chi2_min <= chi2_min * (1.0 + 1e-12))

    def test_interior_fit_is_stationary(self, ladder_a):
        # d cost / d beta = sum_j (E_j - <E>) (p^_j^2 - p_j^2) / p_j, written
        # directly, changes sign across each interior fit: it is positive
        # 1e-9 below the fitted temperature and negative 1e-9 above it.
        pops = reference_rows(ladder_a)
        fit = th.fit_temperature_batch(pops, ladder_a)
        energies = th.level_energies(ladder_a, 4)

        def cost_slope(p_hat, t):
            p = th.boltzmann_populations(t, ladder_a, 4)
            return ((energies - p @ energies) * (p_hat**2 - p**2) / p).sum()

        interior = np.flatnonzero(~fit.at_boundary)
        assert interior.size > 250
        for row in interior:
            t = fit.t_eff[row]
            assert cost_slope(pops[row], t * (1.0 - 1e-9)) > 0.0
            assert cost_slope(pops[row], t * (1.0 + 1e-9)) < 0.0

    def test_rejects_bad_row(self, ladder_a):
        pops = np.tile(th.boltzmann_populations(0.2, ladder_a, 4), (3, 1))
        pops[1, 0] -= 0.1
        with pytest.raises(InvalidPopulations, match="row 1"):
            th.fit_temperature_batch(pops, ladder_a)

    def test_rejects_nan_row(self, ladder_a):
        pops = np.array([[np.nan, 0.5, 0.25, 0.25]])
        with pytest.raises(InvalidPopulations):
            th.fit_temperature_batch(pops, ladder_a)

    @staticmethod
    def sampled_windows(ladder, n_win, seed):
        rng = np.random.default_rng(seed)
        temps = rng.uniform(0.05, 0.5, n_win)
        counts = np.array([rng.multinomial(1000, th.boltzmann_populations(t, ladder, 4))
                           for t in temps])
        return counts / 1000.0

    def test_level_energies_built_once_per_fit(self, ladder_a, monkeypatch):
        pops = self.sampled_windows(ladder_a, 50, 3)
        calls = []

        def counted(ladder, n_levels, level_energies=th.level_energies):
            calls.append(n_levels)
            return level_energies(ladder, n_levels)

        monkeypatch.setattr(th, "level_energies", counted)
        th.fit_temperature_batch(pops, ladder_a)
        assert calls == [4]

    def test_seed_memory_does_not_grow_with_windows(self, ladder_a):
        import tracemalloc
        n_win = 10_000
        pops = self.sampled_windows(ladder_a, n_win, 2)
        tracemalloc.start()
        try:
            th.fit_temperature_batch(pops, ladder_a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The fit holds a few (W, 4) arrays, 0.3 MB each: the bound is
        # half of one (W, 256) cost grid, which a grid seed of every row
        # held (62 MB peak at 1e4 windows).
        assert peak < n_win * 256 * 8 / 2


class TestQcrb:
    def test_two_level_unit_case(self, ladder_a):
        # temperature chosen so the first transition sits at x = 2
        t = ladder_a.f_ge_ghz / (ladder_a.kb_over_h_ghz_per_k * 2.0)
        bound = th.qcrb_bound(t, ladder_a, 2)
        literal = math.sqrt((1 + math.e**2) ** 2 / (4 * math.e**2))
        assert bound == pytest.approx(literal, rel=1e-12)
        assert bound == pytest.approx(1.543, abs=1e-3)

    def test_two_level_100mk(self, ladder_a):
        assert th.qcrb_bound(0.1, ladder_a, 2) == pytest.approx(1.566, abs=1e-3)

    def test_more_levels_tighten_the_bound(self, ladder_a):
        b2 = th.qcrb_bound(0.2, ladder_a, 2)
        b3 = th.qcrb_bound(0.2, ladder_a, 3)
        b4 = th.qcrb_bound(0.2, ladder_a, 4)
        assert b4 < b3 < b2

    @pytest.mark.parametrize("ladder, t, reprs", [
        (LADDER_A, 0.05, ("1.7957707752875536", "1.7133972736303005", "1.7084635794263319")),
        (LADDER_A, 0.3, ("3.323772773248371", "2.1523889750588676", "1.6795025503570788")),
        (LADDER_A, 1.5, ("15.85385182696083", "9.884088110047607", "7.356771973946116")),
        (LADDER_B, 0.05, ("1.7771986738823093", "1.6919277882409356", "1.6865804890480018")),
        (LADDER_B, 0.3, ("3.3631379880838193", "2.1760119754730414", "1.696082704051986")),
        (LADDER_B, 1.5, ("16.060738725660052", "10.015080489290662", "7.455962203870749")),
    ])
    def test_bound_is_pinned_bit_for_bit(self, ladder, t, reprs):
        # The reprs of the three per-n explicit formulas the pairwise sum
        # replaced; at these temperatures summing the pairs in reverse order
        # changes five of the eighteen.
        ladder = th.LevelLadder(**ladder)
        assert tuple(repr(th.qcrb_bound(t, ladder, n)) for n in (2, 3, 4)) == reprs

    @given(t=st.floats(0.01, 5.0),
           f1=st.floats(2.0, 6.0), d1=st.floats(0.05, 0.3), d2=st.floats(0.05, 0.3))
    @settings(max_examples=100)
    def test_explicit_equals_energy_variance(self, t, f1, d1, d2):
        # qcrb_bound raises internally if the two routes disagree past 1e-10
        ladder = th.LevelLadder(f1, f1 - d1, f1 - d1 - d2)
        for n in (2, 3, 4):
            assert th.qcrb_bound(t, ladder, n) > 0

    def test_rejects_bad_inputs(self, ladder_a):
        with pytest.raises(ValueError):
            th.qcrb_bound(-1.0, ladder_a, 4)
        with pytest.raises(ValueError):
            th.qcrb_bound(0.1, ladder_a, 5)

    def test_rejects_nan_temperature(self, ladder_a):
        with pytest.raises(ValueError, match="^temperature must be positive$"):
            th.qcrb_bound(math.nan, ladder_a, 4)

    def test_disagreeing_routes_raise_bound_mismatch(self, ladder_a, monkeypatch):
        real = th._explicit_bound_sq
        monkeypatch.setattr(th, "_explicit_bound_sq", lambda x: real(x) * (1.0 + 1e-8))
        with pytest.raises(BoundMismatch, match="disagree") as info:
            th.qcrb_bound(0.1, ladder_a, 4)
        assert isinstance(info.value, FluxlineError)
        assert isinstance(info.value, ArithmeticError)


class TestWindowStatistics:
    def test_constant_series(self):
        mu, sigma, sigma_mu = th.window_statistics(np.full(10, 0.18))
        assert mu == pytest.approx(0.18)
        assert sigma == 0.0
        assert sigma_mu == 0.0

    def test_gaussian_recovery(self):
        rng = np.random.default_rng(8)
        temps = rng.normal(0.181, 3.5e-3, 5000)
        mu, sigma, sigma_mu = th.window_statistics(temps)
        assert abs(mu - 0.181) < 3 * sigma_mu
        assert abs(sigma - 3.5e-3) < 3 * 3.5e-3 / math.sqrt(2 * (5000 - 1))

    def test_sigma_mu_scaling(self):
        temps = np.linspace(0.17, 0.19, 5000)
        mu, sigma, sigma_mu = th.window_statistics(temps)
        assert sigma_mu == pytest.approx(sigma / math.sqrt(5000), rel=1e-12)
        # reference arithmetic: sigma 3.540 mK over 5000 windows
        assert 3.540e-3 / math.sqrt(5000) == pytest.approx(5.01e-5, rel=1e-2)

    def test_too_few_windows(self):
        for temps in ([], [0.18]):
            with pytest.raises(TooFewWindows):
                th.window_statistics(np.array(temps))


class TestNet:
    def test_reference_arithmetic(self):
        # 3.540 mK over 0.171 s of averaging
        assert th.net(3.540e-3, 5000 * 34.2e-6) == pytest.approx(1.464e-3, abs=1e-6)

    def test_zero_sigma(self):
        assert th.net(0.0, 0.171) == 0.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            th.net(1e-3, 0.0)

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="^t_meas must be positive$"):
            th.net(1e-3, math.nan)

    def test_constant_for_white_noise(self):
        # white-noise series: sigma ~ t^-1/2, so NET is flat across a decade
        rng = np.random.default_rng(11)
        t_shot = 34.2e-6
        nets = []
        for n_shot in (1000, 3000, 10000):
            sigma = 0.1 / math.sqrt(n_shot)  # exact white-noise scaling
            sigma_hat = np.std(rng.normal(0.18, sigma, 4000), ddof=1)
            nets.append(th.net(sigma_hat, n_shot * t_shot))
        assert max(nets) / min(nets) < 1.2
