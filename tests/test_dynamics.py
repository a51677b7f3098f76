"""Tests of the four-level rate-equation solutions and reset fits."""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares

from fluxline import dynamics as dyn
from fluxline import io as fio
from fluxline import synth
from fluxline.errors import FitDiverged, RankDeficient

import oracle
from oracle import StepFailure


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def ode_one(t, rates, init):
    """The (len(t), 4) ODE populations of one system from the (4,) row ``init``."""
    return oracle.populations_ode(t, [rates], init)[0]


def pure(level):
    """The (4,) population row of prepared level 1, 2 or 3."""
    return np.eye(4)[level]


def rate_triple():
    return st.tuples(
        st.floats(1e4, 1e8), st.floats(1e4, 1e8), st.floats(1e4, 1e8))


class TestTypes:
    def test_population_vector_validation(self):
        # The initial rows are the pure states of the levels prep_levels yields.
        levels = fio.prep_levels(["f", "e", "h"])
        assert levels == [2, 1, 3]
        rows = np.eye(4)[levels]
        assert rows.dtype == np.float64 and rows.shape == (3, 4)
        assert np.array_equal(rows, [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 1.0]])
        assert np.all(rows >= 0.0) and np.all(rows.sum(axis=1) == 1.0)
        assert fio.prep_levels([]) == []
        for labels in (["g"], ["e", "x"], ["h", "h"]):
            with pytest.raises(ValueError):
                fio.prep_levels(labels)

    def test_rates_validation_and_shorthands(self):
        with pytest.raises(ValueError):
            dyn.DecayRates(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="gamma_fh"):
            dyn.DecayRates(1.0, 1.0, -1.0)
        assert dyn.DecayRates.from_t1(1e-6, 5e-7, 2e-7) == dyn.DecayRates(1e6, 2e6, 5e6)
        # A lifetime whose reciprocal overflows would be an infinite rate.
        with pytest.raises(ValueError, match="^gamma_ge must be finite and >= 0, got inf$"):
            dyn.DecayRates.from_t1(1e-309, 1e-6, 1e-6)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["gamma_ge", "gamma_ef", "gamma_fh"])
    def test_rates_must_be_finite(self, field, value):
        rates = {"gamma_ge": 1e6, "gamma_ef": 2e6, "gamma_fh": 3e6, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            dyn.DecayRates(**rates)

    def test_rate_matrix_columns_sum_to_zero(self):
        r = dyn.DecayRates(1e6, 2e6, 3e6)
        assert np.allclose(oracle.rate_matrix(r).sum(axis=0), 0.0, atol=1e-10)

    def test_reset_curve_validation(self):
        with pytest.raises(ValueError):
            dyn.ResetCurve(np.array([1e-6, 1e-6]), np.zeros((2, 4)))
        for times in ([math.nan, 1e-6], [1e-6, math.nan], [0.0, math.nan, 1e-6]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dyn.ResetCurve(np.array(times), np.zeros((len(times), 4)))
        with pytest.raises(ValueError):
            dyn.ResetDataset({"x": dyn.ResetCurve(np.array([1e-6, 2e-6]),
                                                  np.zeros((2, 4)))})
        # Curves are keyed by prepared level; a label key is named.
        with pytest.raises(ValueError, match=r"level 1, 2 or 3, got \['e'\]$"):
            dyn.ResetDataset({"e": dyn.ResetCurve(np.array([1e-6]), np.zeros((1, 4)))})


def ground_population(t, rates, level):
    """P_g of the closed form at the times ``t`` after preparing ``level``."""
    return dyn.populations_closed_form(t, rates, pure(level))[:, 0]


class TestClosedForm:
    def test_initial_condition(self, reset_rates):
        for prep in (1, 2, 3):
            assert ground_population(0.0, reset_rates, prep)[0] == 0.0

    def test_unknown_preparation_uses_the_dataset_message(self, reset_rates):
        with pytest.raises(ValueError, match="^unknown preparation label 'x'$"):
            fio.prep_levels(("e", "x"))

    def test_single_exponential_from_e(self, reset_rates):
        t1 = 1.0 / reset_rates.gamma_ge
        value = ground_population(t1, reset_rates, 1)[0]
        assert value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_five_lifetimes_residual(self, reset_rates):
        value = ground_population(5.0 / reset_rates.gamma_ge, reset_rates, 1)[0]
        assert 1.0 - value == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert 1.0 - value < 0.007

    def test_monotone_in_time(self, reset_rates):
        for prep in (1, 2, 3):
            vals = ground_population(np.linspace(0, 3e-6, 200), reset_rates, prep)
            assert vals.shape == (200,)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_stacked_initial_rows_match_one_row_calls(self, reset_rates):
        t = np.geomspace(1e-9, 1e-5, 30)
        inits = np.eye(4)[[[1, 2, 3], [3, 2, 1]]]
        out = dyn.populations_closed_form(t, reset_rates, inits)
        assert out.shape == (2, 3, 30, 4)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], dyn.populations_closed_form(t, reset_rates,
                                                                        inits[idx]))

    def test_degenerate_rates_finite(self):
        r = dyn.DecayRates(2e6, 2e6, 2e6)
        for t in (1e-9, 5e-7, 1e-5):
            v = ground_population(t, r, 3)[0]
            # Erlang-3 cascade: P_g = 1 - e^{-Gt}(1 + Gt + (Gt)^2/2)
            gt = 2e6 * t
            exact = 1.0 - math.exp(-gt) * (1 + gt + gt**2 / 2)
            assert v == pytest.approx(exact, abs=1e-12)

    def test_matrix_exponential_cross_check(self):
        # Random cascades; every other one has relative rate gaps of 1e-6 .. 1e-3
        # (closer rates cost expm itself digits: 5e-9 at a gap of 1e-9).
        rng = np.random.default_rng(5)
        t_grid = np.geomspace(1e-8, 1e-5, 20)
        for i in range(10):
            g = 10 ** rng.uniform(4.5, 7.0, 3)
            if i % 2:
                g = g[0] * (1.0 + 10 ** rng.uniform(-6, -3) * rng.permutation(3))
            rates = dyn.DecayRates(*g)
            init = pure(3)
            closed = dyn.populations_closed_form(t_grid, rates, init)
            m = oracle.rate_matrix(rates)
            brute = np.array([expm(m * t) @ init for t in t_grid])
            assert np.abs(closed - brute).max() < 1e-9


# --- scalar reference --------------------------------------------------------
#
# The per-time-point closed form (math.* helpers, one Python call per t)
# that the array kernel in fluxline.dynamics replaced, kept verbatim as the
# reference the kernel must reproduce.

def _ref_phi(x, t):
    if x == 0.0:
        return t
    return -math.expm1(-x * t) / x


def _ref_m1(z):
    if abs(z) < 0.1:
        return (-1.0 / 2.0 + z * (1.0 / 3.0 + z * (-1.0 / 8.0 + z * (1.0 / 30.0
                + z * (-1.0 / 144.0 + z * (1.0 / 840.0 + z * (-1.0 / 5760.0
                + z / 45360.0)))))))
    return (math.exp(-z) * (z + 1.0) - 1.0) / (z * z)


def _ref_m3(z):
    if abs(z) < 0.1:
        return -1.0 / 4.0 + z * (1.0 / 5.0 + z * (-1.0 / 12.0 + z / 42.0))
    return (math.exp(-z) * (z**3 + 3.0 * z**2 + 6.0 * z + 6.0) - 6.0) / z**4


def _ref_dd1(u, v, t):
    lo = min(u, v)
    return math.exp(-lo * t) * _ref_phi(abs(v - u), t)


def _ref_psi(a, b, t):
    d = (b - a) * t
    if d < dyn._SERIES_CUT:
        m = 0.5 * (a + b) * t
        return t * t * (-_ref_m1(m) - d * d / 24.0 * _ref_m3(m))
    if a * t >= 0.1:
        return (_ref_phi(b, t) - _ref_dd1(a, b, t)) / a
    return (_ref_phi(a, t) - _ref_phi(b, t)) / (b - a)


def _ref_dd2(x, y, z, t):
    x0, x1, x2 = sorted((x, y, z))
    return math.exp(-x0 * t) * _ref_psi(x1 - x0, x2 - x0, t)


def _ref_closed(t, rates, init):
    g, ef, fh = rates.gamma_ge, rates.gamma_ef, rates.gamma_fh
    e0, f0, h0 = init[1], init[2], init[3]
    p_h = h0 * math.exp(-fh * t)
    p_f = f0 * math.exp(-ef * t) + h0 * fh * _ref_dd1(ef, fh, t)
    p_e = (e0 * math.exp(-g * t)
           + ef * f0 * _ref_dd1(g, ef, t)
           + h0 * (ef * fh * _ref_dd2(g, ef, fh, t)))
    return np.array([1.0 - p_e - p_f - p_h, p_e, p_f, p_h])


# One grid for every case: t = 0 plus 1e-14 .. 1e-3 s, so that for rates of
# 1e4-1e8 / s the cuts (b - a) t = 1e-6, (a + b) t / 2 = 0.1 and a t = 0.1
# each fall inside it.
T_CUTS = np.concatenate([[0.0], np.geomspace(1e-14, 1e-3, 300)])
BASE = 3.7e6


def _kernel_vs_reference(rates):
    worst = 0.0
    for prep in (1, 2, 3):
        init = pure(prep)
        ref = np.array([_ref_closed(float(t), rates, init) for t in T_CUTS])
        got = dyn.populations_closed_form(T_CUTS, rates, init)
        worst = max(worst, float(np.abs(got - ref).max()))
    return worst


class TestKernelMatchesScalarReference:
    def test_grid_straddles_every_cut(self):
        a, b = 2e6, 9e6
        d = (b - a) * T_CUTS
        m = 0.5 * (a + b) * T_CUTS
        for cut_side in (d < dyn._SERIES_CUT, np.abs(m) < 0.1, a * T_CUTS >= 0.1):
            assert cut_side.any() and not cut_side.all()

    def test_series_helpers(self):
        # Relative agreement across the |z| < 0.1 cut; the direct form of
        # _m3 loses about 1e-11 to cancellation just above it.
        z = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 500)])
        with np.errstate(divide="ignore", invalid="ignore"):
            for kernel, ref in ((dyn._m1, _ref_m1), (dyn._m3, _ref_m3)):
                expected = np.array([ref(float(v)) for v in z])
                assert np.abs(kernel(z) / expected - 1.0).max() < 1e-10

    @pytest.mark.parametrize("gammas", [
        (2e6, 4e6, 9e6),
        (1 / 238.22e-9, 1 / 136.80e-9, 1 / 128.84e-9),
        (1e4, 1e6, 1e8),
        (1e8, 1e6, 1e4),
        (5e7, 3e5, 1.2e6),
    ])
    def test_well_separated_sequential(self, gammas):
        assert _kernel_vs_reference(dyn.DecayRates(*gammas)) < 1e-14

    @pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3])
    def test_near_degenerate(self, eps):
        for gammas in ((BASE, BASE * (1 + eps), BASE * (1 + 2 * eps)),
                       (BASE * (1 + 2 * eps), BASE * (1 + eps), BASE),
                       (BASE, BASE, BASE * (1 + eps))):
            assert _kernel_vs_reference(dyn.DecayRates(*gammas)) < 1e-10

    @pytest.mark.parametrize("gamma", [1e4, BASE, 1e8])
    def test_exactly_equal(self, gamma):
        assert _kernel_vs_reference(dyn.DecayRates(gamma, gamma, gamma)) < 1e-10

    @given(gammas=rate_triple())
    @settings(max_examples=25, deadline=None)
    def test_random_cascades(self, gammas):
        assert _kernel_vs_reference(dyn.DecayRates(*gammas)) < 1e-10

    @given(base=st.floats(1e4, 1e8), log_eps=st.floats(-15, -3),
           order=st.permutations(range(3)))
    @settings(max_examples=25, deadline=None)
    def test_random_near_degenerate(self, base, log_eps, order):
        eps = 10.0 ** log_eps
        gammas = np.array([base, base * (1 + eps), base * (1 + 3 * eps)])[list(order)]
        assert _kernel_vs_reference(dyn.DecayRates(*gammas)) < 1e-10


def _psi_branches(a, b, t):
    """Time points taking the series, rearranged and direct branch of _psi."""
    series = (b - a) * t < dyn._SERIES_CUT
    rearranged = ~series & (a * t >= 0.1)
    return series, rearranged, ~(series | rearranged)


def _rel_err(got, ref):
    return np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)


class TestPsiBranches:
    """_psi evaluates each branch on its own points; every value must match
    the scalar reference, whichever branches one call takes."""

    A, B = 1e6, 2e6
    T_SERIES = dyn._SERIES_CUT / (B - A)   # (b - a) t = cut
    T_REARRANGED = 0.1 / A                 # a t = 0.1
    T_ALL = np.array([0.0, T_SERIES * (1 - 1e-9), T_SERIES, T_SERIES * (1 + 1e-9),
                      T_REARRANGED * (1 - 1e-9), T_REARRANGED, T_REARRANGED * (1 + 1e-9)])

    def _check(self, a, b, t, taken):
        assert [mask.any() for mask in _psi_branches(a, b, t)] == taken
        with np.errstate(divide="ignore", invalid="ignore"):
            got = dyn._psi(a, b, t)
        ref = np.array([_ref_psi(a, b, float(v)) for v in t])
        assert _rel_err(got, ref).max() < 1e-14

    def test_one_call_takes_all_three_branches(self):
        # The points on the cuts are exact: each goes to the branch above it.
        assert (self.B - self.A) * self.T_SERIES == dyn._SERIES_CUT
        assert self.A * self.T_REARRANGED == 0.1
        series, rearranged, direct = _psi_branches(self.A, self.B, self.T_ALL)
        assert series.tolist() == [True, True, False, False, False, False, False]
        assert rearranged.tolist() == [False, False, False, False, False, True, True]
        for order in (slice(None), slice(None, None, -1)):
            self._check(self.A, self.B, self.T_ALL[order], [True, True, True])
        self._check(self.A, self.B, np.concatenate([self.T_ALL, T_CUTS]), [True, True, True])

    @pytest.mark.parametrize("a, b, t, taken", [
        (A, B, np.array([0.0, T_SERIES * 1e-3, T_SERIES * (1 - 1e-9)]), [True, False, False]),
        (BASE, BASE, T_CUTS, [True, False, False]),
        (A, B, np.geomspace(T_REARRANGED * (1 + 1e-9), 1e-3, 50), [False, True, False]),
        (A, B, np.geomspace(T_SERIES * (1 + 1e-9), T_REARRANGED * (1 - 1e-9), 50),
         [False, False, True]),
        (0.0, B, np.geomspace(T_SERIES * (1 + 1e-9), 1e-3, 50), [False, False, True]),
    ])
    def test_single_branch_grids(self, a, b, t, taken):
        self._check(a, b, t, taken)

    @pytest.mark.parametrize("rates", [
        (BASE, BASE, BASE), (1e4, 1e4, 1e4), (1e8, 1e8, 1e8),
        (BASE, BASE, BASE * (1 + 1e-12)), (BASE * (1 + 1e-12), BASE, BASE),
        (BASE, BASE * (1 + 1e-9), BASE * (1 + 2e-9)), (1e8, 1e8 * (1 + 1e-15), 1e8),
        (1e4, 1e4 * (1 + 1e-7), 1e4 * (1 + 3e-7)), (2e6, 4e6, 9e6),
    ])
    def test_dd2_equal_and_near_equal(self, rates):
        with np.errstate(divide="ignore", invalid="ignore"):
            got = dyn._dd2(*rates, T_CUTS)
        ref = np.array([_ref_dd2(*rates, float(v)) for v in T_CUTS])
        assert _rel_err(got, ref).max() < 1e-14


class TestOde:
    def test_no_dynamics(self):
        r = dyn.DecayRates(0.0, 0.0, 0.0)
        init = np.array([0.1, 0.2, 0.3, 0.4])
        out = ode_one(np.array([1e-9, 1e-6, 1e-3]), r, init)
        assert np.allclose(out, init, atol=1e-12)

    def test_normalization_and_conservation(self, reset_rates):
        t = np.geomspace(1e-9, 1e-4, 50)
        out = ode_one(t, reset_rates, pure(3))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-10
        assert out.min() >= 0.0

    def test_downward_only(self, reset_rates):
        t = np.linspace(1e-9, 3e-6, 80)
        out = ode_one(t, reset_rates, pure(3))
        assert np.all(np.diff(out[:, 3]) <= 1e-12)   # P_h non-increasing
        assert np.all(np.diff(out[:, 0]) >= -1e-12)  # P_g non-decreasing

    def test_agrees_with_closed_form(self, reset_rates):
        t = np.geomspace(1e-9, 1e-4, 100)
        for prep in (1, 2, 3):
            init = pure(prep)
            ode = ode_one(t, reset_rates, init)
            closed = dyn.populations_closed_form(t, reset_rates, init)
            assert np.abs(ode - closed).max() < 1e-9

    @given(gammas=st.tuples(st.floats(1e4, 1e8), st.floats(1e4, 1e8),
                            st.floats(1e4, 1e8)))
    @settings(max_examples=15, deadline=None)
    def test_oracle_equivalence_random_rates(self, gammas):
        rates = dyn.DecayRates(*gammas)
        t = np.geomspace(1e-9, 1e-4, 30)
        ode = ode_one(t, rates, pure(3))
        closed = dyn.populations_closed_form(t, rates, pure(3))
        assert np.abs(ode - closed).max() < 1e-9

    def test_near_degenerate_rates(self):
        base = 3.7e6
        for eps in (1e-6, 1e-9, 1e-13, 0.0):
            rates = dyn.DecayRates(base, base * (1 + eps), base * (1 + 2 * eps))
            t = np.geomspace(1e-9, 1e-4, 40)
            ode = ode_one(t, rates, pure(3))
            closed = dyn.populations_closed_form(t, rates, pure(3))
            assert np.abs(ode - closed).max() < 1e-9

    @pytest.mark.parametrize("t_grid", [[math.nan, 1e-7], [1e-8, math.nan], [1e-8, math.inf],
                                        [-math.inf, 1e-7], [1e-8, 1e-8], [-1e-9, 1e-7]])
    def test_bad_grid_raises_instead_of_hanging(self, reset_rates, t_grid):
        init = pure(3)
        with _deadline(10), pytest.raises(ValueError, match="t_grid"):
            ode_one(np.array(t_grid), reset_rates, init)
        with _deadline(10), pytest.raises(ValueError, match="t_grid"):
            synth.gen_reset_curves(reset_rates, (3,), t_grid, 100)

    def test_step_budget_raises_step_failure(self, monkeypatch):
        # The budget counts steps beyond one per output time: zero rates
        # land on every time in one step each and need none of it.
        monkeypatch.setattr(oracle, "_ODE_MAX_STEPS", 0)
        t = np.linspace(1e-9, 1e-6, 1000)
        assert (ode_one(t, dyn.DecayRates(0.0, 0.0, 0.0), pure(3))[:, 3] == 1.0).all()
        monkeypatch.setattr(oracle, "_ODE_MAX_STEPS", 200)
        with _deadline(10), pytest.raises(StepFailure, match="^cascade too stiff: 201 steps"):
            ode_one(np.array([2e-6]), dyn.DecayRates(1e18, 1e6, 1e6), pure(1))

    def test_batch_matches_scalar_solver(self, reset_rates):
        t = np.geomspace(1e-9, 1e-5, 25)
        rng = np.random.default_rng(2)
        rates_list = [dyn.DecayRates(*(10 ** rng.uniform(5, 7.5, 3)))
                      for _ in range(10)]
        h = pure(3)
        batch = oracle.populations_ode(t, rates_list, h)
        for i, r in enumerate(rates_list):
            assert np.abs(batch[i] - ode_one(t, r, h)).max() < 1e-10
        # Per-system initial states: one rate triple from the e, f and h inits.
        inits = np.eye(4)[1:]
        joint = oracle.populations_ode(t, [reset_rates] * 3, inits)
        for row, init in zip(joint, inits):
            assert np.abs(row - ode_one(t, reset_rates, init)).max() < 1e-10


class TestThermalFloor:
    def test_endpoints(self, reset_rates):
        t = np.array([0.0, 1e-8, 1e-4])
        p = dyn.populations_closed_form(t, reset_rates, pure(1))
        floored = dyn.apply_thermal_floor(p, 0.985)
        assert floored[0, 0] == 0.0  # prepared state untouched at t = 0
        assert floored[-1, 0] == pytest.approx(0.985, abs=1e-6)
        assert np.allclose(floored.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_floor(self, reset_rates):
        p = np.array([[1.0, 0, 0, 0]])
        with pytest.raises(ValueError):
            dyn.apply_thermal_floor(p, 0.0)


class TestFitDecayRates:
    def test_noiseless_round_trip(self, reset_rates):
        t = np.linspace(20e-9, 2e-6, 40)
        curves = {
            prep: dyn.ResetCurve(
                t, ode_one(t, reset_rates, pure(prep)))
            for prep in (1, 2, 3)
        }
        fit = dyn.fit_decay_rates(dyn.ResetDataset(curves))
        for name in ("gamma_ge", "gamma_ef", "gamma_fh"):
            est = getattr(fit.rates, name)
            true = getattr(reset_rates, name)
            assert abs(est - true) / true < 1e-6
        assert fit.residual_rms < 1e-10

    def test_hierarchy_preserved(self):
        truth = dyn.DecayRates(2e6, 4e6, 9e6)  # gamma_ge < gamma_ef < gamma_fh
        t = np.linspace(10e-9, 3e-6, 35)
        data = synth.gen_reset_curves(truth, (1, 2, 3), t, 50000, seed=14)
        fit = dyn.fit_decay_rates(data)
        assert fit.rates.gamma_ge < fit.rates.gamma_ef < fit.rates.gamma_fh

    def test_coverage_monte_carlo(self, reset_rates):
        # 1 percent additive Gaussian noise; each rate individually inside
        # its one-sigma band in at least 60 percent of repeats
        t = np.linspace(20e-9, 2e-6, 40)
        truth = {n: getattr(reset_rates, n)
                 for n in ("gamma_ge", "gamma_ef", "gamma_fh")}
        clean = {prep: ode_one(t, reset_rates, pure(prep))
                 for prep in (1, 2, 3)}
        rng = np.random.default_rng(123)
        hits = {n: 0 for n in truth}
        n_rep = 50
        for _ in range(n_rep):
            curves = {prep: dyn.ResetCurve(
                t, np.clip(p + rng.normal(0, 0.01, p.shape), 0, None))
                for prep, p in clean.items()}
            fit = dyn.fit_decay_rates(dyn.ResetDataset(curves))
            for n, true in truth.items():
                if abs(getattr(fit.rates, n) - true) <= fit.sigmas[n]:
                    hits[n] += 1
        for n, count in hits.items():
            assert count / n_rep >= 0.60, (n, count)

    def test_floor_fit_matches_generator(self, reset_rates):
        t = np.linspace(20e-9, 6e-6, 45)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 100000,
                                      floor_p_inf=0.985, seed=4)
        fit = dyn.fit_decay_rates(data, fit_floor=True)
        assert fit.floor == pytest.approx(0.985, abs=2e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_floor_fit_without_floor_in_data_has_honest_sigmas(self, reset_rates, seed):
        # The generate-reset defaults with no floor: the fitted floor sits at
        # its bound 1, where a forward difference of p_inf would leave the box.
        t = np.linspace(10e-9, 2000e-9, 40)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 10000, seed=seed)
        fit = dyn.fit_decay_rates(data, fit_floor=True)
        x = np.array([fit.rates.gamma_ge, fit.rates.gamma_ef, fit.rates.gamma_fh, fit.floor])
        assert fit.sigmas["p_inf"] > 1e-6
        # Forward and backward quotients of a rate column differ by their
        # O(h) truncation, 1.3e-6 to 2.2e-6 relative on these seeds.
        sigmas = [fit.sigmas[n] for n in ("gamma_ge", "gamma_ef", "gamma_fh")]
        assert _rel(sigmas, _backward_sandwich_sigmas(data, x)[:3]).max() < 1e-5

    @pytest.mark.parametrize("index, value", [(0, -1.0), (1, 0.0), (3, 1.2), (3, 0.0)])
    def test_optimum_outside_physical_region_raises(self, monkeypatch, reset_rates,
                                                    index, value):
        real = dyn.levenberg_marquardt

        def stopped_outside(*args, **kwargs):
            x, fun, jac = real(*args, **kwargs)
            x[index] = value
            return x, fun, jac

        monkeypatch.setattr(dyn, "levenberg_marquardt", stopped_outside)
        t = np.linspace(20e-9, 2e-6, 20)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 10000,
                                      floor_p_inf=0.985, seed=1)
        with pytest.raises(FitDiverged, match="physical region"):
            dyn.fit_decay_rates(data, fit_floor=True)

    def test_no_rate_triple_evaluated_twice(self, monkeypatch, reset_rates):
        t = np.linspace(10e-9, 2e-6, 200)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 10000,
                                      floor_p_inf=0.985, seed=2)
        real = dyn.populations_closed_form
        triples = []

        def counting(t, rates, init):
            triples.append((rates.gamma_ge, rates.gamma_ef, rates.gamma_fh))
            return real(t, rates, init)

        monkeypatch.setattr(dyn, "populations_closed_form", counting)
        dyn.fit_decay_rates(data, fit_floor=True)
        assert len(triples) > 5
        assert len(set(triples)) == len(triples)

    @staticmethod
    def _start_point(monkeypatch, data, fit_floor):
        """The rates the solver starts from in fit_decay_rates(data)."""
        real = dyn.levenberg_marquardt
        starts = []

        def recording(fun, x0, *args, **kwargs):
            starts.append(list(x0[:3]))
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(dyn, "levenberg_marquardt", recording)
        dyn.fit_decay_rates(data, fit_floor=fit_floor)
        return np.array(starts[0])

    @pytest.mark.parametrize("floor", [None, 0.985])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_level_seeds_near_truth(self, monkeypatch, reset_rates, floor, seed):
        t = np.linspace(10e-9, 2e-6, 1000)
        data = synth.gen_reset_curves(reset_rates, (1, 2, 3), t, 10000,
                                      floor_p_inf=floor, seed=seed)
        start = self._start_point(monkeypatch, data, floor is not None)
        truth = [reset_rates.gamma_ge, reset_rates.gamma_ef, reset_rates.gamma_fh]
        assert _rel(start, truth).max() < 0.05

    @pytest.mark.parametrize("preps, missing", [((1, 3), 1), ((2, 3), 0)])
    def test_missing_level_keeps_cascade_guess(self, monkeypatch, reset_rates,
                                               preps, missing):
        t = np.linspace(10e-9, 2e-6, 200)
        data = synth.gen_reset_curves(reset_rates, preps, t, 10000, seed=3)
        first = data.curves[preps[0]]
        g0 = dyn._seed_gamma(first.times, first.populations[:, 0])
        start = self._start_point(monkeypatch, data, False)
        assert start[missing] == [g0, 1.7 * g0, 2.5 * g0][missing]
        for k in preps:
            curve = data.curves[k]
            assert start[k - 1] == dyn._seed_gamma(curve.times, -curve.populations[:, k])

    def test_requires_enough_data(self, reset_rates):
        t = np.linspace(1e-8, 1e-6, 5)
        p = ode_one(t, reset_rates, pure(1))
        with pytest.raises(ValueError):
            dyn.fit_decay_rates(dyn.ResetDataset({1: dyn.ResetCurve(t, p)}))


# --- scipy reference fit -----------------------------------------------------
#
# The reset fit as it was before fluxline had its own solver: one
# closed-form call per preparation, scipy's MINPACK Levenberg-Marquardt with
# the same step and stop settings, and the same sandwich covariance.  It is
# the reference that ``fits.levenberg_marquardt`` and the shared-grid residual
# must reproduce.

def _reference_fit(data, fit_floor):
    preps = sorted(data.curves)
    measured = np.concatenate([data.curves[p].populations.ravel() for p in preps])
    g0 = dyn._seed_gamma(data.curves[preps[0]].times, data.curves[preps[0]].populations[:, 0])
    theta0 = [g0, 1.7 * g0, 2.5 * g0]
    if fit_floor:
        theta0.append(min(max(max(data.curves[p].populations[-1, 0] for p in preps), 0.5), 1.0))

    def residuals(theta):
        if np.any(theta[:3] <= 0) or (fit_floor and not 0.0 < theta[3] <= 1.0):
            return np.full(measured.size, 1e3)
        rates = dyn.DecayRates(*theta[:3])
        model = np.concatenate([dyn.populations_closed_form(
            data.curves[p].times, rates, pure(p)) for p in preps])
        if fit_floor:
            model = dyn.apply_thermal_floor(model, theta[3])
        return model.ravel() - measured

    res = least_squares(residuals, theta0, method="lm", diff_step=1e-6, xtol=1e-14,
                        ftol=1e-14, gtol=1e-14, max_nfev=200 * (len(theta0) + 1))
    assert res.success
    n_blocks, n_params = measured.size // 4, len(theta0)
    bread = np.linalg.inv(res.jac.T @ res.jac)
    scores = np.einsum("bip,bi->bp", res.jac.reshape(n_blocks, 4, n_params),
                       res.fun.reshape(n_blocks, 4))
    cov = bread @ scores.T @ scores @ bread * (n_blocks / (n_blocks - n_params))
    return res.x, np.sqrt(np.diag(cov))


def _rel(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / np.maximum(np.abs(a), np.abs(b))


def _backward_sandwich_sigmas(data, x):
    """Sandwich sigmas of the floor fit at ``x`` from per-preparation closed
    forms and a backward-difference Jacobian, step 1e-6 max(1, |x|), which
    never steps past the floor's bound 1."""
    preps = sorted(data.curves)
    measured = np.concatenate([data.curves[p].populations.ravel() for p in preps])

    def residuals(theta):
        rates = dyn.DecayRates(*theta[:3])
        model = np.concatenate([dyn.populations_closed_form(
            data.curves[p].times, rates, pure(p)) for p in preps])
        return dyn.apply_thermal_floor(model, theta[3]).ravel() - measured

    fun = residuals(x)
    jac = np.empty((fun.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] -= 1e-6 * max(1.0, abs(x[i]))
        jac[:, i] = (residuals(xi) - fun) / (xi[i] - x[i])
    n_blocks, n_params = fun.size // 4, x.size
    bread = np.linalg.inv(jac.T @ jac)
    scores = np.einsum("bip,bi->bp", jac.reshape(n_blocks, 4, n_params),
                       fun.reshape(n_blocks, 4))
    cov = bread @ scores.T @ scores @ bread * (n_blocks / (n_blocks - n_params))
    return np.sqrt(np.diag(cov))


class TestSolverMatchesScipyReference:
    @pytest.mark.parametrize("preps", [(1, 2, 3), (1, 3), (2, 3)])
    @pytest.mark.parametrize("floor", [None, 0.985])
    def test_fit_agrees(self, reset_rates, preps, floor):
        t = np.linspace(20e-9, 3e-6, 40)
        data = synth.gen_reset_curves(reset_rates, preps, t, 10000,
                                      floor_p_inf=floor, seed=len(preps))
        self._check(data, fit_floor=floor is not None)

    @pytest.mark.parametrize("floor", [None, 0.985])
    def test_fit_agrees_on_different_grids(self, reset_rates, floor):
        grids = {1: np.linspace(10e-9, 3e-6, 40), 2: np.geomspace(5e-9, 4e-6, 31),
                 3: np.linspace(20e-9, 2e-6, 25)}
        curves = {prep: synth.gen_reset_curves(reset_rates, (prep,), t, 10000,
                                               floor_p_inf=floor, seed=k).curves[prep]
                  for k, (prep, t) in enumerate(grids.items())}
        self._check(dyn.ResetDataset(curves), fit_floor=floor is not None)

    @staticmethod
    def _check(data, fit_floor):
        x_ref, sig_ref = _reference_fit(data, fit_floor)
        fit = dyn.fit_decay_rates(data, fit_floor=fit_floor)
        names = ["gamma_ge", "gamma_ef", "gamma_fh"] + (["p_inf"] if fit_floor else [])
        x = [fit.rates.gamma_ge, fit.rates.gamma_ef, fit.rates.gamma_fh]
        if fit_floor:
            x.append(fit.floor)
        assert _rel(x, x_ref).max() < 1e-8
        assert _rel([fit.sigmas[n] for n in names], sig_ref).max() < 1e-6

    def test_init_matrix_kernel_matches_per_init_calls(self):
        t = np.concatenate([[0.0], np.geomspace(1e-12, 1e-4, 200)])
        inits = np.vstack([np.eye(4), [0.1, 0.2, 0.3, 0.4]])
        for rates in (dyn.DecayRates(4.2e6, 7.3e6, 7.8e6),
                      dyn.DecayRates(BASE, BASE, BASE * (1 + 1e-9)),
                      dyn.DecayRates(1e8, 1e6, 1e4)):
            got = dyn.populations_closed_form(t, rates, inits)
            assert got.shape == (len(inits), t.size, 4)
            for k, init in enumerate(inits):
                assert np.abs(got[k] - dyn.populations_closed_form(t, rates, init)).max() <= 1e-15

    def test_unconstrained_rate_raises_rank_deficient(self, reset_rates):
        # Without an h preparation gamma_fh leaves every residual unchanged.
        t = np.linspace(20e-9, 3e-6, 40)
        data = synth.gen_reset_curves(reset_rates, (1, 2), t, 10000, seed=1)
        with pytest.raises(RankDeficient):
            dyn.fit_decay_rates(data)
