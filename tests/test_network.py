"""Tests of the quarter-wave filter network model."""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxline import network as nw
from fluxline.errors import (
    HalfFluxDivergence,
    NoRootFound,
    TangentPole,
)


def critical_current(arr, flux):
    """The SQUID critical current 2 Ic |cos(pi flux)| that the sweep's
    margin divides by: strict mode never clamps it."""
    return float(nw._inductances(arr, flux, "strict")[1])


class TestSquidArray:
    def test_critical_current_zero_flux(self, squid_array):
        assert critical_current(squid_array, 0.0) == pytest.approx(20e-6)

    def test_critical_current_half_flux(self, squid_array):
        assert critical_current(squid_array, 0.5) == pytest.approx(0.0, abs=1e-20)

    def test_critical_current_third_flux(self, squid_array):
        # 2 * 10 uA * cos(pi/3) = 10 uA
        assert critical_current(squid_array, 1.0 / 3.0) == pytest.approx(10e-6)

    @given(flux=st.floats(-3, 3), shift=st.integers(-2, 2))
    def test_critical_current_periodic_and_even(self, flux, shift):
        arr = nw.SquidArray(**{"n_squids": 5, "ic_junction": 10e-6})
        a = critical_current(arr, flux)
        assert critical_current(arr, flux + shift) == pytest.approx(a, rel=1e-9, abs=1e-18)
        assert critical_current(arr, -flux) == pytest.approx(a, rel=1e-12, abs=1e-30)

    def test_inductance_zero_flux(self, squid_array):
        # 5 * Phi0 / (4 pi * 10 uA)
        l_arr = nw.squid_array_inductance(squid_array, 0.0)
        assert l_arr == pytest.approx(5 * nw.PHI0 / (4 * math.pi * 10e-6), rel=1e-12)
        assert l_arr == pytest.approx(8.23e-11, rel=1e-3)

    def test_single_squid_is_half_junction_inductance(self):
        arr = nw.SquidArray(n_squids=1, ic_junction=10e-6)
        l_sq = nw.squid_array_inductance(arr, 0.0)
        l_junction = nw.PHI0 / (2 * math.pi * 10e-6)  # single 10 uA junction
        assert l_junction == pytest.approx(0.033e-9, rel=0.01)
        assert l_sq == pytest.approx(l_junction / 2, rel=1e-12)
        assert l_sq == pytest.approx(0.0165e-9, rel=0.01)

    def test_half_flux_strict_raises(self, squid_array):
        with pytest.raises(HalfFluxDivergence):
            nw.squid_array_inductance(squid_array, 0.5)

    def test_half_flux_clamped(self, squid_array):
        l_arr = float(nw._inductances(squid_array, 0.5, "clamped")[0])
        ic_clamped = squid_array.clamp_epsilon * 2 * squid_array.ic_junction
        expected = 5 * nw.PHI0 / (2 * math.pi * ic_clamped)
        assert l_arr == pytest.approx(expected, rel=1e-12)

    def test_l_fixed_adds_linearly(self):
        arr = nw.SquidArray(n_squids=5, ic_junction=10e-6, l_fixed_per_squid=30e-12)
        base = nw.SquidArray(n_squids=5, ic_junction=10e-6)
        diff = (nw.squid_array_inductance(arr, 0.2)
                - nw.squid_array_inductance(base, 0.2))
        assert diff == pytest.approx(5 * 30e-12, rel=1e-12)

    @given(flux=st.floats(0, 0.49))
    @settings(max_examples=50)
    def test_inductance_monotone_toward_half_flux(self, flux):
        arr = nw.SquidArray(n_squids=5, ic_junction=10e-6)
        assert (nw.squid_array_inductance(arr, flux + 0.005)
                >= nw.squid_array_inductance(arr, flux))

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            nw.SquidArray(n_squids=0, ic_junction=10e-6)
        with pytest.raises(ValueError):
            nw.SquidArray(n_squids=5, ic_junction=math.nan)
        with pytest.raises(ValueError):
            nw.SquidArray(n_squids=5, ic_junction=10e-6, l_fixed_per_squid=math.nan)
        with pytest.raises(ValueError):
            nw.SquidArray(n_squids=5, ic_junction=-1e-6)
        with pytest.raises(ValueError):
            nw.SquidArray(n_squids=5, ic_junction=10e-6, clamp_epsilon=0.5)


class TestNanAndOverflowRejected:
    GEOM = dict(z0=50.0, v_p=1.17e8, l_f=6.5e-3, x_s=2.0e-3, c_g=0.0, c_d=4.4e-15, z_source=50.0)
    QUBIT = dict(f_q=3.9e9, c_q=143e-15, t1_internal=2e-4)

    @pytest.mark.parametrize("field", ["z0", "v_p", "l_f", "c_g", "c_d", "z_source"])
    def test_geometry(self, field):
        with pytest.raises(ValueError):
            nw.FilterGeometry(**{**self.GEOM, field: math.nan})

    @pytest.mark.parametrize("field", ["f_q", "c_q", "t1_internal"])
    def test_qubit(self, field):
        with pytest.raises(ValueError):
            nw.QubitLoad(**{**self.QUBIT, field: math.nan})

    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_first_order_pull(self, arg):
        args = [4.5e9, 8.2e-11, 50.0]
        args[arg] = math.nan
        with pytest.raises(ValueError):
            nw.filter_frequency_first_order(*args)

    @pytest.mark.parametrize("change", [dict(l_f=1e-303, x_s=0.0), dict(v_p=1e308)])
    def test_infinite_quarter_wave_frequency(self, change):
        # The root scan over [0.3 f0, 1.2 f0] would hold only NaN brackets.
        with pytest.raises(ValueError, match=r"^v_p / \(4 l_f\) must be positive and finite"):
            nw.FilterGeometry(**{**self.GEOM, **change})


def input_reactance(geom, l_s, omega):
    """X_in = z0 G / H of the stub at l_s (a number or an array), from the
    line terms behind the sweep's drive columns."""
    slope, offset, c, e, _ = nw._line_terms(geom, omega)
    return geom.z0 * (slope * l_s + offset) / (c * l_s + e)


class TestInputImpedance:
    # The stub is lossless, so its impedance is i X_in with X_in real.
    def test_quarter_wave_short(self, geometry):
        geom = replace(geometry, x_s=0.0)
        assert abs(input_reactance(geom, 0.0, 2 * math.pi * geometry.f0)) < 1e-6

    def test_short_independent_of_xs(self, geometry):
        assert abs(input_reactance(geometry, 0.0, 2 * math.pi * geometry.f0)) < 1e-6
        # With no inductance the stub is one open line of length l_f at any
        # drive: X_in = -z0 cot(b l_f), wherever x_s splits it.
        for f in (2.1e9, 3.7e9, 5.2e9):
            beta = 2 * math.pi * f / geometry.v_p
            assert input_reactance(geometry, 0.0, 2 * math.pi * f) == pytest.approx(
                -geometry.z0 / math.tan(beta * geometry.l_f), rel=1e-9)

    def test_half_frequency_value(self, geometry):
        # Open stub at half the quarter-wave frequency: the tan-transform
        # chain gives -i z0 cot(pi/4) = -i z0 (capacitive below resonance).
        geom = replace(geometry, x_s=0.0)
        x_in = input_reactance(geom, 0.0, math.pi * geometry.f0)
        assert x_in == pytest.approx(-geometry.z0, rel=1e-12)

    def test_purely_imaginary(self, geometry):
        # The line terms give a real reactance: no resistive part to carry.
        for f in (2.1e9, 3.7e9, 5.2e9):
            x_in = input_reactance(geometry, np.array([0.075e-9]), 2 * math.pi * f)
            assert x_in.dtype == np.float64 and np.isfinite(x_in).all()

    def test_sign_change_across_root(self, geometry):
        l_s = 0.075e-9
        f_root = nw.filter_frequency_exact(geometry, l_s)
        below = input_reactance(geometry, l_s, 2 * math.pi * f_root * (1 - 1e-6))
        above = input_reactance(geometry, l_s, 2 * math.pi * f_root * (1 + 1e-6))
        assert below * above < 0

    def test_quarter_wave_section_inverts_the_branch(self, geometry):
        # At beta * x_s = pi/2 the section to the node is a quarter-wave
        # transformer, X_in = -z0^2 / X1, with X1 = w l_s - z0 cot(b l_r) the
        # series branch past it; the admittance through c_d there is finite
        # and passive.
        omega = math.pi * geometry.v_p / (2 * geometry.x_s)
        beta = omega / geometry.v_p
        assert geometry.c_d > 0
        for l_s in (0.0, 0.075e-9, 0.3e-9):
            x1 = omega * l_s - geometry.z0 / math.tan(beta * (geometry.l_f - geometry.x_s))
            assert input_reactance(geometry, l_s, omega) == pytest.approx(
                -geometry.z0**2 / x1, rel=1e-12)
            y = nw.qubit_admittance(geometry, l_s, omega)
            assert math.isfinite(abs(y)) and y.real >= 0

    def test_end_cap_shifts_down(self, geometry):
        with_cap = replace(geometry, c_g=5e-15)
        f_bare = nw.filter_frequency_exact(geometry, 0.0)
        f_cap = nw.filter_frequency_exact(with_cap, 0.0)
        assert f_cap < f_bare


class TestFilterFrequency:
    def test_first_order_values(self):
        assert nw.filter_frequency_first_order(4.5e9, 0.0, 50.0) == 4.5e9
        # 4.5 GHz / (1 + 0.027)
        assert nw.filter_frequency_first_order(4.5e9, 0.075e-9, 50.0) == pytest.approx(
            4.3817e9, rel=1e-4)

    def test_first_order_decreasing(self):
        f = [nw.filter_frequency_first_order(4.5e9, ls, 50.0)
             for ls in np.linspace(0, 1e-9, 20)]
        assert np.all(np.diff(f) < 0)

    def test_exact_quarter_wave_identity(self, geometry):
        f = nw.filter_frequency_exact(geometry, 0.0)
        assert abs(f - geometry.f0) / geometry.f0 < 1e-9

    def test_exact_matches_first_order_small_pull(self, geometry):
        geom = replace(geometry, x_s=0.0)
        l_s = 0.075e-9
        f_exact = nw.filter_frequency_exact(geom, l_s)
        f_first = nw.filter_frequency_first_order(geom.f0, l_s, geom.z0)
        assert abs(f_first - f_exact) / f_exact < 0.01

    def test_first_order_agreement_up_to_0p3(self, geometry):
        geom = replace(geometry, x_s=0.0)
        for scale in np.linspace(0.01, 0.3, 15):
            l_s = scale * geom.z0 / (4 * geom.f0)
            f_exact = nw.filter_frequency_exact(geom, l_s)
            f_first = nw.filter_frequency_first_order(geom.f0, l_s, geom.z0)
            assert abs(f_first - f_exact) / f_exact <= 0.01

    def test_inductor_at_open_end_no_participation(self, geometry):
        geom = replace(geometry, x_s=geometry.l_f)
        for l_s in (0.075e-9, 1e-9, 5e-9):
            f = nw.filter_frequency_exact(geom, l_s)
            assert abs(f - geometry.f0) / geometry.f0 < 1e-9

    @pytest.mark.parametrize("gap", [1e-3, 2e-4, 1e-4, 1e-8, 2.0**-53])
    def test_inductor_near_open_end(self, geometry, gap):
        # The tan(b x_s) pole sits ~gap above f0; the root must still be found
        # and move continuously onto the open-end limit as gap -> 0.
        geom = replace(geometry, z0=120.0, x_s=(1.0 - gap) * geometry.l_f)
        assert abs(nw.filter_frequency_exact(geom, 0.0) - geom.f0) / geom.f0 < 1e-9
        pull = (nw.filter_frequency_exact(geom, 1e-9) - geom.f0) / geom.f0
        expected = first_order_pull(geom, 1e-9)
        assert abs(pull - expected) <= 0.1 * abs(expected) + 1e-12

    def test_monotone_pull_in_inductance(self, geometry):
        f_prev = math.inf
        for l_s in np.linspace(0.0, 1.5e-9, 12):
            f = nw.filter_frequency_exact(geometry, l_s)
            assert f <= f_prev * (1 + 1e-12)
            f_prev = f

    def test_no_root_reports_diagnostics(self, geometry):
        with pytest.raises(NoRootFound) as err:
            nw.filter_frequency_exact(geometry, 1e-6)  # 1 uH: far outside window
        assert "n_sign_changes" in err.value.diagnostics

    @given(
        z0=st.floats(20, 120),
        v_p=st.floats(0.8e8, 2.0e8),
        l_f=st.floats(2e-3, 2e-2),
        frac=st.floats(0, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_quarter_wave_identity_random_geometry(self, z0, v_p, l_f, frac):
        geom = nw.FilterGeometry(z0=z0, v_p=v_p, l_f=l_f, x_s=frac * l_f)
        f = nw.filter_frequency_exact(geom, 0.0)
        assert abs(f - geom.f0) / geom.f0 < 1e-9


def first_order_pull(geom, l_s):
    """First-order fractional pull of the filter frequency by a series l_s
    at x_s: -(2/pi) (w0 l_s / z0) cos^2(pi x_s / (2 l_f)), zero when the
    inductor sits at the open-end current node, largest at the node."""
    leverage = math.cos(math.pi * geom.x_s / (2.0 * geom.l_f)) ** 2
    return -(2.0 / math.pi) * (2.0 * math.pi * geom.f0 * l_s / geom.z0) * leverage


def exact_pull(geom, l_s):
    return (nw.filter_frequency_exact(geom, l_s) - geom.f0) / geom.f0


class TestPerturbativePull:
    def test_zero_at_open_end(self, geometry):
        geom = replace(geometry, x_s=geometry.l_f)
        assert first_order_pull(geom, 0.075e-9) == pytest.approx(0.0, abs=1e-15)
        assert exact_pull(geom, 0.075e-9) == pytest.approx(0.0, abs=1e-12)

    def test_matches_first_order_at_node(self, geometry):
        # At x_s = 0 the leverage is 1 and the pull reduces to
        # -(2/pi) w0 l_s / z0 = -4 f0 l_s / z0; the exact root agrees to
        # second order in that pull (3.6e-4 here).
        geom = replace(geometry, x_s=0.0)
        l_s = 1e-12
        assert first_order_pull(geom, l_s) == pytest.approx(
            -4 * geom.f0 * l_s / geom.z0, rel=1e-12)
        assert exact_pull(geom, l_s) == pytest.approx(first_order_pull(geom, l_s), rel=1e-3)

    def test_against_exact_root_small_inductance(self, geometry):
        # 4 f0 l_s / z0 = 0.05
        l_s = 0.05 * geometry.z0 / (4 * geometry.f0)
        exact_shift = exact_pull(geometry, l_s)
        pull = first_order_pull(geometry, l_s)
        assert pull < 0
        assert abs(pull - exact_shift) / abs(exact_shift) <= 0.10

    def test_non_increasing_magnitude_in_position(self, geometry):
        # Moving the inductor from the node to the open end lowers the
        # current through it, so the exact pull never grows.
        pulls = [abs(exact_pull(replace(geometry, x_s=x), 0.075e-9))
                 for x in np.linspace(0, geometry.l_f, 30)]
        assert np.all(np.diff(pulls) <= 1e-12)


class TestCurrentProfile:
    # _drive_response's current factor is I_s / I(0), the sweep's i_peak per
    # unit node current.
    def test_open_end_node_and_normalization(self, geometry):
        # With the inductor at the node it carries the node current itself.
        geom = replace(geometry, x_s=0.0)
        for l_s in (0.0, 0.3e-9):
            for f in (geometry.f0, 3.7e9):
                _, factor, _, pole = nw._drive_response(geom, np.array([l_s]),
                                                        2 * math.pi * f)
                assert factor[0] == 1.0 and not pole[0]

    def test_quarter_wave_profile_shape(self, geometry):
        # At l_s = 0 the standing wave I(x) = I(0) sin(b (l_f - x)) / sin(b l_f)
        # holds along the whole stub, so at x_s the factor is its value there.
        l_r = geometry.l_f - geometry.x_s
        for f in (geometry.f0, 3.7e9, 5.2e9):
            beta = 2 * math.pi * f / geometry.v_p
            _, factor, _, pole = nw._drive_response(geometry, np.zeros(1), 2 * math.pi * f)
            assert not pole[0]
            assert factor[0] == pytest.approx(
                math.sin(beta * l_r) / math.sin(beta * geometry.l_f), rel=1e-12)

    @pytest.mark.parametrize("c_g", [0.0, 2e-15, 20e-15])
    def test_transfer_through_the_end_cap(self, geometry, squid_array, qubit, c_g):
        # On the line from the node, I(x_s) = I(0) (cos(b x_s) + X_in sin(b x_s) / z0),
        # X_in the input reactance of the same end-capped line.
        geom = replace(geometry, c_g=c_g)
        for f in (3.7e9, 4.2e9, 5.1e9):
            omega = 2 * math.pi * f
            beta = omega / geom.v_p
            sweep = nw.flux_sweep(geom, squid_array, qubit, np.linspace(0.0, 0.45, 46), f)
            ok = np.array([e is None for e in sweep.error])
            assert ok.sum() > 30
            x_in = input_reactance(geom, sweep.l_j_arr[ok], omega)
            transfer = np.abs(math.cos(beta * geom.x_s)
                              + x_in * math.sin(beta * geom.x_s) / geom.z0)
            np.testing.assert_allclose(sweep.i_peak[ok] / 2e-7, transfer, rtol=1e-12, atol=0.0)


class TestNonlinearityMargin:
    def test_values(self, geometry, squid_array, qubit):
        # The sweep's margin is 5 i_peak / Ic_sq.  With the inductor at the
        # node, i_peak is the node drive itself, and Ic_sq is 20 uA at zero flux.
        geom = replace(geometry, x_s=0.0)
        for i_node, margin in ((0.5e-6, 0.125), (0.0, 0.0), (2e-6, 0.5)):
            row = nw.flux_sweep(geom, squid_array, qubit, [0.0], 4.2e9, i_node=i_node)[0]
            assert row.error is None
            assert row.i_peak == i_node
            assert row.margin == pytest.approx(margin, rel=1e-12)
        # Off the node and off zero flux it is still that ratio.
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.3], 4.2e9)[0]
        assert row.margin == pytest.approx(
            5.0 * row.i_peak / critical_current(squid_array, 0.3), rel=1e-12)


class TestQubitAdmittance:
    def test_cancellation_at_filter_frequency(self, geometry, squid_array):
        for flux in (0.0, 0.2, 0.35):
            l_s = nw.squid_array_inductance(squid_array, flux)
            f_f = nw.filter_frequency_exact(geometry, l_s)
            y = nw.qubit_admittance(geometry, l_s, 2 * math.pi * f_f)
            assert y.real < 1e-15
            assert y.imag == pytest.approx(2 * math.pi * f_f * geometry.c_d, rel=1e-6)

    def test_decoupled_without_coupler(self, geometry):
        geom = replace(geometry, c_d=0.0)
        assert nw.qubit_admittance(geom, 0.075e-9, 2 * math.pi * 4e9) == 0j

    def test_finite_off_resonance(self, geometry):
        l_s = 0.075e-9
        f_f = nw.filter_frequency_exact(geometry, l_s)
        y = nw.qubit_admittance(geometry, l_s, 2 * math.pi * (f_f - 100e6))
        assert y.real > 0

    @given(f=st.floats(2.0e9, 5.3e9))
    @settings(max_examples=60)
    def test_passivity(self, f):
        geom = nw.FilterGeometry(z0=50.0, v_p=1.17e8, l_f=6.5e-3, x_s=2.0e-3,
                                 c_g=2e-15, c_d=4.4e-15)
        try:
            y = nw.qubit_admittance(geom, 0.2e-9, 2 * math.pi * f)
        except TangentPole:
            return
        assert y.real >= 0


class TestCouplingFigures:
    # The coupling figures of one flux point: a one-point flux_sweep row.
    def test_reciprocal_t1(self, geometry, squid_array):
        qubit = nw.QubitLoad(f_q=3.9e9, c_q=143e-15)
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.3], 4.2e9)[0]
        assert row.t1_ext == pytest.approx(1.0 / row.gamma_qf, rel=1e-12)
        assert row.t1_total == row.t1_ext  # no internal loss channel

    def test_total_t1_capped_by_internal(self, geometry, squid_array, qubit):
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.3], 4.2e9)[0]
        assert row.t1_total <= min(row.t1_ext, qubit.t1_internal) * (1 + 1e-12)
        expected = 1.0 / (1.0 / row.t1_ext + 1.0 / qubit.t1_internal)
        assert row.t1_total == pytest.approx(expected, rel=1e-12)

    def test_drive_at_filter_frequency_restores_internal_t1(
            self, geometry, squid_array, qubit):
        l_s = nw.squid_array_inductance(squid_array, 0.25)
        f_f = nw.filter_frequency_exact(geometry, l_s)
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.25], f_f)[0]
        assert row.gamma_qf < 1e-15 / qubit.c_q
        assert row.t1_total == pytest.approx(qubit.t1_internal, rel=1e-6)

    def test_rabi_normalized_at_reference(self, geometry, squid_array, qubit):
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.0], 4.2e9)[0]
        assert row.rabi_rel == pytest.approx(1.0, rel=1e-12)

    def test_strict_mode_propagates_half_flux(self, geometry, squid_array, qubit):
        row = nw.flux_sweep(geometry, squid_array, qubit, [0.5], 4.2e9, mode="strict")[0]
        assert row.error == "HalfFluxDivergence"
        assert math.isnan(row.gamma_qf) and math.isnan(row.rabi_rel)


class TestFluxSweep:
    def test_single_point_matches_individual_ops(self, geometry, squid_array, qubit):
        rows = nw.flux_sweep(geometry, squid_array, qubit, [0.0], 4.2e9)
        assert len(rows) == 1
        row = rows[0]
        l_s = nw.squid_array_inductance(squid_array, 0.0)
        y = nw.qubit_admittance(geometry, l_s, 2 * math.pi * 4.2e9)
        assert row.gamma_qf == pytest.approx(y.real / qubit.c_q, rel=1e-12)
        assert row.l_j_arr == pytest.approx(l_s, rel=1e-12)
        assert row.f_f == pytest.approx(
            nw.filter_frequency_exact(geometry, row.l_j_arr), rel=1e-12)

    def test_periodic_columns(self, geometry, squid_array, qubit):
        rows = nw.flux_sweep(geometry, squid_array, qubit, [0.0, 0.25, 1.0, 1.25],
                             4.2e9)
        assert rows[0].gamma_qf == pytest.approx(rows[2].gamma_qf, rel=1e-9)
        assert rows[1].gamma_qf == pytest.approx(rows[3].gamma_qf, rel=1e-9)
        assert rows[0].f_f == pytest.approx(rows[2].f_f, rel=1e-12)

    def test_half_flux_clamped_row(self, geometry, squid_array, qubit):
        rows = nw.flux_sweep(geometry, squid_array, qubit, [0.5], 4.2e9,
                             mode="clamped")
        row = rows[0]
        ic_clamped = squid_array.clamp_epsilon * 2 * squid_array.ic_junction
        expected_l = 5 * nw.PHI0 / (2 * math.pi * ic_clamped)
        assert row.l_j_arr == pytest.approx(expected_l, rel=1e-12)
        # the clamped inductance is far outside the tuning window
        assert row.error == "NoRootFound"

    def test_half_flux_strict_row_marker(self, geometry, squid_array, qubit):
        rows = nw.flux_sweep(geometry, squid_array, qubit, [0.3, 0.5], 4.2e9,
                             mode="strict")
        assert rows[0].error is None
        assert rows[1].error == "HalfFluxDivergence"
        assert math.isnan(rows[1].gamma_qf)

    def test_iterates_as_rows_equal_to_columns(self, geometry, squid_array, qubit):
        # Row access is what the scalar-reference tests and the benchmark's
        # error-row counter read; it must agree with the columns.
        sweep = nw.flux_sweep(geometry, squid_array, qubit, [0.0, 0.3, 0.5, math.nan],
                              4.2e9)
        assert sweep.dtype.names == nw.SWEEP_FIELDS + ("error",)
        assert sweep.error.tolist() == [None, None, "NoRootFound", "NoRootFound"]
        for k, row in enumerate(sweep):
            assert row.error is sweep.error[k]
            for name in nw.SWEEP_FIELDS:
                np.testing.assert_array_equal(getattr(row, name), sweep[name][k],
                                              err_msg=name)

    def test_empty_grid_rejected(self, geometry, squid_array, qubit):
        with pytest.raises(ValueError):
            nw.flux_sweep(geometry, squid_array, qubit, [], 4.2e9)

    def test_infinite_flux_or_drive_raises_value_error(self, geometry, squid_array, qubit):
        # As with the math.* scalar code: inf is an input error, not a nan row.
        with pytest.raises(ValueError):
            nw.flux_sweep(geometry, squid_array, qubit, [0.1, math.inf], 4.2e9)
        with pytest.raises(ValueError):
            nw._inductances(squid_array, -math.inf, "clamped")
        with pytest.raises(ValueError):
            nw.qubit_admittance(geometry, 0.1e-9, math.inf)
        # A nan drive is no drive frequency either.
        for drive in (math.inf, math.nan):
            with pytest.raises(ValueError, match="drive_freq"):
                nw.flux_sweep(geometry, squid_array, qubit, [0.1], drive)

    def test_invalid_mode_rejected(self, geometry, squid_array, qubit):
        with pytest.raises(ValueError, match="mode"):
            nw.flux_sweep(geometry, squid_array, qubit, [0.1], 4.2e9, mode="loose")
        with pytest.raises(ValueError, match="mode"):
            nw._inductances(squid_array, 0.5, "loose")


# --- Reference: the per-point sweep with scalar math.* kernels -----------------
# The sweep and bisection code as they were before the network layer became
# array kernels, with the admittance and inductor current from chain matrices
# instead of the kernels' bilinear terms.  The array sweep must reproduce it
# row by row: same error markers, bit-equal l_j_arr, f_f within the 1e-12
# relative root tolerance (the two solvers stop at different points of the
# same bracket), and the other columns within the benchmark's sweep tolerance.

def _ref_ic_sq(arr, flux, mode):
    cos_abs = abs(math.cos(math.pi * flux))
    if cos_abs < arr.clamp_epsilon:
        if mode == "strict":
            raise HalfFluxDivergence("half flux")
        cos_abs = arr.clamp_epsilon
    return 2.0 * arr.ic_junction * cos_abs


def _ref_inductance(arr, flux, mode):
    ic_sq = _ref_ic_sq(arr, flux, mode)
    return arr.n_squids * (arr.l_fixed_per_squid + nw.PHI0 / (2.0 * math.pi * ic_sq))


def _ref_condition(geom, l_s, omega):
    omega = np.asarray(omega, dtype=float)
    beta = omega / geom.v_p
    l_r = geom.l_f - geom.x_s
    s_l, c_l = np.sin(beta * geom.x_s), np.cos(beta * geom.x_s)
    s_r, c_r = np.sin(beta * l_r), np.cos(beta * l_r)
    z0 = geom.z0
    with np.errstate(divide="ignore", invalid="ignore"):
        if geom.c_g == 0.0:
            x2 = -z0 * c_r / s_r
        else:
            x_e = -1.0 / (omega * geom.c_g)
            x2 = z0 * (x_e * c_r + z0 * s_r) / (z0 * c_r - x_e * s_r)
        return omega * l_s + x2 + z0 * s_l / c_l


def _ref_bisect(func, a, b, fa, fb, rtol):
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    while b - a > rtol * abs(b):
        mid = 0.5 * (a + b)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


# The reference told poles from roots by the residual |F| left after bisection.
_REF_ROOT_ACCEPT_OHM = 1e-3


def _ref_filter_frequency(geom, l_s):
    f0 = geom.f0
    if geom.c_g == 0.0 and geom.x_s >= geom.l_f:
        geom, l_s = replace(geom, x_s=0.0), 0.0
    freqs = np.linspace(0.3 * f0, 1.2 * f0, 4096)
    vals = _ref_condition(geom, l_s, 2.0 * math.pi * freqs)
    ok = np.isfinite(vals) & (np.abs(vals) < 1e12)
    idx = np.nonzero(ok[:-1] & ok[1:] & (np.sign(vals[:-1]) != np.sign(vals[1:])))[0]

    def cond(f):
        return float(_ref_condition(geom, l_s, 2.0 * math.pi * f))

    for i in idx:
        root = _ref_bisect(cond, float(freqs[i]), float(freqs[i + 1]),
                           float(vals[i]), float(vals[i + 1]), 1e-12)
        if abs(cond(root)) < _REF_ROOT_ACCEPT_OHM:
            return root
    raise NoRootFound("no root", diagnostics={"n_sign_changes": int(len(idx))})


def _ref_pole_free(geom, l_s, omega):
    """The reference condition times cos(b x_s) and a positive multiple of
    the end-cap denominator: the roots of F, none of its poles."""
    if geom.c_g == 0.0 and geom.x_s >= geom.l_f:  # as in _ref_filter_frequency
        geom, l_s = replace(geom, x_s=0.0), 0.0
    beta = omega / geom.v_p
    c_r, s_r = np.cos(beta * (geom.l_f - geom.x_s)), np.sin(beta * (geom.l_f - geom.x_s))
    den = s_r if geom.c_g == 0.0 else geom.z0 * c_r + s_r / (omega * geom.c_g)
    return _ref_condition(geom, l_s, omega) * np.cos(beta * geom.x_s) * den


def _assert_dense_scan_root(geom, l_s, f_f):
    """A dense grid of the pole-free reference condition around ``f_f``
    changes sign once, in the 1e-9-wide cell that holds ``f_f`` to within
    the 1e-12 bisection tolerance."""
    f = np.linspace(f_f * (1.0 - 1e-6), f_f * (1.0 + 1e-6), 2001)
    g = _ref_pole_free(geom, l_s, 2.0 * math.pi * f)
    cells = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
    assert cells.size == 1
    tol = 1e-12 * f_f
    assert f[cells[0]] - tol <= f_f <= f[cells[0] + 1] + tol


def _ref_chain(geom, l_s, omega):
    """Qubit admittance Y_q and I_s / I(0) at one l_s, from complex 2x2 chain
    (ABCD) matrices.  A line section of length x is [[cos bx, i z0 sin bx],
    [i sin bx / z0, cos bx]] and the series inductor [[1, i w l_s], [0, 1]];
    [V; I] at the node is their product applied to [1; i w c_g] at the end,
    so Z_in = V0 / I0 is A / C for an open end and (A Z_L + B) / (C Z_L + D)
    with the cap.  The factor is inf where I0 == 0, an open at the node."""
    def section(x):
        bx = omega / geom.v_p * x
        return np.array([[math.cos(bx), 1j * geom.z0 * math.sin(bx)],
                         [1j * math.sin(bx) / geom.z0, math.cos(bx)]])

    v_s, i_s = section(geom.l_f - geom.x_s) @ np.array([1.0, 1j * omega * geom.c_g])
    v0, i0 = section(geom.x_s) @ np.array([[1.0, 1j * omega * l_s], [0.0, 1.0]]) @ [v_s, i_s]
    z_node = geom.z_source * v0 / (geom.z_source * i0 + v0)  # z_source || Z_in
    y = 1j * omega * geom.c_d / (1.0 + 1j * omega * geom.c_d * z_node)
    return complex(y), complex(i_s / i0) if i0 != 0.0 else math.inf


def _ref_flux_sweep(geom, arr, qubit, flux_grid, drive_freq, mode="clamped",
                    i_node=2e-7, reference_flux=0.0):
    omega = 2.0 * math.pi * drive_freq
    try:
        y_ref = _ref_chain(geom, _ref_inductance(arr, reference_flux, mode), omega)[0]
        gamma_ref = y_ref.real / qubit.c_q if cmath.isfinite(y_ref) else math.nan
    except HalfFluxDivergence:
        gamma_ref = math.nan
    rows = []
    for flux in flux_grid:
        fields = {**dict.fromkeys(_SWEEP_COLUMNS, math.nan), "error": None,
                  "flux_ratio": flux}
        try:
            fields["l_j_arr"] = l_j = _ref_inductance(arr, flux, mode)
            ic_sq = _ref_ic_sq(arr, flux, mode)
            fields["f_f"] = _ref_filter_frequency(geom, l_j)
            y, factor = _ref_chain(geom, l_j, omega)
            if not cmath.isfinite(y):
                raise TangentPole("non-finite admittance")
            gamma = max(y.real / qubit.c_q, 0.0)
            fields["gamma_qf"] = gamma
            t1_ext = math.inf if gamma == 0.0 else 1.0 / gamma
            fields["t1_ext"] = t1_ext
            if qubit.t1_internal is None:
                fields["t1_total"] = t1_ext
            elif math.isinf(t1_ext):
                fields["t1_total"] = qubit.t1_internal
            else:
                fields["t1_total"] = 1.0 / (1.0 / t1_ext + 1.0 / qubit.t1_internal)
            fields["rabi_rel"] = (math.sqrt(gamma / gamma_ref)
                                  if gamma_ref > 0.0 else math.nan)
            if not cmath.isfinite(factor):
                raise TangentPole("open at the node")
            i_peak = abs(i_node * factor)
            fields["i_peak"] = i_peak
            fields["margin"] = 5.0 * i_peak / ic_sq
        except (HalfFluxDivergence, NoRootFound, TangentPole) as exc:
            fields["error"] = type(exc).__name__
        rows.append(SimpleNamespace(**fields))
    return rows


_SWEEP_COLUMNS = ("flux_ratio", "l_j_arr", "f_f", "gamma_qf", "t1_ext",
                  "t1_total", "rabi_rel", "i_peak", "margin")
# The benchmark grid: 2001 points over the half flux period.
_BENCH_GRID = np.linspace(0.0, 0.5, 2001)
_GEOM = nw.FilterGeometry(z0=50.0, v_p=1.17e8, l_f=6.5e-3, x_s=2.0e-3,
                          c_g=0.0, c_d=4.4e-15)
_ARR = nw.SquidArray(n_squids=5, ic_junction=10e-6)
_QUBIT = nw.QubitLoad(f_q=3.9e9, c_q=143e-15, t1_internal=2e-4)
_TAN_POLE_DRIVE = _GEOM.v_p / (4.0 * _GEOM.x_s)
# With the inductor this close to the open end the tan(b x_s) pole falls in
# the scan window, so sign changes across it must be rejected as poles.
_POLE_IN_WINDOW = replace(_GEOM, x_s=0.85 * _GEOM.l_f)


class TestSweepMatchesScalarReference:
    @pytest.mark.parametrize("geom, qubit, grid, drive, kwargs", [
        pytest.param(_GEOM, _QUBIT, _BENCH_GRID, 4.2e9, {}, id="bench-4.2GHz"),
        pytest.param(_GEOM, _QUBIT, _BENCH_GRID, 4.299e9, {}, id="bench-4.299GHz"),
        pytest.param(_GEOM, _QUBIT, np.linspace(0.4, 0.6, 101), 4.2e9,
                     {"mode": "strict"}, id="strict-across-half-flux"),
        pytest.param(_GEOM, _QUBIT, np.linspace(0.0, 0.45, 46), _TAN_POLE_DRIVE, {},
                     id="drive-on-tan-pole"),
        pytest.param(replace(_GEOM, c_g=2e-15), _QUBIT, np.linspace(0.0, 0.5, 201),
                     4.2e9, {}, id="end-cap"),
        pytest.param(replace(_GEOM, x_s=_GEOM.l_f), _QUBIT, np.linspace(0.0, 0.5, 51),
                     4.4e9, {}, id="inductor-at-open-end"),
        pytest.param(_POLE_IN_WINDOW, _QUBIT, np.linspace(0.0, 0.5, 201), 4.2e9, {},
                     id="pole-in-scan-window"),
        pytest.param(_GEOM, nw.QubitLoad(f_q=3.9e9), [0.1, math.nan, 0.3, 0.5],
                     4.2e9, {}, id="nan-flux-no-internal-loss"),
        pytest.param(_GEOM, _QUBIT, [0.0, 0.2, 0.4999, 0.5], 4.2e9,
                     {"mode": "strict", "reference_flux": 0.5}, id="failing-reference"),
    ])
    def test_rows(self, geom, qubit, grid, drive, kwargs):
        got = nw.flux_sweep(geom, _ARR, qubit, grid, drive, **kwargs)
        ref = _ref_flux_sweep(geom, _ARR, qubit, list(grid), drive, **kwargs)
        assert [r.error for r in got] == [r.error for r in ref]
        for name in _SWEEP_COLUMNS:
            a = np.array([getattr(r, name) for r in got])
            b = np.array([getattr(r, name) for r in ref])
            if name in ("flux_ratio", "l_j_arr"):
                np.testing.assert_array_equal(a, b, err_msg=name)
                continue
            if name == "f_f":
                np.testing.assert_allclose(a, b, rtol=nw._ROOT_RTOL, atol=0.0, err_msg=name)
                for row in [r for r in got if np.isfinite(r.f_f)][::50]:
                    _assert_dense_scan_root(geom, row.l_j_arr, row.f_f)
                continue
            finite = np.abs(b[np.isfinite(b)])
            atol = 1e-12 * finite.max() if finite.size else 0.0
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=atol, err_msg=name)

    def test_cases_reach_every_marker(self):
        # The parametrised cases above are only a check of row semantics if
        # every stage fails somewhere among them.  The current factor fails
        # only at an open node, H == 0, which no sweep grid above hits; the
        # kernel reaches it at l_s = -E/C, where Z_node is z_source itself.
        seen = set()
        for geom, grid, drive, mode in (
                (_GEOM, _BENCH_GRID, 4.2e9, "clamped"),
                (_GEOM, np.linspace(0.4, 0.6, 101), 4.2e9, "strict"),
                (_GEOM, np.linspace(0.0, 0.45, 46), _TAN_POLE_DRIVE, "clamped"),
                (replace(_GEOM, x_s=_GEOM.l_f), np.linspace(0.0, 0.5, 51), 4.4e9,
                 "clamped")):
            seen.update(r.error for r in nw.flux_sweep(geom, _ARR, _QUBIT, grid, drive,
                                                       mode=mode))
        assert seen == {None, "HalfFluxDivergence", "NoRootFound"}
        opens = 0
        for omega in 2 * math.pi * np.linspace(3e9, 6e9, 50):
            _, _, c, e, _ = nw._line_terms(_GEOM, omega)
            y, _, y_bad, i_bad = nw._drive_response(_GEOM, np.array([-e / c]), omega)
            y_d = 1j * omega * _GEOM.c_d
            assert not y_bad[0]
            if i_bad[0]:
                opens += 1
                assert y[0] == pytest.approx(y_d / (1.0 + y_d * _GEOM.z_source), rel=1e-12)
        assert opens >= 40

    @pytest.mark.parametrize("geom, l_s", [
        (_GEOM, 1e-6),
        (_GEOM, float(nw._inductances(_ARR, 0.5, "clamped")[0])),
    ])
    def test_no_root_diagnostics_match_reference(self, geom, l_s):
        with pytest.raises(NoRootFound) as got:
            nw.filter_frequency_exact(geom, l_s)
        with pytest.raises(NoRootFound) as ref:
            _ref_filter_frequency(geom, l_s)
        for key, value in ref.value.diagnostics.items():
            assert got.value.diagnostics[key] == value

    def test_steep_root_above_pole_is_found(self):
        # At 15 uH the root sits 0.34 MHz above the tan(b x_s) pole, in the
        # next scan interval.  F is so steep there that the bisected root's
        # residual exceeds the reference's 1e-3 ohm and it is rejected.
        with pytest.raises(NoRootFound):
            _ref_filter_frequency(_POLE_IN_WINDOW, 1.5e-5)
        f_f = nw.filter_frequency_exact(_POLE_IN_WINDOW, 1.5e-5)
        assert f_f == pytest.approx(5.2945e9, abs=0.1e6)
        assert f_f > _POLE_IN_WINDOW.v_p / (4.0 * _POLE_IN_WINDOW.x_s)
        _assert_dense_scan_root(_POLE_IN_WINDOW, 1.5e-5, f_f)

    def test_rejected_pole_moves_to_next_sign_change(self):
        # From about 0.1 uH up no root lies below the tan(b x_s) pole at
        # v_p / (4 x_s), where F changes sign; the pole is never returned,
        # and the root above it is the reference's.
        pole = _POLE_IN_WINDOW.v_p / (4.0 * _POLE_IN_WINDOW.x_s)
        l_s = np.array([1e-6, 3e-6, 1e-5, 3e-5, 1e-4])
        f_f = nw._filter_frequencies(_POLE_IN_WINDOW, l_s)
        assert np.all(f_f > pole)
        for l, f in zip(l_s, f_f):
            _assert_dense_scan_root(_POLE_IN_WINDOW, l, f)
        ref = _ref_filter_frequency(_POLE_IN_WINDOW, 1e-5)
        assert f_f[2] == pytest.approx(ref, rel=nw._ROOT_RTOL, abs=0.0)

    def test_root_where_the_condition_overflows(self):
        # At 1e306 H, G = A l_s + B is +-inf at both ends of the bracket, so
        # the solver steps to midpoints; the root is the tan(b x_s) pole.
        pole = _POLE_IN_WINDOW.v_p / (4.0 * _POLE_IN_WINDOW.x_s)
        with np.errstate(over="ignore"):
            f_f = nw.filter_frequency_exact(_POLE_IN_WINDOW, 1e306)
        assert f_f == pytest.approx(pole, rel=nw._ROOT_RTOL, abs=0.0)

    @pytest.mark.parametrize("geom", [
        _GEOM, replace(_GEOM, c_g=2e-15), _POLE_IN_WINDOW, replace(_GEOM, x_s=_GEOM.l_f),
    ], ids=["bench", "end-cap", "pole-in-scan-window", "inductor-at-open-end"])
    def test_sweep_evaluates_condition_few_times(self, geom, monkeypatch):
        # The scan plus a handful of regula-falsi steps solve the benchmark
        # grid: a solver that needs more shows here before the benchmark.
        calls, line_terms = [], nw._line_terms

        def counted(*args):
            calls.append(1)
            return line_terms(*args)

        monkeypatch.setattr(nw, "_line_terms", counted)
        nw.flux_sweep(geom, _ARR, _QUBIT, _BENCH_GRID, 4.2e9)
        assert len(calls) <= 10


# Random geometries for the bracketing properties: both end-cap branches,
# the inductor down to 1e-8 l_f from the open end, and l_s from 0 to 0.1 uH.
_GEOMETRY_ARGS = dict(
    z0=st.floats(20, 120),
    v_p=st.floats(0.8e8, 2.0e8),
    l_f=st.floats(2e-3, 2e-2),
    log_gap=st.floats(-8, 0),
    c_g=st.floats(0.5e-15, 20e-15),
)
_L_S = st.one_of(st.just(0.0), st.floats(-11, -7).map(lambda e: 10.0**e))


def _random_geometry(z0, v_p, l_f, log_gap, c_g):
    return nw.FilterGeometry(z0=z0, v_p=v_p, l_f=l_f, x_s=(1.0 - 10.0**log_gap) * l_f,
                             c_g=c_g)


class TestFosterBracketing:
    @pytest.mark.parametrize("end_cap", [False, True])
    @given(**_GEOMETRY_ARGS, l_s=st.lists(_L_S, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_roots_match_scalar_reference(self, end_cap, z0, v_p, l_f, log_gap, c_g, l_s):
        geom = _random_geometry(z0, v_p, l_f, log_gap, c_g * end_cap)
        got = nw._filter_frequencies(geom, np.array(l_s))
        for l, f in zip(l_s, got):
            try:
                ref = _ref_filter_frequency(geom, l)
            except NoRootFound:
                ref = math.nan
            if math.isnan(f) and math.isnan(ref) or abs(f - ref) <= 1e-12 * ref:
                continue
            # Else only a lower root, one the reference rejected, may appear.
            assert f < ref or math.isnan(ref)
            _assert_dense_scan_root(geom, l, f)

    @pytest.mark.parametrize("end_cap", [False, True])
    @given(**_GEOMETRY_ARGS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_l_falls_between_zeros_of_slope(self, end_cap, z0, v_p, l_f, log_gap, c_g):
        # Foster: L = -B/A = -X/w does not increase between poles of X.
        geom = _random_geometry(z0, v_p, l_f, log_gap, c_g * end_cap)
        omega = 2.0 * math.pi * np.linspace(0.3 * geom.f0, 1.2 * geom.f0, 4096)
        slope, offset = nw._line_terms(geom, omega)[:2]
        sign = np.sign(slope)
        in_run = (sign[:-1] == sign[1:]) & (sign[1:] != 0)
        assert np.all(np.diff(-offset / slope)[in_run] <= 0.0)
