"""Lossless network model of a flux-tunable quarter-wave drive-line filter.

The filter is an open-ended transmission-line stub hanging off the qubit
node at ``x = 0``: a uniform section of characteristic impedance ``z0`` and
phase velocity ``v_p`` runs to ``x = x_s``, where a series dc-SQUID array
with flux-tunable inductance is embedded, and continues to the open end at
``x = l_f``.  A small capacitance ``c_g`` models the physical open end, and
``c_d`` couples the qubit to the node.  Near the quarter-wave condition the
stub transforms the open end into a short at the node, cancelling the real
part of the admittance seen by the qubit and with it the radiative decay
channel; detuning the SQUID inductance moves that cancellation frequency.

Impedance chain, referenced at the node::

    Z_end = 1/(i w c_g)                       open-end cap (open if c_g = 0)
    Z_2   = z0 (Z_end + i z0 tan(b l_r)) / (z0 + i Z_end tan(b l_r))
    Z_1   = i w l_s + Z_2                     series SQUID-array inductance
    Z_in  = z0 (Z_1 + i z0 tan(b x_s)) / (z0 + i Z_1 tan(b x_s))

with ``b = w / v_p`` and ``l_r = l_f - x_s``.  ``_line_terms`` writes X_in
as a ratio of two pole-free terms linear in ``l_s``, from which the filter
condition, the qubit admittance and the inductor current all follow.  The
filter frequency is the lowest root in [0.3 f0, 1.2 f0] of the shunt-short
condition ``Z_1 + i z0 tan(b x_s) = 0``, bracketed on a pole-free form of
it with Foster's reactance theorem and narrowed by ``fits.bracketed_roots``
to a relative width of 1e-12 (see ``_filter_frequencies``).

Phasor convention is ``exp(+i w t)``: an inductor has impedance ``i w L``
and a capacitor ``1/(i w C)``.  All quantities are strict SI; unit
conversion belongs at the I/O boundary.

The private kernels work on arrays of flux points (or of ``l_s``) at one
drive frequency and return masks of the points they fail instead of
raising; ``flux_sweep`` runs them over the whole grid in one pass.  The
scalar ``squid_array_inductance``, ``filter_frequency_exact`` and
``qubit_admittance`` are one-row calls of them that raise on a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HalfFluxDivergence, NoRootFound, TangentPole
from .fits import bracketed_roots

#: Magnetic flux quantum (Wb).
PHI0 = 2.067833848e-15

# The filter root is bracketed on this many scan points over [0.3 f0, 1.2 f0]
# and narrowed by regula falsi to this relative width.
_N_SCAN = 4096
_ROOT_RTOL = 1e-12


@dataclass(frozen=True)
class SquidArray:
    """Series array of identical symmetric dc SQUIDs embedded in the line.

    Parameters
    ----------
    n_squids : int
        Number of SQUIDs in series.
    ic_junction : float
        Critical current of a single junction (A); the SQUID critical
        current at zero flux is twice this.
    l_fixed_per_squid : float
        Flux-independent lead inductance per SQUID (H), geometric plus
        kinetic contributions.
    clamp_epsilon : float
        Lower bound on |cos(pi * flux_ratio)| used near half flux; strict
        mode raises below it, clamped mode substitutes it.
    """

    n_squids: int
    ic_junction: float
    l_fixed_per_squid: float = 0.0
    clamp_epsilon: float = 1e-3

    def __post_init__(self):
        # Positive tests, so that NaN fails them.
        if not self.n_squids >= 1:
            raise ValueError("n_squids must be >= 1")
        if not self.ic_junction > 0:
            raise ValueError("ic_junction must be positive")
        if not self.l_fixed_per_squid >= 0:
            raise ValueError("l_fixed_per_squid must be >= 0")
        if not 0.0 < self.clamp_epsilon < 0.1:
            raise ValueError("clamp_epsilon must lie in (0, 0.1)")


@dataclass(frozen=True)
class FilterGeometry:
    """Geometry of the quarter-wave stub and its couplings (SI units)."""

    z0: float
    v_p: float
    l_f: float
    x_s: float
    c_g: float = 0.0
    c_d: float = 0.0
    z_source: float = 50.0

    def __post_init__(self):
        # Positive tests, so that NaN fails them.
        if not (self.z0 > 0 and self.v_p > 0 and self.l_f > 0):
            raise ValueError("z0, v_p and l_f must be positive")
        if not 0.0 <= self.x_s <= self.l_f:
            raise ValueError("x_s must lie in [0, l_f]")
        if not (self.c_g >= 0 and self.c_d >= 0):
            raise ValueError("c_g and c_d must be >= 0")
        if not self.z_source > 0:
            raise ValueError("z_source must be positive")
        # The root scan spans [0.3 f0, 1.2 f0]; an infinite f0 leaves it
        # NaN brackets that regula falsi never closes.
        if not 0.0 < self.f0 < math.inf:
            raise ValueError(f"v_p / (4 l_f) must be positive and finite, got {self.f0!r} Hz")

    @property
    def f0(self) -> float:
        """Bare quarter-wave frequency v_p / (4 l_f) in Hz."""
        return self.v_p / (4.0 * self.l_f)


@dataclass(frozen=True)
class QubitLoad:
    """Qubit seen as a load: total capacitance, frequency, internal loss.

    The default ``c_q`` of 143 fF corresponds to a charging energy
    E_C = e^2 / (2 C) of h * 135 MHz, a typical transmon anharmonicity.
    ``t1_internal`` caps the total relaxation time; ``None`` means no
    internal loss channel.
    """

    f_q: float
    c_q: float = 143e-15
    t1_internal: float | None = None

    def __post_init__(self):
        # Positive tests, so that NaN fails them.
        if not (self.c_q > 0 and self.f_q > 0):
            raise ValueError("c_q and f_q must be positive")
        if self.t1_internal is not None and not self.t1_internal > 0:
            raise ValueError("t1_internal must be positive when present")


def _inductances(arr: SquidArray, flux, mode: str):
    """Linear inductance, critical current and |cos(pi flux)| < clamp_epsilon mask."""
    if mode not in ("strict", "clamped"):
        raise ValueError(f"mode must be 'strict' or 'clamped', got {mode!r}")
    if np.isinf(flux).any():
        raise ValueError("flux_ratio must not be infinite")
    cos_abs = np.abs(np.cos(np.pi * np.asarray(flux, dtype=float)))
    below = cos_abs < arr.clamp_epsilon
    if mode == "clamped":  # strict mode leaves the masked points to the caller
        cos_abs = np.where(below, arr.clamp_epsilon, cos_abs)
    ic_sq = 2.0 * arr.ic_junction * cos_abs
    return arr.n_squids * (arr.l_fixed_per_squid + PHI0 / (2.0 * math.pi * ic_sq)), ic_sq, below


def squid_array_inductance(arr: SquidArray, flux_ratio: float) -> float:
    """Series inductance of the SQUID array at a given flux bias (H).

    The linear part N (L_fixed + Phi0 / (2 pi Ic_sq)) alone: the drive is
    kept small, and the sweep reports how small in its ``margin`` field.
    Within clamp_epsilon of half flux it raises HalfFluxDivergence.
    """
    l_arr, ic_sq, below = _inductances(arr, flux_ratio, "strict")
    if below:
        raise HalfFluxDivergence(
            f"|cos(pi*flux)| = {ic_sq / (2.0 * arr.ic_junction):.3e} < clamp_epsilon = "
            f"{arr.clamp_epsilon:.3e} at flux_ratio = {flux_ratio}")
    return float(l_arr)


def _line_terms(geom: FilterGeometry, omega):
    """The line seen from the node as a bilinear map in l_s: (A, B, C, E, den).

    Past the inductor X2 / z0 = num / den, num = u s_r - c_r, den = u c_r +
    s_r, u = z0 w c_g (u = 0: the open end, X2 = -z0 cot(b l_r)), and X1 =
    w l_s + X2; s_l, c_l, t_l are sin, cos, tan of b x_s.  Then

        G = den c_l (X1 + z0 t_l) = A l_s + B,  A = w c_l den,  B = z0 (c_l num + s_l den)
        H = den c_l (z0 - X1 t_l) = C l_s + E,  C = -w s_l den, E = z0 (c_l den - s_l num)

    give X_in = z0 G / H and the inductor current per unit node current
    I_s / I(0) = 1 / (c_l - X1 s_l / z0) = z0 den / H.  (G, H) is (w l_s den
    + z0 num, z0 den) turned by b x_s, and num^2 + den^2 = 1 + u^2, so G and
    H never vanish together.  G = 0 is the filter condition; A is zero for
    x_s = l_f, c_g = 0.  A huge z0 overflows u to inf (nan at c_g = 0)
    quietly; the points it spoils carry error markers.
    """
    beta = omega / geom.v_p
    s_l, c_l = np.sin(beta * geom.x_s), np.cos(beta * geom.x_s)
    s_r, c_r = np.sin(beta * (geom.l_f - geom.x_s)), np.cos(beta * (geom.l_f - geom.x_s))
    z0 = geom.z0
    with np.errstate(over="ignore", invalid="ignore"):
        u = z0 * omega * geom.c_g
        num, den = u * s_r - c_r, u * c_r + s_r
        return (omega * c_l * den, c_l * (z0 * num) + z0 * s_l * den,
                -omega * s_l * den, z0 * (c_l * den - s_l * num), den)


def _condition(slope, offset, l_s):
    """slope l_s + offset, G or H; slope l_s may overflow to +-inf, whose sign
    is still the sum's."""
    with np.errstate(over="ignore"):
        return slope * l_s + offset


def filter_frequency_first_order(f0: float, l_s: float, z0: float) -> float:
    """First-order pulled filter frequency f0 / (1 + 4 f0 l_s / z0)."""
    if not (f0 > 0 and z0 > 0):
        raise ValueError("f0 and z0 must be positive")
    if not l_s >= 0:
        raise ValueError("l_s must be >= 0")
    return f0 / (1.0 + 4.0 * f0 * l_s / z0)


def _filter_frequencies(geom: FilterGeometry, l_s):
    """Lowest filter frequency (Hz) in [0.3 f0, 1.2 f0] per entry of an
    ``l_s`` array, nan where there is none.

    The pole-free condition G = A l_s + B (``_line_terms``) is scanned
    at ``_N_SCAN`` points and changes sign exactly at the roots of F.  Where A
    keeps its sign, G = A (l_s - L) with L = -B/A, and Foster's reactance
    theorem (dX/dw >= |X|/w for a lossless X) makes L = -X/w fall strictly,
    so one ``searchsorted`` per run of constant sign finds the interval that
    brackets every entry.  An interval across a zero of A (a pole of F) is
    tested on G directly.  Each entry's lowest bracket is narrowed on G by
    ``fits.bracketed_roots`` to ``b - a <= _ROOT_RTOL |b|`` and its midpoint
    returned, or the point where G == 0.
    """
    l_s = np.asarray(l_s, dtype=float)
    freqs = np.linspace(0.3 * geom.f0, 1.2 * geom.f0, _N_SCAN)
    slope, offset = _line_terms(geom, 2.0 * math.pi * freqs)[:2]
    # With A == 0 (x_s = l_f, c_g = 0) G = B brackets the same root for every l_s.
    rows = l_s if slope.any() else np.zeros(min(l_s.size, 1))
    none = _N_SCAN - 1  # no interval has this index

    sign = np.sign(slope)
    in_run = (sign[:-1] == sign[1:]) & (sign[1:] != 0)
    across = np.flatnonzero(~in_run)
    g = _condition(slope[across], offset[across], rows[:, None])
    g_next = _condition(slope[across + 1], offset[across + 1], rows[:, None])
    hit = (np.sign(g) != np.sign(g_next)) & np.isfinite(rows)[:, None]
    first = np.where(hit, across, none).min(axis=1, initial=none)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], in_run, [0]))))
    for start, stop in zip(edges[::2], edges[1::2]):  # intervals [start, stop) of a run
        neg_l = offset[start:stop + 1] / slope[start:stop + 1]  # increasing
        k = np.searchsorted(neg_l, -rows)
        inside = (k > 0) & (k <= stop - start)  # nan and +-inf fall outside
        first = np.where(inside, np.minimum(first, start + k - 1), first)

    found = np.flatnonzero(first < none)
    cols, l_found = first[found], rows[found]
    f_f = np.full(rows.size, math.nan)
    f_f[found] = bracketed_roots(
        lambda x, live: _condition(*_line_terms(geom, 2.0 * math.pi * x)[:2], l_found[live]),
        freqs[cols], freqs[cols + 1], _condition(slope[cols], offset[cols], l_found),
        _condition(slope[cols + 1], offset[cols + 1], l_found), _ROOT_RTOL)
    return f_f if rows is l_s else np.where(np.isfinite(l_s), f_f, math.nan)


def filter_frequency_exact(geom: FilterGeometry, l_s: float) -> float:
    """Filter frequency from the transcendental shunt-short condition (Hz).

    The lowest root in [0.3 f0, 1.2 f0], bracketed on a 4096-point scan and
    narrowed by ``fits.bracketed_roots`` to a relative width of 1e-12 (see
    ``_filter_frequencies``); raises NoRootFound when the window holds none.
    """
    f_f = _filter_frequencies(geom, np.array([l_s], dtype=float))[0]
    if math.isnan(f_f):
        f0 = geom.f0
        # Every sign change of the pole-free condition on the scan brackets a root.
        raise NoRootFound(
            f"no filter-frequency root in [{0.3 * f0:.4e}, {1.2 * f0:.4e}] Hz",
            diagnostics={"window_hz": (0.3 * f0, 1.2 * f0), "n_scan": _N_SCAN,
                         "n_sign_changes": 0})
    return float(f_f)


def _drive_response(geom: FilterGeometry, l_s, omega: float):
    """Qubit admittance Y_q and inductor current factor I_s / I(0) over an
    ``l_s`` array, and a non-finite mask of each.

    Y_q = i w c_d / (1 + i w c_d Z_node), with Z_node = z_s || i X_in =
    z_s i z0 G / (z_s H + i z0 G) from ``_line_terms``: finite wherever the
    terms are, since G and H never vanish together.  I_s / I(0) = z0 den / H
    is infinite only at H == 0, where X_in is: an open at the node.
    """
    slope, offset, c, e, den = _line_terms(geom, omega)
    y_d = 1j * omega * geom.c_d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, h = 1j * geom.z0 * _condition(slope, offset, l_s), _condition(c, e, l_s)
        y = y_d / (1.0 + y_d * geom.z_source * g / (geom.z_source * h + g))
        factor = geom.z0 * den / h
    return y, factor, ~np.isfinite(y), ~np.isfinite(factor)


def qubit_admittance(geom: FilterGeometry, l_s: float, omega: float) -> complex:
    """Admittance seen by the qubit through the coupling capacitor c_d.

    Y_q = i w c_d / (1 + i w c_d Z_node) with Z_node the source impedance
    in parallel with the stub.  Re Y_q >= 0; it vanishes when omega equals
    the filter frequency (Z_in -> 0), decoupling the qubit from the line.
    """
    if omega <= 0 or omega == math.inf:
        raise ValueError("omega must be positive and finite")
    y, _, bad, _ = _drive_response(geom, l_s, omega)
    if bad:
        raise TangentPole(f"qubit admittance not finite for omega = {omega:.6e}")
    return complex(y)


def _coupling_columns(qubit: QubitLoad, y, y_ref: complex):
    """Coupling figures from the qubit admittances y at the drive frequency.

    gamma_qf = Re Y_q / c_q; t1_ext is its reciprocal (inf at exact
    cancellation) and t1_total folds in the internal loss channel in
    parallel.  The relative Rabi rate rabi_rel is sqrt(gamma_qf / gamma_ref),
    gamma_ref = Re y_ref / c_q at the reference flux, and nan unless
    gamma_ref > 0.
    """
    gamma = np.maximum(np.real(y) / qubit.c_q, 0.0)
    with np.errstate(divide="ignore"):
        t1_ext = np.where(gamma == 0.0, math.inf, 1.0 / gamma)
        t1_total = t1_ext if qubit.t1_internal is None else np.where(
            np.isinf(t1_ext), qubit.t1_internal,
            1.0 / (1.0 / t1_ext + 1.0 / qubit.t1_internal))
    gamma_ref = y_ref.real / qubit.c_q
    rabi = np.sqrt(gamma / gamma_ref) if gamma_ref > 0.0 else np.full(np.shape(gamma), math.nan)
    return gamma, t1_ext, t1_total, rabi


# The float fields of a flux_sweep record, in the column order of the sweep CSV.
SWEEP_FIELDS = ("flux_ratio", "l_j_arr", "f_f", "gamma_qf", "t1_ext", "t1_total",
                "rabi_rel", "i_peak", "margin")

# Error marker of a flux point by its first failing stage (1-4); 5 is no failure.
_STAGE_ERRORS = np.array([None, HalfFluxDivergence.__name__, NoRootFound.__name__,
                          TangentPole.__name__, TangentPole.__name__, None], dtype=object)


def flux_sweep(
    geom: FilterGeometry,
    arr: SquidArray,
    qubit: QubitLoad,
    flux_grid,
    drive_freq: float,
    mode: str = "clamped",
    i_node: float = 2e-7,
    reference_flux: float = 0.0,
) -> np.recarray:
    """Tabulate inductance, filter frequency and coupling over a flux grid.

    Returns one record per flux point: the float64 fields ``SWEEP_FIELDS``
    and an object field ``error``, None or the name of the exception of the
    point's first failing stage: inductance (HalfFluxDivergence, strict
    mode), filter root (NoRootFound), admittance or current factor
    (TangentPole).  Fields before that stage keep their values, the rest are
    nan.  Each field is a column (``sweep.f_f``); iterating the array yields
    rows with the same attributes (``row.f_f``, ``row.error``).  Points are
    independent and deterministic.  The coupling fields are defined in
    ``_coupling_columns``, rabi_rel against the coupling at
    ``reference_flux``.  ``i_node`` is the node drive current for i_peak
    (0.2 uA: about -80 dBm on 50 ohm); margin is 5 i_peak / Ic_sq.
    """
    flux = np.array(list(flux_grid), dtype=float)
    if flux.size == 0:
        raise ValueError("flux_grid must be non-empty")
    omega = 2.0 * math.pi * drive_freq
    if not 0.0 < omega < math.inf:
        raise ValueError("drive_freq must be positive and finite")

    # The reference flux rides as one more row through the inductance and
    # drive kernels; a half-flux or non-finite reference leaves y_ref nan.
    l_all, ic_all, half_all = _inductances(arr, np.append(flux, reference_flux), mode)
    half_all &= mode == "strict"
    y_all, factor_all, y_bad_all, i_bad_all = _drive_response(geom, l_all, omega)
    y_ref = complex(math.nan, 0.0) if half_all[-1] or y_bad_all[-1] else complex(y_all[-1])
    l_j, ic_sq, half, y, factor, y_bad, i_bad = (
        v[:-1] for v in (l_all, ic_all, half_all, y_all, factor_all, y_bad_all, i_bad_all))
    f_f = _filter_frequencies(geom, l_j)
    i_peak = np.abs(i_node * factor)
    stage = np.select([half, np.isnan(f_f), y_bad, i_bad], [1, 2, 3, 4], 5)

    def kept(values, after):
        return np.where(stage > after, values, math.nan)

    coupling = [kept(col, 3) for col in _coupling_columns(qubit, y, y_ref)]
    return np.rec.fromarrays(
        [flux, kept(l_j, 1), kept(f_f, 2), *coupling, kept(i_peak, 4),
         kept(5.0 * i_peak / ic_sq, 4), _STAGE_ERRORS[stage]],
        names=SWEEP_FIELDS + ("error",))
