"""File formats and unit conversion at the tool boundary.

The core library is strict SI; configs and data files use the laboratory
units their keys are annotated with (GHz, ns, us, fF, nH, mm, uA, mK) and
are converted exactly once here.  All numeric output is written with
full-precision shortest-roundtrip formatting so seeded pipelines are
byte-stable.

Formats:

* flux-sweep CSV    header flux_ratio,l_j_arr_H,f_f_Hz,gamma_qf_per_s,
                    t1_ext_s,t1_total_s,rabi_rel,i_peak_A,margin
* reset CSV         header prep,time_s,p_g,p_e,p_f,p_h
* shot CSV          header prep,i,q (prep may be empty)
* curve CSV         header x,y[,sigma]
* ladder JSON       {"f_ge_ghz": ..., "f_ef_ghz": ..., "f_fh_ghz": ...}
* GMM model JSON    {"components": {label: {"mean": [i, q],
                    "cov": [[a, b], [b, c]], "weight": w}}}
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .classify import AssignmentMatrix, GmmComponent, GmmModel
from .dynamics import DecayRates, ResetCurve, ResetDataset
from .network import FilterGeometry, FluxSweepRow, QubitLoad, SquidArray
from .thermometry import KB_OVER_H_CODATA, KB_OVER_H_ROUNDED, LevelLadder

GHZ = 1e9
NS = 1e-9
US = 1e-6
MS = 1e-3
FF = 1e-15
NH = 1e-9
MM = 1e-3
UA = 1e-6
MK = 1e-3

RESET_FIELDS = ["prep", "time_s", "p_g", "p_e", "p_f", "p_h"]
SWEEP_HEADER = ("flux_ratio,l_j_arr_H,f_f_Hz,gamma_qf_per_s,t1_ext_s,"
                "t1_total_s,rabi_rel,i_peak_A,margin")


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(x))


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# --- network configs -----------------------------------------------------------

def geometry_from_config(cfg: dict) -> FilterGeometry:
    return FilterGeometry(
        z0=float(cfg["z0_ohm"]),
        v_p=float(cfg["v_p_m_per_s"]),
        l_f=float(cfg["l_f_mm"]) * MM,
        x_s=float(cfg["x_s_mm"]) * MM,
        c_g=float(cfg.get("c_g_fF", 0.0)) * FF,
        c_d=float(cfg.get("c_d_fF", 0.0)) * FF,
        z_source=float(cfg.get("z_source_ohm", 50.0)),
    )


def squid_array_from_config(cfg: dict) -> SquidArray:
    return SquidArray(
        n_squids=int(cfg["n_squids"]),
        ic_junction=float(cfg["ic_junction_uA"]) * UA,
        l_fixed_per_squid=float(cfg.get("l_fixed_per_squid_nH", 0.0)) * NH,
        clamp_epsilon=float(cfg.get("clamp_epsilon", 1e-3)),
    )


def qubit_from_config(cfg: dict) -> QubitLoad:
    t1 = cfg.get("t1_internal_ms")
    return QubitLoad(
        f_q=float(cfg["f_q_GHz"]) * GHZ,
        c_q=float(cfg.get("c_q_fF", 143.0)) * FF,
        t1_internal=None if t1 is None else float(t1) * MS,
    )


def ladder_from_config(cfg: dict) -> LevelLadder:
    constant = cfg.get("kb_over_h", "rounded")
    if constant == "rounded":
        kb = KB_OVER_H_ROUNDED
    elif constant == "codata":
        kb = KB_OVER_H_CODATA
    else:
        kb = float(constant)
    return LevelLadder(
        f_ge_ghz=float(cfg["f_ge_ghz"]),
        f_ef_ghz=float(cfg["f_ef_ghz"]),
        f_fh_ghz=float(cfg["f_fh_ghz"]),
        kb_over_h_ghz_per_k=kb,
    )


def rates_from_config(cfg: dict) -> DecayRates:
    return DecayRates.from_t1(
        float(cfg["t1_ge_ns"]) * NS,
        float(cfg["t1_ef_ns"]) * NS,
        float(cfg["t1_fh_ns"]) * NS,
    )


# --- CSV formats ----------------------------------------------------------------

def write_flux_sweep_csv(path, rows: list[FluxSweepRow]) -> None:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join(fmt(v) for v in (
            r.flux_ratio, r.l_j_arr, r.f_f, r.gamma_qf, r.t1_ext,
            r.t1_total, r.rabi_rel, r.i_peak, r.margin)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_reset_csv(path, data: ResetDataset) -> None:
    lines = [",".join(RESET_FIELDS)]
    for prep in sorted(data.curves):
        curve = data.curves[prep]
        for t, p in zip(curve.times, curve.populations):
            lines.append(",".join([prep] + [fmt(v) for v in (t, *p)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_reset_csv(path) -> ResetDataset:
    """Reset curves from a ``prep,time_s,p_g,p_e,p_f,p_h`` CSV.

    Every data row must hold exactly six fields with finite numbers after
    the prep label; the first row that does not is named in the
    ``ValueError``.  Populations are not range-checked, since
    readout-corrected data can be slightly negative.
    """
    rows: dict[str, list[list[float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESET_FIELDS:
            raise ValueError(f"unexpected reset CSV header: {header}")
        for rec in reader:
            if not rec:
                continue
            where = f"reset CSV line {reader.line_num}"
            if len(rec) != len(RESET_FIELDS):
                raise ValueError(f"{where}: expected {len(RESET_FIELDS)} fields "
                                 f"({','.join(RESET_FIELDS)}), got {len(rec)}")
            try:
                values = [float(v) for v in rec[1:]]
            except ValueError:
                raise ValueError(f"{where}: values are not numbers") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{where}: values must be finite")
            rows.setdefault(rec[0], []).append(values)
    if not rows:
        raise ValueError("reset CSV holds no data rows")
    curves = {}
    for prep, entries in rows.items():
        table = np.array(entries)
        table = table[np.argsort(table[:, 0], kind="stable")]
        curves[prep] = ResetCurve(table[:, 0], table[:, 1:])
    return ResetDataset(curves)


def write_shots_csv(path, xy: np.ndarray, prep_labels=None) -> None:
    lines = ["prep,i,q"]
    for k, (i, q) in enumerate(np.asarray(xy, dtype=float)):
        prep = "" if prep_labels is None else str(prep_labels[k])
        lines.append(f"{prep},{fmt(i)},{fmt(q)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_shots_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(n, 2) IQ points and prep labels, or None when every prep is empty.

    The body is parsed in one ``np.loadtxt`` call.  Every data row must
    hold exactly the three fields ``prep,i,q`` with finite IQ values; the
    first row that does not is named in the ``ValueError``.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\r\n")
        body = fh.read()
    if header != "prep,i,q":
        raise ValueError(f"unexpected shot CSV header: {header!r}")
    if not body.strip():
        raise ValueError("shot CSV holds no data rows")
    try:
        xy = np.loadtxt(io.BytesIO(body), delimiter=",", usecols=(1, 2),
                        ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(_bad_shot_row(body, f"shot CSV: {exc}")) from None
    raw = np.frombuffer(body, dtype=np.uint8)
    # loadtxt rejects rows with fewer than three fields and ignores extra
    # ones, so with it passing, two commas per row means exactly three.
    if np.count_nonzero(raw == ord(",")) != 2 * xy.shape[0] or not np.isfinite(xy).all():
        raise ValueError(_bad_shot_row(body, "shot CSV: malformed rows"))
    line_starts = np.flatnonzero(raw[:-1] == ord("\n")) + 1
    empty_preps = (raw[0] == ord(",")) + np.count_nonzero(raw[line_starts] == ord(","))
    if empty_preps == xy.shape[0]:
        return xy, None
    labels = [line.partition(",")[0]
              for line in body.decode().split("\n") if line not in ("", "\r")]
    return xy, np.array(labels, dtype=object)


def _bad_shot_row(body: bytes, fallback: str) -> str:
    """Message naming the first malformed data line of a shot CSV body."""
    for line_no, line in enumerate(body.decode().split("\n"), start=2):
        if line in ("", "\r"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            return (f"shot CSV line {line_no}: expected 3 fields (prep,i,q), "
                    f"got {len(fields)}")
        try:
            iq = (float(fields[1]), float(fields[2]))
        except ValueError:
            return f"shot CSV line {line_no}: IQ values are not numbers"
        if not all(math.isfinite(v) for v in iq):
            return f"shot CSV line {line_no}: IQ values must be finite"
    return fallback


def write_curve_csv(path, x, y, sigma=None) -> None:
    header = "x,y,sigma" if sigma is not None else "x,y"
    lines = [header]
    for k in range(len(x)):
        row = [fmt(x[k]), fmt(y[k])]
        if sigma is not None:
            row.append(fmt(sigma[k]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames not in (["x", "y"], ["x", "y", "sigma"]):
            raise ValueError(f"unexpected curve CSV header: {reader.fieldnames}")
        has_sigma = reader.fieldnames == ["x", "y", "sigma"]
        x, y, s = [], [], []
        for rec in reader:
            x.append(float(rec["x"]))
            y.append(float(rec["y"]))
            if has_sigma:
                s.append(float(rec["sigma"]))
    if not x:
        raise ValueError("curve CSV holds no data rows")
    return np.array(x), np.array(y), (np.array(s) if has_sigma else None)


# --- model / matrix JSON --------------------------------------------------------

def model_to_dict(model: GmmModel) -> dict:
    return {"components": {
        lab: {"mean": comp.mean.tolist(),
              "cov": comp.cov.tolist(),
              "weight": comp.weight}
        for lab, comp in model.components.items()}}


def model_from_dict(doc: dict) -> GmmModel:
    return GmmModel({
        lab: GmmComponent(np.array(params["mean"], dtype=float),
                          np.array(params["cov"], dtype=float),
                          float(params["weight"]))
        for lab, params in doc["components"].items()})


def matrix_to_dict(matrix: AssignmentMatrix) -> dict:
    return {"row_labels": matrix.row_labels,
            "col_labels": matrix.col_labels,
            "entries": matrix.matrix.tolist()}
