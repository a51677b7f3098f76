"""File formats, config reading and unit conversion at the tool boundary.

The core library is strict SI; configs and data files use the laboratory
units their keys are annotated with (GHz, ns, us, fF, nH, mm, uA, mK).
``read_config`` checks every JSON config against a key table (the command
tables are in ``fluxline.cli``) and converts units exactly once.  Numeric
output uses shortest-roundtrip formatting so seeded runs are byte-stable.
CSV tables are read a block at a time, each a read finished to its line end;
a labelled table's labels are coded once per file, against one label table.

Formats:

* flux-sweep CSV    header flux_ratio,l_j_arr_H,f_f_Hz,gamma_qf_per_s,
                    t1_ext_s,t1_total_s,rabi_rel,i_peak_A,margin
* reset CSV         header prep,time_s,p_g,p_e,p_f,p_h
* shot CSV          header prep,i,q; preps as codes into a label table
* curve CSV         header x,y[,sigma] when read, x,y when written
* GMM model JSON    {"components": {label: {"mean": [i, q],
                    "cov": [[a, b], [b, c]], "weight": w}}}, the only
                    per-label form of a ``classify.GmmModel``
"""

from __future__ import annotations

import io
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .classify import LABEL_ORDER, AssignmentMatrix, GmmModel
from .dynamics import ResetCurve, ResetDataset
from .network import SWEEP_FIELDS
from .thermometry import KB_OVER_H_CODATA, KB_OVER_H_ROUNDED

GHZ = 1e9
NS = 1e-9
US = 1e-6
MS = 1e-3
FF = 1e-15
NH = 1e-9
MM = 1e-3
UA = 1e-6
MK = 1e-3

RESET_HEADER = "prep,time_s,p_g,p_e,p_f,p_h"
SHOT_HEADER = "prep,i,q"
SWEEP_HEADER = ("flux_ratio,l_j_arr_H,f_f_Hz,gamma_qf_per_s,t1_ext_s,"
                "t1_total_s,rabi_rel,i_peak_A,margin")
# Rows formatted per write; the text of a whole table is never built.
_WRITE_BLOCK_ROWS = 8192
# Bytes of a CSV table read at a time, each read then finished to its line end.
_READ_BLOCK_BYTES = 1 << 20


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:  # a ValueError, as any other unreadable JSON
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# --- configs -------------------------------------------------------------------

_KB_OVER_H = {"rounded": KB_OVER_H_ROUNDED, "codata": KB_OVER_H_CODATA}


def _finite(v) -> bool:
    """A JSON number, not a bool, that a float holds finitely."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _list_of(test, v, size: int | None = None) -> bool:
    """A non-empty JSON list, of ``size`` items if given, whose items all pass ``test``."""
    return type(v) is list and len(v) > 0 and size in (None, len(v)) and all(map(test, v))


# kind: (test of the JSON value, what an error says it must be, conversion).
_KINDS = {
    "number": (_finite, "a finite number", float),
    "positive": (lambda v: _finite(v) and v > 0, "a positive finite number", float),
    "number or null": (lambda v: v is None or _finite(v), "a finite number or null", float),
    # Integers stop at int64's range, past which numpy and float() overflow.
    "count": (lambda v: type(v) is int and 1 <= v < 2**63,
              "an integer from 1 to 2**63 - 1", int),
    "integer": (lambda v: type(v) is int and -2**63 <= v < 2**63,
                "an integer from -2**63 to 2**63 - 1", int),
    "bool": (lambda v: type(v) is bool, "true or false", bool),
    "string": (lambda v: type(v) is str, "a string", str),
    "strings": (lambda v: _list_of(_KINDS["string"][0], v), "a non-empty list of strings", list),
    "numbers": (lambda v: _list_of(_finite, v), "a non-empty list of finite numbers", list),
    "pair": (lambda v: _list_of(_finite, v, 2), "a list of 2 finite numbers", list),
    "2x2": (lambda v: _list_of(_KINDS["pair"][0], v, 2), "a 2x2 list of finite numbers", list),
    "object": (lambda v: type(v) is dict and len(v) > 0, "a non-empty object", dict),
    "kb_over_h": (lambda v: v in _KB_OVER_H if type(v) is str else _finite(v),
                  "'rounded', 'codata' or a finite number",
                  lambda v: _KB_OVER_H[v] if type(v) is str else float(v)),
}


def _choice(names: tuple[str, ...]) -> tuple:
    return names.__contains__, " or ".join(map(repr, names)), str


def read_config(cfg, schema: dict, path: str = "") -> dict:
    """Checked copy of a JSON config section, with defaults filled and units in SI.

    ``schema`` maps each key to ``(kind, default[, SI value of its lab unit])``;
    the kind is a name in ``_KINDS``, a tuple of allowed strings or a nested
    schema.  A key with default ``...`` must be given; one with default None
    reads None when left out.  Errors are ValueErrors naming the key's
    dotted path under ``path``; a key the schema does not list is an error.
    """
    if type(cfg) is not dict:
        raise ValueError(f"{path or 'config'} must be an object, got {cfg!r}")
    prefix = f"{path}." if path else ""
    out = {}
    for key, (kind, default, *unit) in schema.items():
        value = cfg.get(key, default)
        if value is ...:
            raise ValueError(f"config is missing required key {prefix + key!r}")
        if type(kind) is dict:
            value = read_config(value, kind, prefix + key)
        elif key in cfg or value is not None:
            test, what, convert = _KINDS.get(kind) or _choice(kind)
            if not test(value):
                raise ValueError(f"{prefix + key} must be {what}, got {value!r}")
            if value is not None:
                value = convert(value) * unit[0] if unit else convert(value)
        out[key] = value
    for key in cfg:
        if key not in schema:
            raise ValueError(f"config has unknown key {prefix + key!r}")
    return out


# --- CSV formats ----------------------------------------------------------------

def write_flux_sweep_csv(path, sweep: np.recarray) -> None:
    """Write the float fields of a ``network.flux_sweep`` result; ``error`` is not written."""
    table = np.column_stack([sweep[name] for name in SWEEP_FIELDS])
    _write_table(path, SWEEP_HEADER, [(table, None)], labelled=False)


def prep_levels(labels) -> list[int]:
    """Level (1, 2 or 3) of each reset preparation label, the one map from labels
    to the levels that key a ``dynamics.ResetDataset``; an unknown or a
    repeated label raises ValueError."""
    for j, label in enumerate(labels):
        if label not in LABEL_ORDER[1:4]:
            raise ValueError(f"unknown preparation label {label!r}")
        if label in labels[:j]:
            raise ValueError(f"duplicate preparation label {label!r}")
    return [LABEL_ORDER.index(label) for label in labels]


def write_reset_csv(path, data: ResetDataset) -> None:
    curves = sorted(data.curves.items())
    table = np.vstack([np.empty((0, 5))]
                      + [np.column_stack([c.times, c.populations]) for _, c in curves])
    preps = np.repeat(np.array([LABEL_ORDER[k] for k, _ in curves], dtype=object),
                      [c.times.size for _, c in curves])
    _write_table(path, RESET_HEADER, [(table, preps)], labelled=True)


def read_reset_csv(path) -> ResetDataset:
    """Reset curves keyed by ``prep_levels``, in order of first row and by time.

    Rows are checked as in ``_parse_block``.  Populations are not
    range-checked, since readout-corrected data can be slightly negative.
    """
    table, codes, preps = _read_table(path, "reset", (RESET_HEADER,), labelled=True)
    if codes is None:
        raise ValueError("reset CSV: every prep label is empty")
    # Rows grouped by prep code, each group stably sorted by time.
    table = table[np.lexsort((table[:, 0], codes))]
    groups = np.split(table, np.cumsum(np.bincount(codes))[:-1])
    return ResetDataset({level: ResetCurve(rows[:, 0], rows[:, 1:])
                         for level, rows in zip(prep_levels(preps), groups)})


def write_shots_csv(path, xy, codes=None, labels=None) -> None:
    """Write (n, 2) IQ points, labelled ``labels[codes[row]]`` if the codes are given.

    ``xy`` may also be an iterator of (n_i, 2) blocks, such as windows drawn
    one at a time; they are written unlabelled, in turn, one held at a time,
    and giving codes with them is a ``ValueError``.
    """
    if (codes is None) != (labels is None):
        raise ValueError("prep codes and their label table must be given together")
    if isinstance(xy, Iterator):
        if codes is not None:
            raise ValueError("an iterator of blocks is written unlabelled;"
                             " give its points as one array with their codes")
        blocks = ((points, None) for points in xy)
    else:
        blocks = [(xy, None if codes is None else np.array(labels, dtype=object)[codes])]
    _write_table(path, SHOT_HEADER, blocks, labelled=True)


def read_shots_csv(path) -> tuple[np.ndarray, np.ndarray | None, list[str] | None]:
    """(n, 2) IQ points, (n,) prep codes and the label table they index; see ``_read_table``."""
    return _read_table(path, "shot", (SHOT_HEADER,), labelled=True)


def read_shot_blocks(path):
    """Iterator over the (n_i, 2) IQ points of a shot CSV, one block at a time.

    The blocks join to ``read_shots_csv(path)[0]``, checked as it checks
    them; prep labels are checked and coded against the file's one label
    table, then dropped.
    """
    return (values for values, _ in _read_blocks(path, "shot", (SHOT_HEADER,), True, {}))


def write_curve_csv(path, x, y) -> None:
    _write_table(path, "x,y", [(np.column_stack((x, y)), None)], labelled=False)


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """x and y from a curve CSV; a ``sigma`` column is checked, not returned."""
    table, _, _ = _read_table(path, "curve", ("x,y", "x,y,sigma"), labelled=False)
    return table[:, 0], table[:, 1]


def _read_table(path, kind: str, headers: tuple[str, ...], labelled: bool):
    """(n, k) numeric columns of a CSV table under one of ``headers``, and its labels.

    The merge of ``_read_blocks``: labels come as (n,) integer codes and the
    list of distinct labels in order of first appearance in the file, the
    file's one label table, which the codes index; both are None when there
    are no labels or all are empty.
    """
    table = {}
    blocks = list(_read_blocks(path, kind, headers, labelled, table))
    values = np.concatenate([block_values for block_values, _ in blocks])
    if not table.keys() - {b""}:  # unlabelled, or every label empty
        return values, None, None
    return (values, np.concatenate([codes for _, codes in blocks]),
            [key.decode() for key in table])


def _read_blocks(path, kind: str, headers: tuple[str, ...], labelled: bool, table: dict):
    """Iterator over ``_parse_block`` of each block of a CSV table.

    The header must be one of ``headers``.  A block is a read of
    ``_READ_BLOCK_BYTES`` finished to its line end, so it holds whole lines;
    the first bad row and a table with no data rows are ``ValueError``s.
    Every block codes its labels against ``table``, one per file.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\r\n")
        if header not in headers:
            raise ValueError(f"unexpected {kind} CSV header: {header!r}")
        rows, blank, next_line = 0, None, 2
        while block := fh.read(_READ_BLOCK_BYTES) + fh.readline():
            first_line = next_line
            next_line += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
            if block.isspace():
                # Line ends hold no rows.  A line of other blanks is a bad
                # row, unless every line of the table is blank.
                if block.strip(b"\r\n"):
                    blank = blank or (block, first_line)
                if not (rows and blank):
                    continue
            if blank:
                raise ValueError(_bad_row(blank[0], kind, header, labelled, blank[1],
                                          f"{kind} CSV: blank line"))
            parsed = _parse_block(block, kind, header, labelled, first_line, table)
            rows += len(parsed[0])
            yield parsed
    if not rows:
        raise ValueError(f"{kind} CSV holds no data rows")


def _parse_block(body: bytes, kind: str, header: str, labelled: bool, first_line: int,
                 table: dict):
    """(n, k) numeric columns of the rows in ``body``, and their label codes.

    ``body`` holds whole lines of a table under ``header``, from line
    ``first_line`` of its file on.  It is parsed in one ``np.loadtxt`` call.
    Every row must hold the header's fields, all finite numbers but the
    leading label when ``labelled``; the ``ValueError`` names the first row
    that does not.  The labels (the bytes before each row's first comma)
    come as (n,) codes into ``table``, the file's label bytes in order of
    first appearance, to which this block's new labels are added; codes are
    None when not ``labelled``.
    """
    n_fields = header.count(",") + 1
    malformed = f"{kind} CSV: malformed rows"
    try:
        values = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2, comments=None,
                            usecols=tuple(range(labelled, n_fields)))
    except ValueError as exc:
        raise ValueError(_bad_row(body, kind, header, labelled, first_line,
                                  f"{kind} CSV: {exc}")) from None
    raw = np.frombuffer(body, dtype=np.uint8)
    # loadtxt rejects rows with too few fields and ignores extra ones, so
    # with it passing, n_fields - 1 commas per row means exactly n_fields.
    if (np.count_nonzero(raw == ord(",")) != (n_fields - 1) * len(values)
            or not np.isfinite(values).all()):
        raise ValueError(_bad_row(body, kind, header, labelled, first_line, malformed))
    if not labelled:
        return values, None
    # Every label empty, counted on the bytes without a pass over the lines.
    line_ends = raw[:-1] == ord("\n")
    if (raw[0] == ord(",")) + np.count_nonzero(line_ends & (raw[1:] == ord(","))) == len(values):
        return values, np.full(len(values), table.setdefault(b"", len(table)))
    keys = [line.partition(b",")[0] for line in filter(None, body.splitlines())]
    if len(keys) != len(values):
        raise ValueError(_bad_row(body, kind, header, labelled, first_line, malformed))
    for key in dict.fromkeys(keys):
        if key not in table:
            try:
                key.decode()
            except UnicodeDecodeError:
                raise ValueError(_bad_row(body, kind, header, labelled, first_line,
                                          malformed)) from None
            table[key] = len(table)
    return values, np.fromiter(map(table.__getitem__, keys), np.intp, len(keys))


def _bad_row(body: bytes, kind: str, header: str, labelled: bool, first_line: int,
             fallback: str) -> str:
    """Message naming the first malformed line of ``body``, line ``first_line`` of its file.

    Lines are taken as bytes, so a label that is not UTF-8 is named as the
    fault of its own line, not of the block.
    """
    n_fields = header.count(",") + 1
    for line_no, line in enumerate(body.split(b"\n"), start=first_line):
        if line in (b"", b"\r"):
            continue
        fields = line.split(b",")
        where = f"{kind} CSV line {line_no}"
        if len(fields) != n_fields:
            return f"{where}: expected {n_fields} fields ({header}), got {len(fields)}"
        try:
            fields[0].decode()
        except UnicodeDecodeError:
            if labelled:
                return f"{where}: label is not UTF-8"
        try:
            values = [float(v) for v in fields[labelled:]]
        except ValueError:
            return f"{where}: values are not numbers"
        if not all(map(math.isfinite, values)):
            return f"{where}: values must be finite"
    return fallback


def _write_table(path, header: str, blocks, labelled: bool) -> None:
    """Write ``header``, then the rows of each ``(table, labels)`` of ``blocks`` in turn.

    ``table`` is an (n, k) array of floats; a value is the ``repr`` of its
    float, the shortest string that round-trips it.  When ``labelled``, a
    leading text column holds ``labels`` (n strings), or is empty in each
    row when they are None.  Each ``_WRITE_BLOCK_ROWS`` rows are formatted
    with one ``%`` of a repeated row template.  Blocks may be made as they
    are written; if making or writing one fails, a file this call created is
    removed.
    """
    n_values = header.count(",") + 1 - labelled
    # The template's only constant text is commas, so nothing needs a %% escape.
    values = ",".join(["%r"] * n_values) + "\n"
    unlabelled_row, labelled_row = "," * labelled + values, "%s," + values
    created = not Path(path).exists()
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for table, labels in blocks:
                table = np.asarray(table, dtype=float)
                if table.ndim != 2 or table.shape[1] != n_values:
                    raise ValueError(f"expected (n, {n_values}) values, got {table.shape}")
                if labels is not None and len(labels) != len(table):
                    raise ValueError(f"{len(labels)} labels for {len(table)} rows")
                row = unlabelled_row if labels is None else labelled_row
                for start in range(0, len(table), _WRITE_BLOCK_ROWS):
                    block = table[start:start + _WRITE_BLOCK_ROWS]
                    if labels is not None:
                        fields = np.empty((len(block), n_values + 1), dtype=object)
                        fields[:, 0] = labels[start:start + _WRITE_BLOCK_ROWS]
                        fields[:, 1:] = block
                        block = fields
                    fh.write(row * len(block) % tuple(block.ravel().tolist()))
    except BaseException:
        if created:
            Path(path).unlink(missing_ok=True)
        raise


# --- model / matrix JSON --------------------------------------------------------

def model_to_dict(model: GmmModel) -> dict:
    return {"components": {
        lab: {"mean": mean, "cov": cov, "weight": weight}
        for lab, mean, cov, weight in zip(model.labels, model.means.tolist(),
                                          model.covs.tolist(), model.weights.tolist())}}


# One component's keys, in the order of GmmModel's means, covs and weights.
_COMPONENT = {"mean": ("pair", ...), "cov": ("2x2", ...), "weight": ("number", ...)}


def model_from_dict(doc, path: str) -> GmmModel:
    """GmmModel from the model JSON schema; errors name the keys under ``path``."""
    components = read_config(doc, {"components": ("object", ...)}, path)["components"]
    return GmmModel(tuple(components), *zip(*(
        read_config(params, _COMPONENT, f"{path}.components.{lab}").values()
        for lab, params in components.items())))


def matrix_to_dict(matrix: AssignmentMatrix) -> dict:
    return {"row_labels": matrix.row_labels,
            "col_labels": matrix.col_labels,
            "entries": matrix.matrix.tolist()}
