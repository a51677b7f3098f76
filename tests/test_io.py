"""Tests of the block CSV reader and writer: each table read in line-aligned
blocks matches the whole-body reader it replaced, and each table written
with one row template per block matches the per-value writer it replaced;
both are kept below as the references."""

import json
import math
import warnings
from io import BytesIO
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fluxline import classify as cl
from fluxline import dynamics as dyn
from fluxline import io as fio
from fluxline import network as nw
from fluxline.cli import main

from conftest import LADDER_A, make_ring_model


# --- the whole-body reader, as it was before the block reader ------------------

def reference_read_table(path, kind: str, headers: tuple[str, ...], labelled: bool):
    """(n, k) numeric columns of a CSV table under one of ``headers``, and its labels.

    The body is parsed in one ``np.loadtxt`` call.  Every row must hold the
    header's fields, all finite numbers but the leading label when
    ``labelled``; the ``ValueError`` names the first row that does not.
    The labels come as (n,) integer codes and the list of distinct labels
    in order of first appearance, which the codes index; both are None
    when there are no labels or all are empty (counted on the bytes).
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\r\n")
        body = fh.read()
    if header not in headers:
        raise ValueError(f"unexpected {kind} CSV header: {header!r}")
    if not body or body.isspace():
        raise ValueError(f"{kind} CSV holds no data rows")
    n_fields = header.count(",") + 1
    try:
        values = np.loadtxt(BytesIO(body), delimiter=",", ndmin=2, comments=None,
                            usecols=tuple(range(labelled, n_fields)))
    except ValueError as exc:
        raise ValueError(reference_bad_row(body, kind, header, labelled,
                                           f"{kind} CSV: {exc}")) from None
    raw = np.frombuffer(body, dtype=np.uint8)
    # loadtxt rejects rows with too few fields and ignores extra ones, so
    # with it passing, n_fields - 1 commas per row means exactly n_fields.
    if (np.count_nonzero(raw == ord(",")) != (n_fields - 1) * values.shape[0]
            or not np.isfinite(values).all()):
        raise ValueError(reference_bad_row(body, kind, header, labelled,
                                           f"{kind} CSV: malformed rows"))
    if not labelled:
        return values, None, None
    line_starts = np.flatnonzero(raw[:-1] == ord("\n")) + 1
    empty_labels = (raw[0] == ord(",")) + np.count_nonzero(raw[line_starts] == ord(","))
    if empty_labels == values.shape[0]:
        return values, None, None
    # A row's label runs from its line start to its first comma, which is
    # every (n_fields - 1)-th comma of the body.
    line_starts = np.concatenate([[0], line_starts])
    ends = np.flatnonzero(raw == ord(","))[::n_fields - 1]
    starts = line_starts[np.searchsorted(line_starts, ends, side="right") - 1]
    # Distinct labels as distinct byte strings, each with its comma so that
    # none is empty.  Rows are compared among those of one label length, so
    # a long label pads no other row's key.
    sizes = ends - starts + 1
    group, first = np.empty(ends.size, dtype=np.intp), []
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        keys = raw[starts[rows, None] + np.arange(size)].view(np.dtype((np.void, size)))
        _, first_rows, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        group[rows] = len(first) + inverse
        first.extend(rows[first_rows].tolist())
    order = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.arange(order.size)
    labels = []
    for row in sorted(first):
        try:
            labels.append(body[starts[row]:ends[row]].decode())
        except UnicodeDecodeError:
            line_no = 2 + np.searchsorted(line_starts, starts[row])
            raise ValueError(f"{kind} CSV line {line_no}: label is not UTF-8") from None
    return values, codes[group], labels


def reference_bad_row(body: bytes, kind: str, header: str, labelled: bool, fallback: str) -> str:
    """Message naming the first malformed data line of a CSV table body."""
    n_fields = header.count(",") + 1
    for line_no, line in enumerate(body.decode().split("\n"), start=2):
        if line in ("", "\r"):
            continue
        fields = line.split(",")
        where = f"{kind} CSV line {line_no}"
        if len(fields) != n_fields:
            return f"{where}: expected {n_fields} fields ({header}), got {len(fields)}"
        try:
            values = [float(v) for v in fields[labelled:]]
        except ValueError:
            return f"{where}: values are not numbers"
        if not all(map(math.isfinite, values)):
            return f"{where}: values must be finite"
    return fallback


# --- the block reader against it ------------------------------------------------

SHOT = ("shot", (fio.SHOT_HEADER,), True)
RESET = ("reset", (fio.RESET_HEADER,), True)
CURVE = ("curve", ("x,y", "x,y,sigma"), False)


def outcome(read, path, table):
    """A reader's (shape, value bytes, codes, labels) for a table, or its error message."""
    try:
        values, codes, labels = read(path, *table)
    except ValueError as exc:
        return str(exc)
    return values.shape, values.tobytes(), None if codes is None else codes.tolist(), labels


def check_every_block_size(tmp_path, monkeypatch, body, table=SHOT, header=b"prep,i,q",
                           sizes=None):
    """The block reader's outcome at each block size equals the reference's; returns it.

    A loadtxt warning (as on a block of blank lines) fails the check.
    """
    path = tmp_path / "t.csv"
    path.write_bytes(header + b"\n" + body)
    want = outcome(reference_read_table, path, table)
    for size in sizes or range(1, len(body) + 2):
        monkeypatch.setattr(fio, "_READ_BLOCK_BYTES", size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(fio._read_table, path, table) == want, size
            if table is SHOT and not isinstance(want, str):
                blocks = list(fio.read_shot_blocks(path))
                assert np.concatenate(blocks).tobytes() == want[1]
    return want


class TestBlockReader:
    def test_crlf_split_across_a_block_edge(self, tmp_path, monkeypatch):
        body = b"g,1,2\r\ne,3,4\r\nf,5,6\r\n"
        # Block size 6 ends the first read between the first \r and \n.
        assert body[5:7] == b"\r\n"
        shape, _, codes, labels = check_every_block_size(tmp_path, monkeypatch, body)
        assert shape == (3, 2) and codes == [0, 1, 2] and labels == ["g", "e", "f"]

    @pytest.mark.filterwarnings("error")
    def test_block_of_blank_lines_only(self, tmp_path, monkeypatch):
        body = b"g,1,2\n" + b"\n" * 9 + b"\r\n" * 4 + b"e,3,4\n\n\n"
        shape, _, codes, _ = check_every_block_size(tmp_path, monkeypatch, body)
        assert shape == (2, 2) and codes == [0, 1]

    @pytest.mark.parametrize("body, message", [
        (b"g,1,2\ne,3,4\nf,5,6\nh,nan,8\nk+,9,10\n", "shot CSV line 5: values must be finite"),
        (b"g,1,2\n\r\n\ne,3,4\nf,5\n", "shot CSV line 6: expected 3 fields (prep,i,q), got 2"),
        (b"g,1,2\ne,3,4\n \nf,5,6\n", "shot CSV line 4: expected 3 fields (prep,i,q), got 1"),
        (b"\n \n\t\ng,1,2\n", "shot CSV line 3: expected 3 fields (prep,i,q), got 1"),
        (b"g,1,2\ne,3,4\n  \n\n", "shot CSV line 4: expected 3 fields (prep,i,q), got 1"),
        (b" \n\t\x0b\x0c\n\r\n", "shot CSV holds no data rows"),
    ])
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, body,
                                                     message):
        assert check_every_block_size(tmp_path, monkeypatch, body) == message

    def test_last_row_without_a_line_end(self, tmp_path, monkeypatch):
        body = b"g,1,2\ne,3,4\r\nf,5.5,-6e-300"
        shape, data, _, labels = check_every_block_size(tmp_path, monkeypatch, body)
        assert shape == (3, 2) and labels == ["g", "e", "f"]
        assert np.frombuffer(data).tolist() == [1, 2, 3, 4, 5.5, -6e-300]

    @pytest.mark.parametrize("body, codes, labels", [
        (b",1,2\n,3,4\ng,5,6\ne,7,8\ng,9,10\n", [0, 0, 1, 2, 1], ["", "g", "e"]),
        (b"h,1,2\nh,3,4\n,5,6\nh,7,8\nf,9,10\n", [0, 0, 1, 0, 2], ["h", "", "f"]),
        (b",1,2\n,3,4\n\n,5,6\n", None, None),
    ])
    def test_label_first_seen_in_a_later_block(self, tmp_path, monkeypatch, body, codes,
                                               labels):
        got = check_every_block_size(tmp_path, monkeypatch, body)
        assert got[2:] == (codes, labels)

    def test_reset_and_curve_tables(self, tmp_path, monkeypatch):
        reset = b"h,2.0,0,0,0,1\ne,3.0,0,1,0,0\nh,1.0,1,0,0,0\n\ne,0.5,0,0,1,0\n"
        got = check_every_block_size(tmp_path, monkeypatch, reset, RESET,
                                     fio.RESET_HEADER.encode())
        assert got[2:] == ([0, 1, 0, 1], ["h", "e"])
        curve = b"0.0,1.0,0.125\n1e-05,0.5,-0.0\r\n2,3,4"
        got = check_every_block_size(tmp_path, monkeypatch, curve, CURVE, b"x,y,sigma")
        assert got[0] == (3, 3) and got[2:] == (None, None)
        x, y = fio.read_curve_csv(tmp_path / "t.csv")
        assert x.tolist() == [0.0, 1e-05, 2.0] and y.tolist() == [1.0, 0.5, 3.0]

    @pytest.mark.parametrize("body, table, message", [
        (b"\xe9t\xe9,1,2\ng,nan,3\n", SHOT, "shot CSV line 2: label is not UTF-8"),
        (b"g,nan,3\n\xe9t\xe9,1,2\n", SHOT, "shot CSV line 2: values must be finite"),
        (b"0,1\n1,\xe92\n2,nan\n", CURVE, "curve CSV line 3: values are not numbers"),
    ])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, monkeypatch, body, table,
                                                     message):
        """Not UTF-8 with a bad row in the same block once ended with the codec's message."""
        path = tmp_path / "t.csv"
        path.write_bytes(table[1][0].encode() + b"\n" + body)
        for size in range(1, len(body) + 2):
            monkeypatch.setattr(fio, "_READ_BLOCK_BYTES", size)
            with pytest.raises(ValueError) as info:
                fio._read_table(path, *table)
            assert str(info.value) == message, size

    @given(rows=st.lists(st.tuples(
               st.sampled_from(["", "g", "e", "k+", "État", "ee", " e", "e "]),
               st.floats(allow_nan=False, allow_infinity=False),
               st.floats(allow_nan=False, allow_infinity=False),
               st.sampled_from(["", "", "", "\n", "\r\n", " \n", ",nan,1\n", ",1\n"])),
               max_size=12),
           crlf=st.booleans(), final_newline=st.booleans(), size=st.integers(1, 64))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_table_matches_the_reference(self, tmp_path, monkeypatch, rows, crlf,
                                             final_newline, size):
        """Rows with blank, blank-looking and bad lines after them, at any block size."""
        end = "\r\n" if crlf else "\n"
        text = end.join(f"{lab},{i!r},{q!r}{extra}" for lab, i, q, extra in rows)
        body = (text + (end if final_newline else "")).encode()
        check_every_block_size(tmp_path, monkeypatch, body, sizes=[size])


# --- the per-value writer, as it was before the row template ------------------

def reference_write_table(path, header: str, blocks) -> None:
    """Write ``header``, then the rows of each ``(columns, labels)`` of ``blocks`` in turn.

    ``columns`` are equal-length float columns; a value is the ``repr`` of
    its float, the shortest string that round-trips it.  ``labels`` (an
    iterable, one per row, or None) is a leading text column.  Blocks may be
    made as they are written; if making or writing one fails, a file this
    call created is removed.
    """
    created = not Path(path).exists()
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for columns, labels in blocks:
                columns = [np.asarray(c, dtype=float) for c in columns]
                labels = None if labels is None else iter(labels)
                for start in range(0, len(columns[0]), fio._WRITE_BLOCK_ROWS):
                    fields = [map(repr, c[start:start + fio._WRITE_BLOCK_ROWS].tolist())
                              for c in columns]
                    if labels is not None:
                        fields.insert(0, map(str, islice(labels, fio._WRITE_BLOCK_ROWS)))
                    fh.write("\n".join(map(",".join, zip(*fields, strict=True))))
                    fh.write("\n")
    except BaseException:
        if created:
            Path(path).unlink(missing_ok=True)
        raise


# --- the template writer against it ---------------------------------------------

AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1]
values = st.one_of(st.sampled_from(AWKWARD), st.floats())
# Labels with % and non-ASCII text; none holds a comma or a line end.
LABELS = ["", "g", "k+", "50%", "%s", "%r%%", "État", "温度"]


def table_of(data, n_rows: int, n_columns: int) -> np.ndarray:
    return np.array(data.draw(st.lists(values, min_size=n_rows * n_columns,
                                       max_size=n_rows * n_columns)),
                    dtype=float).reshape(n_rows, n_columns)


def same_bytes(tmp_path, write, reference_blocks, header) -> bytes:
    """The bytes ``write(path)`` leaves, checked equal to the reference writer's."""
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    reference_write_table(want, header, reference_blocks)
    write(got)
    assert got.read_bytes() == want.read_bytes()
    return got.read_bytes()


class TestWriterMatchesPerValueReference:
    @given(data=st.data(), n=st.integers(0, 12), block_rows=st.integers(1, 5))
    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_table(self, tmp_path, monkeypatch, data, n, block_rows):
        """Shot, reset, sweep and curve tables, across block edges."""
        monkeypatch.setattr(fio, "_WRITE_BLOCK_ROWS", block_rows)
        xy = table_of(data, n, 2)
        same_bytes(tmp_path, lambda p: fio.write_shots_csv(p, xy),
                   [(xy.T, repeat("", n))], fio.SHOT_HEADER)

        # The empty label is always in the table: it writes a row that starts with a comma.
        labels = ["", *data.draw(st.lists(st.sampled_from(LABELS[1:]), unique=True))]
        codes = np.array(data.draw(st.lists(st.integers(0, len(labels) - 1),
                                            min_size=n, max_size=n)), dtype=int)
        same_bytes(tmp_path, lambda p: fio.write_shots_csv(p, xy, codes, labels),
                   [(xy.T, map(labels.__getitem__, codes.tolist()))], fio.SHOT_HEADER)

        windows = [table_of(data, size, 2) for size in
                   data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))]
        same_bytes(tmp_path, lambda p: fio.write_shots_csv(p, iter(windows)),
                   [(w.T, repeat("", len(w))) for w in windows], fio.SHOT_HEADER)

        curves = {}
        for level in data.draw(st.lists(st.sampled_from([1, 2, 3]), unique=True)):
            times = sorted(data.draw(st.lists(st.floats(allow_nan=False), min_size=1,
                                              max_size=6, unique=True)))
            curves[level] = dyn.ResetCurve(np.array(times), table_of(data, len(times), 4))
        reset = dyn.ResetDataset(curves)
        ordered = [(cl.LABEL_ORDER[level], curves[level]) for level in sorted(curves)]
        same_bytes(tmp_path, lambda p: fio.write_reset_csv(p, reset), [(
            np.vstack([np.empty((0, 5))] + [np.column_stack([c.times, c.populations])
                                            for _, c in ordered]).T,
            chain.from_iterable(repeat(prep, c.times.size) for prep, c in ordered))],
            fio.RESET_HEADER)

        sweep_table = table_of(data, n, len(nw.SWEEP_FIELDS))
        # The error markers are not written.
        markers = data.draw(st.lists(st.sampled_from([None, "NoRootFound", "TangentPole"]),
                                     min_size=n, max_size=n))
        sweep = np.rec.fromarrays([*sweep_table.T, np.array(markers, dtype=object)],
                                  names=nw.SWEEP_FIELDS + ("error",))
        same_bytes(tmp_path, lambda p: fio.write_flux_sweep_csv(p, sweep),
                   [([sweep[name] for name in nw.SWEEP_FIELDS], None)], fio.SWEEP_HEADER)

        x, y = xy[:, 0], xy[:, 1]
        same_bytes(tmp_path, lambda p: fio.write_curve_csv(p, x, y), [((x, y), None)], "x,y")

    def test_percent_and_non_ascii_labels(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fio, "_WRITE_BLOCK_ROWS", 2)
        xy = np.array(AWKWARD).reshape(4, 2)
        codes = [5, 4, 3, 6]
        text = same_bytes(tmp_path, lambda p: fio.write_shots_csv(p, xy, codes, LABELS),
                          [(xy.T, map(LABELS.__getitem__, codes))], fio.SHOT_HEADER)
        assert text.decode() == ("prep,i,q\n%r%%,nan,inf\n%s,-inf,-0.0\n"
                                 "50%,5e-324,1e+16\nÉtat,1e-05,0.1\n")

    @pytest.mark.parametrize("n_codes", [4, 6])
    def test_label_count_must_match_row_count(self, tmp_path, n_codes):
        xy = np.zeros((5, 2))
        with pytest.raises(ValueError, match=f"^{n_codes} labels for 5 rows$"):
            fio.write_shots_csv(tmp_path / "s.csv", xy, [0] * n_codes, ["g"])
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2)])
    def test_points_must_be_n_by_2(self, tmp_path, shape):
        """An (n, 3) array was once written as rows of 4 fields under prep,i,q."""
        with pytest.raises(ValueError, match=r"^expected \(n, 2\) values"):
            fio.write_shots_csv(tmp_path / "s.csv", np.zeros(shape))
        assert not (tmp_path / "s.csv").exists()

    def test_labelled_iterator_of_blocks_raises(self, tmp_path):
        """Codes given with blocks drawn one at a time were once dropped unsaid."""
        blocks = iter([np.zeros((2, 2)), np.ones((3, 2))])
        with pytest.raises(ValueError, match="written unlabelled"):
            fio.write_shots_csv(tmp_path / "s.csv", blocks, [0] * 5, ["g"])
        assert not (tmp_path / "s.csv").exists()


def test_numpy_scalars_dump_as_their_python_values(tmp_path):
    # A numpy scalar takes the rule of the Python value it holds: non-finite
    # floats are written as strings, as Python's are.
    doc = {"flag": np.bool_(True), "n": np.int64(3), "x": np.float64(0.5),
           "inf": np.float64(math.inf), "nan": np.float32(math.nan), "py": -math.inf}
    fio.dump_json(doc, tmp_path / "d.json")
    assert json.loads((tmp_path / "d.json").read_text()) == {
        "flag": True, "n": 3, "x": 0.5, "inf": "inf", "nan": "nan", "py": "-inf"}


# --- the commands that read through it ------------------------------------------

def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["classify", "fit-temp"])
def test_label_not_utf8_in_a_later_block_exit_1(tmp_path, monkeypatch, capsys, command):
    data = tmp_path / "shots.csv"
    model = write_json(tmp_path / "model.json", fio.model_to_dict(make_ring_model()))
    cfg = {"shots_csv": str(data), "model_json": model}
    if command == "fit-temp":
        cfg.update(ladder=LADDER_A, window=1, t_shot_us=34.2)
    monkeypatch.setattr(fio, "_READ_BLOCK_BYTES", 8)
    for body, line in [(b"g,0.5,1.5\ne,1,2\n\n\xe9t\xe9,0.5,1.5\ng,3,4\n", 5),
                       (b"g,0.5,1.5\r\n\r\ne,1,2\r\n\r\n\xe9t\xe9,0.5,1.5\r\ng,3,4\r\n", 6)]:
        data.write_bytes(b"prep,i,q\n" + body)
        assert main([command, "--config", write_json(tmp_path / "cfg.json", cfg),
                     "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == f"error: shot CSV line {line}: label is not UTF-8\n"


def test_fit_temp_ignores_a_trailing_partial_window(tmp_path, monkeypatch):
    """The same JSON from tiny blocks as from one block, with 2 shots past the windows."""
    xy, _ = cl.sample_from_model(make_ring_model(), 10, seed=8)
    fio.write_shots_csv(tmp_path / "shots.csv", xy[:47])
    model = write_json(tmp_path / "model.json", fio.model_to_dict(make_ring_model()))
    cfg = write_json(tmp_path / "cfg.json", {
        "shots_csv": str(tmp_path / "shots.csv"), "model_json": model,
        "ladder": LADDER_A, "window": 15, "t_shot_us": 34.2})
    outputs = []
    for size in (1 << 20, 40, 7):
        monkeypatch.setattr(fio, "_READ_BLOCK_BYTES", size)
        assert main(["fit-temp", "--config", cfg, "--out", str(tmp_path / "t.json")]) == 0
        outputs.append((tmp_path / "t.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["n_win"] == 3
