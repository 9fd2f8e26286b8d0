"""Panel ingest: the streaming loader against the row-by-row reference, and
its memory on a large panel.

`ingest_panel` streams the rows into one float64 buffer, parsing and checking
their cells a batch at a time. The reference (`panel_reference.py`) is the
loader it replaced. On every file both must give the same panel bit for bit,
or the same DataError text: the first fault in file order, and an
undecodable byte before any of them.
"""

import datetime as _dt
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crm.errors import DataError
from crm.panel import ingest_panel
from panel_reference import reference_ingest_panel

iso_dates = st.dates(min_value=_dt.date(1999, 12, 25),
                     max_value=_dt.date(2000, 1, 10)).map(_dt.date.isoformat)
# 20000101 is an ISO spelling of 2000-01-01 on Python 3.11 and later
other_dates = st.sampled_from(["2000/1/9", "2000/1/10", "2000/1/11", "20000101", "Q1", "Q2",
                               "x"])
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["-0", "1e-320", "1_000", "+.5", "2.50"]))
weights = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["0.25", "1e-3"]))
padding = st.sampled_from(["", " ", "\t"])

FAULTS = ("non_finite", "text", "duplicate", "blank", "blank_date", "short", "long",
          "header_row", "repeated_name")


def _fault(draw, kind, header, body):
    """Put one fault of `kind` into the header or a random body row."""
    if kind == "repeated_name":
        header.insert(draw(st.integers(1, len(header))), draw(st.sampled_from(header[1:])))
        return
    i = draw(st.integers(0, len(body) - 1))
    row = body[i]
    j = draw(st.integers(1, max(len(row) - 1, 1)))  # a value cell (after a short row: one more)
    if kind == "short":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "long":
        row.append("1.0")
    elif kind == "blank":
        row[j:j + 1] = [draw(padding)]
    elif kind == "non_finite":
        row[j:j + 1] = [draw(st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity",
                                              "1e999"]))]
    elif kind == "text":
        row[j:j + 1] = [draw(st.sampled_from(["oops", "1.5.2", '"1,5"', "0x1p3", "--1"]))]
    elif kind == "blank_date":
        row[0] = draw(padding)
    elif kind == "duplicate":
        row[0] = body[(i + 1) % len(body)][0]
    else:  # the header again, as in two files pasted together
        body.insert(draw(st.integers(0, len(body))), list(header))


def _cell(draw, text: str) -> str:
    if draw(st.integers(0, 4)) == 0:
        return f'"{text}"'
    return draw(padding) + text + draw(padding)


@st.composite
def panel_files(draw):
    """(bytes of a small panel CSV, the faults put into it)."""
    names = [f"A{j}" for j in range(draw(st.integers(1, 3)))]
    prob_at = draw(st.one_of(st.none(), st.integers(0, len(names))))
    if prob_at is not None:
        names.insert(prob_at, "prob")
    dates = draw(st.lists(st.one_of(iso_dates, other_dates), min_size=1, max_size=8,
                          unique=True))
    header = ["date"] + names
    body = [[d] + [draw(weights if n == "prob" else values) for n in names] for d in dates]
    faults = [draw(st.sampled_from(FAULTS)) for _ in range(draw(st.sampled_from([1, 2, 0])))]
    for kind in faults:
        _fault(draw, kind, header, body)
    rows = [[draw(padding) + c + draw(padding) for c in header]]
    rows += [[_cell(draw, c) for c in row] for row in body]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from([[], [""], ["", " "], [" "] * len(header)]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(",".join(row) + newline for row in rows)
    bom = draw(st.sampled_from(["", "\ufeff"]))
    # rarely, a byte that is not UTF-8 after every row
    return (bom + text).encode() + draw(st.sampled_from([b""] * 7 + [b"\xff\n"])), faults


def outcome(load, path):
    """What load(path) gives: the panel's fields as bytes, or the error text."""
    try:
        p = load(path)
    except DataError as exc:
        return "error", str(exc)
    probs = None if p.probs is None else (p.probs.tobytes(), p.probs.flags.writeable)
    return ("panel", p.dates, p.assets, p.pnl.dtype, p.pnl.shape, p.pnl.tobytes(),
            p.pnl.flags.writeable, probs)


@settings(max_examples=600, deadline=None)
@given(panel_files())
def test_streaming_ingest_matches_the_row_by_row_reference(tmp_path_factory, case):
    data, faults = case
    path = tmp_path_factory.getbasetemp() / "panel.csv"
    path.write_bytes(data)
    want = outcome(reference_ingest_panel, path)
    assert outcome(ingest_panel, path) == want
    if not faults and b"\xff" not in data and want[0] == "error":
        # only the prob column can fail a file built without faults
        assert "probability weights" in want[1] or "duplicate dates" in want[1]


@pytest.mark.parametrize("text, message", [
    # a later row's fault is reported before a non-finite cell in an even later row,
    # and a non-finite cell before a later row's fault
    ("date,A,B\n2025-01-01,1,2\n2025-01-02,1\n2025-01-03,nan,1\n",
     "row 3 has 2 cells, expected 3"),
    ("date,A,B\n2025-01-01,1,2\n2025-01-02,1,1e999\n2025-01-03,1\n",
     "row 3, column 'B': not a finite number ('1e999')"),
    ("date,A,B\n2025-01-01,1,2\n2025-01-02, -Inf ,1\n2025-01-01,1,1\n",
     "row 3, column 'A': not a finite number ('-Inf')"),
    ("date,A,B\n2025-01-01,1,2\n\n2025-01-02,nan,oops\n",
     "row 3, column 'A': not a finite number ('nan')"),
    ("date,A,B\n2025-01-01,1,2\n,,\n2025-01-02,2,oops\n2025-01-03,inf,1\n",
     "row 3, column 'B': not a number ('oops')"),
    ("date,A,B\n2025-01-02,1,2\n2025-01-01,1,2\n2025-01-02,3,4\n2025-01-04,nan,1\n",
     "rows 2 and 4 are duplicate dates ('2025-01-02', '2025-01-02')"),
])
def test_the_first_fault_in_file_order_is_reported(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError) as new:
        ingest_panel(path)
    with pytest.raises(DataError) as old:
        reference_ingest_panel(path)
    assert str(new.value) == str(old.value) == f"{path}: {message}"


# 3,000 rows of two cells: the faults lie in different batches of parsed
# cells, and the last rows past the reader's first block of decoded text
@pytest.mark.parametrize("faults, message", [
    ({5: "nan,1"}, "row 7, column 'A': not a finite number ('nan')"),
    ({5: "nan,1", 2500: "1,oops"}, "row 7, column 'A': not a finite number ('nan')"),
    ({5: "1,inf", 2500: "1"}, "row 7, column 'B': not a finite number ('inf')"),
    ({2500: "1,oops", 2900: "1,nan"}, "row 2502, column 'B': not a number ('oops')"),
    ({5: "1,oops", 2999: "1,2\n\xff"}, "not UTF-8 text ("),
])
def test_faults_far_apart_are_reported_in_file_order(tmp_path, faults, message):
    cells = [faults.get(i, f"{i},-{i}") for i in range(3000)]
    path = tmp_path / "t.csv"
    path.write_bytes("date,A,B\n".encode() + "".join(
        f"{_dt.date(2000, 1, 1) + _dt.timedelta(i)},{c}\n"
        for i, c in enumerate(cells)).encode("latin-1"))
    with pytest.raises(DataError) as new:
        ingest_panel(path)
    with pytest.raises(DataError) as old:
        reference_ingest_panel(path)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith(f"{path}: {message}")


def _write_large_panel(path, t):
    """A t x 5 panel of full-precision normal draws, oldest date first, whose
    rows repeat the cells of its first 1,000; its first data row and last date."""
    days = (np.datetime64("1500-01-01") + np.arange(t)).astype(str).tolist()
    vals = np.random.default_rng(0).normal(size=(1000, 5)).tolist()
    cells = [",".join(map(repr, row)) for row in vals]
    path.write_text("date,A,B,C,D,E\n" + "".join(
        [f"{d},{cells[i % 1000]}\n" for i, d in enumerate(days)]))
    return vals[0], days[-1]


def test_ingest_memory_is_bounded_on_a_large_panel(tmp_path):
    # 200,000 x 5 cells are 8 MB as float64 and 21.8 MB of CSV; the row-by-row
    # loader peaked at 219 MB here
    path, t = tmp_path / "big.csv", 200_000
    first_row, last_date = _write_large_panel(path, t)
    tracemalloc.start()
    try:
        panel = ingest_panel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.pnl.shape == (t, 5) and panel.dates[0] == last_date
    assert panel.pnl[-1].tolist() == first_row
    assert peak < 64e6, f"ingest peak {peak / 1e6:.1f} MB"
