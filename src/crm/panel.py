"""Joint P&L panel ingestion.

CSV layout: header ``date,<asset1>,...``; one row per period; an optional
``prob`` column carries per-row scenario weights. Panels are stored most
recent first regardless of file order. ISO dates sort as dates, anything else
sorts lexicographically.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = ["JointPanel", "align", "ingest_panel"]

_PROB_COLUMN = "prob"
# rows are parsed about this many cells at a time: one map(float) per row took
# a tenth of ingest on 4,000 x 11 panels
_BATCH = 4096


@dataclass(frozen=True)
class JointPanel:
    """Rectangular per-asset P&L history, most recent row first."""

    dates: tuple
    assets: tuple
    pnl: np.ndarray                 # T x N
    probs: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.pnl.ndim != 2 or self.pnl.shape != (len(self.dates), len(self.assets)):
            raise DataError("panel shape does not match dates/assets")
        if self.probs is not None and self.probs.shape != (len(self.dates),):
            raise DataError("probs must have one entry per row")

    @property
    def periods(self) -> int:
        return self.pnl.shape[0]

    def series(self) -> np.ndarray:
        """Portfolio P&L per period: the row sum over every asset column."""
        return self.pnl.sum(axis=1)

    def column_index(self, name: str) -> int:
        try:
            return self.assets.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}; panel has {list(self.assets)}") from None


def _sort_key(raw: str):
    try:
        return (0, _dt.date.fromisoformat(raw))
    except ValueError:
        return (1, raw)


def _number(cell: str, path, r_no: int, column: str) -> float:
    """A finite float cell, or a DataError naming the file, row and column."""
    cell = cell.strip()
    try:
        val = float(cell)
        if math.isfinite(val):
            return val
        problem = "not a finite number"
    except ValueError:
        problem = "not a number"
    where = f"{path}: row {r_no}, column {column!r}"
    if not cell:
        raise DataError(f"{where} is blank")
    raise DataError(f"{where}: {problem} ({cell!r})")


def align(dates_a, dates_b):
    """Row indices (ia, ib) of the dates both sequences hold, in dates_a's order.

    Dates are matched as strings; each sequence holds a date at most once.
    One dict over dates_b, so O(T_a + T_b).
    """
    row_b = {d: j for j, d in enumerate(dates_b)}
    ia = [i for i, d in enumerate(dates_a) if d in row_b]
    ib = [row_b[dates_a[i]] for i in ia]
    return np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)


def read_text(path, read, newline=None):
    """read(fh) of the UTF-8 file at path (a leading byte-order mark is
    skipped); an unreadable or undecodable file is a DataError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return read(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def read_rows(path) -> list:
    """The CSV rows of the file at path that hold a nonblank cell."""
    return read_text(path, lambda fh: list(filter(_nonblank, csv.reader(fh))), newline="")


def _nonblank(row) -> bool:
    return any(c.strip() for c in row)


def ingest_panel(path) -> JointPanel:
    """Load a CSV panel; see the module docstring for the expected layout.

    One pass parses the cells with float() into one float64 buffer. The first
    fault in file order is reported, and a file that is not UTF-8 before it."""
    def read(fh):
        rows = csv.reader(fh)
        try:
            return _read_body(rows, _header(next(filter(_nonblank, rows), None), path), path)
        except DataError:
            for _ in fh:  # an undecodable byte further on outranks the fault
                pass
            raise

    names, dates, seen, buf = read_text(path, read, newline="")
    order = [seen[k] for k in sorted(seen, reverse=True)]
    del seen  # its keys hold most of the memory
    dates = [dates[i] for i in order]
    mat = np.frombuffer(buf).reshape(len(dates), len(names))[order]
    probs = None
    if _PROB_COLUMN in names:
        prob_idx = names.index(_PROB_COLUMN)
        probs = mat[:, prob_idx]
        mat = np.delete(mat, prob_idx, axis=1)
        names = [n for n in names if n != _PROB_COLUMN]
        if np.any(probs < 0.0):
            raise DataError(f"{path}: negative probability weights")
        total = float(probs.sum())
        if total <= 0.0:
            raise DataError(f"{path}: probability weights sum to zero")
        probs = probs / total
        probs.flags.writeable = False
    mat.flags.writeable = False
    return JointPanel(dates=tuple(dates), assets=tuple(names), pnl=mat, probs=probs)


def _header(row, path) -> list:
    """The asset names in a panel's header row (None: the file has none)."""
    if row is None:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in row]
    if header[0] != "date":
        raise DataError(f"{path}: first header column must be 'date', got {header[:1]}")
    names = header[1:]
    if not names:
        raise DataError(f"{path}: no asset columns")
    column_of = {}
    for col, name in enumerate(header, start=1):
        if not name:
            raise DataError(f"{path}: column {col} has a blank name")
        if name in column_of:
            raise DataError(f"{path}: column {name!r} appears twice "
                            f"(columns {column_of[name]} and {col})")
        column_of[name] = col
    return names


def _read_body(rows, names, path):
    """(names, dates, {sort key: row index}, float64 array of the cells row
    after row) of a panel's data rows. Data row i is row i + 2 in messages:
    the header is row 1, and blank rows do not count."""
    # the loop comes first: tracemalloc finds each allocation's line by
    # walking the function's line table from its start
    width, dates, seen, buf, cells = len(names) + 1, [], {}, array("d"), []
    for row in rows:
        if len(row) != width or not (date := row[0].strip()):
            if not _nonblank(row):
                continue
            _parse(path, names, cells, buf)  # the rows before it first
            if len(row) != width:
                raise DataError(f"{path}: row {len(dates) + 2} has {len(row)} cells, "
                                f"expected {width}")
            raise DataError(f"{path}: row {len(dates) + 2}, column 'date' is blank")
        cells += row
        key = _sort_key(date)
        if key in seen:
            _parse(path, names, cells, buf)
            raise DataError(f"{path}: rows {seen[key] + 2} and {len(dates) + 2} are duplicate "
                            f"dates ({dates[seen[key]]!r}, {date!r})")
        seen[key] = len(dates)
        dates.append(date)
        if len(cells) >= _BATCH:
            _parse(path, names, cells, buf)
    if not dates:
        raise DataError(f"{path}: no data rows")
    _parse(path, names, cells, buf)
    return names, dates, seen, buf


def _parse(path, names, cells, buf) -> None:
    """Move the rows held in cells (each with its date cell first) into buf as
    floats; the first cell that is not a finite number is named by _number."""
    del cells[::len(names) + 1]
    start = len(buf)
    try:
        buf.extend(map(float, cells))
        finite = np.isfinite(np.frombuffer(buf)[start:]).all()
    except ValueError:
        finite = False
    if not finite:
        for i, cell in enumerate(cells):
            _number(cell, path, (start + i) // len(names) + 2, names[i % len(names)])
    cells.clear()
