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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError

__all__ = ["JointPanel", "align", "ingest_panel"]

_PROB_COLUMN = "prob"


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
    rows = read_text(path, lambda fh: list(csv.reader(fh)), newline="")
    return [r for r in rows if r and any(c.strip() for c in r)]


def ingest_panel(path) -> JointPanel:
    """Load a CSV panel; see the module docstring for the expected layout."""
    rows = read_rows(path)
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "date":
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
    prob_idx = names.index(_PROB_COLUMN) if _PROB_COLUMN in names else None
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    dates, keys, data = [], [], []
    seen = {}  # sort key -> (row number, date text)
    for r_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r_no} has {len(row)} cells, expected {len(header)}")
        date = row[0].strip()
        if not date:
            raise DataError(f"{path}: row {r_no}, column 'date' is blank")
        vals = [_number(cell, path, r_no, name) for name, cell in zip(names, row[1:])]
        key = _sort_key(date)
        if key in seen:
            first, text = seen[key]
            raise DataError(f"{path}: rows {first} and {r_no} are duplicate dates "
                            f"({text!r}, {date!r})")
        seen[key] = r_no, date
        dates.append(date)
        keys.append(key)
        data.append(vals)
    order = sorted(range(len(dates)), key=keys.__getitem__, reverse=True)
    dates = [dates[i] for i in order]
    mat = np.asarray(data, dtype=float)[order]
    probs = None
    if prob_idx is not None:
        probs = mat[:, prob_idx]
        mat = np.delete(mat, prob_idx, axis=1)
        names = [n for n in names if n != _PROB_COLUMN]
    if probs is not None:
        if np.any(probs < 0.0):
            raise DataError(f"{path}: negative probability weights")
        total = float(probs.sum())
        if total <= 0.0:
            raise DataError(f"{path}: probability weights sum to zero")
        probs = probs / total
        probs.flags.writeable = False
    mat.flags.writeable = False
    return JointPanel(dates=tuple(dates), assets=tuple(names), pnl=mat, probs=probs)
