"""The row-by-row panel loader that `crm.panel.ingest_panel` replaced, kept as
the slow reference of the differential test in `test_panel.py`.

It reads the whole file into a list of rows, parses every cell with
`_number` and stacks the rows with numpy. The streaming loader must give the
same panel bit for bit, or raise the same DataError text.
"""

import numpy as np

from crm.errors import DataError
from crm.panel import _PROB_COLUMN, JointPanel, _number, _sort_key, read_rows


def reference_ingest_panel(path) -> JointPanel:
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
