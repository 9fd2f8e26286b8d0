"""Helpers shared by several test modules: a Gaussian grid panel and the
reference text of a CLI report."""

import json
import re

import numpy as np

from crm import cli


def gauss_grid_panel(n_per_dim: int, dim: int, chol=None):
    """Deterministic discrete approximation of a centered Gaussian law.

    Tensor grid of per-dimension quantile midpoints with equal product
    weights; an optional Cholesky factor correlates the columns. Exact
    evaluation on this panel approximates Gaussian closed forms to O(1/n^2)
    without Monte Carlo noise.
    """
    from scipy.special import ndtri

    z = ndtri((np.arange(n_per_dim) + 0.5) / n_per_dim)
    grids = np.meshgrid(*([z] * dim), indexing="ij")
    panel = np.column_stack([g.ravel() for g in grids])
    if chol is not None:
        panel = panel @ np.asarray(chol, dtype=float).T
    probs = np.full(panel.shape[0], 1.0 / panel.shape[0])
    return panel, probs


def emit_reference(obj) -> str:
    """The text cli._emit must write for obj, built on json.dumps alone.

    Each innermost row of an integer ndarray is swapped for a unique
    placeholder string, the whole is dumped with indent=2 and sorted keys,
    and each quoted placeholder is then replaced by the row's compact
    json.dumps. The Hypothesis strings are at most 8 characters, and no
    report text holds "<integer row", so a placeholder matches only itself."""
    rows = []

    def mark(o, int_dims=0):
        if isinstance(o, np.ndarray) and o.ndim and o.dtype.kind in "iu":
            return mark(o.tolist(), o.ndim)
        if int_dims == 1:
            rows.append(json.dumps(o, separators=(",", ":")))
            return f"<integer row {len(rows) - 1} of this report>"
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [mark(v, max(int_dims - 1, 0)) for v in o]
        return o

    text = json.dumps(mark(obj), sort_keys=True, indent=2, allow_nan=False,
                      default=cli._plain) + "\n"
    return re.sub(r'"<integer row (\d+) of this report>"', lambda m: rows[int(m[1])],
                  text)
