"""Monte Carlo estimators over drawn realization matrices.

A trial is one row of a (K, alpha) matrix of drawn P&L realizations. The
order-statistics estimators pick the beta smallest draws per trial (alpha V@R
is the beta = 1 member); contribution estimators rank by the reference
portfolio's draws and read off the trade's values. Every estimator ends in
``selected_mean``, whose final reduction uses exactly rounded summation, so
results are invariant under trial reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .contribution import _aligned, extreme_measure
from .distortion import WeightingMeasure
from .scenario import _exact_dot

__all__ = ["MCEstimate", "selected_mean", "alpha_var_mc", "beta_var_mc",
           "alpha_contribution_mc", "beta_contribution_mc",
           "weighted_contribution_empirical"]


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with the standard error of the trial mean."""

    value: float
    std_error: float
    trials: int


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("draw matrix must be a nonempty K x alpha array")
    return x


def _reduce(per_trial: np.ndarray) -> MCEstimate:
    k = per_trial.size
    mean = math.fsum(per_trial.tolist()) / k
    if k > 1:
        var = math.fsum(((v - mean) ** 2 for v in per_trial.tolist())) / (k - 1)
        se = math.sqrt(var / k)
    else:
        se = float("inf")
    return MCEstimate(value=-mean, std_error=se, trials=k)


def selected_mean(x, cols) -> MCEstimate:
    """Minus the trial mean of x averaged over the picked columns.

    cols is (K,) with one column per trial or (K, beta); the picks are summed
    in cols order, so the same columns give the same bits on every path.
    """
    cols = np.asarray(cols)
    if cols.ndim == 1:
        cols = cols[:, None]
    return _reduce(_kernels.row_smallest_sums(x, cols) / cols.shape[1])


def _checked(x, w, beta: int):
    x, w = _as_matrix(x), _as_matrix(w)
    if x.shape != w.shape:
        raise ValueError(f"x and w shapes differ: {x.shape} vs {w.shape}")
    if not 1 <= beta <= x.shape[1]:
        raise ValueError(f"beta must lie in [1, {x.shape[1]}], got {beta}")
    return x, w


def beta_var_mc(x, beta: int) -> MCEstimate:
    """Minus the average of the beta smallest draws per trial."""
    x, _ = _checked(x, x, beta)
    return selected_mean(x, _kernels.rank_columns(x, beta))


def alpha_var_mc(x) -> MCEstimate:
    """Minus the average of per-trial minima: beta_var_mc with beta = 1."""
    return beta_var_mc(x, 1)


def beta_contribution_mc(x, w, beta: int) -> MCEstimate:
    """Contribution estimate: x averaged over the beta w-smallest columns."""
    x, w = _checked(x, w, beta)
    return selected_mean(x, _kernels.rank_columns(w, beta))


def alpha_contribution_mc(x, w) -> MCEstimate:
    """Contribution estimate: x read at the per-trial argmin of w
    (beta_contribution_mc with beta = 1)."""
    return beta_contribution_mc(x, w, 1)


def weighted_contribution_empirical(x, w, probs, measure: WeightingMeasure):
    """Exact spectral contribution of x to w on a weighted sample, and the
    risk of w, from one ranking of w. The contribution is minus the
    expectation of x under the worst-case weights of w (``extreme_measure``),
    summed exactly as in ``capital_allocation``. Reordering the scenarios
    jointly leaves both unchanged to the last bit."""
    x, w, probs = _aligned(x, w, probs)
    ew = extreme_measure(w, probs, measure)
    return -_exact_dot(ew.weights, x), ew.risk
