"""Monte Carlo estimators over drawn realization matrices.

A trial is one row of a (K, alpha) matrix of drawn P&L realizations. The
order-statistics estimators pick the smallest draws per trial; contribution
estimators rank by the reference portfolio's draws and read off the trade's
values. Final reductions use exactly rounded summation, so results are
invariant under trial reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .contribution import _aligned
from .distortion import WeightingMeasure
from .scenario import _exact_dot, _rank_blocks

__all__ = ["MCEstimate", "alpha_var_mc", "beta_var_mc", "alpha_contribution_mc",
           "beta_contribution_mc", "weighted_contribution_empirical"]


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with the standard error of the trial mean."""

    value: float
    std_error: float
    trials: int

    def __iter__(self):
        return iter((self.value, self.std_error))


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


def alpha_var_mc(x) -> MCEstimate:
    """Minus the average of per-trial minima."""
    x = _as_matrix(x)
    cols = _kernels.row_argmin(x)
    return _reduce(x[np.arange(x.shape[0]), cols])


def beta_var_mc(x, beta: int) -> MCEstimate:
    """Minus the average of the beta smallest draws per trial."""
    x = _as_matrix(x)
    if not 1 <= beta <= x.shape[1]:
        raise ValueError(f"beta must lie in [1, {x.shape[1]}], got {beta}")
    cols = _kernels.rank_columns(x, beta)
    sums = _kernels.row_smallest_sums(x, cols)
    return _reduce(sums / beta)


def _check_pair(x, w):
    x = _as_matrix(x)
    w = _as_matrix(w)
    if x.shape != w.shape:
        raise ValueError(f"x and w shapes differ: {x.shape} vs {w.shape}")
    return x, w


def alpha_contribution_mc(x, w) -> MCEstimate:
    """Contribution estimate: x read at the per-trial argmin of w."""
    x, w = _check_pair(x, w)
    cols = _kernels.row_argmin(w)
    return _reduce(x[np.arange(x.shape[0]), cols])


def beta_contribution_mc(x, w, beta: int) -> MCEstimate:
    """Contribution estimate: x averaged over the beta w-smallest columns."""
    x, w = _check_pair(x, w)
    if not 1 <= beta <= x.shape[1]:
        raise ValueError(f"beta must lie in [1, {x.shape[1]}], got {beta}")
    cols = _kernels.rank_columns(w, beta)
    sums = _kernels.row_smallest_sums(x, cols)
    return _reduce(sums / beta)


def weighted_contribution_empirical(x, w, probs, measure: WeightingMeasure) -> float:
    """Exact spectral contribution of x to w on a weighted sample.

    Ranks scenarios by w, maps cumulative weights through the distortion and
    averages x under the resulting worst-case weights. Tied w values are
    merged first (x averaged with probability weights), which makes the
    estimate well defined. A tied block's x-mass is summed in input order, so
    reordering the scenarios within a tie can move the estimate by rounding
    (in the last bits), and by nothing more.
    """
    x, w, probs = _aligned(x, w, probs)
    order, block, bp, cum = _rank_blocks(w, probs)
    # tied w: x averaged with probability weights over the block
    bxp = np.bincount(block, weights=probs[order] * x[order])
    with np.errstate(invalid="ignore", divide="ignore"):
        bx = np.where(bp > 0.0, bxp / bp, 0.0)
    weights = np.diff(measure.distortion(cum), prepend=0.0)
    return -_exact_dot(bx, weights)
