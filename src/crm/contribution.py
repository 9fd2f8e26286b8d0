"""Extreme scenario measures, risk contributions, capital allocation.

On a finite scenario space the worst-case reweighting attaining a spectral
risk is found by ranking scenarios by the reference P&L, pushing cumulative
probabilities through the distortion, and reading off the increments. Tied
values make the worst case a set rather than a point; the two consumers here
resolve it differently on purpose:

* ``risk_contribution`` takes the infimum over the whole set (ties broken by
  the contributing position), which matches the directional derivative of the
  risk functional everywhere;
* ``extreme_measure``/``capital_allocation`` (and the exact contribution
  ``mc.weighted_contribution_empirical``) use the symmetric representative
  (tied blocks share mass proportionally to probability), which is what makes
  allocations well defined and exactly additive across components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import WeightingMeasure
from .scenario import (ScenarioDistribution, _exact_dot, _law_cdf, _rank_blocks,
                       _scenario_probs, weighted_var)

__all__ = ["ExtremeWeights", "extreme_measure", "risk_contribution",
           "capital_allocation", "tail_correlation", "gaussian_contribution"]


@dataclass(frozen=True)
class ExtremeWeights:
    """Worst-case scenario weights for a reference P&L."""

    weights: np.ndarray
    utility: float  # expectation of the reference P&L under the weights


def _aligned(x, w, probs):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.ndim != 1 or x.shape != w.shape or x.size == 0:
        raise ValueError("x and w must be aligned nonempty 1-d arrays")
    return x, w, _scenario_probs(x, probs)


def extreme_measure(w, probs, measure: WeightingMeasure) -> ExtremeWeights:
    """Scenario weights realizing the worst case for the reference P&L w.

    Tied values share their block's distorted mass proportionally to their
    original probabilities (the symmetric representative of the extreme set).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("w must be a nonempty 1-d array")
    probs = _scenario_probs(w, probs)
    order, block, bp, cum = _rank_blocks(w, probs)
    block_w = np.diff(measure.distortion(cum), prepend=0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(bp > 0.0, block_w / bp, 0.0)
    out = np.empty(w.size)
    out[order] = probs[order] * scale[block]
    total = math.fsum(out.tolist())
    if total > 0.0:
        out /= total
    util = _exact_dot(out, w)
    out.flags.writeable = False
    return ExtremeWeights(weights=out, utility=util)


def risk_contribution(x, w, probs, measure: WeightingMeasure) -> float:
    """Risk contribution of x to the portfolio w.

    Implements the infimum of the expectation of x over the whole set of
    worst-case measures for w: scenarios are ranked by w with ties broken by
    ascending x, so tied blocks give their heaviest distorted mass to the
    smallest x. This coincides with the directional derivative of the risk at
    w toward x, also where w has ties (a constant w yields the standalone
    risk of x). Tie-free inputs agree with ``extreme_measure``.
    """
    x, w, probs = _aligned(x, w, probs)
    order = np.lexsort((x, w))
    weights = np.diff(measure.distortion(_law_cdf(probs[order])), prepend=0.0)
    return -_exact_dot(x[order], weights)


def capital_allocation(components, probs, measure: WeightingMeasure):
    """Per-component contributions to the total risk, and the residual.

    components: sequence of N aligned value vectors over shared scenarios.
    Returns (allocations, residual) with residual = sum(allocations) minus the
    total portfolio risk (zero up to rounding).
    """
    comp = [np.asarray(c, dtype=float) for c in components]
    if not comp:
        raise ValueError("need at least one component")
    t = comp[0].size
    if any(c.ndim != 1 or c.size != t for c in comp):
        raise ValueError("components must be aligned 1-d vectors")
    total = np.sum(comp, axis=0)
    probs = _scenario_probs(total, probs)
    q = extreme_measure(total, probs, measure).weights
    allocs = np.array([-_exact_dot(q, c) for c in comp])
    total_risk = weighted_var(ScenarioDistribution(total, probs), measure)
    residual = float(math.fsum(allocs.tolist()) - total_risk)
    return allocs, residual


def tail_correlation(x, w, probs, measure: WeightingMeasure) -> float:
    """Worst-case correlation of x with w: contribution utility over own
    utility, at most 1, defined only when x carries strictly positive risk."""
    x, w, probs = _aligned(x, w, probs)
    own = -weighted_var(ScenarioDistribution(x, probs), measure)
    if own >= 0.0:
        raise ValueError(
            f"tail correlation undefined: the trade has nonpositive risk (utility {own!r})")
    contrib = -risk_contribution(x, w, probs, measure)
    return contrib / own


def gaussian_contribution(mean_x: float, cov_xw: float, var_w: float,
                          multiplier: float) -> float:
    """Closed-form contribution utility for jointly Gaussian (x, w)."""
    if var_w <= 0.0:
        raise ValueError(f"var_w must be > 0, got {var_w}")
    if multiplier < 0.0:
        raise ValueError(f"multiplier must be >= 0, got {multiplier}")
    return float(mean_x - multiplier * cov_xw / math.sqrt(var_w))
