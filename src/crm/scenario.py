"""Exact risk evaluation on finite discrete P&L distributions.

Conventions, fixed once and derived everywhere else:

* quantiles are right quantiles, ``inf{v : F(v) >= level}``;
* risk is minus utility, so a sure loss has positive risk;
* equal values are merged before accumulation, and a merged block's
  probabilities are added in an order fixed by their values, which makes
  every output invariant (bit for bit) under joint permutations of
  (values, probs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distortion import WeightingMeasure

__all__ = ["ScenarioDistribution", "quantile", "tail_var", "weighted_var",
           "beta_var_exact"]

_PROB_TOL = 1e-12


def _exact_dot(a, b) -> float:
    """Exactly rounded sum of the float64 products a * b."""
    return math.fsum((a * b).tolist())


def _scenario_probs(values: np.ndarray, probs) -> np.ndarray:
    """probs as a float array aligned with values; None means equal weights."""
    if probs is None:
        return np.full(values.size, 1.0 / values.size)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != values.shape:
        raise ValueError("probs must align with the scenario values")
    return probs


def _law_cdf(masses: np.ndarray) -> np.ndarray:
    """Cumulative sums of a law's ranked masses: rounding may push a partial
    sum past 1, so they are capped there, and the last one, the total mass,
    is exactly 1."""
    cum = np.cumsum(masses)
    np.minimum(cum, 1.0, out=cum)
    cum[-1] = 1.0
    return cum


def _rank_blocks(key: np.ndarray, probs: np.ndarray):
    """Rank scenarios by key and merge exactly equal keys into blocks.

    Returns (order, block, block_probs, cum): the ascending order of key, the
    block index of each ranked scenario, the block probabilities summed in
    rank order, and their ``_law_cdf``. Within a block scenarios rank by
    probability (stable beyond that), so a block's mass is summed in an order
    fixed by its members rather than by their input positions.
    """
    order = np.lexsort((probs, key))
    ranked = key[order]
    starts = np.empty(ranked.size, dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    block = np.cumsum(starts) - 1
    block_probs = np.bincount(block, weights=probs[order])
    return order, block, block_probs, _law_cdf(block_probs)


@dataclass(frozen=True, eq=False)
class ScenarioDistribution:
    """A finite law: P&L values with probabilities summing to one."""

    values: np.ndarray
    probs: np.ndarray
    _sorted: tuple = field(default=None, repr=False, compare=False)

    def __init__(self, values, probs=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d sequence")
        probs = _scenario_probs(values, probs)
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(probs))):
            raise ValueError("values and probs must be finite")
        values = values.copy()
        probs = probs.copy()
        values.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_sorted", None)

    def sorted_support(self):
        """(distinct sorted values, their merged probabilities, cumulative)."""
        cached = self._sorted
        if cached is None:
            order, block, merged_p, cum = _rank_blocks(self.values, self.probs)
            # each block keeps its first ranked value (0.0 and -0.0 tie)
            first = np.flatnonzero(np.diff(block, prepend=-1))
            cached = (self.values[order[first]], merged_p, cum)
            object.__setattr__(self, "_sorted", cached)
        return cached

    def mean(self) -> float:
        v, p, _ = self.sorted_support()
        return _exact_dot(v, p)

    def __len__(self) -> int:
        return self.values.size


def _check_level(level: float) -> float:
    level = float(level)
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    return level


def quantile(dist: ScenarioDistribution, level: float) -> float:
    """Right quantile: the smallest value whose cdf reaches the level."""
    level = _check_level(level)
    v, _, cum = dist.sorted_support()
    idx = int(np.searchsorted(cum, level - _PROB_TOL, side="left"))
    return float(v[min(idx, v.size - 1)])


def tail_var(dist: ScenarioDistribution, level: float) -> float:
    """Expected shortfall at the level, by exact atom splitting.

    Averages the quantile function over (0, level]; the atom straddling the
    level contributes only its remaining mass.
    """
    level = _check_level(level)
    v, p, cum = dist.sorted_support()
    idx = int(np.searchsorted(cum, level - _PROB_TOL, side="left"))
    idx = min(idx, v.size - 1)
    below = cum[idx - 1] if idx > 0 else 0.0
    terms = (v[:idx] * p[:idx]).tolist()
    terms.append((level - below) * float(v[idx]))
    return -math.fsum(terms) / level


def weighted_var(dist: ScenarioDistribution, measure: WeightingMeasure) -> float:
    """Spectral risk of the discrete law under the weighting measure.

    Sorts the support, maps cumulative masses through the distortion and
    takes minus the resulting weighted average of values.
    """
    if measure.kind == "beta" and measure.a <= 0.0:
        raise ValueError("weighted evaluation requires a Beta first parameter > 0")
    v, _, cum = dist.sorted_support()
    dist_cum = measure.distortion(cum)
    weights = np.diff(dist_cum, prepend=0.0)
    return -_exact_dot(v, weights)


def _order_stat_mix_cdf(z: np.ndarray, a: int, b: int) -> np.ndarray:
    """cdf at z of a uniform order statistic drawn uniformly from ranks 1..b of a.

    Direct binomial sums: P(U_(i) <= z) = P(Binomial(a, z) >= i), averaged over
    i = 1..b. Independent of the incomplete-beta path used by the distortion
    module.
    """
    from scipy.special import gammaln

    j = np.arange(1.0, a + 1.0)
    log_comb = gammaln(a + 1.0) - gammaln(j + 1.0) - gammaln(a - j + 1.0)
    coef = np.minimum(j, float(b)) / float(b)
    zc = np.clip(z, 0.0, 1.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = np.where(zc > 0.0, np.log(zc), -np.inf)
        log1mz = np.where(zc < 1.0, np.log1p(-zc), -np.inf)
        terms = np.exp(log_comb + j * logz + (a - j) * log1mz)
    terms = np.where(np.isfinite(terms), terms, 0.0)
    out = terms @ coef
    return np.where(zc[..., 0] >= 1.0, 1.0, out)


def beta_var_exact(dist: ScenarioDistribution, a: int, b: int) -> float:
    """Risk of averaging the b smallest of a independent copies, exactly.

    Integer parameters only. Uses the order-statistics cdf over the discrete
    law via plain binomial sums, an evaluation path independent of
    ``weighted_var``; b == a collapses to minus the mean.
    """
    if int(a) != a or int(b) != b:
        raise ValueError("order parameters must be integers")
    a, b = int(a), int(b)
    if a < 1 or not 1 <= b <= a:
        raise ValueError(f"need 1 <= b <= a with a >= 1, got a={a}, b={b}")
    if b == a:
        return -dist.mean()
    v, _, cum = dist.sorted_support()
    mix_cdf = _order_stat_mix_cdf(cum, a, b)
    weights = np.diff(mix_cdf, prepend=0.0)
    return -_exact_dot(v, weights)
