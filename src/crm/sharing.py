"""Risk-limit market equilibrium across a firm's desks.

With limits imposed on risk contributions to the firm (not on outstanding
risks) and desks free to trade limit units at market prices, the decentralized
optimum coincides with the firm's global optimum for any initial limit split.
This module solves the firm's problem (``solve_firm``) and computes the
certificates of that equivalence at a candidate firm portfolio: equilibrium
prices of the limits (a nonnegative least-squares fit of every desk's reward
vector to the worst-case asset expectations), a zero-sum limit trade matrix
making each desk's traded limit feasible, and a verification report checking
the equilibrium conditions desk by desk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contribution import extreme_measure
from .distortion import WeightingMeasure
from .errors import InfeasibleError
from .optimize import OptimizationProblem, RiskLimit, solve_portfolio

__all__ = ["Desk", "FirmInstance", "solve_firm", "equilibrium_prices", "limit_trades",
           "verify_equilibrium", "EquilibriumReport"]

# a limit counts as binding once its risk reaches this fraction short of it
_BINDING_TOL = 1e-3


@dataclass(frozen=True)
class Desk:
    """One desk: its tradable asset panel (T x d), rewards, optional box."""

    panel: np.ndarray
    rewards: np.ndarray
    bounds: Optional[np.ndarray] = None  # (d, 2) lo/hi or None for all of R^d
    name: str = ""

    def __post_init__(self):
        panel = np.asarray(self.panel, dtype=float)
        rewards = np.asarray(self.rewards, dtype=float)
        object.__setattr__(self, "panel", panel)
        object.__setattr__(self, "rewards", rewards)
        if panel.ndim != 2 or rewards.shape != (panel.shape[1],):
            raise ValueError("desk panel must be T x d with matching rewards")
        if self.bounds is not None:
            bounds = np.asarray(self.bounds, dtype=float)
            object.__setattr__(self, "bounds", bounds)
            if bounds.shape != (panel.shape[1], 2) or np.any(bounds[:, 0] > bounds[:, 1]):
                raise ValueError("bounds must be (d, 2) with lo <= hi")


@dataclass(frozen=True)
class FirmInstance:
    """Desks sharing a scenario grid, firm-wide limits, and the initial split."""

    desks: Sequence[Desk]
    measures: Sequence[WeightingMeasure]
    limits: np.ndarray              # (M,)
    allocation: np.ndarray          # (N, M), columns summing to the limits
    probs: Optional[np.ndarray] = None

    def __post_init__(self):
        limits = np.asarray(self.limits, dtype=float)
        allocation = np.asarray(self.allocation, dtype=float)
        object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "allocation", allocation)
        n, m = len(self.desks), len(self.measures)
        if limits.shape != (m,) or np.any(limits <= 0.0):
            raise ValueError("limits must be positive, one per measure")
        if allocation.shape != (n, m):
            raise ValueError("allocation must be desks x measures")
        col = allocation.sum(axis=0)
        if np.any(np.abs(col - limits) > 1e-12 * np.maximum(1.0, np.abs(limits))):
            raise ValueError("allocation columns must sum to the firm limits")
        t = self.desks[0].panel.shape[0]
        if any(d.panel.shape[0] != t for d in self.desks):
            raise ValueError("all desk panels must share the scenario grid")

    def firm_series(self, holdings: Sequence[np.ndarray]) -> np.ndarray:
        return np.sum([d.panel @ h for d, h in zip(self.desks, holdings)], axis=0)


def solve_firm(firm: FirmInstance, max_iter: int = 600):
    """The firm's optimal portfolio: one solve over every desk's assets side by
    side under the firm-wide limits, each desk inside its box.

    Returns (solution, holdings): the ``solve_portfolio`` solution and its
    holdings split into one vector per desk.
    """
    stacked = np.hstack([d.panel for d in firm.desks])
    limits = [RiskLimit(m, float(c), stacked) for m, c in zip(firm.measures, firm.limits)]
    box = np.vstack([[(-np.inf, np.inf)] * d.rewards.size if d.bounds is None else d.bounds
                     for d in firm.desks])
    problem = OptimizationProblem(rewards=np.concatenate([d.rewards for d in firm.desks]),
                                  limits=limits, probs=firm.probs, bounds=box)
    sol = solve_portfolio(problem, max_iter=max_iter)
    return sol, np.split(sol.h, np.cumsum([d.rewards.size for d in firm.desks])[:-1])


def _firm_extremes(firm: FirmInstance, holdings):
    series = firm.firm_series(holdings)
    return series, [extreme_measure(series, firm.probs, m) for m in firm.measures]


def _desk_worst_means(firm: FirmInstance, extremes):
    """Per measure, per desk: expectation of each desk asset under the
    firm-level worst-case weights."""
    return [[ew.weights @ d.panel for d in firm.desks] for ew in extremes]


def equilibrium_prices(firm: FirmInstance, holdings):
    """Equilibrium limit prices at the candidate firm portfolio.

    Solves min || rewards + sum_m price_m * worst_mean_m || over nonnegative
    prices, stacking every desk's reward equation; slack limits are priced at
    zero first (complementary slackness). The residual (max norm) measures how
    far the candidate is from global optimality.
    Returns (prices, residual, risks).
    """
    series, extremes = _firm_extremes(firm, holdings)
    risks = np.array([-ew.utility for ew in extremes])
    active = np.flatnonzero(risks >= firm.limits * (1.0 - _BINDING_TOL))
    e_stack = np.concatenate([d.rewards for d in firm.desks])
    prices = np.zeros(len(firm.measures))
    if active.size and np.any(e_stack != 0.0):
        means = _desk_worst_means(firm, extremes)
        cols = [np.concatenate(means[m]) for m in active]
        a_mat = -np.column_stack(cols)
        from scipy.optimize import nnls

        sol, _ = nnls(a_mat, e_stack)
        prices[active] = sol
        residual = float(np.max(np.abs(a_mat @ sol - e_stack)))
    else:
        residual = float(np.max(np.abs(e_stack))) if e_stack.size else 0.0
    return prices, residual, risks


def limit_trades(firm: FirmInstance, holdings) -> np.ndarray:
    """Zero-sum limit trades making every desk's traded limit feasible.

    Desk n buys contribution_n - initial_n of limit m, plus its proportional
    share of the firm-level slack; columns sum to zero exactly and the traded
    limit covers the desk's contribution. Infeasible when the firm portfolio
    itself breaches a limit.
    """
    _, extremes = _firm_extremes(firm, holdings)
    n, m = firm.allocation.shape
    contrib = np.empty((n, m))
    for j, ew in enumerate(extremes):
        for i, (d, h) in enumerate(zip(firm.desks, holdings)):
            contrib[i, j] = -float(ew.weights @ (d.panel @ h))
    total = contrib.sum(axis=0)
    slack = firm.limits - total
    if np.any(slack < -1e-9 * np.maximum(1.0, firm.limits)):
        bad = int(np.argmin(slack))
        raise InfeasibleError(
            f"firm portfolio breaches limit {bad}: risk {total[bad]!r} > {firm.limits[bad]!r}")
    share = firm.allocation / firm.limits[None, :]
    trades = contrib - firm.allocation + np.maximum(slack, 0.0)[None, :] * share
    trades -= trades.sum(axis=0, keepdims=True) / n  # exact zero column sums
    return trades


@dataclass(frozen=True)
class EquilibriumReport:
    trades_zero_sum: bool
    feasible: bool
    some_binding: bool
    complementary_slackness: bool
    max_desk_improvement: float     # over desks: best linearized improvement
    boundary_contact: tuple         # desks whose holdings touch their box
    total_net_reward: float

    @property
    def all_conditions(self) -> bool:
        return (self.trades_zero_sum and self.feasible and self.some_binding
                and self.complementary_slackness)


def verify_equilibrium(firm: FirmInstance, holdings, trades, prices) -> EquilibriumReport:
    """Check the four equilibrium conditions at (holdings, trades, prices).

    Desk optimality is checked on the linearized desk problem: with the
    firm-level worst-case weights frozen and limit units priced, a desk's
    objective is linear in its holdings, so its optimality gap is the best
    achievable gain of <h, reward + sum_m price_m * worst_mean_m> within its
    box (for unbounded desks, the gain of a unit-norm step). Desks at a box
    boundary are reported, not adjudicated.
    """
    trades = np.asarray(trades, dtype=float)
    prices = np.asarray(prices, dtype=float)
    series, extremes = _firm_extremes(firm, holdings)
    risks = np.array([-ew.utility for ew in extremes])
    lim = firm.limits
    zero_sum = bool(np.all(np.abs(trades.sum(axis=0)) <= 1e-9 * np.maximum(1.0, lim)))
    feasible = bool(np.all(risks <= lim * (1.0 + 1e-9)))
    binding_mask = risks >= lim * (1.0 - _BINDING_TOL)
    some_binding = bool(binding_mask.any())
    comp_slack = bool(np.all(prices[~binding_mask] <= 1e-9))

    means = _desk_worst_means(firm, extremes)
    n = len(firm.desks)
    gaps = np.zeros(n)
    boundary = []
    for i, desk in enumerate(firm.desks):
        grad = desk.rewards.copy()
        for m in range(len(firm.measures)):
            grad += prices[m] * means[m][i]
        h = np.asarray(holdings[i], dtype=float)
        if desk.bounds is None:
            gaps[i] = float(np.linalg.norm(grad))
        else:
            lo, hi = desk.bounds[:, 0], desk.bounds[:, 1]
            step = np.where(grad > 0.0, hi - h, lo - h)
            gaps[i] = float(np.dot(grad, step))
            touch = (h <= lo + 1e-12) | (h >= hi - 1e-12)
            if bool(touch.any()):
                boundary.append(i)
    net = math.fsum(float(np.dot(holdings[i], firm.desks[i].rewards))
                    - float(np.dot(trades[i], prices)) for i in range(n))
    return EquilibriumReport(
        trades_zero_sum=zero_sum, feasible=feasible, some_binding=some_binding,
        complementary_slackness=comp_slack,
        max_desk_improvement=float(gaps.max()) if n else 0.0,
        boundary_contact=tuple(boundary), total_net_reward=float(net))
