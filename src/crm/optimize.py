"""Portfolio optimization under multiple coherent risk limits.

The problem: maximize reward subject to spectral risk limits on linear
portfolios of scenario P&Ls (possibly measured on per-factor conditional-mean
panels), optionally inside a box of holdings. A limit rho(Xh) <= c is the
intersection of the half-spaces -q.Xh <= c over the generators q of its
measure, and the extreme scenario weights at h give the one active there, so
Kelley's cutting-plane method solves the problem exactly with an LP that has
one column per asset, whatever the scenario count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contribution import extreme_measure
from .distortion import WeightingMeasure
from .errors import CrmError, UnboundedError

__all__ = ["RiskLimit", "OptimizationProblem", "support_value",
           "solve_portfolio", "PortfolioSolution"]


@dataclass(frozen=True)
class RiskLimit:
    """One risk constraint: a measure, its limit, and the panel it sees.

    For plain limits the panel is the asset P&L panel itself; for factor
    limits it is the per-asset conditional-mean panel (linearity of
    conditional expectation turns a factor limit into an ordinary one on a
    transformed panel).
    """

    measure: WeightingMeasure
    limit: float
    panel: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.limit <= 0.0:
            raise ValueError(f"risk limit must be > 0, got {self.limit}")


@dataclass(frozen=True)
class OptimizationProblem:
    rewards: np.ndarray
    limits: Sequence[RiskLimit]
    probs: Optional[np.ndarray] = None
    bounds: Optional[np.ndarray] = None  # (d, 2) lo/hi around 0; None: all of R^d

    def __post_init__(self):
        rewards = np.asarray(self.rewards, dtype=float)
        object.__setattr__(self, "rewards", rewards)
        if rewards.ndim != 1 or not np.any(rewards != 0.0):
            raise ValueError("rewards must be a nonzero vector")
        if not self.limits:
            raise ValueError("need at least one risk limit")
        d = rewards.size
        for lim in self.limits:
            if lim.panel.ndim != 2 or lim.panel.shape[1] != d:
                raise ValueError("every limit panel must be T x d")
        box = np.tile([-np.inf, np.inf], (d, 1)) if self.bounds is None \
            else np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "bounds", box)
        # a box around 0 keeps the zero portfolio feasible and the final
        # rescale inside the box
        if box.shape != (d, 2) or not np.all((box[:, 0] <= 0.0) & (box[:, 1] >= 0.0)):
            raise ValueError("bounds must be (d, 2) with lo <= 0 <= hi")


def support_value(panel: np.ndarray, probs, h: np.ndarray,
                  measure: WeightingMeasure):
    """Utility of the portfolio h over the panel, and a supergradient.

    The utility is the support function of the measure's generator set at h;
    the expectation of the asset vector under the extreme scenario weights is
    a supergradient of that concave function.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("portfolio must be finite")
    series = panel @ h
    ew = extreme_measure(series, probs, measure)
    value = float(ew.utility)
    grad = ew.weights @ panel
    return value, grad


@dataclass(frozen=True)
class PortfolioSolution:
    h: np.ndarray
    objective: float
    binding: tuple
    risks: np.ndarray
    converged: bool
    iterations: int


# a multiplier, or a step's approach to a row, below this fraction of the
# data's scale counts as zero in the LP
_LP_TOL = 1e-9


def _lp_max(c: np.ndarray, a: np.ndarray, b: np.ndarray, bounds: np.ndarray):
    """A maximizer of c.x subject to a x <= b and lo <= x <= hi, or None when
    the LP is unbounded. Only the Kelley form: b >= 0 and lo <= 0 <= hi (each
    may be infinite), so x = 0 is feasible and needs no phase 1.

    A primal active-set method over the d variables. The working set holds d
    rows: cuts, finite bounds, and free rows e_j that pin x_j at its start 0.
    Each step inverts that d x d system: its solution is the current point,
    and its multipliers say which row leaves, a free row whose multiplier is
    nonzero or a constraint whose multiplier is negative. The ratio test over
    every other row then picks the row that enters. Bland's rule (the lowest
    index leaves, the lowest index wins a tied ratio) rules out cycling.
    """
    d = c.size
    lo, hi = bounds.T
    eye = np.eye(d)
    g = np.vstack([eye, a, eye[np.isfinite(hi)], -eye[np.isfinite(lo)]])
    r = np.concatenate([np.zeros(d), b, hi[np.isfinite(hi)], -lo[np.isfinite(lo)]])
    norms = np.linalg.norm(g, axis=1)
    basis = np.arange(d)
    while True:
        inv = np.linalg.inv(g[basis])
        x = inv @ r[basis]
        lam = (c @ inv) * norms[basis]
        gain = np.where(basis < d, np.abs(lam), -lam)
        leave = np.flatnonzero(gain > _LP_TOL * np.linalg.norm(c))
        if not leave.size:
            # the solve leaves a coordinate on its bound off by rounding
            return np.clip(x, lo, hi)
        k = leave[np.argmin(basis[leave])]
        p = np.sign(lam[k]) * inv[:, k]  # off row k, along every other one
        gp = g @ p
        block = gp > _LP_TOL * norms * np.linalg.norm(p)
        block[:d] = False  # a free row that left never comes back
        block[basis] = False
        rows = np.flatnonzero(block)
        if not rows.size:
            return None
        step = np.maximum(r[rows] - g[rows] @ x, 0.0) / gp[rows]
        basis[k] = rows[np.argmax(step == step.min())]


def _ratios_and_cuts(problem: OptimizationProblem, h: np.ndarray):
    """Risk-to-limit ratio of every limit at h, and the cut each one makes
    there: the rows a with a.h <= 1 on the limit, tight along h."""
    ratios, cuts = [], []
    for lim in problem.limits:
        value, grad = support_value(lim.panel, problem.probs, h, lim.measure)
        ratios.append(-value / lim.limit)
        cuts.append(-grad / lim.limit)
    return np.array(ratios), cuts


def _no_good_deal(v: np.ndarray) -> UnboundedError:
    return UnboundedError(
        f"No-Good-Deals violated: portfolio direction {v.tolist()} has "
        f"nonpositive risk under every limit; the objective is unbounded")


def _no_good_deals_check(problem: OptimizationProblem) -> list:
    """Starting cuts: every limit at +-e_i for each asset. UnboundedError when
    a direction the box leaves open has nonpositive risk under every limit."""
    lo, hi = problem.bounds.T
    seeds = []
    for i in range(problem.rewards.size):
        for s in (1.0, -1.0):
            v = np.zeros(problem.rewards.size)
            v[i] = s
            ratios, cuts = _ratios_and_cuts(problem, v)
            seeds.extend(cuts)
            if np.isinf(hi[i] if s > 0 else lo[i]) and ratios.max() <= 0.0:
                raise _no_good_deal(v)
    return seeds


def _ray_cuts(problem: OptimizationProblem, a: np.ndarray) -> list:
    """Cuts closing the best ray, within the unit cube, of the relaxation
    a.h <= 1 in the box. UnboundedError when no limit sees risk along it."""
    cone = np.where(np.isinf(problem.bounds), np.sign(problem.bounds), 0.0)
    ray = _lp_max(problem.rewards, a, np.zeros(len(a)), cone)
    if ray is None or not float(problem.rewards @ ray) > 0.0:
        raise CrmError("cutting-plane LP failed: no ray of the unbounded relaxation gains")
    ratios, cuts = _ratios_and_cuts(problem, ray)
    # a risk within rounding of zero (relative to the ray's largest scenario
    # P&L) cannot cut the ray off: it counts as nonpositive
    noise = [1e-12 * np.abs(lim.panel @ ray).max() / lim.limit
             for lim in problem.limits]
    if np.all(ratios <= noise):
        raise _no_good_deal(ray)
    return [c for c, r, n in zip(cuts, ratios, noise) if r > n]


def solve_portfolio(problem: OptimizationProblem, tol: float = 1e-4,
                    max_iter: int = 600) -> PortfolioSolution:
    """Maximize reward subject to all risk limits (and the box, if any).

    Each round solves the LP max e.h over the cuts found so far (``_lp_max``)
    and adds the cut of every limit the LP point violates. The LP value bounds
    the optimum from above, the LP point scaled back inside the limits from
    below; converged means the two met within tol relative to the upper
    bound before max_iter rounds. A relaxation without a finite optimum is
    cut along a ray instead.
    """
    e = problem.rewards
    cuts = _no_good_deals_check(problem)
    best_h, best_f = np.zeros(e.size), 0.0  # zero holdings are always feasible
    converged = False
    rounds = 0
    while rounds < max_iter and not converged:
        rounds += 1
        a = np.array(cuts)
        h = _lp_max(e, a, np.ones(len(a)), problem.bounds)
        if h is None:
            cuts.extend(_ray_cuts(problem, a))
            continue
        ratios, new = _ratios_and_cuts(problem, h)
        bound = float(e @ h)
        worst = max(float(ratios.max()), 1.0)
        if bound / worst > best_f:
            best_h, best_f = h / worst, bound / worst
        converged = bound - best_f <= tol * abs(bound)
        cuts.extend(c for c, r in zip(new, ratios) if r > 1.0)
    h_star = best_h
    risks = np.array([-support_value(lim.panel, problem.probs, h_star, lim.measure)[0]
                      for lim in problem.limits])
    ratios = risks / np.array([lim.limit for lim in problem.limits])
    binding = tuple(int(i) for i in np.flatnonzero(ratios >= 1.0 - tol))
    # the best point is feasible up to the arithmetic of its rescale; nudge
    # inside if rounding pushed it out
    worst = float(ratios.max())
    if worst > 1.0:
        h_star = h_star / worst
        risks = risks / worst
    return PortfolioSolution(h=h_star, objective=float(h_star @ e),
                             binding=binding, risks=risks,
                             converged=converged, iterations=rounds)
