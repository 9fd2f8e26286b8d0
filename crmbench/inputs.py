"""Seeded input files for the three workloads.

Every workload's inputs are a pure function of (workload, seed): the same seed
writes byte-identical files. The program under test sees only these CSV and
JSON files. P&L is Student-t (df 4) with one common factor and a GARCH(1,1)
volatility shared by all assets, so tails are heavy, assets are correlated and
volatility clusters (``scaling``/``timechange`` schemes then do real work).

Sizes are fixed per workload (the seed changes values, never shapes), so run
times are comparable across seeds. Each workload also records the properties
that later "helps only when ..." claims must cite: the share of tied values
and the share of trade dates that overlap the firm dates.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os

import numpy as np

# Fixed per-workload sizes. T: firm periods; d: asset columns; K: trials;
# A: draws per trial of the announce measure; desks: trade/desk panels.
SIZES = {
    "desk_exact": {"T": 4000, "d": 10, "trades": 3},
    "shared_draws": {"T": 2000, "desks": 6, "K": 2000, "A": 250, "B": 25},
    "solver_factor": {"T": 2500, "d": 5, "factors": 2},
}

_BASE_DATE = _dt.date(1960, 1, 4)
_DF = 4.0


def _dates(first: int, count: int) -> list:
    return [(_BASE_DATE + _dt.timedelta(days=first + i)).isoformat() for i in range(count)]


def _garch_t(rng: np.random.Generator, t: int, d: int) -> np.ndarray:
    """(t, d) unit-scale P&L: one-factor Student-t with GARCH(1,1) volatility."""
    unit = math.sqrt((_DF - 2.0) / _DF)
    market = rng.standard_t(_DF, size=t) * unit
    idio = rng.standard_t(_DF, size=(t, d)) * unit
    load = rng.uniform(0.3, 0.8, size=d)
    eps = market[:, None] * load + idio * np.sqrt(1.0 - load * load)
    a, b = 0.08, 0.90
    var = np.empty(t)
    v = 1.0
    for i in range(t):
        var[i] = v
        v = (1.0 - a - b) + a * v * market[i] * market[i] + b * v
    vol = rng.uniform(0.5, 2.0, size=d)
    return eps * np.sqrt(var)[:, None] * vol


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_panel(path: str, dates: list, names: list, cols: np.ndarray,
                 rng: np.random.Generator) -> None:
    """CSV panel with rows in a seeded random order (ingest must sort them)."""
    order = rng.permutation(len(dates))
    lines = ["date," + ",".join(names)]
    for i in order:
        lines.append(dates[i] + "," + ",".join(_fmt(v) for v in cols[i]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def tie_share(values) -> float:
    """Share of values that equal at least one other value."""
    _, inverse, counts = np.unique(np.asarray(values), return_inverse=True,
                                   return_counts=True)
    return float(np.mean(counts[inverse] > 1))


def _desk_exact(rng, out, sz):
    t, d = sz["T"], sz["d"]
    pnl = _garch_t(rng, t, d)
    # the last desk books coarse, often-flat P&L: rounded to 0.5, 30 % zero days
    tied = np.round(pnl[:, -1] * 2.0) / 2.0
    tied[rng.random(t) < 0.3] = 0.0
    pnl[:, -1] = tied
    names = [f"A{j}" for j in range(d - 1)] + ["TIED"]
    firm_dates = _dates(0, t)
    _write_panel(os.path.join(out, "firm.csv"), firm_dates, names, pnl, rng)
    trades = []
    overlaps = []
    for k in range(sz["trades"]):
        # a trade covers a window that starts before the firm history and
        # misses some firm days, so the date join is a real intersection
        lead = t // 10
        span = t - t // 5 + lead
        first = -lead + k * (t // 20)
        keep = rng.random(span) >= 0.05
        idx = np.arange(first, first + span)[keep]
        load = rng.normal(0.0, 0.5, size=d - 1)
        x = _garch_t(rng, idx.size, 1)[:, 0]
        inside = (idx >= 0) & (idx < t)
        x[inside] += pnl[idx[inside], :-1] @ load
        dates = [(_BASE_DATE + _dt.timedelta(days=int(i))).isoformat() for i in idx]
        _write_panel(os.path.join(out, f"trade{k}.csv"), dates, ["X"], x[:, None], rng)
        trades.append((idx, x))
        overlaps.append(float(np.mean(inside)))
    return {"T": t, "d": d, "trades": len(trades),
            "tied_column_tie_share": tie_share(tied),
            "firm_series_tie_share": tie_share(pnl.sum(axis=1)),
            "trade_overlap_share": overlaps}, {"pnl": pnl, "trades": trades}


def _shared_draws(rng, out, sz):
    t, n = sz["T"], sz["desks"]
    pnl = _garch_t(rng, t, n)
    names = [f"D{j}" for j in range(n)]
    dates = _dates(0, t)
    _write_panel(os.path.join(out, "firm.csv"), dates, names, pnl, rng)
    for j in range(n):
        _write_panel(os.path.join(out, f"desk{j}.csv"), dates, ["X"],
                     pnl[:, j:j + 1], rng)
    return {"T": t, "desks": n, "K": sz["K"], "A": sz["A"], "B": sz["B"],
            "firm_series_tie_share": tie_share(pnl.sum(axis=1)),
            "desk_overlap_share": 1.0}, {"pnl": pnl}


def _solver_factor(rng, out, sz):
    t, d, m = sz["T"], sz["d"], sz["factors"]
    dates = _dates(0, t)
    fac = _garch_t(rng, t, m)
    load = rng.uniform(0.2, 1.0, size=(m, d))
    pnl = fac @ load + _garch_t(rng, t, d)
    # positive drift so every desk has a reward worth risking
    pnl += 0.05
    names = [f"A{j}" for j in range(d)]
    _write_panel(os.path.join(out, "panel.csv"), dates, names, pnl, rng)
    _write_panel(os.path.join(out, "factors.csv"), dates,
                 [f"F{j}" for j in range(m)], fac, rng)
    trade = fac @ rng.normal(0.0, 0.5, size=m) + _garch_t(rng, t, 1)[:, 0]
    _write_panel(os.path.join(out, "trade.csv"), dates, ["X"], trade[:, None], rng)
    with open(os.path.join(out, "rewards.csv"), "w") as fh:
        fh.write("asset,reward\n")
        for j, name in enumerate(names):
            fh.write(f"{name},{float(pnl[:, j].mean())!r}\n")
    scale = float(np.std(pnl.sum(axis=1)))
    limits = [
        {"measure": "tail:0.05", "limit": round(2.0 * scale, 6)},
        {"measure": "mix:0.5@0.01,0.5@0.1", "limit": round(2.2 * scale, 6)},
        {"measure": "tail:0.1", "limit": round(1.0 * scale, 6), "factor": "F0"},
    ]
    with open(os.path.join(out, "limits.json"), "w") as fh:
        json.dump(limits, fh, indent=2)
    # three desks on disjoint asset blocks of one shared scenario grid
    blocks = [[0, 1], [2, 3], [4]]
    desks = [{"name": f"desk{i}", "panel": "panel.csv",
              "columns": [names[j] for j in blk],
              "rewards": [float(pnl[:, j].mean()) for j in blk]}
             for i, blk in enumerate(blocks)]
    firm = {"desks": desks, "limits": [limits[0], limits[1]]}
    with open(os.path.join(out, "firm.json"), "w") as fh:
        json.dump(firm, fh, indent=2)
    return {"T": t, "d": d, "factors": m, "desks": len(desks),
            "panel_tie_share": tie_share(pnl.ravel()),
            "factor_overlap_share": 1.0}, {"pnl": pnl}


_BUILDERS = {"desk_exact": _desk_exact, "shared_draws": _shared_draws,
             "solver_factor": _solver_factor}

WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, out: str):
    """Write the workload's inputs into `out`; return (sizes, arrays).

    `arrays` holds the generated values (rows in date order, oldest first;
    trades as (day index, value) pairs) so output checks can compute
    references without the program's ingest and join paths.
    """
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, out, SIZES[workload])
