"""Command-line interface: the central-desk risk workflow.

Subcommands: estimate, announce, contrib, factor, optimize, allocate, kappa,
equilibrium. All reports are JSON on stdout, inputs are CSV (panels) or JSON
(limits, firm descriptions). Randomized commands require an explicit --seed
and re-runs are byte-identical apart from the "timings" entry. Exit codes:
0 success, 1 data/convergence errors, 2 usage errors.

The announce/contrib pair implements the shared-draws workflow: the central
desk publishes the drawn period indices and the per-trial selections computed
from the firm's P&L; any desk then prices its own position against those
fixed arrays without re-estimating.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import _kernels
from . import distortion as _distortion
from . import factor as _factor
from . import mc as _mc
from . import optimize as _optimize
from . import sampling as _sampling
from . import sharing as _sharing
from .contribution import capital_allocation, tail_correlation
from .errors import CrmError, DataError
from .panel import JointPanel, _number, align, ingest_panel
from .scenario import ScenarioDistribution, tail_var, weighted_var

__all__ = ["main", "run_command"]

ANNOUNCE_SCHEMA = "crm.announce/1"
_NO_TRIAL_PROBS = "panel probability weights are not supported with --trials"
_UNUSED_PROBS = "{path}: panel probability weights are not supported by {use}"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _emit(report: dict, stream=None) -> None:
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2, allow_nan=False)
    (stream or sys.stdout).write(text + "\n")


def _mc_orders(measure_text: str):
    """(alpha, beta) for order-statistics MC when the measure supports it."""
    head, _, rest = measure_text.strip().partition(":")
    try:
        if head == "alpha":
            a = float(rest)
            if a.is_integer() and a >= 1:
                return int(a), 1
        elif head == "beta":
            a_s, b_s = rest.split(",")
            a, b = float(a_s), float(b_s)
            if a.is_integer() and b.is_integer() and 1 <= b <= a:
                return int(a), int(b)
    except ValueError:
        pass
    return None


def _check_trials(trials: int) -> None:
    """Monte Carlo reports carry a standard error, which needs two trials."""
    if trials < 2:
        raise DataError(f"--trials must be at least 2, got {trials}")


def _check_solver(args) -> None:
    """The supergradient solver needs at least one start and one step."""
    for flag, value in (("--max-iter", args.max_iter), ("--restarts", args.restarts)):
        if value < 1:
            raise DataError(f"{flag} must be at least 1, got {value}")


def _require(entry, key: str, where: str):
    """entry[key], or a DataError naming where the key is missing."""
    if not isinstance(entry, dict) or key not in entry:
        raise DataError(f"{where}: missing key {key!r}")
    return entry[key]


def _columns_arg(text):
    return [c.strip() for c in text.split(",")] if text else None


def _effective_series(series: np.ndarray, scheme: _sampling.DrawScheme,
                      standardize: bool):
    """Scheme-transformed series plus the exact-evaluation weights.

    Returns (effective series, probs for exact evaluation, scheme usable with
    generate_draws over the effective series, exact_supported flag).
    """
    if scheme.kind == "uniform":
        eff = series[:min(scheme.window, series.size)]
        return eff, None, scheme, True
    if scheme.kind == "geometric":
        t = np.arange(1, series.size + 1, dtype=float)
        pmf = (1.0 - scheme.decay) * scheme.decay ** (t - 1.0)
        pmf /= pmf.sum()
        return series, pmf, scheme, True
    if scheme.kind == "bootstrap":
        return series, None, scheme, False
    if scheme.kind == "timechange":
        eff = _sampling.time_change_series(series, scheme.sigma, scheme.subintervals,
                                           standardize=standardize)
        uni = _sampling.DrawScheme("uniform", window=eff.size)
        return eff, None, uni, True
    eff = _sampling.scale_series(series, scheme.sigma) if standardize else \
        scheme.sigma * series
    uni = _sampling.DrawScheme("uniform", window=eff.size)
    return eff, None, uni, True


def _draw_values(series, scheme, seed, trials, draws_per_trial, standardize):
    eff, _, draw_scheme, _ = _effective_series(series, scheme, standardize)
    draws = _sampling.generate_draws(draw_scheme, eff.size, trials, draws_per_trial, seed)
    return draws, _sampling.materialize(draws, eff), eff


def _ingest_unweighted(path, use: str, returns: bool = False) -> JointPanel:
    """ingest_panel for a file whose prob column `use` would ignore."""
    panel = ingest_panel(path, returns=returns)
    if panel.probs is not None:
        raise DataError(_UNUSED_PROBS.format(path=path, use=use))
    return panel


def _probs_on(panel: JointPanel, rows, path):
    """The panel's prob weights on `rows`, renormalised; None without a prob column."""
    if panel.probs is None:
        return None
    w = panel.probs[rows]
    if not w.sum() > 0.0:
        raise DataError(f"{path}: probability weights sum to zero on the dates in use")
    return w / w.sum()


def _load_aligned(path_a, path_b, columns_a, columns_b, returns: bool, trials: bool = False):
    """Two panel series on their common dates, most recent first, and the prob
    weights of whichever panel has them (if both do, they must agree). With
    `trials`, prob columns are rejected."""
    pa = ingest_panel(path_a, returns=returns)
    pb = ingest_panel(path_b, returns=returns)
    if trials and (pa.probs is not None or pb.probs is not None):
        raise DataError(_NO_TRIAL_PROBS)
    ia, ib = align(pa.dates, pb.dates)
    if ia.size == 0:
        raise DataError(f"{path_a} and {path_b} share no dates")
    probs, probs_b = _probs_on(pa, ia, path_a), _probs_on(pb, ib, path_b)
    if probs is None:
        probs = probs_b
    elif probs_b is not None and not np.allclose(probs, probs_b, rtol=1e-12, atol=0.0):
        raise DataError(f"{path_a} and {path_b} carry different probability weights "
                        "on their common dates")
    return pa.series(columns_a)[ia], pb.series(columns_b)[ib], probs


def _cover(dates, source, panel: JointPanel, path) -> np.ndarray:
    """Rows of `panel` (read from `path`) for every one of `dates` (from `source`)."""
    ia, ib = align(dates, panel.dates)
    if ia.size < len(dates):
        first = dates[np.setdiff1d(np.arange(len(dates)), ia)[0]]
        raise DataError(f"{path} is missing date {first!r} of {source}")
    return ib


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> dict:
    if args.trials:
        _check_trials(args.trials)
    panel = ingest_panel(args.input, returns=args.returns)
    series = panel.series(_columns_arg(args.columns))
    measure = _distortion.parse_measure(args.measure)
    scheme = _sampling.parse_scheme(args.scheme)
    orders = _mc_orders(args.measure)
    out = {"measure": args.measure, "scheme": args.scheme, "seed": args.seed,
           "periods": panel.periods}
    if args.trials:
        if panel.probs is not None:
            raise DataError(_NO_TRIAL_PROBS)
        if orders is not None:
            a, b = orders
            draws, values, eff = _draw_values(series, scheme, args.seed,
                                              args.trials, a, args.standardize)
            est = _mc.beta_var_mc(values, b) if b > 1 else _mc.alpha_var_mc(values)
            out.update(estimate=est.value, std_error=est.std_error,
                       trials=est.trials, method="monte-carlo")
            plot_dist = ScenarioDistribution(eff) if args.emit_plot_data else None
        else:
            draws, values, _ = _draw_values(series, scheme, args.seed, args.trials, 1,
                                            args.standardize)
            plot_dist = ScenarioDistribution(values.ravel())
            out.update(estimate=weighted_var(plot_dist, measure),
                       trials=args.trials, method="monte-carlo-weighted")
    else:
        eff, probs, _, exact_ok = _effective_series(series, scheme, args.standardize)
        if not exact_ok:
            raise DataError(f"scheme {args.scheme} needs --trials")
        if panel.probs is not None:
            if probs is not None:
                raise DataError("panel probability weights conflict with a weighting scheme")
            probs = _probs_on(panel, slice(eff.size), args.input)
        plot_dist = ScenarioDistribution(eff, probs)
        out.update(estimate=weighted_var(plot_dist, measure), method="exact")
    if args.emit_plot_data and plot_dist is not None:
        _write_plot_data(args.emit_plot_data, plot_dist)
    return out


def _write_plot_data(prefix: str, dist: ScenarioDistribution) -> None:
    v, _, cum = dist.sorted_support()
    with open(f"{prefix}_cdf.csv", "w") as fh:
        fh.write("x,cdf\n")
        for x, f in zip(v, cum):
            fh.write(f"{x!r},{f!r}\n")
    with open(f"{prefix}_tail_curve.csv", "w") as fh:
        fh.write("level,risk\n")
        for k in range(1, 101):
            lam = k / 100.0
            fh.write(f"{lam!r},{tail_var(dist, lam)!r}\n")


def _cmd_announce(args) -> dict:
    _check_trials(args.trials)
    panel = ingest_panel(args.input, returns=args.returns)
    series = panel.series(_columns_arg(args.columns))
    orders = _mc_orders(args.measure)
    if orders is None:
        raise DataError("announce needs an integer-order measure (alpha:A or beta:A,B)")
    a, b = orders
    scheme = _sampling.parse_scheme(args.scheme)
    draws, values, eff = _draw_values(series, scheme, args.seed, args.trials, a,
                                      args.standardize)
    selected = _kernels.rank_columns(values, b) if b > 1 else _kernels.row_argmin(values)
    payload = {
        "schema": ANNOUNCE_SCHEMA,
        "measure": args.measure, "scheme": args.scheme, "seed": args.seed,
        "trials": args.trials, "draws_per_trial": a, "order_beta": b,
        "series_len": int(eff.size),
        "first_date": panel.dates[0], "last_date": panel.dates[-1],
        "indices": draws.indices, "selected": selected,
    }
    if args.out:
        with open(args.out, "w") as fh:
            _emit(payload, fh)
    return payload


def _cmd_contrib(args) -> dict:
    if args.trials:
        _check_trials(args.trials)
    if args.announced:
        return _contrib_announced(args)
    if args.firm:
        return _contrib_inprocess(args)
    raise DataError("contrib needs either --announced or --firm")


def _contrib_announced(args) -> dict:
    with open(args.announced) as fh:
        ann = json.load(fh)
    if ann.get("schema") != ANNOUNCE_SCHEMA:
        raise DataError(f"{args.announced}: not an announce file")
    panel = ingest_panel(args.input, returns=args.returns)
    series = panel.series(_columns_arg(args.columns))
    scheme = _sampling.parse_scheme(ann["scheme"])
    eff, _, _, _ = _effective_series(series, scheme, args.standardize)
    if eff.size < ann["series_len"]:
        raise DataError(
            f"trade history too short: announce covers {ann['series_len']} periods, "
            f"trade has {eff.size}")
    indices = np.asarray(ann["indices"], dtype=np.int64)
    x_vals = eff[indices]
    if x_vals.ndim == 3:
        x_vals = x_vals.sum(axis=2)
    k = x_vals.shape[0]
    if k < 2:
        raise DataError(f"{args.announced}: holds {k} trial(s); a standard error "
                        "needs at least 2")
    b = int(ann["order_beta"])
    sel = np.asarray(ann["selected"], dtype=np.int64)
    if b > 1:
        picked = np.take_along_axis(x_vals, sel, axis=1).sum(axis=1) / b
    else:
        picked = x_vals[np.arange(k), sel]
    est = _mc._reduce(picked)
    return {"measure": ann["measure"], "scheme": ann["scheme"], "seed": ann["seed"],
            "trials": est.trials, "contribution": est.value,
            "std_error": est.std_error, "method": "announced"}


def _contrib_inprocess(args) -> dict:
    measure = _distortion.parse_measure(args.measure)
    orders = _mc_orders(args.measure)
    if args.trials and orders is None:
        raise DataError("Monte Carlo contribution needs alpha:A or beta:A,B")
    x_series, w_series, probs = _load_aligned(
        args.input, args.firm, _columns_arg(args.columns),
        _columns_arg(args.firm_columns), args.returns, trials=bool(args.trials))
    if args.trials:
        a, b = orders
        scheme = _sampling.parse_scheme(args.scheme)
        draws, w_vals, eff_w = _draw_values(w_series, scheme, args.seed, args.trials, a,
                                            args.standardize)
        eff_x, _, _, _ = _effective_series(x_series, scheme, args.standardize)
        x_vals = _sampling.materialize(draws, eff_x)
        est = _mc.beta_contribution_mc(x_vals, w_vals, b) if b > 1 else \
            _mc.alpha_contribution_mc(x_vals, w_vals)
        firm_est = _mc.beta_var_mc(w_vals, b) if b > 1 else _mc.alpha_var_mc(w_vals)
        return {"measure": args.measure, "scheme": args.scheme, "seed": args.seed,
                "trials": est.trials, "contribution": est.value,
                "std_error": est.std_error, "firm_risk": firm_est.value,
                "firm_risk_std_error": firm_est.std_error, "method": "monte-carlo"}
    value = _mc.weighted_contribution_empirical(x_series, w_series, probs, measure)
    firm_risk = weighted_var(ScenarioDistribution(w_series, probs), measure)
    return {"measure": args.measure, "seed": args.seed, "contribution": value,
            "firm_risk": firm_risk, "method": "exact"}


def _parse_regression(text: str):
    head, _, rest = text.partition(":")
    if head == "kernel":
        return {"method": "kernel", "bandwidth": float(rest) if rest else None}
    if head == "knn":
        if not rest:
            raise DataError("knn regression needs a neighbour count, e.g. knn:25")
        return {"method": "knn", "k": int(rest)}
    raise DataError(f"unknown regression config {text!r}")


def _cmd_factor(args) -> dict:
    panel = _ingest_unweighted(args.input, "factor", args.returns)
    factors = _ingest_unweighted(args.factors, "factor")
    pi, fi = align(panel.dates, factors.dates)
    if pi.size == 0:
        raise DataError(f"{args.input} and {args.factors} share no dates")
    w_series = panel.series(_columns_arg(args.columns))[pi]
    measure = _distortion.parse_measure(args.measure)
    reg = _parse_regression(args.regression)
    method = reg.pop("method")
    trade_series = None
    if args.trade:
        trade = _ingest_unweighted(args.trade, "factor", args.returns)
        ti = _cover([panel.dates[i] for i in pi], args.input, trade, args.trade)
        trade_series = trade.series(_columns_arg(args.trade_columns))[ti]
    rows = []
    for j, name in enumerate(factors.assets):
        y = factors.pnl[fi, j]
        row = {"factor": name,
               "factor_risk": _factor.factor_risk(w_series, y, measure,
                                                  method=method, **reg)}
        if trade_series is not None:
            row["factor_contribution"] = _factor.factor_contribution(
                trade_series, w_series, y, measure, method=method, **reg)
        rows.append(row)
    out = {"measure": args.measure, "regression": args.regression, "factors": rows}
    if args.joint:
        y = factors.pnl[fi]
        out["joint_factor_risk"] = _factor.factor_risk(
            w_series, y, measure, method=method, **reg)
        if trade_series is not None:
            out["joint_factor_contribution"] = _factor.factor_contribution(
                trade_series, w_series, y, measure, method=method, **reg)
    return out


def _cmd_optimize(args) -> dict:
    _check_solver(args)
    panel = ingest_panel(args.panel, returns=args.returns)
    rewards = _read_rewards(args.rewards, panel)
    with open(args.limits) as fh:
        spec = json.load(fh)
    if not isinstance(spec, list) or not spec:
        raise DataError(f"{args.limits}: expected a nonempty JSON array of limits")
    factors = None
    reg = _parse_regression(args.regression)
    method = reg.pop("method")
    limits = []
    for i, entry in enumerate(spec):
        where = f"{args.limits}: entry {i}"
        text = _require(entry, "measure", where)
        limit = _require(entry, "limit", where)
        measure = _distortion.parse_measure(text)
        label = entry.get("label") or f"{text}<= {limit}"
        if entry.get("factor"):
            if factors is None:
                if not args.factors:
                    raise DataError("factor-mapped limits need --factors")
                factors = _ingest_unweighted(args.factors, "optimize --factors")
                fidx = _cover(panel.dates, args.panel, factors, args.factors)
            try:
                col = factors.column_index(entry["factor"])
            except DataError as exc:
                raise DataError(f"{where}: {args.factors}: {exc}") from None
            y = factors.pnl[fidx, col]
            cols = [_factor.fit_conditional_mean(y, panel.pnl[:, j], method, **reg)
                    .predict(y[:, None]) for j in range(panel.pnl.shape[1])]
            eff_panel = np.column_stack(cols)
            label += f" | {entry['factor']}"
        else:
            eff_panel = panel.pnl
        limits.append(_optimize.RiskLimit(measure, float(limit), eff_panel, label))
    problem = _optimize.OptimizationProblem(rewards=rewards, limits=limits,
                                            probs=panel.probs)
    sol = _optimize.solve_portfolio(problem, tol=args.tol, max_iter=args.max_iter,
                                    restarts=args.restarts, seed=args.seed)
    return {"seed": args.seed,
            "holdings": {a: h for a, h in zip(panel.assets, sol.h)},
            "objective": sol.objective,
            "risks": {limits[i].label: sol.risks[i] for i in range(len(limits))},
            "binding": [limits[i].label for i in sol.binding],
            "converged": sol.converged, "iterations": sol.iterations}


def _read_rewards(path: str, panel: JointPanel) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows or [c.strip() for c in rows[0]] != ["asset", "reward"]:
        raise DataError(f"{path}: expected header 'asset,reward'")
    # a row without a reward cell reads as a blank one
    table = {row[0].strip(): _number(row[1] if len(row) > 1 else "", path, r_no, "reward")
             for r_no, row in enumerate(rows[1:], start=2)}
    missing = [a for a in panel.assets if a not in table]
    if missing:
        raise DataError(f"{path}: missing rewards for {missing}")
    return np.array([table[a] for a in panel.assets])


def _cmd_allocate(args) -> dict:
    panel = ingest_panel(args.input, returns=args.returns)
    measure = _distortion.parse_measure(args.measure)
    components = [panel.pnl[:, j] for j in range(panel.pnl.shape[1])]
    allocs, residual = capital_allocation(components, panel.probs, measure)
    total = weighted_var(ScenarioDistribution(panel.series(), panel.probs), measure)
    return {"measure": args.measure,
            "allocations": {a: v for a, v in zip(panel.assets, allocs)},
            "total_risk": total, "residual": residual}


def _cmd_kappa(args) -> dict:
    measure = _distortion.parse_measure(args.measure)
    x_series, w_series, probs = _load_aligned(
        args.input, args.firm, _columns_arg(args.columns),
        _columns_arg(args.firm_columns), args.returns)
    value = tail_correlation(x_series, w_series, probs, measure)
    return {"measure": args.measure, "tail_correlation": value}


def _cmd_equilibrium(args) -> dict:
    _check_solver(args)
    with open(args.firm) as fh:
        spec = json.load(fh)
    base = os.path.dirname(os.path.abspath(args.firm))
    desk_spec = _require(spec, "desks", args.firm)
    limit_spec = _require(spec, "limits", args.firm)
    if not isinstance(desk_spec, list) or not desk_spec:
        raise DataError(f"{args.firm}: expected a nonempty JSON array of desks")
    paths, panels, picks, specs = [], [], [], []
    for i, entry in enumerate(desk_spec):
        where = f"{args.firm}: desks[{i}]"
        paths.append(os.path.join(base, _require(entry, "panel", where)))
        p = _ingest_unweighted(paths[-1], "equilibrium")
        cols = entry.get("columns")
        panels.append(p)
        picks.append(slice(None) if cols is None else [p.column_index(c) for c in cols])
        bounds = entry.get("bounds")
        specs.append({
            "rewards": np.asarray(_require(entry, "rewards", where), dtype=float),
            "bounds": np.asarray(bounds, dtype=float) if bounds else None,
            "name": entry.get("name", f"desk{i}")})
    # desks meet on the dates they all hold, in desk 0's order
    common, rows = panels[0].dates, [np.arange(panels[0].periods)]
    for k in range(1, len(panels)):
        ia, ib = align(common, panels[k].dates)
        if ia.size == 0:
            named = ", ".join(dict.fromkeys(paths[:k + 1]))
            raise DataError(f"{args.firm}: desk panels {named} share no dates")
        common = [common[i] for i in ia]
        rows = [r[ia] for r in rows] + [ib]
    # rows before columns: the column pick sets the memory layout, and with it
    # the rounding of the solver's matrix products
    desks = [_sharing.Desk(panel=p.pnl[r][:, pick], **spec)
             for p, r, pick, spec in zip(panels, rows, picks, specs)]
    texts, limit_vals = [], []
    for i, entry in enumerate(limit_spec):
        where = f"{args.firm}: limits[{i}]"
        texts.append(_require(entry, "measure", where))
        limit_vals.append(float(_require(entry, "limit", where)))
    measures = [_distortion.parse_measure(t) for t in texts]
    limit_vals = np.array(limit_vals)
    if "allocation" in spec:
        allocation = np.asarray(spec["allocation"], dtype=float)
    else:
        allocation = np.tile(limit_vals / len(desks), (len(desks), 1))
    firm = _sharing.FirmInstance(desks=desks, measures=measures, limits=limit_vals,
                                 allocation=allocation)
    stacked = np.hstack([d.panel for d in desks])
    rewards = np.concatenate([d.rewards for d in desks])
    limits = [_optimize.RiskLimit(m, float(c), stacked, label=t)
              for m, c, t in zip(measures, limit_vals, texts)]
    problem = _optimize.OptimizationProblem(rewards=rewards, limits=limits)
    sol = _optimize.solve_portfolio(problem, tol=args.tol, max_iter=args.max_iter,
                                    restarts=args.restarts, seed=args.seed)
    holdings = np.split(sol.h, np.cumsum([d.rewards.size for d in desks])[:-1])
    prices, residual, risks = _sharing.equilibrium_prices(firm, holdings,
                                                          binding_tol=1e-3)
    trades = _sharing.limit_trades(firm, holdings)
    report = _sharing.verify_equilibrium(firm, holdings, trades, prices,
                                         binding_tol=1e-3)
    return {"seed": args.seed, "objective": sol.objective,
            "holdings": {d.name: h for d, h in zip(desks, holdings)},
            "prices": prices, "reward_residual": residual,
            "risks": risks, "trades": trades,
            "verification": {
                "trades_zero_sum": report.trades_zero_sum,
                "feasible": report.feasible,
                "some_binding": report.some_binding,
                "complementary_slackness": report.complementary_slackness,
                "max_desk_improvement": report.max_desk_improvement,
                "boundary_contact": list(report.boundary_contact),
                "total_net_reward": report.total_net_reward,
            }}


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crm", description="Coherent risk measurement toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, seed=True):
        p.add_argument("--returns", action="store_true",
                       help="input cells are price levels; difference them")
        p.add_argument("--standardize", action="store_true",
                       help="standardize increments by rolling volatility for "
                            "timechange/scaling schemes")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (required: no implicit entropy)")

    p = sub.add_parser("estimate", help="risk estimate of a panel portfolio")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--scheme", default="uniform:1000000000")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--columns")
    p.add_argument("--emit-plot-data", metavar="PREFIX")
    common(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("announce", help="publish draw arrays for desk-level pricing")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--scheme", default="uniform:1000000000")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--columns")
    p.add_argument("--out")
    common(p)
    p.set_defaults(fn=_cmd_announce)

    p = sub.add_parser("contrib", help="risk contribution of a trade to the firm")
    p.add_argument("--input", required=True, help="trade panel CSV")
    p.add_argument("--columns")
    p.add_argument("--firm", help="firm panel CSV (in-process estimation)")
    p.add_argument("--firm-columns")
    p.add_argument("--announced", help="announce file from `crm announce`")
    p.add_argument("--measure", default="")
    p.add_argument("--scheme", default="uniform:1000000000")
    p.add_argument("--trials", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_contrib)

    p = sub.add_parser("factor", help="factor risks and factor contributions")
    p.add_argument("--input", required=True)
    p.add_argument("--columns")
    p.add_argument("--factors", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--regression", default="kernel")
    p.add_argument("--trade")
    p.add_argument("--trade-columns")
    p.add_argument("--joint", action="store_true")
    common(p, seed=False)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("optimize", help="portfolio under coherent risk limits")
    p.add_argument("--panel", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--limits", required=True)
    p.add_argument("--factors")
    p.add_argument("--regression", default="kernel")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=600)
    p.add_argument("--restarts", type=int, default=10)
    common(p)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("allocate", help="capital allocation across panel columns")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", required=True)
    common(p, seed=False)
    p.set_defaults(fn=_cmd_allocate)

    p = sub.add_parser("kappa", help="tail correlation of a trade with the firm")
    p.add_argument("--input", required=True)
    p.add_argument("--columns")
    p.add_argument("--firm", required=True)
    p.add_argument("--firm-columns")
    p.add_argument("--measure", required=True)
    common(p, seed=False)
    p.set_defaults(fn=_cmd_kappa)

    p = sub.add_parser("equilibrium", help="risk-limit trading equilibrium")
    p.add_argument("--firm", required=True, help="firm description JSON")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=600)
    p.add_argument("--restarts", type=int, default=10)
    common(p)
    p.set_defaults(fn=_cmd_equilibrium)

    return parser


def run_command(argv) -> int:
    """Parse argv, run the subcommand, print {"command": argv, **its report,
    "timings": ...} as JSON to stdout."""
    args = _build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        _emit({"command": list(argv), **args.fn(args),
               "timings": {"seconds": time.perf_counter() - t0}})
    except (CrmError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"crm: error: {exc}\n")
        return 1
    return 0


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
