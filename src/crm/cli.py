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
import json
import os
import sys
import time

import numpy as np

from . import _kernels
from . import distortion as _distortion
from . import mc as _mc
from . import sampling as _sampling
from .contribution import capital_allocation, tail_correlation
from .errors import CrmError, DataError
from .panel import JointPanel, _number, align, ingest_panel, read_rows, read_text
from .scenario import ScenarioDistribution, tail_var, weighted_var

# factor, optimize and sharing are imported by the commands that call them:
# each command is a fresh interpreter, and most never use them

__all__ = ["main", "run_command"]

ANNOUNCE_SCHEMA = "crm.announce/1"
_FULL_HISTORY = "uniform:1000000000"  # the default scheme: every period


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _plain(obj):
    """numpy arrays and scalars as the lists and numbers json writes."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Scalars keep json's text: string escapes, float repr and the allow_nan error.
# indent=2 keeps them on json's pure-Python encoder, whose error names the
# value (the C encoder's does not on Python 3.11); a scalar is the same text
# at any indent.
_scalar = json.JSONEncoder(indent=2, allow_nan=False, default=_plain).encode


def _emit(report: dict, stream=None) -> None:
    """Write report as json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False, default=_plain) does, plus a newline, with one exception:
    each innermost row of an integer ndarray is written on one line, as
    json.dumps(row.tolist(), separators=(",", ":")) writes it.

    On Python 3.11 json.dumps(indent=...) always takes the pure-Python
    encoder, a few generator steps per value: 0.4 s for the announce payload's
    half million indices. So the layout is written here, scalars go through
    json, and an integer array is joined a row at a time. A row on one line
    costs about digits + 1 bytes per index, not the 12.6 of one indented line
    per index; json.load reads either to the same value."""
    out = []
    _layout(report, "", out)
    out.append("\n")
    (stream or sys.stdout).write("".join(out))


def _layout(obj, pad: str, out: list, int_dims: int = 0) -> None:
    """Append obj's text at indent `pad` to out. int_dims > 0 marks obj as
    nested lists of integers that many levels deep (an integer array's
    tolist()); each innermost list is joined without json onto one line,
    "[3,0,12]", and the outer levels keep json's indented layout."""
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype.kind in "iu":
            _layout(obj.tolist(), pad, out, obj.ndim)
            return
        obj = obj.tolist()
    if int_dims == 1:
        out.append("[" + ",".join(map(str, obj)) + "]")
        return
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        sep = "{\n"
        for key in sorted(obj):
            # json writes a non-string key (number, bool, null) as its text, quoted
            name = _scalar(key if isinstance(key, str) else _scalar(key))
            out.append(f"{sep}{inner}{name}: ")
            _layout(obj[key], inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[\n"
        for item in obj:
            out.append(sep + inner)
            _layout(item, inner, out, max(int_dims - 1, 0))
            sep = ",\n"
        out.append(f"\n{pad}]")
    else:
        out.append(_scalar(obj))  # a scalar, or an empty {} or []


def _check_trials(trials: int) -> None:
    """Monte Carlo reports carry a standard error, which needs two trials."""
    if trials < 2:
        raise DataError(f"--trials must be at least 2, got {trials}")


def _check_solver(args) -> None:
    """The cutting-plane solver needs at least one LP round. --restarts does
    nothing; existing scripts (the crmbench workloads among them) still pass
    it, so it is accepted and checked the same way."""
    for flag, value in (("--max-iter", args.max_iter), ("--restarts", args.restarts)):
        if value < 1:
            raise DataError(f"{flag} must be at least 1, got {value}")


def _require(entry, key: str, where: str):
    """entry[key], or a DataError naming where the key is missing."""
    if not isinstance(entry, dict) or key not in entry:
        raise DataError(f"{where}: missing key {key!r}")
    return entry[key]


def _name(value, key: str, where: str) -> str:
    """value, read from key `key` at `where`, as a nonempty string."""
    if not isinstance(value, str) or not value:
        raise DataError(f"{where}: key {key!r} must be a nonempty string, got {value!r}")
    return value


def _claim(owners: dict, name: str, key: str, where: str, entry: str) -> None:
    """Record `entry` (read at `where`) as the owner of `name` in owners, or a
    DataError if an earlier entry owns it."""
    if name in owners:
        raise DataError(f"{where}: key {key!r}: {name!r} is already the {key} of "
                        f"{owners[name]}; each {key} must be unique")
    owners[name] = entry


def _only_keys(entry: dict, keys, where: str) -> None:
    """A DataError naming the first key of entry outside keys: nothing reads it."""
    for key in entry:
        if key not in keys:
            raise DataError(f"{where}: unknown key {key!r} (allowed: {', '.join(keys)})")


def _numbers(value, what: str, need: str, ok) -> np.ndarray:
    """value as floats that all pass ok, or a DataError naming what and need."""
    try:
        arr = np.asarray(value, dtype=float)
        good = bool(np.all(ok(arr)))
    except (TypeError, ValueError):
        good = False
    if not good:
        raise DataError(f"{what} must be {need}, got {value!r}")
    return arr


def _limit_value(entry, where: str) -> float:
    """entry["limit"] as a positive finite number."""
    return float(_numbers(_require(entry, "limit", where), f"{where}: key 'limit'",
                          "a positive finite number",
                          lambda a: a.ndim == 0 and np.isfinite(a) and a > 0.0))


def _read_limits(spec, path: str, name: str, keys=("measure", "limit")):
    """The risk limits of the JSON array spec read from path, one (where,
    entry, measure text, measure, limit) per entry. name.format(i) names
    entry i in messages, and an entry may hold only keys."""
    if not isinstance(spec, list) or not spec:
        raise DataError(f"{path}: expected a nonempty JSON array of limits")
    out = []
    for i, entry in enumerate(spec):
        where = f"{path}: {name.format(i)}"
        text = _require(entry, "measure", where)
        _only_keys(entry, keys, where)
        limit = _limit_value(entry, where)
        out.append((where, entry, text, _spec("measure", text, where), limit))
    return out


def _spec(kind: str, text, where: str):
    """The parsed measure or scheme spec, its error naming where it was read."""
    if not isinstance(text, str):
        raise DataError(f"{where}: {kind} spec must be a string, got {text!r}")
    parse = _distortion.parse_measure if kind == "measure" else _sampling.parse_scheme
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def _scheme_arg(text: str, standardize: bool):
    """The parsed --scheme; --standardize needs one that rescales increments."""
    scheme = _sampling.parse_scheme(text)
    _check_standardize(standardize, scheme, f"--scheme {text}")
    return scheme


def _check_standardize(standardize: bool, scheme, source: str) -> None:
    if standardize and scheme.kind not in ("timechange", "scaling"):
        raise DataError(f"--standardize needs a timechange or scaling scheme, not {source}")


def _reject_unread(args, flags, mode: str) -> None:
    """A DataError naming the first of `flags` that args sets (to anything but
    None, False or ""): `mode` of the command never reads them."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and value != "":
            raise DataError(f"{mode} does not read {flag}")


def _ints(value, what: str, shape: tuple, lo: int, hi=None) -> np.ndarray:
    """value as integers of `shape` in [lo, hi) (no upper bound when hi is
    None), or a DataError naming what."""
    try:
        arr = np.asarray(value)
        good = (arr.shape == shape and arr.dtype.kind == "i" and arr.size > 0
                and arr.min() >= lo and (hi is None or arr.max() < hi))
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        span = f"at least {lo}" if hi is None else f"in [{lo}, {hi})"
        need = f"integers {span} of shape {shape}" if shape else \
            f"an integer {span}, got {value!r}"
        raise DataError(f"{what} must be {need}")
    return arr


def _selected_shape(trials: int, b: int) -> tuple:
    """Shape of an announce file's `selected`: schema v1 holds one column per
    trial for B = 1, not a (trials, 1) array."""
    return (trials,) if b == 1 else (trials, b)


def _draw_values(eff, scheme, seed, trials, draws_per_trial):
    draws = _sampling.generate_draws(scheme, eff.size, trials, draws_per_trial, seed)
    return draws, _sampling.materialize(draws, eff)


def _panel(path, unused_by: str = "") -> JointPanel:
    """The panel read from path. A nonempty `unused_by` says what reads the
    panel without its scenario weights ("with --trials", "by factor", ...),
    and a prob column is then a DataError naming the file."""
    panel = ingest_panel(path)
    if unused_by and panel.probs is not None:
        raise DataError(f"{path}: panel probability weights are not supported {unused_by}")
    return panel


def _columns(panel: JointPanel, where, names):
    """Indices of the named columns of panel (all of them without names); an
    unknown name is a DataError naming where, the panel's file or JSON entry."""
    if not names:
        return slice(None)
    try:
        return [panel.column_index(c) for c in names]
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def _series(panel: JointPanel, path, text) -> np.ndarray:
    """Row sum of panel over the columns of a --columns text (all without one)."""
    names = [c.strip() for c in text.split(",")] if text else None
    return panel.pnl[:, _columns(panel, path, names)].sum(axis=1)


def _dates_sha256(dates) -> str:
    """sha256 of the dates, most recent first, joined by newlines: an announce
    file's record of the periods its indices count."""
    # no other command loads hashlib; at the top it would add 4-6 ms (OpenSSL's
    # _hashlib, `python -X importtime`) to the start-up of every command
    import hashlib
    return hashlib.sha256("\n".join(dates).encode()).hexdigest()


def _probs_on(panel: JointPanel, rows, path):
    """The panel's prob weights on `rows`, renormalised; None without a prob column."""
    if panel.probs is None:
        return None
    w = panel.probs[rows]
    if not w.sum() > 0.0:
        raise DataError(f"{path}: probability weights sum to zero on the dates in use")
    return w / w.sum()


def _load_aligned(path_a, path_b, columns_a, columns_b, unused_by: str = ""):
    """Two panel series on their common dates, most recent first, and the prob
    weights of whichever panel has them (if both do, they must agree);
    `unused_by` as for _panel."""
    pa, pb = _panel(path_a, unused_by), _panel(path_b, unused_by)
    ia, ib = align(pa.dates, pb.dates)
    if ia.size == 0:
        raise DataError(f"{path_a} and {path_b} share no dates")
    probs, probs_b = _probs_on(pa, ia, path_a), _probs_on(pb, ib, path_b)
    if probs is None:
        probs = probs_b
    elif probs_b is not None and not np.allclose(probs, probs_b, rtol=1e-12, atol=0.0):
        raise DataError(f"{path_a} and {path_b} carry different probability weights "
                        "on their common dates")
    return _series(pa, path_a, columns_a)[ia], _series(pb, path_b, columns_b)[ib], probs


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
    if args.trials is not None:
        _check_trials(args.trials)
    panel = _panel(args.input, "with --trials" if args.trials else "")
    series = _series(panel, args.input, args.columns)
    measure = _distortion.parse_measure(args.measure)
    scheme = _scheme_arg(args.scheme, args.standardize)
    out = {"measure": args.measure, "scheme": args.scheme, "seed": args.seed,
           "periods": panel.periods}
    if not args.trials and scheme.kind == "bootstrap":
        raise DataError(f"scheme {args.scheme} needs --trials")
    eff, probs = _sampling.effective_series(series, scheme, args.standardize)
    if args.trials:
        # order-statistics measures average the B smallest of A draws per
        # trial; any other measure weights the pooled draws of one per trial
        a, b = measure.orders or (1, None)
        _, values = _draw_values(eff, scheme, args.seed, args.trials, a)
        if b is not None:
            est = _mc.beta_var_mc(values, b)
            out.update(estimate=est.value, std_error=est.std_error,
                       trials=est.trials, method="monte-carlo")
            plot_dist = ScenarioDistribution(eff) if args.emit_plot_data else None
        else:
            plot_dist = ScenarioDistribution(values.ravel())
            out.update(estimate=weighted_var(plot_dist, measure),
                       trials=args.trials, method="monte-carlo-weighted")
    else:
        if panel.probs is not None:
            if probs is not None:
                raise DataError(f"{args.input}: panel probability weights conflict "
                                "with a weighting scheme")
            if scheme.kind == "timechange":  # its periods sum windows of rows
                raise DataError(f"{args.input}: panel probability weights are not "
                                "supported by the timechange scheme")
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
    panel = _panel(args.input, "with --trials")
    series = _series(panel, args.input, args.columns)
    orders = _distortion.parse_measure(args.measure).orders
    if orders is None:
        raise DataError("announce needs an integer-order measure (alpha:A or beta:A,B)")
    a, b = orders
    scheme = _scheme_arg(args.scheme, args.standardize)
    eff, _ = _sampling.effective_series(series, scheme, args.standardize)
    draws, values = _draw_values(eff, scheme, args.seed, args.trials, a)
    selected = _kernels.rank_columns(values, b)
    payload = {
        "schema": ANNOUNCE_SCHEMA,
        "measure": args.measure, "scheme": args.scheme, "seed": args.seed,
        "trials": args.trials, "draws_per_trial": a, "order_beta": b,
        "series_len": int(eff.size), "standardize": args.standardize,
        "first_date": panel.dates[0], "last_date": panel.dates[-1],
        "dates_sha256": _dates_sha256(panel.dates),
        "indices": draws.indices,
        "selected": selected.reshape(_selected_shape(args.trials, b)),
    }
    if args.out:
        with open(args.out, "w") as fh:
            _emit(payload, fh)
    return payload


def _cmd_contrib(args) -> dict:
    if args.announced:
        _reject_unread(args, ("--measure", "--scheme", "--trials", "--firm", "--firm-columns"),
                       "contrib --announced (the announce file fixes them)")
        return _contrib_announced(args)
    if args.trials is not None:
        _check_trials(args.trials)
    if not args.firm:
        raise DataError("contrib needs either --announced or --firm")
    if not args.trials:
        _reject_unread(args, ("--scheme", "--standardize"), "exact contrib (without --trials)")
    return _contrib_inprocess(args)


def _contrib_announced(args) -> dict:
    path = args.announced
    ann = read_text(path, json.load)
    if not isinstance(ann, dict) or ann.get("schema") != ANNOUNCE_SCHEMA:
        raise DataError(f"{path}: not an announce file")

    def ints(key, shape, lo, hi=None):
        return _ints(_require(ann, key, path), f"{path}: key {key!r}", shape, lo, hi)

    panel = _panel(args.input, "with --trials")
    # announced indices are positions in a most-recent-first series, so the
    # trade must start on the firm's most recent date, reach its oldest one and
    # hold the firm's dates in between
    first, last = _require(ann, "first_date", path), _require(ann, "last_date", path)
    if panel.dates[0] != first or last not in panel.dates:
        raise DataError(
            f"{args.input} runs from {panel.dates[0]!r} back to {panel.dates[-1]!r}, but "
            f"{path} announces draws on the dates from {first!r} back to {last!r}")
    if _require(ann, "dates_sha256", path) != _dates_sha256(
            panel.dates[:panel.dates.index(last) + 1]):
        raise DataError(f"{args.input} holds other dates from {first!r} back to {last!r} "
                        f"than {path} announces draws on (key 'dates_sha256')")
    series = _series(panel, args.input, args.columns)
    scheme_text = _require(ann, "scheme", path)
    scheme = _spec("scheme", scheme_text, f"{path}: key 'scheme'")
    standardize = _require(ann, "standardize", path)
    if not isinstance(standardize, bool):
        raise DataError(f"{path}: key 'standardize' must be true or false, "
                        f"got {standardize!r}")
    if args.standardize and not standardize:
        raise DataError(f"{path} was announced without --standardize; "
                        "contrib --announced cannot add it")
    _check_standardize(standardize, scheme, f"{path}'s scheme {scheme_text}")
    series_len = int(ints("series_len", (), 1))
    eff, _ = _sampling.effective_series(series, scheme, standardize)
    if eff.size < series_len:
        raise DataError(
            f"{args.input}: trade history too short: announce covers {series_len} periods, "
            f"trade has {eff.size}")
    k = int(ints("trials", (), 1))
    if k < 2:
        raise DataError(f"{path}: holds {k} trial(s); a standard error needs at least 2")
    a = int(ints("draws_per_trial", (), 1))
    b = int(ints("order_beta", (), 1, a + 1))
    cells = (k, a, scheme.subintervals) if scheme.kind == "bootstrap" else (k, a)
    draws = _sampling.DrawMatrix(indices=ints("indices", cells, 0, series_len),
                                 series_len=series_len)
    seed = _require(ann, "seed", path)
    selected = ints("selected", _selected_shape(k, b), 0, a)
    est = _mc.selected_mean(_sampling.materialize(draws, eff), selected)
    return {"measure": _require(ann, "measure", path), "scheme": scheme_text,
            "seed": seed, "trials": est.trials, "contribution": est.value,
            "std_error": est.std_error, "method": "announced"}


def _contrib_inprocess(args) -> dict:
    measure = _distortion.parse_measure(args.measure)
    if args.trials and measure.orders is None:
        raise DataError("Monte Carlo contribution needs alpha:A or beta:A,B")
    x_series, w_series, probs = _load_aligned(args.input, args.firm, args.columns,
                                              args.firm_columns,
                                              "with --trials" if args.trials else "")
    if args.trials:
        a, b = measure.orders
        scheme_text = args.scheme or _FULL_HISTORY
        scheme = _scheme_arg(scheme_text, args.standardize)
        eff_w, _ = _sampling.effective_series(w_series, scheme, args.standardize)
        draws, w_vals = _draw_values(eff_w, scheme, args.seed, args.trials, a)
        eff_x, _ = _sampling.effective_series(x_series, scheme, args.standardize)
        x_vals = _sampling.materialize(draws, eff_x)
        # one ranking of the firm's draws picks the columns of both estimates
        cols = _kernels.rank_columns(w_vals, b)
        est, firm_est = _mc.selected_mean(x_vals, cols), _mc.selected_mean(w_vals, cols)
        return {"measure": args.measure, "scheme": scheme_text, "seed": args.seed,
                "trials": est.trials, "contribution": est.value,
                "std_error": est.std_error, "firm_risk": firm_est.value,
                "firm_risk_std_error": firm_est.std_error, "method": "monte-carlo"}
    value, firm_risk = _mc.weighted_contribution_empirical(x_series, w_series, probs,
                                                           measure)
    return {"measure": args.measure, "seed": args.seed, "contribution": value,
            "firm_risk": firm_risk, "method": "exact"}


def _parse_regression(text: str) -> dict:
    """--regression as fit_conditional_mean's method and options: kernel,
    kernel:BANDWIDTH (finite, > 0) or knn:K (an integer >= 1)."""
    head, _, rest = text.partition(":")
    try:
        if head == "kernel" and not rest:
            return {"method": "kernel", "bandwidth": None}
        if head == "kernel" and 0.0 < float(rest) < np.inf:
            return {"method": "kernel", "bandwidth": float(rest)}
        if head == "knn" and int(rest) >= 1:
            return {"method": "knn", "k": int(rest)}
    except ValueError:
        pass
    raise DataError(f"--regression {text}: expected kernel, kernel:BANDWIDTH with a finite "
                    "bandwidth > 0, or knn:K with an integer K >= 1")


def _cmd_factor(args) -> dict:
    from . import factor as _factor
    panel = _panel(args.input, "by factor")
    factors = _panel(args.factors, "by factor")
    pi, fi = align(panel.dates, factors.dates)
    if pi.size == 0:
        raise DataError(f"{args.input} and {args.factors} share no dates")
    w_series = _series(panel, args.input, args.columns)[pi]
    measure = _distortion.parse_measure(args.measure)
    reg = _parse_regression(args.regression)
    trade = None
    if args.trade:
        trade_panel = _panel(args.trade, "by factor")
        ti = _cover([panel.dates[i] for i in pi], args.input, trade_panel, args.trade)
        trade = _series(trade_panel, args.trade, args.trade_columns)[ti]

    def risks(y, key):
        """Factor risk of the firm and, with --trade, the trade's factor
        contribution to it, on the factor sample y."""
        if trade is None:
            return {f"{key}_risk": _factor.factor_risk(w_series, y, measure, **reg)}
        contribution, risk = _factor.factor_contribution(trade, w_series, y, measure, **reg)
        return {f"{key}_risk": risk, f"{key}_contribution": contribution}

    rows = [{"factor": name, **risks(factors.pnl[fi, j], "factor")}
            for j, name in enumerate(factors.assets)]
    out = {"measure": args.measure, "regression": args.regression, "factors": rows}
    if args.joint:
        out.update(risks(factors.pnl[fi], "joint_factor"))
    return out


def _cmd_optimize(args) -> dict:
    from . import factor as _factor, optimize as _optimize
    _check_solver(args)
    panel = _panel(args.panel)
    rewards = _read_rewards(args.rewards, panel, args.panel)
    spec = read_text(args.limits, json.load)
    factors = None
    reg = _parse_regression(args.regression)
    limits, labels = [], {}  # label -> the limit entry that has it
    for i, (where, entry, text, measure, limit) in enumerate(_read_limits(
            spec, args.limits, "entry {}", ("measure", "limit", "label", "factor"))):
        label = (_name(entry["label"], "label", where) if "label" in entry
                 else f"{text}<= {entry['limit']}")
        if entry.get("factor"):
            if factors is None:
                if not args.factors:
                    raise DataError("factor-mapped limits need --factors")
                factors = _panel(args.factors, "by optimize --factors")
                fidx = _cover(panel.dates, args.panel, factors, args.factors)
            [col] = _columns(factors, f"{where}: {args.factors}", [entry["factor"]])
            eff_panel = _factor.conditional_means(panel.pnl, factors.pnl[fidx, col], **reg)
            label += f" | {entry['factor']}"
        else:
            eff_panel = panel.pnl
        _claim(labels, label, "label", where, f"entry {i}")
        limits.append(_optimize.RiskLimit(measure, limit, eff_panel, label))
    problem = _optimize.OptimizationProblem(rewards=rewards, limits=limits,
                                            probs=panel.probs)
    sol = _optimize.solve_portfolio(problem, max_iter=args.max_iter)
    return {"seed": args.seed,
            "holdings": {a: h for a, h in zip(panel.assets, sol.h)},
            "objective": sol.objective,
            "risks": {limits[i].label: sol.risks[i] for i in range(len(limits))},
            "binding": [limits[i].label for i in sol.binding],
            "converged": sol.converged, "iterations": sol.iterations}


def _read_rewards(path: str, panel: JointPanel, panel_path: str) -> np.ndarray:
    rows = read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["asset", "reward"]:
        raise DataError(f"{path}: expected header 'asset,reward'")
    # every cell is checked before any asset; a row without a reward cell
    # reads as a blank one
    cells = [(row[0].strip(), r_no, _number(row[1] if len(row) > 1 else "", path, r_no, "reward"))
             for r_no, row in enumerate(rows[1:], start=2)]
    table = {}  # asset -> (row number, reward)
    for asset, r_no, reward in cells:
        if asset in table:
            raise DataError(f"{path}: rows {table[asset][0]} and {r_no} both give "
                            f"asset {asset!r} a reward")
        if asset not in panel.assets:
            raise DataError(f"{path}: row {r_no}: asset {asset!r} is not a column of {panel_path}")
        table[asset] = r_no, reward
    missing = [a for a in panel.assets if a not in table]
    if missing:
        raise DataError(f"{path}: missing rewards for {missing}")
    return np.array([table[a][1] for a in panel.assets])


def _cmd_allocate(args) -> dict:
    panel = _panel(args.input)
    measure = _distortion.parse_measure(args.measure)
    components = [panel.pnl[:, j] for j in range(panel.pnl.shape[1])]
    allocs, total, residual = capital_allocation(components, panel.probs, measure)
    return {"measure": args.measure,
            "allocations": {a: v for a, v in zip(panel.assets, allocs)},
            "total_risk": total, "residual": residual}


def _cmd_kappa(args) -> dict:
    measure = _distortion.parse_measure(args.measure)
    x_series, w_series, probs = _load_aligned(args.input, args.firm, args.columns,
                                              args.firm_columns)
    value = tail_correlation(x_series, w_series, probs, measure)
    return {"measure": args.measure, "tail_correlation": value}


def _cmd_equilibrium(args) -> dict:
    from . import sharing as _sharing
    _check_solver(args)
    spec = read_text(args.firm, json.load)
    base = os.path.dirname(os.path.abspath(args.firm))
    desk_spec = _require(spec, "desks", args.firm)
    limit_spec = _require(spec, "limits", args.firm)
    _only_keys(spec, ("desks", "limits", "allocation"), args.firm)
    if not isinstance(desk_spec, list) or not desk_spec:
        raise DataError(f"{args.firm}: expected a nonempty JSON array of desks")
    paths, panels, picks, specs = [], [], [], []
    parsed = {}  # path -> panel: desks often share one file
    names = {}  # desk name -> the desk entry that has it
    for i, entry in enumerate(desk_spec):
        where = f"{args.firm}: desks[{i}]"
        panel_file = _name(_require(entry, "panel", where), "panel", where)
        paths.append(os.path.join(base, panel_file))
        _only_keys(entry, ("name", "panel", "columns", "rewards", "bounds"), where)
        name = _name(entry["name"], "name", where) if "name" in entry else f"desk{i}"
        _claim(names, name, "name", where, f"desks[{i}]")
        cols = entry.get("columns")
        if "columns" in entry and not (isinstance(cols, list) and cols
                                       and all(isinstance(c, str) for c in cols)):
            raise DataError(f"{where}: key 'columns' must be a nonempty list of "
                            f"column names, got {cols!r}")
        if paths[-1] not in parsed:
            parsed[paths[-1]] = _panel(paths[-1], "by equilibrium")
        p = parsed[paths[-1]]
        panels.append(p)
        picks.append(_columns(p, f"{where}: {paths[-1]}", cols))
        n_cols = len(p.assets) if cols is None else len(cols)
        bounds = entry.get("bounds") or None
        if bounds is not None:
            # a box around 0 keeps the zero portfolio feasible
            bounds = _numbers(bounds, f"{where}: key 'bounds'",
                              "one [lo, hi] pair per column with lo <= 0 <= hi",
                              lambda a: a.shape == (n_cols, 2)
                              and np.all((a[:, 0] <= 0.0) & (a[:, 1] >= 0.0)))
        specs.append({
            "rewards": _numbers(_require(entry, "rewards", where), f"{where}: key 'rewards'",
                                "one finite number per column",
                                lambda a: a.shape == (n_cols,) and np.all(np.isfinite(a))),
            "bounds": bounds, "name": name})
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
    *_, measures, limit_vals = zip(*_read_limits(limit_spec, args.firm, "limits[{}]"))
    limit_vals = np.array(limit_vals)
    if "allocation" in spec:
        allocation = _numbers(spec["allocation"], f"{args.firm}: key 'allocation'",
                              "one finite row per desk and one column per limit",
                              lambda a: a.shape == (len(desks), limit_vals.size)
                              and np.all(np.isfinite(a)))
    else:
        allocation = np.tile(limit_vals / len(desks), (len(desks), 1))
    try:
        firm = _sharing.FirmInstance(desks=desks, measures=measures, limits=limit_vals,
                                     allocation=allocation)
    except ValueError as exc:  # e.g. allocation columns that miss the limits
        raise DataError(f"{args.firm}: {exc}") from None
    sol, holdings = _sharing.solve_firm(firm, max_iter=args.max_iter)
    prices, residual, risks = _sharing.equilibrium_prices(firm, holdings)
    trades = _sharing.limit_trades(firm, holdings)
    report = _sharing.verify_equilibrium(firm, holdings, trades, prices)
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

    def common(p, seed=True, standardize=False):
        if standardize:
            p.add_argument("--standardize", action="store_true",
                           help="standardize increments by rolling volatility for "
                                "timechange/scaling schemes")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (required: no implicit entropy)")

    p = sub.add_parser("estimate", help="risk estimate of a panel portfolio")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--scheme", default=_FULL_HISTORY)
    p.add_argument("--trials", type=int)
    p.add_argument("--columns")
    p.add_argument("--emit-plot-data", metavar="PREFIX")
    common(p, standardize=True)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("announce", help="publish draw arrays for desk-level pricing")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--scheme", default=_FULL_HISTORY)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--columns")
    p.add_argument("--out")
    common(p, standardize=True)
    p.set_defaults(fn=_cmd_announce)

    p = sub.add_parser("contrib", help="risk contribution of a trade to the firm")
    p.add_argument("--input", required=True, help="trade panel CSV")
    p.add_argument("--columns")
    p.add_argument("--firm", help="firm panel CSV (in-process estimation)")
    p.add_argument("--firm-columns")
    p.add_argument("--announced", help="announce file from `crm announce`")
    p.add_argument("--measure", default="")
    p.add_argument("--scheme", help=f"Monte Carlo draw scheme (default {_FULL_HISTORY})")
    p.add_argument("--trials", type=int)
    common(p, standardize=True)
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
        if not 0 <= getattr(args, "seed", 0) < 2 ** 64:  # the draws would read it mod 2**64
            raise DataError(f"--seed must be an integer from 0 to 2**64 - 1, got {args.seed}")
        t0 = time.perf_counter()
        _emit({"command": list(argv), **args.fn(args),
               "timings": {"seconds": time.perf_counter() - t0}})
    except (CrmError, ValueError, KeyError, OSError, json.JSONDecodeError,
            MemoryError) as exc:
        # numpy's MemoryError names the size it could not allocate; a bare one has no text
        sys.stderr.write(f"crm: error: {str(exc) or type(exc).__name__}\n")
        return 1
    return 0


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
