"""The three desk workloads: the crm commands of one pass, and their checks.

A pass is what a risk desk runs against one set of inputs. Every command has
an output check; a check sees the command's parsed report plus the reports
of the whole pass (for cross-command identities) and the generated arrays,
and returns None or a failure message. Checks use tolerances, never digests
of today's floats, so a change that moves a value within its documented
tolerance still passes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import reference as ref
from inputs import SIZES

REL_TOL = 1e-9      # exact paths: the program and the reference agree to rounding
MC_SIGMAS = 5.0     # Monte Carlo paths: estimate within this many standard errors


@dataclass
class Command:
    name: str
    argv: list
    check: Callable
    outputs: list = field(default_factory=list)  # files the command writes (--out)


def _close(got, want, what: str, tol: float = REL_TOL) -> Optional[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))):
        return f"{what}: got {got!r}, reference {want!r}"
    return None


def _within_se(got, se, want, what: str) -> Optional[str]:
    if not (math.isfinite(got) and se > 0.0 and abs(got - want) <= MC_SIGMAS * se):
        return f"{what}: {got!r} +- {se!r} is more than {MC_SIGMAS} SE from {want!r}"
    return None


def _first(*results) -> Optional[str]:
    return next((r for r in results if r), None)


# ---------------------------------------------------------------------------
# desk_exact: large T, exact evaluation, partial date overlap, one tied desk
# ---------------------------------------------------------------------------

_TAIL = "tail:0.05"
_MIX = "mix:0.4@0.01,0.6@0.05"


def _desk_exact(seed: int, data: dict) -> list:
    t = SIZES["desk_exact"]["T"]
    window = t - t // 5
    pnl = data["pnl"]
    firm = pnl.sum(axis=1)
    tied = pnl[:, -1]
    s = str(seed)

    def joined(k, w):
        idx, x = data["trades"][k]
        inside = (idx >= 0) & (idx < t)
        return x[inside], w[idx[inside]]

    def est_window(rep, ctx):
        want = ref.spectral_risk(firm[-window:], None, ref.distortion(_TAIL))
        return _close(rep["estimate"], want, "uniform-window estimate")

    def est_geometric(rep, ctx):
        probs = ref.geometric_probs(0.999, t)
        want = ref.spectral_risk(tied[::-1], probs, ref.distortion(_MIX))
        return _close(rep["estimate"], want, "geometric estimate on the tied desk")

    def allocate(rep, ctx):
        total = ref.spectral_risk(firm, None, ref.distortion(_MIX))
        allocs = math.fsum(rep["allocations"].values())
        return _first(_close(rep["residual"], 0.0, "allocation residual"),
                      _close(rep["total_risk"], total, "total risk"),
                      _close(allocs, total, "sum of allocations"))

    def contrib(k, measure, w):
        def check(rep, ctx):
            x, wj = joined(k, w)
            dist = ref.distortion(measure)
            return _first(
                _close(rep["contribution"], ref.contribution(x, wj, None, dist),
                       f"contribution of trade{k}"),
                _close(rep["firm_risk"], ref.spectral_risk(wj, None, dist),
                       f"firm risk on trade{k} dates"))
        return check

    def kappa(k, measure):
        def check(rep, ctx):
            x, wj = joined(k, firm)
            got = rep["tail_correlation"]
            if not got <= 1.0 + REL_TOL:
                return f"kappa of trade{k} is {got!r} > 1"
            return _close(got, ref.tail_correlation(x, wj, ref.distortion(measure)),
                          f"kappa of trade{k}")
        return check

    return [
        Command("estimate_window", ["estimate", "--input", "firm.csv", "--measure", _TAIL,
                                    "--scheme", f"uniform:{window}", "--seed", s], est_window),
        Command("estimate_geometric_tied",
                ["estimate", "--input", "firm.csv", "--columns", "TIED", "--measure", _MIX,
                 "--scheme", "geometric:0.999", "--seed", s], est_geometric),
        Command("allocate", ["allocate", "--input", "firm.csv", "--measure", _MIX], allocate),
        Command("contrib_trade0", ["contrib", "--input", "trade0.csv", "--firm", "firm.csv",
                                   "--measure", _TAIL, "--seed", s], contrib(0, _TAIL, firm)),
        Command("contrib_trade1", ["contrib", "--input", "trade1.csv", "--firm", "firm.csv",
                                   "--measure", _MIX, "--seed", s], contrib(1, _MIX, firm)),
        Command("contrib_trade2_tied",
                ["contrib", "--input", "trade2.csv", "--firm", "firm.csv", "--firm-columns",
                 "TIED", "--measure", _TAIL, "--seed", s], contrib(2, _TAIL, tied)),
        Command("kappa_trade0", ["kappa", "--input", "trade0.csv", "--firm", "firm.csv",
                                 "--measure", _TAIL], kappa(0, _TAIL)),
        Command("kappa_trade1", ["kappa", "--input", "trade1.csv", "--firm", "firm.csv",
                                 "--measure", "tail:0.1"], kappa(1, "tail:0.1")),
    ]


# ---------------------------------------------------------------------------
# shared_draws: one announce, many desk reads, MC estimates under four schemes
# ---------------------------------------------------------------------------

def _shared_draws(seed: int, data: dict) -> list:
    sz = SIZES["shared_draws"]
    t, k, a, b = sz["T"], sz["K"], sz["A"], sz["B"]
    measure = f"beta:{a},{b}"
    pnl = data["pnl"]
    recent = pnl.sum(axis=1)[::-1]      # position 0 is the most recent period
    s = seed % 100000

    def exact(values, probs, order_a, order_b):
        from crm.scenario import ScenarioDistribution, beta_var_exact
        return beta_var_exact(ScenarioDistribution(values, probs), order_a, order_b)

    def announce(rep, ctx):
        with open(os.path.join(ctx["work"], "ann.json")) as fh:
            payload = json.load(fh)
        echoed = {key: v for key, v in rep.items() if key not in ("command", "timings")}
        if payload != echoed:
            return "announce file differs from the announce report"
        idx = np.asarray(payload["indices"])
        sel = np.asarray(payload["selected"])
        if idx.shape != (k, a) or sel.shape != (k, b):
            return f"announce shapes {idx.shape}, {sel.shape}"
        if idx.min() < 0 or idx.max() >= t or sel.min() < 0 or sel.max() >= a:
            return "announce indices out of range"
        return None

    def desk(rep, ctx):
        if not (math.isfinite(rep["contribution"]) and rep["std_error"] > 0.0):
            return "desk contribution not finite"
        return None

    def firm_self(rep, ctx):
        desks = [ctx["reports"][f"announced_desk{j}"]["contribution"]
                 for j in range(sz["desks"])]
        scale = math.fsum(abs(v) for v in desks)
        return _first(
            _close(math.fsum(desks), rep["contribution"],
                   "sum of desk contributions vs the firm's own", REL_TOL * scale),
            _close(rep["contribution"], ctx["reports"]["estimate_uniform"]["estimate"],
                   "announced firm contribution vs the firm MC estimate"))

    def est_uniform(rep, ctx):
        return _within_se(rep["estimate"], rep["std_error"], exact(recent, None, a, b),
                          "uniform MC estimate")

    def est_geometric(rep, ctx):
        want = exact(recent, ref.geometric_probs(0.999, t), a, b)
        return _within_se(rep["estimate"], rep["std_error"], want, "geometric MC estimate")

    def est_bootstrap(rep, ctx):
        want, se = ref.beta_mc(recent, ref.geometric_probs(0.999, t), 50, 5, 2,
                               10000, seed)
        return _within_se(rep["estimate"], math.hypot(rep["std_error"], se), want,
                          "bootstrap MC estimate vs an independent MC")

    def est_scaling(rep, ctx):
        want = exact(ref.ewma_scaled(recent, 1.0), None, a, b)
        return _within_se(rep["estimate"], rep["std_error"], want, "scaling MC estimate")

    def contrib_firm(rep, ctx):
        reps = ctx["reports"]
        return _first(
            _close(rep["firm_risk"], reps["estimate_uniform"]["estimate"],
                   "in-process firm risk vs the firm MC estimate"),
            _close(rep["contribution"], reps["announced_desk0"]["contribution"],
                   "in-process desk0 contribution vs the announced one"))

    ann = ["--announced", "ann.json", "--seed", str(s)]
    cmds = [Command("announce", ["announce", "--input", "firm.csv", "--measure", measure,
                                 "--scheme", f"uniform:{t}", "--trials", str(k),
                                 "--seed", str(s), "--out", "ann.json"], announce,
                    outputs=["ann.json"])]
    cmds += [Command(f"announced_desk{j}", ["contrib", "--input", f"desk{j}.csv"] + ann, desk)
             for j in range(sz["desks"])]
    cmds += [
        Command("announced_firm", ["contrib", "--input", "firm.csv"] + ann, firm_self),
        Command("estimate_uniform", ["estimate", "--input", "firm.csv", "--measure", measure,
                                     "--scheme", f"uniform:{t}", "--trials", str(k),
                                     "--seed", str(s)], est_uniform),
        Command("estimate_geometric", ["estimate", "--input", "firm.csv", "--measure", measure,
                                       "--scheme", "geometric:0.999", "--trials", str(4 * k),
                                       "--seed", str(s + 1)], est_geometric),
        Command("estimate_bootstrap", ["estimate", "--input", "firm.csv", "--measure",
                                       "beta:50,5", "--scheme", "bootstrap:2,0.999",
                                       "--trials", "10000", "--seed", str(s + 2)],
                est_bootstrap),
        Command("estimate_scaling", ["estimate", "--input", "firm.csv", "--measure", measure,
                                     "--scheme", "scaling:1.0", "--standardize",
                                     "--trials", str(2 * k), "--seed", str(s + 3)],
                est_scaling),
        Command("contrib_firm_mc", ["contrib", "--input", "desk0.csv", "--firm", "firm.csv",
                                    "--measure", measure, "--scheme", f"uniform:{t}",
                                    "--trials", str(k), "--seed", str(s)], contrib_firm),
    ]
    return cmds


# ---------------------------------------------------------------------------
# solver_factor: factor regressions, the optimizer and the equilibrium
# ---------------------------------------------------------------------------

def _solver_factor(seed: int, data: dict, work: str) -> list:
    total = ref.spectral_risk(data["pnl"].sum(axis=1), None, ref.distortion(_TAIL))
    with open(os.path.join(work, "limits.json")) as fh:
        limits = json.load(fh)
    s = str(seed % 100000)

    def factor(rep, ctx):
        risks = [row["factor_risk"] for row in rep["factors"]]
        if "joint_factor_risk" in rep:
            risks.append(rep["joint_factor_risk"])
        bad = [r for r in risks if not (math.isfinite(r) and r <= total * (1.0 + REL_TOL))]
        if bad:
            return f"factor risks {bad} exceed the total risk {total!r}"
        contribs = [row.get("factor_contribution", 0.0) for row in rep["factors"]]
        if not all(math.isfinite(c) for c in contribs):
            return "factor contribution not finite"
        return None

    def optimize(rep, ctx):
        for lim in limits:
            label = f"{lim['measure']}<= {lim['limit']}"
            label += f" | {lim['factor']}" if lim.get("factor") else ""
            if not rep["risks"][label] <= lim["limit"] * (1.0 + REL_TOL):
                return f"limit {label!r} breached: {rep['risks'][label]!r}"
        if not rep["binding"] or not rep["objective"] > 0.0:
            return "optimum binds no limit or has no reward"
        return None

    def equilibrium(rep, ctx):
        v = rep["verification"]
        flags = ("trades_zero_sum", "feasible", "some_binding", "complementary_slackness")
        failed = [f for f in flags if v[f] is not True]
        return f"equilibrium conditions fail: {failed}" if failed else None

    solver = ["--seed", s, "--restarts", "3", "--max-iter", "200"]
    return [
        Command("factor_kernel", ["factor", "--input", "panel.csv", "--factors", "factors.csv",
                                  "--measure", _TAIL, "--regression", "kernel",
                                  "--trade", "trade.csv", "--joint"], factor),
        Command("factor_knn", ["factor", "--input", "panel.csv", "--factors", "factors.csv",
                               "--measure", _TAIL, "--regression", "knn:50", "--joint"],
                factor),
        Command("optimize", ["optimize", "--panel", "panel.csv", "--rewards", "rewards.csv",
                             "--limits", "limits.json", "--factors", "factors.csv"] + solver,
                optimize),
        Command("equilibrium", ["equilibrium", "--firm", "firm.json"] + solver, equilibrium),
    ]


def commands(workload: str, seed: int, data: dict, work: str) -> list:
    """The workload's commands, in pass order, with their output checks."""
    if workload == "desk_exact":
        return _desk_exact(seed, data)
    if workload == "shared_draws":
        return _shared_draws(seed, data)
    return _solver_factor(seed, data, work)
