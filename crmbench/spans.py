"""In-memory span tracing of the crm layers, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, command id) and bumps work counters at the same
boundary. Several modules bind names directly (``from .scenario import
weighted_var``), so a wrapper must be installed at every import site; the
guard refuses to trace if any listed site, or any other reference inside the
package, still points at an original function.

A span's self time is its duration minus the time covered by its child spans,
so summed over one command's spans the self times equal the duration of the
command's root ``cli.run_command`` span by construction.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

_ORIGINAL = "__crmbench_original__"


class UnwrappedSite(RuntimeError):
    """A listed call site, or another reference in the package, is not traced."""


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, command]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.command = -1
        self.solves = []  # (solve span, limits, iterations) per solve_portfolio call
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.command])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()


# -- work counters, recorded at the span boundary ---------------------------

def _size(a) -> int:
    return int(getattr(a, "size", 0))


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _count_panel(tr, idx, args, res):
    tr.counts["panel.rows"] += res.periods
    tr.counts["panel.bytes_read"] += os.path.getsize(args[0])


def _count_kernel(tr, idx, args, res):
    arrays = [a for a in args if hasattr(a, "nbytes")] + [res]
    tr.counts["kernels.elements"] += max(_size(a) for a in arrays)
    tr.counts["kernels.bytes_computed"] += _nbytes(*arrays)


def _count_draws(tr, idx, args, res):
    tr.counts["sampling.draw_cells"] += _size(res.indices)


def _count_mc(tr, idx, args, res):
    tr.counts["mc.trials"] += res.trials


def _count_distortion(tr, idx, args, res):
    tr.counts["distortion.points"] += max(_size(args[1]), 1)


def _count_scenarios(tr, idx, args, res):
    tr.counts["scenario.scenarios"] += len(args[0])


def _count_predict(tr, idx, args, res):
    tr.counts["factor.predict.queries"] += _size(res)


def _count_solve(tr, idx, args, res):
    tr.counts["optimize.iterations"] += res.iterations
    tr.solves.append((idx, len(args[0].limits), res.iterations))


@dataclass(frozen=True)
class Site:
    """One traced function: span name, defining location, and the other
    import sites that bind it by name. Locations read ``module:attr`` or
    ``module:Class.attr``."""

    span: str
    home: str
    sites: tuple = ()
    count: Optional[Callable] = None


def _k(name):
    return Site(f"kernels.{name}", f"crm._kernels:{name}", count=_count_kernel)


SITES = (
    Site("panel.ingest_panel", "crm.panel:ingest_panel", ("crm.cli:ingest_panel",),
         _count_panel),
    _k("uniforms"), _k("uniform_indices"), _k("cdf_indices"),
    _k("row_argmin"), _k("rank_columns"), _k("row_smallest_sums"),
    Site("sampling.generate_draws", "crm.sampling:generate_draws", count=_count_draws),
    Site("sampling.materialize", "crm.sampling:materialize"),
    Site("sampling.time_change_series", "crm.sampling:time_change_series"),
    Site("sampling.scale_series", "crm.sampling:scale_series"),
    Site("sampling.ewma_volatility", "crm.sampling:ewma_volatility"),
    Site("mc.alpha_var_mc", "crm.mc:alpha_var_mc", count=_count_mc),
    Site("mc.beta_var_mc", "crm.mc:beta_var_mc", count=_count_mc),
    Site("mc.alpha_contribution_mc", "crm.mc:alpha_contribution_mc", count=_count_mc),
    Site("mc.beta_contribution_mc", "crm.mc:beta_contribution_mc", count=_count_mc),
    Site("mc.weighted_contribution_empirical", "crm.mc:weighted_contribution_empirical"),
    Site("distortion.parse_measure", "crm.distortion:parse_measure"),
    Site("distortion.distortion", "crm.distortion:WeightingMeasure.distortion",
         count=_count_distortion),
    Site("scenario.weighted_var", "crm.scenario:weighted_var",
         ("crm.cli:weighted_var", "crm.factor:weighted_var", "crm.contribution:weighted_var"),
         _count_scenarios),
    Site("scenario.tail_var", "crm.scenario:tail_var", ("crm.cli:tail_var",),
         _count_scenarios),
    Site("scenario.sorted_support", "crm.scenario:ScenarioDistribution.sorted_support"),
    Site("contribution.extreme_measure", "crm.contribution:extreme_measure",
         ("crm.optimize:extreme_measure", "crm.sharing:extreme_measure")),
    Site("contribution.risk_contribution", "crm.contribution:risk_contribution",
         ("crm.factor:risk_contribution",)),
    Site("contribution.capital_allocation", "crm.contribution:capital_allocation",
         ("crm.cli:capital_allocation",)),
    Site("contribution.tail_correlation", "crm.contribution:tail_correlation",
         ("crm.cli:tail_correlation",)),
    Site("factor.fit", "crm.factor:fit_conditional_mean"),
    Site("factor.predict", "crm.factor:KernelRegressor.predict", count=_count_predict),
    Site("factor.predict", "crm.factor:KNearestRegressor.predict", count=_count_predict),
    Site("factor.factor_risk", "crm.factor:factor_risk"),
    Site("factor.factor_contribution", "crm.factor:factor_contribution"),
    Site("optimize.solve_portfolio", "crm.optimize:solve_portfolio", count=_count_solve),
    Site("optimize.support_value", "crm.optimize:support_value"),
    # private, but required: it lets the counters tell the start-up probes'
    # support_value calls from those of the ascent steps
    Site("optimize.no_good_deals_check", "crm.optimize:_no_good_deals_check"),
    Site("sharing.equilibrium_prices", "crm.sharing:equilibrium_prices"),
    Site("sharing.limit_trades", "crm.sharing:limit_trades"),
    Site("sharing.verify_equilibrium", "crm.sharing:verify_equilibrium"),
)


def _resolve(location: str):
    """(owner object, attribute name) for ``module:attr`` or ``module:Cls.attr``."""
    mod_name, _, path = location.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(fn, name: str, count, tracer: Tracer):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(tracer, idx, args, result)
            return result
        finally:
            tracer.close(idx)

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__doc__ = fn.__doc__
    setattr(traced, _ORIGINAL, fn)
    return traced


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "crm" or n.startswith("crm."))]


class Instrumentation:
    """Installs wrappers at every site for one tracer and removes them again."""

    def __init__(self, tracer: Tracer, sites=SITES):
        self.tracer = tracer
        self.sites = sites
        self._saved = []      # (owner, attr, original) in install order
        self._originals = {}  # id(original) -> (original, wrapper)

    def install(self) -> None:
        importlib.import_module("crm.cli")
        for site in self.sites:
            try:
                owner, attr = _resolve(site.home)
                fn = vars(owner)[attr]
            except (AttributeError, KeyError):
                raise UnwrappedSite(f"{site.home} no longer exists") from None
            wrapper = _wrap(fn, site.span, site.count, self.tracer)
            self._originals[id(fn)] = (fn, wrapper)
            self._set(owner, attr, wrapper)
            for loc in site.sites:
                owner, attr = _resolve(loc)
                if getattr(owner, attr) is fn:
                    self._set(owner, attr, wrapper)
        # any other module that bound an original by name
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        self.check()

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def check(self) -> None:
        """Raise UnwrappedSite unless every listed site and every reference in
        the package points at a wrapper."""
        for site in self.sites:
            for loc in (site.home,) + site.sites:
                try:
                    owner, attr = _resolve(loc)
                    value = getattr(owner, attr)
                except AttributeError:
                    raise UnwrappedSite(f"{loc} no longer exists") from None
                if not hasattr(value, _ORIGINAL):
                    raise UnwrappedSite(f"{loc} is not traced")
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    raise UnwrappedSite(f"{mod.__name__}.{attr} still binds the untraced "
                                        f"{value.__qualname__}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._originals.clear()


# -- metrics from spans --------------------------------------------------------

GROUPS = {
    "sampling.transform": ("sampling.time_change_series", "sampling.scale_series",
                           "sampling.ewma_volatility"),
    "mc.estimators": ("mc.alpha_var_mc", "mc.beta_var_mc", "mc.alpha_contribution_mc",
                      "mc.beta_contribution_mc"),
}


def span_times(spans):
    """Per span: (duration ns, self ns)."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def _group_of(name: str) -> str:
    for group, members in GROUPS.items():
        if name in members:
            return group
    return name


def aggregate(spans):
    """{key: ns} with '<name>.busy' (inclusive, outermost span of the name or
    group only), '<name>.self', '<name>.calls' for every span name and group,
    and '<layer>.self' per layer (the name's first component)."""
    dur, own = span_times(spans)
    out = Counter()
    for i, (name, _, _, parent, _) in enumerate(spans):
        keys = {name, _group_of(name)}
        layer = name.split(".", 1)[0]
        for key in keys:
            out[f"{key}.self"] += own[i]
            out[f"{key}.calls"] += 1
            p = parent
            while p >= 0 and key not in (spans[p][0], _group_of(spans[p][0])):
                p = spans[p][3]
            if p < 0:
                out[f"{key}.busy"] += dur[i]
        out[f"layer.{layer}.self"] += own[i]
    return out

