"""Tests of the benchmark's own code: inputs, span arithmetic, tracing."""

import json
import os

import numpy as np
import pytest

import inputs
import run
import spans
from workloads import Command


def _files(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_byte_deterministic_per_seed(tmp_path, workload):
    inputs.generate(workload, 7, str(tmp_path / "a"))
    inputs.generate(workload, 7, str(tmp_path / "b"))
    inputs.generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_files(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert any(a[name] != c[name] for name in a)


def test_tie_share_counts_values_that_repeat():
    assert inputs.tie_share([1.0, 2.0, 2.0, 3.0]) == 0.5
    assert inputs.tie_share([1.0, 2.0]) == 0.0


def _span(name, start, end, parent, cmd=0):
    return [name, start, end, parent, cmd]


def test_self_times_on_a_hand_built_tree():
    tree = [
        _span("cli.run_command", 0, 100, -1),
        _span("panel.ingest_panel", 10, 30, 0),
        _span("scenario.weighted_var", 40, 90, 0),
        _span("scenario.sorted_support", 50, 70, 2),
        _span("scenario.weighted_var", 72, 74, 2),      # nested call of the same name
        _span("distortion.distortion", 75, 80, 2),
        _span("sampling.scale_series", 91, 99, 0),
        _span("sampling.ewma_volatility", 92, 97, 6),   # same group as its parent
    ]
    dur, own = spans.span_times(tree)
    assert dur == [100, 20, 50, 20, 2, 5, 8, 5]
    assert own == [100 - 20 - 50 - 8, 20, 50 - 20 - 2 - 5, 20, 2, 5, 3, 5]
    agg = spans.aggregate(tree)
    assert agg["layer.cli.self"] == 22
    assert agg["layer.scenario.self"] == 23 + 20 + 2
    assert agg["scenario.weighted_var.calls"] == 2
    assert agg["scenario.weighted_var.busy"] == 50      # the nested call is inside
    assert agg["scenario.weighted_var.self"] == 25
    assert agg["sampling.transform.busy"] == 8          # group counted once
    assert agg["sampling.transform.self"] == 8
    assert sum(v for k, v in agg.items() if k.startswith("layer.")) == 100


def _write(path, names, rows, start=0):
    lines = ["date," + ",".join(names)]
    base = np.datetime64("2001-01-01")
    lines += [f"{base + start + i}," + ",".join(repr(float(v)) for v in row)
              for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def small_inputs(tmp_path):
    rng = np.random.default_rng(3)
    t = 400
    pnl = rng.standard_t(4, size=(t, 3)) + 0.05
    _write(tmp_path / "panel.csv", ["A", "B", "C"], pnl)
    _write(tmp_path / "trade.csv", ["X"], rng.standard_t(4, size=(t - 50, 1)), start=25)
    _write(tmp_path / "factors.csv", ["F"], pnl[:, :1] + rng.normal(size=(t, 1)))
    (tmp_path / "rewards.csv").write_text("asset,reward\nA,1.0\nB,0.5\nC,0.7\n")
    (tmp_path / "limits.json").write_text(json.dumps(
        [{"measure": "tail:0.1", "limit": 2.0},
         {"measure": "tail:0.2", "limit": 1.0, "factor": "F"}]))
    (tmp_path / "firm.json").write_text(json.dumps({
        "desks": [{"name": "d0", "panel": "panel.csv", "columns": ["A"], "rewards": [1.0]},
                  {"name": "d1", "panel": "panel.csv", "columns": ["B", "C"],
                   "rewards": [0.5, 0.7]}],
        "limits": [{"measure": "tail:0.1", "limit": 2.0}]}))
    argvs = [
        ["estimate", "--input", "panel.csv", "--measure", "tail:0.1", "--seed", "1"],
        ["estimate", "--input", "panel.csv", "--measure", "beta:20,4", "--scheme",
         "bootstrap:2,0.99", "--trials", "300", "--seed", "1"],
        ["estimate", "--input", "panel.csv", "--measure", "beta:20,4", "--scheme",
         "scaling:1.0", "--standardize", "--trials", "300", "--seed", "1"],
        ["announce", "--input", "panel.csv", "--measure", "beta:20,4", "--scheme",
         "uniform:400", "--trials", "200", "--seed", "2", "--out", "ann.json"],
        ["contrib", "--input", "panel.csv", "--announced", "ann.json", "--seed", "2"],
        ["contrib", "--input", "trade.csv", "--firm", "panel.csv", "--measure",
         "mix:0.5@0.05,0.5@0.2", "--seed", "1"],
        ["kappa", "--input", "trade.csv", "--firm", "panel.csv", "--measure", "tail:0.2"],
        ["allocate", "--input", "panel.csv", "--measure", "tail:0.1"],
        ["factor", "--input", "panel.csv", "--factors", "factors.csv", "--measure",
         "tail:0.1", "--trade", "panel.csv", "--joint"],
        ["optimize", "--panel", "panel.csv", "--rewards", "rewards.csv", "--limits",
         "limits.json", "--factors", "factors.csv", "--restarts", "2", "--max-iter", "30",
         "--seed", "1"],
        ["equilibrium", "--firm", "firm.json", "--restarts", "2", "--max-iter", "30",
         "--seed", "1"],
    ]
    return str(tmp_path), [Command(f"c{i}", a, None, ["ann.json"] if a[0] == "announce"
                                   else []) for i, a in enumerate(argvs)]


def test_wrappers_leave_reports_unchanged(small_inputs):
    from crm import cli, scenario
    work, cmds = small_inputs
    _, plain = run.inprocess_pass(cmds, work)
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    inst.install()
    try:
        _, traced = run.inprocess_pass(cmds, work, tracer)
    finally:
        inst.uninstall()
    assert all(o.error is None for o in plain + traced)
    assert [o.key for o in traced] == [o.key for o in plain]
    # every layer was seen and the originals are back
    layers = {s[0].split(".")[0] for s in tracer.spans}
    assert layers == {"cli", "panel", "kernels", "sampling", "mc", "distortion", "scenario",
                      "contribution", "factor", "optimize", "sharing"}
    assert cli.weighted_var is scenario.weighted_var
    assert not hasattr(cli.weighted_var, "__crmbench_original__")


def test_guard_fires_on_an_unwrapped_site():
    from crm import cli
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()
    try:
        original = cli.tail_var.__crmbench_original__
        cli.tail_var = original
        with pytest.raises(spans.UnwrappedSite, match="crm.cli:tail_var"):
            inst.check()
    finally:
        inst.uninstall()
    assert cli.tail_var is original


def test_guard_fires_on_a_missing_site():
    gone = spans.Site("scenario.gone", "crm.scenario:no_such_function")
    inst = spans.Instrumentation(spans.Tracer(), sites=(gone,))
    with pytest.raises(spans.UnwrappedSite, match="no longer exists"):
        inst.install()
    inst.uninstall()


def test_strict_report_parsing_rejects_non_finite_numbers():
    assert run.parse_report('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        run.parse_report('{"a": NaN}')
    with pytest.raises(ValueError):
        run.parse_report('{"a": -Infinity}')
