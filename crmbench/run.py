#!/usr/bin/env python3
"""End-to-end benchmark of the crm command-line interface.

    python3 crmbench/run.py --workload desk_exact --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is found from this file. The
workload's inputs are generated from the seed into
``.bench_build/crmbench/``. With ``--trace 0`` every command of a pass runs as
a fresh ``python -m crm.cli`` child, one at a time (closed loop, one client),
and passes repeat until the next one would end after ``--seconds``; the
end-to-end metrics are medians over the passes. With ``--trace 1`` one child
pass gives reference reports, then passes run in-process through
``crm.cli.run_command``, alternating untraced and traced, and the per-layer
metrics come from the traced ones. Every report is checked; the last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "crmbench")
SETUP_IMPORTS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1024.0 * 1024.0

END_TO_END = {  # name: unit
    "batch_s": "s", "cmd_max_s": "s", "peak_rss_mb": "MB", "cpu_s": "s",
    "setup_s": "s", "output_mb": "MB", "ok_frac": "ratio",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_threads() -> None:
    """One BLAS/OpenMP thread per process: commands run one at a time, and a
    second pool thread would only contend with whatever else shares the
    machine, which makes timings less steady without making them faster."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def parse_report(text: str):
    """Strictly parsed report (NaN/Infinity rejected), or raise ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def canonical(report) -> str:
    """The report with its timings stripped, in a canonical text form."""
    return json.dumps({k: v for k, v in report.items() if k != "timings"}, sort_keys=True)


class Outcome:
    """One command execution: exit code, report, bytes written, resources."""

    def __init__(self, code, text, out_bytes, wall, rss_kb=0, cpu=0.0):
        self.out_bytes, self.wall = out_bytes, wall
        self.rss_kb, self.cpu = rss_kb, cpu
        self.report, self.key, self.error = None, None, None
        if code != 0:
            self.error = f"exit code {code}"
            return
        try:
            self.report = parse_report(text)
            self.key = canonical(self.report)
        except ValueError as exc:
            self.error = f"report is not strict JSON: {exc}"


def _output_bytes(cmd, work) -> int:
    return sum(os.path.getsize(os.path.join(work, f)) for f in cmd.outputs
               if os.path.exists(os.path.join(work, f)))


def child_pass(cmds, work, env, pass_dir):
    """Run every command as its own child process; return (wall s, outcomes)."""
    os.makedirs(pass_dir, exist_ok=True)
    timing = []
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        out_path = os.path.join(pass_dir, f"{i}.out")
        with open(out_path, "wb") as out, open(os.path.join(pass_dir, f"{i}.err"), "wb") as err:
            c0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "crm.cli"] + cmd.argv, cwd=work,
                                    env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - c0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timing.append((proc.returncode, wall, usage, _output_bytes(cmd, work)))
    batch = time.perf_counter() - t0
    outcomes = []
    for i, (code, wall, usage, extra) in enumerate(timing):
        out_path = os.path.join(pass_dir, f"{i}.out")
        with open(out_path) as fh:
            text = fh.read()
        outcomes.append(Outcome(code, text, os.path.getsize(out_path) + extra, wall,
                                usage.ru_maxrss, usage.ru_utime + usage.ru_stime))
    shutil.rmtree(pass_dir)
    return batch, outcomes


def inprocess_pass(cmds, work, tracer=None):
    """Run every command through crm.cli.run_command in this process."""
    from crm import cli
    outcomes = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        t0 = time.perf_counter()
        for i, cmd in enumerate(cmds):
            out, err = io.StringIO(), io.StringIO()
            c0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.run_command(list(cmd.argv))
                else:
                    tracer.command = i
                    span = tracer.open("cli.run_command")
                    try:
                        code = cli.run_command(list(cmd.argv))
                    finally:
                        tracer.close(span)
            wall = time.perf_counter() - c0
            text = out.getvalue()
            outcomes.append(Outcome(code, text, len(text.encode()) + _output_bytes(cmd, work),
                                    wall))
        batch = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return batch, outcomes


def check_outcomes(cmds, passes, ctx, reference=None):
    """Failure message per execution (None when it passed), pass by pass.

    The first pass's reports (or `reference`, a list of outcomes from another
    pass) are checked by the command's own check; every other execution must
    reproduce the same report with timings stripped.
    """
    ref = reference if reference is not None else passes[0]
    ctx["reports"] = {c.name: o.report for c, o in zip(cmds, ref)}
    verdict = []
    for cmd, o in zip(cmds, ref):
        if o.error:
            verdict.append(o.error)
            continue
        try:
            verdict.append(cmd.check(o.report, ctx))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdict.append(f"check raised {type(exc).__name__}: {exc}")
    failures = []
    for outcomes in passes:
        row = []
        for i, (cmd, o) in enumerate(zip(cmds, outcomes)):
            if o.error:
                row.append(o.error)
            elif ref[i].error is None and o.key != ref[i].key:
                row.append("report differs from the reference pass")
            else:
                row.append(verdict[i])
        failures.append(row)
    return failures


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "crm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    from crm import _kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kernel_backend": _kernels.backend(),
            "nproc": _nproc(), "cpu": _cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _time_import(env, work) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import crm.cli"], cwd=work, env=env)
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"import crm.cli failed with exit code {proc.returncode}")
    return wall


def _repeat(run_pass, seconds, start=None):
    """Run passes until the next one would likely end more than `seconds`
    after `start` (default: now); always at least one."""
    first = time.perf_counter()
    start = first if start is None else start
    results = []
    while True:
        results.append(run_pass(len(results)))
        now = time.perf_counter()
        if now - start + (now - first) / len(results) > seconds:
            return results


def timed_run(cmds, work, ctx, seconds):
    env = _child_env()
    setup = []

    def one_pass(p):
        # imports are spread over the run so setup_s samples the same
        # stretch of machine time as the passes
        setup.append(_time_import(env, work))
        return child_pass(cmds, work, env, os.path.join(work, f"pass{p}"))

    passes = _repeat(one_pass, seconds)
    setup += [_time_import(env, work) for _ in range(SETUP_IMPORTS - len(setup))]
    outcomes = [o for _, o in passes]
    failures = check_outcomes(cmds, outcomes, ctx)
    samples = {
        "batch_s": [b for b, _ in passes],
        "cmd_max_s": [max(o.wall for o in os_) for os_ in outcomes],
        "peak_rss_mb": [max(o.rss_kb for o in os_) / 1024.0 for os_ in outcomes],
        "cpu_s": [math.fsum(o.cpu for o in os_) for os_ in outcomes],
        "setup_s": setup,
        "output_mb": [sum(o.out_bytes for o in os_) / MB for os_ in outcomes],
    }
    per_command = [{"name": c.name, "wall_s": [os_[i].wall for os_ in outcomes],
                    "rss_mb": outcomes[0][i].rss_kb / 1024.0, "cpu_s": outcomes[0][i].cpu}
                   for i, c in enumerate(cmds)]
    return samples, failures, {"commands": per_command}


def traced_run(cmds, work, ctx, seconds):
    import spans
    env = _child_env()
    start = time.perf_counter()
    _, reference = child_pass(cmds, work, env, os.path.join(work, "reference"))

    def pair(_):
        plain = inprocess_pass(cmds, work)
        tracer = spans.Tracer()
        inst = spans.Instrumentation(tracer)
        inst.install()
        try:
            traced = inprocess_pass(cmds, work, tracer)
        finally:
            inst.uninstall()
        return plain, traced, tracer

    runs = _repeat(pair, seconds, start)
    outcomes = [reference] + [o for p, t, _ in runs for o in (p[1], t[1])]
    failures = check_outcomes(cmds, outcomes, ctx, reference=reference)
    samples, units = {}, {}
    for plain, traced, tracer in runs:
        for name, (value, unit) in layer_metrics(tracer, traced, plain[0]).items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
    last = runs[-1][2]
    agg = spans.aggregate(last.spans)
    total = agg["cli.run_command.busy"] or 1
    layers = {key[len("layer."):-len(".self")]: agg[key] / 1e9 for key in agg
              if key.startswith("layer.") and key.endswith(".self")}
    extra = {"units": units, "layers_self_s": layers,
             "layers_share": {k: v * 1e9 / total for k, v in layers.items()},
             "spans": last.spans,
             "untraced_inprocess_batch_s": [p[0] for p, _, _ in runs],
             "traced_inprocess_batch_s": [t[0] for _, t, _ in runs]}
    return samples, failures, extra


def layer_metrics(tracer, traced, untraced_batch):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    import spans
    agg = spans.aggregate(tracer.spans)
    c = tracer.counts

    def sec(key):
        return agg[key] / 1e9

    out = {
        "panel.ingest_panel.calls": (agg["panel.ingest_panel.calls"], "count"),
        "panel.ingest_panel.busy_s": (sec("panel.ingest_panel.busy"), "s"),
        "panel.rows": (c["panel.rows"], "count"),
        "panel.bytes_read": (c["panel.bytes_read"], "bytes"),
        "cli.run_command.busy_s": (sec("cli.run_command.busy"), "s"),
        "cli.self_s": (sec("layer.cli.self"), "s"),
        "cli.bytes_written": (sum(o.out_bytes for o in traced[1]), "bytes"),
    }
    for k in ("uniforms", "uniform_indices", "cdf_indices", "row_argmin", "rank_columns",
              "row_smallest_sums"):
        out[f"kernels.{k}.busy_s"] = (sec(f"kernels.{k}.busy"), "s")
    # solve_portfolio evaluates every limit once per ascent step that does not
    # stop the restart, and once more at the end; a restart that stops early
    # (stall or zero gradient) evaluates once without stepping
    parent = {i: s[3] for i, s in enumerate(tracer.spans)
              if s[0] == "optimize.support_value"}
    converged = 0
    for idx, n_limits, iterations in tracer.solves:
        direct = sum(1 for p in parent.values() if p == idx)
        converged += direct // n_limits - 1 - iterations
    out.update({
        "kernels.elements": (c["kernels.elements"], "count"),
        "kernels.bytes_computed": (c["kernels.bytes_computed"], "bytes"),
        "sampling.generate_draws.self_s": (sec("sampling.generate_draws.self"), "s"),
        "sampling.materialize.busy_s": (sec("sampling.materialize.busy"), "s"),
        "sampling.transform.busy_s": (sec("sampling.transform.busy"), "s"),
        "sampling.draw_cells": (c["sampling.draw_cells"], "count"),
        "mc.estimators.self_s": (sec("mc.estimators.self"), "s"),
        "mc.trials": (c["mc.trials"], "count"),
        "mc.weighted_contribution_empirical.self_s":
            (sec("mc.weighted_contribution_empirical.self"), "s"),
        "distortion.parse_measure.busy_s": (sec("distortion.parse_measure.busy"), "s"),
        "distortion.distortion.calls": (agg["distortion.distortion.calls"], "count"),
        "distortion.distortion.busy_s": (sec("distortion.distortion.busy"), "s"),
        "distortion.points": (c["distortion.points"], "count"),
        "scenario.weighted_var.calls": (agg["scenario.weighted_var.calls"], "count"),
        "scenario.weighted_var.self_s": (sec("scenario.weighted_var.self"), "s"),
        "scenario.sorted_support.busy_s": (sec("scenario.sorted_support.busy"), "s"),
        "scenario.tail_var.calls": (agg["scenario.tail_var.calls"], "count"),
        "scenario.scenarios": (c["scenario.scenarios"], "count"),
        "contribution.extreme_measure.calls": (agg["contribution.extreme_measure.calls"],
                                               "count"),
        "contribution.extreme_measure.self_s": (sec("contribution.extreme_measure.self"), "s"),
        "contribution.risk_contribution.self_s":
            (sec("contribution.risk_contribution.self"), "s"),
        "contribution.capital_allocation.self_s":
            (sec("contribution.capital_allocation.self"), "s"),
        "contribution.tail_correlation.self_s":
            (sec("contribution.tail_correlation.self"), "s"),
        "factor.fit.calls": (agg["factor.fit.calls"], "count"),
        "factor.fit.busy_s": (sec("factor.fit.busy"), "s"),
        "factor.predict.busy_s": (sec("factor.predict.busy"), "s"),
        "factor.predict.queries": (c["factor.predict.queries"], "count"),
        "factor.factor_risk.self_s": (sec("factor.factor_risk.self"), "s"),
        "factor.factor_contribution.self_s": (sec("factor.factor_contribution.self"), "s"),
        "optimize.solve_portfolio.self_s": (sec("optimize.solve_portfolio.self"), "s"),
        "optimize.support_value.calls": (agg["optimize.support_value.calls"], "count"),
        "optimize.support_value.self_s": (sec("optimize.support_value.self"), "s"),
        "optimize.iterations": (c["optimize.iterations"], "count"),
        "optimize.restarts_converged": (converged, "count"),
        "sharing.equilibrium_prices.self_s": (sec("sharing.equilibrium_prices.self"), "s"),
        "sharing.limit_trades.self_s": (sec("sharing.limit_trades.self"), "s"),
        "sharing.verify_equilibrium.self_s": (sec("sharing.verify_equilibrium.self"), "s"),
        "trace.overhead_s": (traced[0] - untraced_batch, "s"),
    })
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "crm", "cli.py")):
        sys.stderr.write(f"crmbench: no crm package under {SRC}; run from a full checkout\n")
        return 2
    _pin_threads()
    sys.path.insert(0, SRC)
    import inputs
    import report
    import workloads
    if args.workload not in inputs.WORKLOADS:
        sys.stderr.write(f"crmbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(inputs.WORKLOADS)}\n")
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(BUILD, "work", tag)
    results = os.path.join(BUILD, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(results, exist_ok=True)
    sizes, data = inputs.generate(args.workload, args.seed, work)
    cmds = workloads.commands(args.workload, args.seed, data, work)
    ctx = {"work": work}
    env = environment()
    run = traced_run if args.trace else timed_run
    samples, failures, extra = run(cmds, work, ctx, args.seconds)

    attempted = sum(len(row) for row in failures)
    failed = sum(1 for row in failures for f in row if f)
    if not args.trace:
        samples["ok_frac"] = [(attempted - failed) / attempted]
    units = extra.pop("units", END_TO_END)
    values = {name: (report.median(samples[name]), unit) for name, unit in units.items()}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    for p, row in enumerate(failures):
        for cmd, msg in zip(cmds, row):
            if msg:
                sys.stderr.write(f"crmbench: FAILED pass {p} {cmd.name}: {msg}\n")
    print(f"crmbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sizes={json.dumps(sizes)}")
    print("environment " + json.dumps(env, sort_keys=True))
    rows = [[name, m["unit"], f"{m['value']:.6g}", report.fmt_tail(samples.get(name, [])),
             len(samples.get(name, []))] for name, m in metrics.items()]
    report.print_table(["metric", "unit", "median", "tail", "n"], rows)
    if args.trace:
        report.print_table(["layer", "self_s", "share"],
                           [[k, f"{v:.4f}", f"{extra['layers_share'][k]:.3f}"]
                            for k, v in sorted(extra["layers_self_s"].items())])
        with open(os.path.join(results, f"{tag}-spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command"],
                       "commands": [c.argv for c in cmds], "spans": extra.pop("spans")}, fh)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                       sizes=sizes, environment=env, samples=samples, **extra,
                       failures=failures), fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the result line must not be printed for a broken run
        traceback.print_exc()
        sys.exit(1)
