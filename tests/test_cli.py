"""CLI: ingestion, subcommand behaviour, determinism, exit codes."""

import csv
import json
import re
import sys

import numpy as np
import pytest

from crm import cli
from crm import distortion as D
from crm import scenario as S
from crm.errors import DataError
from crm.panel import ingest_panel


def write_panel(path, names, rows, dates=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + list(names))
        d0 = np.datetime64("2025-01-01")
        for i, row in enumerate(rows):
            date = dates[i] if dates else str(d0 + i)
            w.writerow([date] + list(row))


def run(capsys, argv):
    code = cli.run_command([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


@pytest.fixture()
def panel_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "p.csv"
    write_panel(path, ["A", "B"], rng.normal(size=(300, 2)).round(6).tolist())
    return path


@pytest.fixture()
def trade_csv(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "x.csv"
    write_panel(path, ["X"], rng.normal(size=(300, 1)).round(6).tolist())
    return path


class TestIngest:
    def test_three_row_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_panel(path, ["A"], [[1.0], [2.0], [3.0]])
        p = ingest_panel(path)
        assert p.periods == 3
        assert p.dates[0] > p.dates[-1]  # most recent first
        assert p.pnl[:, 0].tolist() == [3.0, 2.0, 1.0]

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A,B\n2025-01-01,1.0,2.0\n2025-01-02,,2.0\n")
        with pytest.raises(DataError, match=r"row 3.*'A'"):
            ingest_panel(path)

    def test_duplicate_dates_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A\n2025-01-01,1.0\n2025-01-01,2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_panel(path)

    def test_returns_flag_differences_levels(self, tmp_path):
        path = tmp_path / "t.csv"
        write_panel(path, ["A"], [[100.0], [103.0], [101.0]])
        p = ingest_panel(path, returns=True)
        assert p.periods == 2
        # most recent first: 101 - 103, then 103 - 100
        assert p.pnl[:, 0].tolist() == [-2.0, 3.0]

    def test_prob_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A,prob\n2025-01-01,1.0,1\n2025-01-02,2.0,3\n")
        p = ingest_panel(path)
        assert p.assets == ("A",)
        assert np.allclose(p.probs, [0.75, 0.25])

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A\n2025-01-01,oops\n")
        with pytest.raises(DataError, match="not a number"):
            ingest_panel(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"date,A,B\n2025-01-01,1.0,2.0\n2025-01-02,3.0,{cell}\n")
        with pytest.raises(DataError, match=r"t\.csv: row 3, column 'B': not a finite"):
            ingest_panel(path)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="date.fromisoformat reads 20200102 from Python 3.11 on")
    def test_same_day_in_two_spellings_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A\n2020-01-01,0.5\n2020-01-02,1.0\n20200102,2.0\n")
        with pytest.raises(DataError, match=r"t\.csv: rows 3 and 4 .*'2020-01-02', '20200102'"):
            ingest_panel(path)


class TestEstimate:
    def test_exact_tail_matches_library(self, panel_csv, capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv,
                                 "--measure", "tail:0.1",
                                 "--scheme", "uniform:300", "--seed", 7])
        assert code == 0
        p = ingest_panel(panel_csv)
        want = S.weighted_var(S.ScenarioDistribution(p.series()), D.tail(0.1))
        assert abs(rep["estimate"] - want) < 1e-12
        assert rep["method"] == "exact"

    def test_monte_carlo_reports_standard_error(self, panel_csv, capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv,
                                 "--measure", "alpha:10",
                                 "--scheme", "uniform:300",
                                 "--trials", 2000, "--seed", 7])
        assert code == 0
        assert rep["method"] == "monte-carlo"
        assert rep["std_error"] > 0.0
        assert rep["trials"] == 2000

    def test_geometric_weights_change_the_exact_value(self, panel_csv, capsys):
        _, uni = run(capsys, ["estimate", "--input", panel_csv, "--measure",
                              "tail:0.2", "--scheme", "uniform:300", "--seed", 1])
        _, geo = run(capsys, ["estimate", "--input", panel_csv, "--measure",
                              "tail:0.2", "--scheme", "geometric:0.9", "--seed", 1])
        assert uni["estimate"] != geo["estimate"]

    def test_timechange_scheme_transforms_before_evaluating(self, panel_csv, capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv, "--measure",
                                 "tail:0.25", "--scheme", "timechange:1.4,2",
                                 "--seed", 1])
        assert code == 0
        from crm.sampling import time_change_series
        p = ingest_panel(panel_csv)
        eff = time_change_series(p.series(), 1.4, 2)
        want = S.weighted_var(S.ScenarioDistribution(eff), D.tail(0.25))
        assert rep["estimate"] == pytest.approx(want, abs=1e-12)

    def test_scaling_scheme_with_standardization(self, panel_csv, capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv, "--measure",
                                 "tail:0.25", "--scheme", "scaling:2.0",
                                 "--standardize", "--seed", 1])
        assert code == 0
        from crm.sampling import scale_series
        p = ingest_panel(panel_csv)
        eff = scale_series(p.series(), 2.0)
        want = S.weighted_var(S.ScenarioDistribution(eff), D.tail(0.25))
        assert rep["estimate"] == pytest.approx(want, abs=1e-12)

    def test_bootstrap_scheme_requires_trials(self, panel_csv, capsys):
        code = cli.run_command(["estimate", "--input", str(panel_csv),
                                "--measure", "tail:0.25", "--scheme",
                                "bootstrap:4", "--seed", "1"])
        assert code == 1

    def test_zero_weight_window_names_file(self, tmp_path, capsys):
        path = tmp_path / "z.csv"
        path.write_text("date,A,prob\n2025-01-01,1.0,1\n2025-01-02,-2.0,0\n"
                        "2025-01-03,3.0,0\n")
        code = cli.run_command(["estimate", "--input", str(path), "--measure", "tail:0.5",
                                "--scheme", "uniform:2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{path}: probability weights sum to zero on the dates in use" in captured.err

    def test_emit_plot_data(self, panel_csv, tmp_path, capsys):
        prefix = str(tmp_path / "plots")
        code, _ = run(capsys, ["estimate", "--input", panel_csv, "--measure",
                               "tail:0.5", "--scheme", "uniform:300",
                               "--seed", 1, "--emit-plot-data", prefix])
        assert code == 0
        cdf = (tmp_path / "plots_cdf.csv").read_text().splitlines()
        assert cdf[0] == "x,cdf"
        assert len(cdf) > 100
        curve = (tmp_path / "plots_tail_curve.csv").read_text().splitlines()
        assert curve[0] == "level,risk"
        assert len(curve) == 101
        # risk curve decreases in the level
        risks = [float(l.split(",")[1]) for l in curve[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))


class TestAnnounceContrib:
    def test_announced_contribution_matches_in_process(self, tmp_path, panel_csv,
                                                       trade_csv, capsys):
        ann = tmp_path / "a.json"
        code, _ = run(capsys, ["announce", "--input", panel_csv, "--measure",
                               "alpha:8", "--scheme", "uniform:300",
                               "--trials", 500, "--seed", 11, "--out", ann])
        assert code == 0
        code, rep_a = run(capsys, ["contrib", "--input", trade_csv,
                                   "--announced", ann, "--seed", 11])
        assert code == 0
        code, rep_b = run(capsys, ["contrib", "--input", trade_csv,
                                   "--firm", panel_csv, "--measure", "alpha:8",
                                   "--scheme", "uniform:300",
                                   "--trials", 500, "--seed", 11])
        assert code == 0
        assert rep_a["contribution"] == rep_b["contribution"]

    def test_beta_announce_round_trip(self, tmp_path, panel_csv, trade_csv, capsys):
        ann = tmp_path / "b.json"
        run(capsys, ["announce", "--input", panel_csv, "--measure", "beta:6,2",
                     "--scheme", "geometric:0.97", "--trials", 400,
                     "--seed", 3, "--out", ann])
        code, rep_a = run(capsys, ["contrib", "--input", trade_csv,
                                   "--announced", ann, "--seed", 3])
        code, rep_b = run(capsys, ["contrib", "--input", trade_csv,
                                   "--firm", panel_csv, "--measure", "beta:6,2",
                                   "--scheme", "geometric:0.97",
                                   "--trials", 400, "--seed", 3])
        assert rep_a["contribution"] == rep_b["contribution"]

    def test_exact_contribution(self, panel_csv, trade_csv, capsys):
        code, rep = run(capsys, ["contrib", "--input", trade_csv, "--firm",
                                 panel_csv, "--measure", "tail:0.25", "--seed", 1])
        assert code == 0
        pa = ingest_panel(trade_csv)
        pb = ingest_panel(panel_csv)
        from crm.mc import weighted_contribution_empirical
        want = weighted_contribution_empirical(pa.series(), pb.series(), None,
                                               D.tail(0.25))
        assert rep["contribution"] == pytest.approx(want, abs=1e-12)


class TestTrialCount:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--measure", "alpha:8", "--scheme", "uniform:300"],
        ["estimate", "--measure", "tail:0.1", "--scheme", "uniform:300"],
        ["announce", "--measure", "alpha:8", "--scheme", "uniform:300"],
        ["contrib", "--firm", "FIRM", "--measure", "alpha:8", "--scheme", "uniform:300"],
    ])
    @pytest.mark.parametrize("trials", [1, -3])
    def test_fewer_than_two_trials_rejected(self, panel_csv, argv, trials, capsys):
        argv = [str(panel_csv) if a == "FIRM" else a for a in argv]
        code = cli.run_command(argv + ["--input", str(panel_csv), "--trials", str(trials),
                                       "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--trials" in captured.err

    def test_announce_file_with_one_trial_rejected(self, tmp_path, panel_csv,
                                                   trade_csv, capsys):
        ann = tmp_path / "a.json"
        code, _ = run(capsys, ["announce", "--input", panel_csv, "--measure", "alpha:8",
                               "--scheme", "uniform:300", "--trials", 2, "--seed", 11,
                               "--out", ann])
        assert code == 0
        payload = json.loads(ann.read_text())
        payload.update(trials=1, indices=payload["indices"][:1],
                       selected=payload["selected"][:1])
        ann.write_text(json.dumps(payload))
        code = cli.run_command(["contrib", "--input", str(trade_csv), "--announced",
                                str(ann), "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "a.json" in captured.err and "2" in captured.err

    def test_two_trial_reports_are_strict_json(self, tmp_path, panel_csv, trade_csv,
                                               capsys):
        def strict(text):
            def reject(token):
                raise ValueError(token)
            return json.loads(text, parse_constant=reject)

        ann = tmp_path / "a.json"
        argvs = [
            ["estimate", "--input", panel_csv, "--measure", "beta:6,2",
             "--scheme", "uniform:300", "--trials", 2, "--seed", 3],
            ["announce", "--input", panel_csv, "--measure", "beta:6,2",
             "--scheme", "uniform:300", "--trials", 2, "--seed", 3, "--out", ann],
            ["contrib", "--input", trade_csv, "--announced", ann, "--seed", 3],
            ["contrib", "--input", trade_csv, "--firm", panel_csv, "--measure", "beta:6,2",
             "--scheme", "uniform:300", "--trials", 2, "--seed", 3],
        ]
        reports = []
        for argv in argvs:
            assert cli.run_command([str(a) for a in argv]) == 0
            reports.append(strict(capsys.readouterr().out))
        announced, inprocess = reports[2], reports[3]
        assert announced["trials"] == inprocess["trials"] == 2
        assert announced["contribution"] == inprocess["contribution"]
        assert announced["std_error"] == inprocess["std_error"]


class TestAllocate:
    def test_contributions_sum_to_total(self, panel_csv, capsys):
        code, rep = run(capsys, ["allocate", "--input", panel_csv,
                                 "--measure", "beta:8,2"])
        assert code == 0
        total = sum(rep["allocations"].values())
        assert abs(total - rep["total_risk"]) < 1e-10
        assert abs(rep["residual"]) < 1e-10


class TestKappa:
    def test_self_kappa_is_one(self, panel_csv, capsys):
        code, rep = run(capsys, ["kappa", "--input", panel_csv, "--firm",
                                 panel_csv, "--measure", "tail:0.5"])
        assert code == 0
        assert rep["tail_correlation"] == pytest.approx(1.0, abs=1e-12)


class TestFactorCommand:
    def test_reports_per_factor_risk(self, tmp_path, panel_csv, capsys):
        rng = np.random.default_rng(5)
        fpath = tmp_path / "f.csv"
        write_panel(fpath, ["F1", "F2"], rng.normal(size=(300, 2)).round(6).tolist())
        code, rep = run(capsys, ["factor", "--input", panel_csv, "--factors",
                                 fpath, "--measure", "tail:0.25",
                                 "--regression", "kernel"])
        assert code == 0
        assert [r["factor"] for r in rep["factors"]] == ["F1", "F2"]
        for r in rep["factors"]:
            assert np.isfinite(r["factor_risk"])

    @pytest.mark.parametrize("weighted", ["--input", "--factors", "--trade"])
    def test_prob_column_rejected(self, tmp_path, capsys, weighted):
        files = {}
        for flag, name in (("--input", "A"), ("--factors", "F"), ("--trade", "X")):
            path = tmp_path / f"{name}.csv"
            body = "date,prob," + name if flag == weighted else "date," + name
            rows = [f"2025-01-0{i + 1}," + ("1," if flag == weighted else "") + f"{v}"
                    for i, v in enumerate([1.0, -2.0, 0.5, 3.0])]
            path.write_text(body + "\n" + "\n".join(rows) + "\n")
            files[flag] = str(path)
        code = cli.run_command(["factor", "--measure", "tail:0.5", "--regression", "knn:1"]
                               + [a for flag, path in files.items() for a in (flag, path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert cli._UNUSED_PROBS.format(path=files[weighted], use="factor") in captured.err


class TestFactorJoint:
    def test_joint_risk_reported(self, tmp_path, panel_csv, capsys):
        rng = np.random.default_rng(9)
        fpath = tmp_path / "f2.csv"
        write_panel(fpath, ["F1", "F2"], rng.normal(size=(300, 2)).round(6).tolist())
        code, rep = run(capsys, ["factor", "--input", panel_csv, "--factors",
                                 fpath, "--measure", "tail:0.25",
                                 "--regression", "knn:15", "--joint"])
        assert code == 0
        assert np.isfinite(rep["joint_factor_risk"])


class TestOptimizeCommand:
    @pytest.mark.parametrize("key", ["measure", "limit"])
    def test_missing_limit_key_names_file_and_key(self, tmp_path, capsys, key):
        ppath = tmp_path / "panel.csv"
        write_panel(ppath, ["A"], [[1.0], [-1.0], [0.5]])
        rpath = tmp_path / "rewards.csv"
        rpath.write_text("asset,reward\nA,1.0\n")
        entry = {"measure": "tail:0.5", "limit": 1.0}
        del entry[key]
        lpath = tmp_path / "limits.json"
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 2.0}, entry]))
        code = cli.run_command(["optimize", "--panel", str(ppath), "--rewards", str(rpath),
                                "--limits", str(lpath), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(lpath) in err and "entry 1" in err and repr(key) in err

    def test_factor_mapped_limit(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        t = 1500
        y = rng.standard_normal(t)
        a1 = y + 0.2 * rng.standard_normal(t)
        a2 = rng.standard_normal(t)
        ppath = tmp_path / "pf.csv"
        write_panel(ppath, ["A", "B"], np.column_stack([a1, a2]).round(6).tolist())
        fpath = tmp_path / "ff.csv"
        write_panel(fpath, ["Y"], y.round(6)[:, None].tolist())
        rpath = tmp_path / "rf.csv"
        rpath.write_text("asset,reward\nA,1.0\nB,1.0\n")
        lpath = tmp_path / "lf.json"
        lpath.write_text(json.dumps([
            {"measure": "tail:0.5", "limit": 1.0},
            {"measure": "tail:0.5", "limit": 0.4, "factor": "Y"}]))
        code, rep = run(capsys, ["optimize", "--panel", ppath, "--rewards", rpath,
                                 "--limits", lpath, "--factors", fpath,
                                 "--restarts", 2, "--max-iter", 150, "--seed", 2])
        assert code == 0
        assert rep["risks"]["tail:0.5<= 1.0"] <= 1.0 + 1e-9
        assert rep["risks"]["tail:0.5<= 0.4 | Y"] <= 0.4 + 1e-9
        assert rep["binding"], "at least one limit must bind"

    def test_reports_feasible_solution(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        ppath = tmp_path / "panel.csv"
        write_panel(ppath, ["A", "B"], rng.standard_normal((2000, 2)).round(6).tolist())
        rpath = tmp_path / "rewards.csv"
        rpath.write_text("asset,reward\nA,1.0\nB,1.0\n")
        lpath = tmp_path / "limits.json"
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0}]))
        code, rep = run(capsys, ["optimize", "--panel", ppath, "--rewards", rpath,
                                 "--limits", lpath, "--restarts", 2,
                                 "--max-iter", 150, "--seed", 4])
        assert code == 0
        assert rep["risks"]["tail:0.5<= 1.0"] <= 1.0 + 1e-9
        assert rep["binding"] == ["tail:0.5<= 1.0"]
        assert rep["objective"] > 0.0

    def _inputs(self, tmp_path, rewards="asset,reward\nA,1.0\n", factor=None):
        ppath = tmp_path / "panel.csv"
        write_panel(ppath, ["A"], [[1.0], [-1.0], [0.5]])
        fpath = tmp_path / "factors.csv"
        write_panel(fpath, ["Y"], [[0.5], [-0.5], [0.25]])
        rpath = tmp_path / "rewards.csv"
        rpath.write_text(rewards)
        lpath = tmp_path / "limits.json"
        entry = {"measure": "tail:0.5", "limit": 1.0}
        if factor:
            entry["factor"] = factor
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 2.0}, entry]))
        return ["optimize", "--panel", str(ppath), "--rewards", str(rpath),
                "--limits", str(lpath), "--factors", str(fpath), "--restarts", "1",
                "--max-iter", "20", "--seed", "1"]

    @pytest.mark.parametrize("flag, value", [("--max-iter", 0), ("--max-iter", -2),
                                             ("--restarts", 0), ("--restarts", -3)])
    def test_solver_flags_below_one_rejected(self, tmp_path, capsys, flag, value):
        code = cli.run_command(self._inputs(tmp_path) + [flag, str(value)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{flag} must be at least 1, got {value}" in captured.err

    def test_weighted_factor_file_rejected(self, tmp_path, capsys):
        argv = self._inputs(tmp_path, factor="Y")
        fpath = tmp_path / "factors.csv"
        fpath.write_text("date,Y,prob\n2025-01-01,0.5,1\n2025-01-02,-0.5,0\n"
                         "2025-01-03,0.25,1\n")
        code = cli.run_command(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert cli._UNUSED_PROBS.format(path=fpath, use="optimize --factors") \
            in captured.err

    def test_unknown_factor_column_names_file_entry_and_column(self, tmp_path, capsys):
        code = cli.run_command(self._inputs(tmp_path, factor="Z"))
        err = capsys.readouterr().err
        assert code == 1
        assert "limits.json: entry 1" in err and "factors.csv" in err and "'Z'" in err

    @pytest.mark.parametrize("rewards, where", [
        ("asset,reward\nA\n", r"rewards\.csv: row 2, column 'reward' is blank"),
        ("asset,reward\nA,lots\n", r"rewards\.csv: row 2, column 'reward': not a number"),
        ("asset,reward\nB,1.0\nA,nan\n",
         r"rewards\.csv: row 3, column 'reward': not a finite number"),
        ("asset,reward\nA, \n", r"rewards\.csv: row 2, column 'reward' is blank"),
    ])
    def test_bad_reward_row_names_file_row_and_column(self, tmp_path, capsys,
                                                      rewards, where):
        code = cli.run_command(self._inputs(tmp_path, rewards=rewards))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert re.search(where, captured.err), captured.err


class TestEquilibriumCommand:
    @pytest.mark.parametrize("path, key", [
        ((), "desks"), ((), "limits"),
        (("desks", 0), "panel"), (("desks", 1), "rewards"),
        (("limits", 0), "measure"), (("limits", 0), "limit"),
    ])
    def test_missing_key_names_file_and_key(self, tmp_path, capsys, path, key):
        write_panel(tmp_path / "d.csv", ["A", "B"], [[1.0, 2.0], [-1.0, 0.5]])
        firm = {"desks": [
                    {"name": "d1", "panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "d.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}]}
        entry = firm
        for step in path:
            entry = entry[step]
        del entry[key]
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps(firm))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(fpath) in err and repr(key) in err

    SMALL = {"a.csv": "date,A,B\n2025-01-01,1.0,0.5\n2025-01-02,-1.0,2.0\n"
                      "2025-01-03,0.5,-1.5\n",
             "b.csv": "date,X\n2025-01-01,0.5\n2025-01-02,-0.5\n2025-01-03,1.5\n"}

    def _firm(self, tmp_path, panels):
        """firm.json with desks d1 = a.csv:A, d2 = b.csv:X and d3 = a.csv:B."""
        for fname, text in panels.items():
            (tmp_path / fname).write_text(text)
        firm = {"desks": [
                    {"name": "d1", "panel": "a.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "b.csv", "columns": ["X"], "rewards": [0.5]},
                    {"name": "d3", "panel": "a.csv", "columns": ["B"], "rewards": [0.8]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}]}
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps(firm))
        return fpath

    @staticmethod
    def _csv(header, dates, rows):
        return header + "\n" + "".join(f"{d}," + ",".join(map(repr, r)) + "\n"
                                       for d, r in zip(dates, rows))

    def test_disjoint_desk_dates_rejected(self, tmp_path, capsys):
        early = [str(np.datetime64("2020-01-01") + i) for i in range(200)]
        late = [str(np.datetime64("2023-01-01") + i) for i in range(200)]
        rng = np.random.default_rng(3)
        fpath = self._firm(tmp_path, {
            "a.csv": self._csv("date,A,B", early, rng.standard_normal((200, 2)).tolist()),
            "b.csv": self._csv("date,X", late, rng.standard_normal((200, 1)).tolist())})
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{fpath}: desk panels {tmp_path / 'a.csv'}, {tmp_path / 'b.csv'} "
                "share no dates") in captured.err

    def test_desks_join_on_common_dates(self, tmp_path, capsys):
        dates = [str(np.datetime64("2025-01-01") + i) for i in range(300)]
        rng = np.random.default_rng(8)
        a = rng.standard_normal((260, 2)).round(6).tolist()   # dates 0..259
        b = rng.standard_normal((240, 1)).round(6).tolist()   # dates 60..299
        shuffled, trimmed = tmp_path / "shuffled", tmp_path / "trimmed"
        shuffled.mkdir()
        trimmed.mkdir()
        pa, pb = rng.permutation(260), rng.permutation(240)
        full = self._firm(shuffled, {
            "a.csv": self._csv("date,A,B", [dates[i] for i in pa], [a[i] for i in pa]),
            "b.csv": self._csv("date,X", [dates[60 + i] for i in pb], [b[i] for i in pb])})
        common = self._firm(trimmed, {
            "a.csv": self._csv("date,A,B", dates[60:260], a[60:]),
            "b.csv": self._csv("date,X", dates[60:260], b[:200])})
        reports = []
        for fpath in (full, common):
            code, rep = run(capsys, ["equilibrium", "--firm", fpath, "--restarts", 2,
                                     "--max-iter", 100, "--seed", 5])
            assert code == 0
            reports.append(json.dumps({k: v for k, v in rep.items()
                                       if k not in ("command", "timings")}, sort_keys=True))
        assert reports[0] == reports[1]

    def test_empty_desk_list_rejected(self, tmp_path, capsys):
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps({"desks": [],
                                     "limits": [{"measure": "tail:0.5", "limit": 1.0}]}))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{fpath}: expected a nonempty JSON array of desks" in captured.err

    def test_prob_column_rejected(self, tmp_path, capsys):
        fpath = self._firm(tmp_path, {
            "a.csv": self.SMALL["a.csv"],
            "b.csv": "date,X,prob\n2025-01-01,0.5,1\n2025-01-02,-0.5,0\n"
                     "2025-01-03,1.5,1\n"})
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert cli._UNUSED_PROBS.format(path=tmp_path / "b.csv", use="equilibrium") \
            in captured.err

    @pytest.mark.parametrize("flag, value", [("--max-iter", 0), ("--max-iter", -2),
                                             ("--restarts", 0), ("--restarts", -3)])
    def test_solver_flags_below_one_rejected(self, tmp_path, capsys, flag, value):
        fpath = self._firm(tmp_path, self.SMALL)
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1",
                                flag, str(value)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{flag} must be at least 1, got {value}" in captured.err

    def test_full_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        write_panel(tmp_path / "d.csv", ["A", "B"],
                    rng.standard_normal((3000, 2)).round(6).tolist())
        firm = {"desks": [
                    {"name": "d1", "panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "d.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}]}
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps(firm))
        code, rep = run(capsys, ["equilibrium", "--firm", fpath, "--restarts", 2,
                                 "--max-iter", 200, "--seed", 9])
        assert code == 0
        v = rep["verification"]
        assert v["trades_zero_sum"] and v["feasible"] and v["some_binding"]
        assert len(rep["prices"]) == 1 and rep["prices"][0] > 0.0


class TestScenarioWeights:
    """contrib and kappa take prob weights from whichever panel has them."""

    FIRM = "date,A,prob\n2025-01-01,1.0,1\n2025-01-02,-2.0,0\n2025-01-03,3.0,0\n" \
           "2025-01-04,-1.0,1\n"

    def _trade(self, tmp_path, probs=None):
        path = tmp_path / "x.csv"
        rows = [f"2025-01-0{i + 1},{v}" for i, v in enumerate([-1.5, 1.5, -0.5, 0.5])]
        if probs is not None:
            rows = [f"{r},{p}" for r, p in zip(rows, probs)]
        path.write_text(("date,X,prob\n" if probs else "date,X\n") + "\n".join(rows) + "\n")
        return path

    def test_firm_weights_are_used(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        trade = self._trade(tmp_path)
        _, est = run(capsys, ["estimate", "--input", firm, "--measure", "tail:0.5",
                              "--seed", 1])
        code, rep = run(capsys, ["contrib", "--input", trade, "--firm", firm,
                                 "--measure", "tail:0.5", "--seed", 1])
        assert code == 0
        assert rep["firm_risk"] == est["estimate"] == 1.0
        code, kap = run(capsys, ["kappa", "--input", trade, "--firm", firm,
                                 "--measure", "tail:0.5"])
        assert code == 0
        probs = ingest_panel(firm).probs
        from crm.contribution import tail_correlation
        want = tail_correlation(ingest_panel(trade).series(), ingest_panel(firm).series(),
                                probs, D.tail(0.5))
        assert kap["tail_correlation"] == want

    def test_agreeing_weights_in_both_panels(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        code, rep = run(capsys, ["contrib", "--input", self._trade(tmp_path, [3, 0, 0, 3]),
                                 "--firm", firm, "--measure", "tail:0.5", "--seed", 1])
        assert code == 0 and rep["firm_risk"] == 1.0

    @pytest.mark.parametrize("command", ["contrib", "kappa"])
    def test_conflicting_weights_name_both_files(self, tmp_path, capsys, command):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        trade = self._trade(tmp_path, [1, 1, 1, 1])
        argv = [command, "--input", str(trade), "--firm", str(firm), "--measure", "tail:0.5"]
        code = cli.run_command(argv + (["--seed", "1"] if command == "contrib" else []))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert str(trade) in captured.err and str(firm) in captured.err

    def test_zero_weight_on_every_common_date(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        trade = tmp_path / "x.csv"
        trade.write_text("date,X\n2025-01-02,1.0\n2025-01-03,-1.0\n")
        code = cli.run_command(["kappa", "--input", str(trade), "--firm", str(firm),
                                "--measure", "tail:0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{firm}: probability weights sum to zero on the dates in use" in captured.err

    def test_weights_rejected_with_trials(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        code = cli.run_command(["contrib", "--input", str(self._trade(tmp_path)),
                                "--firm", str(firm), "--measure", "alpha:2",
                                "--trials", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "panel probability weights are not supported with --trials" in captured.err

    def test_zero_weight_rejected_as_weights_with_trials(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        trade = tmp_path / "x.csv"
        trade.write_text("date,X\n2025-01-02,1.0\n2025-01-03,-1.0\n")
        code = cli.run_command(["contrib", "--input", str(trade), "--firm", str(firm),
                                "--measure", "alpha:2", "--trials", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "panel probability weights are not supported with --trials" in captured.err

    def test_measure_without_orders_checked_before_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code = cli.run_command(["contrib", "--input", missing, "--firm", missing,
                                "--measure", "tail:0.5", "--trials", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Monte Carlo contribution needs alpha:A or beta:A,B" in captured.err


class TestJoinErrors:
    DATES = ["2025-01-01", "2025-01-02", "2025-01-03"]
    LATER = ["2026-01-01", "2026-01-02", "2026-01-03"]

    def _panel(self, tmp_path, name, dates, cols=("A",)):
        path = tmp_path / name
        write_panel(path, cols, [[0.5 * (i + 1)] * len(cols) for i in range(len(dates))],
                    dates=dates)
        return str(path)

    @pytest.mark.parametrize("command", ["contrib", "kappa", "factor"])
    def test_no_common_dates(self, tmp_path, capsys, command):
        a = self._panel(tmp_path, "a.csv", self.DATES)
        b = self._panel(tmp_path, "b.csv", self.LATER)
        argv = {"contrib": ["contrib", "--input", a, "--firm", b, "--measure", "tail:0.5",
                            "--seed", "1"],
                "kappa": ["kappa", "--input", a, "--firm", b, "--measure", "tail:0.5"],
                "factor": ["factor", "--input", a, "--factors", b, "--measure", "tail:0.5",
                           "--regression", "knn:1"]}[command]
        code = cli.run_command(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{a} and {b} share no dates" in captured.err

    def test_trade_missing_a_date(self, tmp_path, capsys):
        panel = self._panel(tmp_path, "p.csv", self.DATES)
        factors = self._panel(tmp_path, "f.csv", self.DATES + self.LATER)
        trade = self._panel(tmp_path, "x.csv", [self.DATES[0], self.DATES[2]])
        code = cli.run_command(["factor", "--input", panel, "--factors", factors,
                                "--measure", "tail:0.5", "--regression", "knn:1",
                                "--trade", trade])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{trade} is missing date '2025-01-02' of {panel}" in captured.err

    def test_factor_file_must_cover_the_panel(self, tmp_path, capsys):
        panel = self._panel(tmp_path, "p.csv", self.DATES)
        factors = self._panel(tmp_path, "f.csv", self.DATES[:2], cols=("Y",))
        rewards = tmp_path / "r.csv"
        rewards.write_text("asset,reward\nA,1.0\n")
        limits = tmp_path / "l.json"
        limits.write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0, "factor": "Y"}]))
        code = cli.run_command(["optimize", "--panel", panel, "--rewards", str(rewards),
                                "--limits", str(limits), "--factors", factors,
                                "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        # panels are held most recent first, so the latest uncovered date comes first
        assert f"{factors} is missing date '2025-01-03' of {panel}" in captured.err


class TestStrictEmit:
    def test_non_finite_report_value_exits_one(self, panel_csv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_allocate", lambda args: {"total_risk": float("nan")})
        code = cli.run_command(["allocate", "--input", str(panel_csv), "--measure",
                                "tail:0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("crm: error: ")


class TestDeterminismAndExitCodes:
    def test_byte_identical_reruns_all_subcommands(self, tmp_path, panel_csv,
                                                   trade_csv, capsys):
        rng = np.random.default_rng(8)
        fpath = tmp_path / "f.csv"
        write_panel(fpath, ["F1"], rng.normal(size=(300, 1)).round(6).tolist())
        ppath = tmp_path / "op.csv"
        write_panel(ppath, ["A", "B"], rng.standard_normal((800, 2)).round(6).tolist())
        rpath = tmp_path / "rw.csv"
        rpath.write_text("asset,reward\nA,1.0\nB,0.5\n")
        lpath = tmp_path / "lim.json"
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0}]))
        firm = {"desks": [
                    {"name": "d1", "panel": "op.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "op.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}]}
        fjson = tmp_path / "firm.json"
        fjson.write_text(json.dumps(firm))
        ann = tmp_path / "ann.json"
        commands = [
            ["estimate", "--input", panel_csv, "--measure", "tail:0.1",
             "--scheme", "uniform:300", "--seed", 7],
            ["estimate", "--input", panel_csv, "--measure", "beta:6,2",
             "--scheme", "geometric:0.98", "--trials", 800, "--seed", 7],
            ["announce", "--input", panel_csv, "--measure", "alpha:6",
             "--scheme", "uniform:300", "--trials", 300, "--seed", 5,
             "--out", ann],
            ["contrib", "--input", trade_csv, "--announced", ann, "--seed", 5],
            ["contrib", "--input", trade_csv, "--firm", panel_csv, "--measure",
             "tail:0.25", "--seed", 5],
            ["factor", "--input", panel_csv, "--factors", fpath, "--measure",
             "tail:0.25", "--regression", "knn:20"],
            ["allocate", "--input", panel_csv, "--measure", "tail:0.3"],
            ["kappa", "--input", trade_csv, "--firm", panel_csv,
             "--measure", "tail:0.5"],
            ["optimize", "--panel", ppath, "--rewards", rpath, "--limits", lpath,
             "--restarts", 2, "--max-iter", 100, "--seed", 4],
            ["equilibrium", "--firm", fjson, "--restarts", 2, "--max-iter", 100,
             "--seed", 4],
        ]
        for argv in commands:
            code1, rep1 = run(capsys, argv)
            code2, rep2 = run(capsys, argv)
            assert code1 == code2 == 0, argv
            b1 = json.dumps(strip_timings(rep1), sort_keys=True)
            b2 = json.dumps(strip_timings(rep2), sort_keys=True)
            assert b1 == b2, argv

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run_command(["estimate", "--measure", "tail:0.5"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run_command(["frobnicate"])
        assert exc.value.code == 2

    def test_data_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2025-01-01,\n")
        code = cli.run_command(["estimate", "--input", str(bad), "--measure",
                                "tail:0.5", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err

    def test_missing_file_exits_one(self, capsys):
        code = cli.run_command(["allocate", "--input", "/nonexistent.csv",
                                "--measure", "tail:0.5"])
        assert code == 1
