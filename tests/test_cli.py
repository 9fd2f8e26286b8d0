"""CLI: ingestion, subcommand behaviour, determinism, exit codes."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from testkit import emit_reference
from crm import cli
from crm import distortion as D
from crm import factor as F
from crm import sampling
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


def run_child(argv, cwd):
    """Exit code and stderr of `python -m crm.cli argv` in a fresh interpreter,
    so that an uncaught exception shows as the traceback a user would see."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "crm.cli"] + [str(a) for a in argv],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == ""
    return proc.returncode, proc.stderr


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the targets (second
    argument) of every call; returns that record."""
    fn = getattr(module, name)
    calls = []

    def counted(y, x, *args, **kwargs):
        calls.append(np.asarray(x))
        return fn(y, x, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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

    def test_dates_other_than_iso_sort_as_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("date,A\n2020/1/10,1.0\n2020/1/9,2.0\n2020/1/11,3.0\n")
        p = ingest_panel(path)
        # most recent first as text: "2020/1/9" sorts after "2020/1/11"
        assert p.dates == ("2020/1/9", "2020/1/11", "2020/1/10")
        assert p.pnl[:, 0].tolist() == [2.0, 3.0, 1.0]

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

    @pytest.mark.parametrize("header, name, columns", [
        ("date,A,A", "A", "2 and 3"),            # was read as two assets
        ("date,A,prob,prob", "prob", "3 and 4"),  # was a shape error naming no file
    ])
    def test_repeated_column_name_names_file_and_columns(self, tmp_path, capsys, header,
                                                         name, columns):
        path = tmp_path / "t.csv"
        cells = ",1.0" * header.count(",")
        path.write_text(f"{header}\n2025-01-01{cells}\n2025-01-02{cells}\n")
        assert cli.run_command(["estimate", "--input", str(path), "--measure", "tail:0.5",
                                "--columns", "A", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"crm: error: {path}: column {name!r} appears twice "
                                f"(columns {columns})\n")

    def test_blank_column_name_names_file_and_column(self, tmp_path, capsys):
        # was read as an asset named "" and allocated 1.833
        path = tmp_path / "t.csv"
        path.write_text("date,,B\n2025-01-01,1.0,2.0\n2025-01-02,-3.0,0.5\n"
                        "2025-01-03,0.5,-1.0\n")
        assert cli.run_command(["allocate", "--input", str(path), "--measure", "tail:0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"crm: error: {path}: column 2 has a blank name\n"

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

    @pytest.mark.parametrize("seed", [13, 17, 19, 22])
    def test_announced_beta_sums_like_in_process(self, tmp_path, panel_csv, trade_csv,
                                                 seed, capsys):
        # B = 10 picks per trial, on seeds where a pairwise sum of the picks
        # differs in the last bit from a left-to-right one
        ann = tmp_path / "b.json"
        argv = ["--measure", "beta:30,10", "--scheme", "uniform:300", "--trials", 500,
                "--seed", seed]
        code, _ = run(capsys, ["announce", "--input", panel_csv, "--out", ann] + argv)
        assert code == 0
        code, rep_a = run(capsys, ["contrib", "--input", trade_csv, "--announced", ann,
                                   "--seed", seed])
        assert code == 0
        code, rep_b = run(capsys, ["contrib", "--input", trade_csv, "--firm", panel_csv]
                          + argv)
        assert code == 0
        assert rep_a["contribution"] == rep_b["contribution"]
        assert rep_a["std_error"] == rep_b["std_error"]

    @pytest.mark.parametrize("start, end, skip, code", [
        ("2026-06-01", "2026-07-30", None, 1),          # other dates, same length
        ("2025-01-01", "2025-03-02", None, 1),          # one day more recent
        ("2024-12-01", "2025-03-01", "2025-01-01", 1),  # lacks the firm's oldest day
        ("2024-12-01", "2025-03-01", None, 0),          # a longer history is fine
    ])
    def test_trade_dates_must_match_the_announce(self, tmp_path, capsys, start, end, skip,
                                                 code):
        def days(a, b, skip=None):
            return [str(d) for d in np.arange(np.datetime64(a), np.datetime64(b) + 1)
                    if str(d) != skip]

        rng = np.random.default_rng(6)
        firm, trade, ann = tmp_path / "firm.csv", tmp_path / "trade.csv", tmp_path / "a.json"
        dates = days("2025-01-01", "2025-03-01")
        write_panel(firm, ["A"], rng.normal(size=(len(dates), 1)).tolist(), dates)
        dates = days(start, end, skip)
        write_panel(trade, ["X"], rng.normal(size=(len(dates), 1)).tolist(), dates)
        assert run(capsys, ["announce", "--input", firm, "--measure", "beta:6,2",
                            "--trials", 50, "--seed", 2, "--out", ann])[0] == 0
        assert cli.run_command(["contrib", "--input", str(trade), "--announced", str(ann),
                                "--seed", "2"]) == code
        err = capsys.readouterr().err
        if code:
            assert (f"{trade} runs from '{end}' back to '{start}', but {ann} announces "
                    "draws on the dates from '2025-03-01' back to '2025-01-01'") in err

    def test_trade_on_other_dates_between_the_announced_ones(self, tmp_path, capsys):
        # the firm trades every other day, the trade every day: same first and
        # last date and the same values, so position i is another date on each
        days = [str(d) for d in np.arange(np.datetime64("2025-01-01"), 59)]
        values = np.random.default_rng(5).normal(size=(59, 1)).round(6).tolist()
        firm, trade, ann = tmp_path / "firm.csv", tmp_path / "trade.csv", tmp_path / "a.json"
        write_panel(firm, ["A"], values[::2], days[::2])
        write_panel(trade, ["X"], values, days)
        flags = ["--measure", "beta:6,2", "--trials", 200, "--seed", 3]
        code, rep = run(capsys, ["announce", "--input", firm, "--out", ann] + flags)
        assert code == 0
        digest = hashlib.sha256("\n".join(days[::2][::-1]).encode()).hexdigest()
        assert rep["dates_sha256"] == json.loads(ann.read_text())["dates_sha256"] == digest
        code = cli.run_command(["contrib", "--input", str(trade), "--announced", str(ann),
                                "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"crm: error: {trade} holds other dates from '2025-02-28' back to "
                f"'2025-01-01' than {ann} announces draws on (key 'dates_sha256')\n"
                == captured.err)

    @pytest.fixture()
    def student_t(self, tmp_path):
        """A 300-row heavy-tailed firm panel, a trade panel on its dates, and
        the shared flags of a standardized scaling announce."""
        rng = np.random.default_rng(3)
        firm, trade = tmp_path / "firm.csv", tmp_path / "trade.csv"
        write_panel(firm, ["A", "B"], rng.standard_t(3, size=(300, 2)).round(6).tolist())
        write_panel(trade, ["X"], rng.standard_t(3, size=(300, 1)).round(6).tolist())
        flags = ["--measure", "beta:20,4", "--scheme", "scaling:1.0", "--trials", 200,
                 "--seed", 3]
        return firm, trade, flags

    def test_announce_file_fixes_standardize(self, tmp_path, student_t, capsys):
        firm, trade, flags = student_t
        ann = tmp_path / "a.json"
        code, rep = run(capsys, ["announce", "--input", firm, "--out", ann, "--standardize"]
                        + flags)
        assert code == 0 and rep["standardize"] is True
        assert json.loads(ann.read_text())["standardize"] is True
        code, want = run(capsys, ["contrib", "--input", trade, "--firm", firm, "--standardize"]
                         + flags)
        assert code == 0
        for extra in ([], ["--standardize"]):
            code, got = run(capsys, ["contrib", "--input", trade, "--announced", ann,
                                     "--seed", 3] + extra)
            assert code == 0
            assert (got["contribution"], got["std_error"]) == \
                (want["contribution"], want["std_error"])

    def test_standardize_cannot_be_added_to_an_announce(self, tmp_path, student_t, capsys):
        firm, trade, flags = student_t
        ann = tmp_path / "a.json"
        code, rep = run(capsys, ["announce", "--input", firm, "--out", ann] + flags)
        assert code == 0 and rep["standardize"] is False
        code = cli.run_command(["contrib", "--input", str(trade), "--announced", str(ann),
                                "--seed", "3", "--standardize"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{ann} was announced without --standardize" in captured.err

    def test_announce_standardize_must_be_a_bool(self, tmp_path, student_t, capsys):
        firm, trade, flags = student_t
        ann = tmp_path / "a.json"
        assert run(capsys, ["announce", "--input", firm, "--out", ann] + flags)[0] == 0
        ann.write_text(ann.read_text().replace('"standardize": false', '"standardize": 1'))
        code = cli.run_command(["contrib", "--input", str(trade), "--announced", str(ann),
                                "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{ann}: key 'standardize' must be true or false, got 1" in captured.err

    def test_announce_file_in_the_indented_layout_still_prices(self, tmp_path, panel_csv,
                                                               trade_csv, capsys):
        # files written before integer rows went on one line hold one index per
        # line; json reads both layouts to the same value
        ann = tmp_path / "a.json"
        assert run(capsys, ["announce", "--input", panel_csv, "--measure", "beta:6,2",
                            "--trials", 200, "--seed", 4, "--out", ann])[0] == 0
        argv = ["contrib", "--input", str(trade_csv), "--announced", str(ann), "--seed", "4"]

        def report():
            assert cli.run_command(argv) == 0
            return re.sub(r'"seconds": .*', "", capsys.readouterr().out)

        compact = ann.read_text()
        want = report()
        indented = json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n"
        assert indented != compact
        ann.write_text(indented)
        assert report() == want

    def test_announce_file_costs_a_digit_and_a_comma_per_index(self, tmp_path, panel_csv,
                                                                capsys):
        k, a, b = 40, 250, 25
        ann = tmp_path / "a.json"
        assert run(capsys, ["announce", "--input", panel_csv, "--measure", f"beta:{a},{b}",
                            "--trials", k, "--seed", 6, "--out", ann])[0] == 0
        payload = json.loads(ann.read_text())
        values = [v for key in ("indices", "selected") for row in payload[key] for v in row]
        assert len(values) == k * (a + b)
        # each of the 2k rows adds its indent, brackets and line end; the other
        # keys a few hundred bytes
        bound = sum(len(str(v)) + 1 for v in values) + 8 * 2 * k + 600
        assert len(ann.read_bytes()) <= bound

    def test_exact_contribution(self, panel_csv, trade_csv, capsys):
        code, rep = run(capsys, ["contrib", "--input", trade_csv, "--firm",
                                 panel_csv, "--measure", "tail:0.25", "--seed", 1])
        assert code == 0
        pa = ingest_panel(trade_csv)
        pb = ingest_panel(panel_csv)
        from crm.mc import weighted_contribution_empirical
        want, _ = weighted_contribution_empirical(pa.series(), pb.series(), None,
                                                  D.tail(0.25))
        assert rep["contribution"] == pytest.approx(want, abs=1e-12)


class TestFlagsAModeNeverReads:
    """A flag that contrib's mode, or the chosen scheme, would ignore exits 1
    naming the flag."""

    @pytest.fixture()
    def ann(self, tmp_path, panel_csv, capsys):
        path = tmp_path / "a.json"
        code, _ = run(capsys, ["announce", "--input", panel_csv, "--measure", "beta:6,2",
                               "--scheme", "uniform:300", "--trials", 50, "--seed", 3,
                               "--out", path])
        assert code == 0
        return path

    def rejected(self, capsys, argv, flag):
        code = cli.run_command([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("extra", [["--scheme", "geometric:0.5"], ["--standardize"]])
    def test_exact_contrib(self, panel_csv, trade_csv, capsys, extra):
        self.rejected(capsys, ["contrib", "--input", trade_csv, "--firm", panel_csv,
                               "--measure", "tail:0.25", "--seed", 1] + extra, extra[0])

    @pytest.mark.parametrize("extra", [
        ["--measure", "beta:6,2"], ["--scheme", "uniform:300"], ["--trials", "50"],
        ["--firm", "p.csv"], ["--firm-columns", "A"], ["--trials", "0"]])
    def test_contrib_announced(self, ann, trade_csv, capsys, extra):
        self.rejected(capsys, ["contrib", "--input", trade_csv, "--announced", ann,
                               "--seed", 3] + extra, extra[0])

    @pytest.mark.parametrize("scheme", ["uniform:300", "geometric:0.9", "bootstrap:2"])
    @pytest.mark.parametrize("command", ["estimate", "announce", "contrib"])
    def test_standardize_needs_a_rescaling_scheme(self, panel_csv, trade_csv, capsys,
                                                  command, scheme):
        argv = [command, "--input", panel_csv, "--measure", "alpha:4", "--scheme", scheme,
                "--trials", 20, "--seed", 1, "--standardize"]
        if command == "contrib":
            argv[2:3] = [trade_csv, "--firm", panel_csv]
        self.rejected(capsys, argv, "--standardize")

    def test_standardize_needs_a_rescaling_announced_scheme(self, ann, trade_csv, capsys):
        self.rejected(capsys, ["contrib", "--input", trade_csv, "--announced", ann,
                               "--seed", 3, "--standardize"], "--standardize")

    def test_monte_carlo_contrib_echoes_the_default_scheme(self, panel_csv, trade_csv,
                                                          capsys):
        code, rep = run(capsys, ["contrib", "--input", trade_csv, "--firm", panel_csv,
                                 "--measure", "alpha:4", "--trials", 20, "--seed", 1])
        assert code == 0 and rep["scheme"] == "uniform:1000000000"

    def test_monte_carlo_contrib_ranks_the_firm_draws_once(self, panel_csv, trade_csv,
                                                          capsys, monkeypatch):
        from crm import _kernels, mc
        rank = _kernels.rank_columns
        calls = []
        monkeypatch.setattr(_kernels, "rank_columns",
                            lambda w, b: calls.append(b) or rank(w, b))
        code, rep = run(capsys, ["contrib", "--input", trade_csv, "--firm", panel_csv,
                                 "--measure", "beta:6,2", "--trials", 40, "--seed", 5])
        assert code == 0 and calls == [2]
        monkeypatch.undo()
        draws = sampling.generate_draws(sampling.parse_scheme("uniform:1000000000"), 300,
                                        40, 6, 5)
        x = sampling.materialize(draws, ingest_panel(trade_csv).series())
        w = sampling.materialize(draws, ingest_panel(panel_csv).series())
        assert rep["contribution"] == mc.beta_contribution_mc(x, w, 2).value
        assert rep["firm_risk"] == mc.beta_var_mc(w, 2).value


class TestTrialCount:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--measure", "alpha:8", "--scheme", "uniform:300"],
        ["estimate", "--measure", "tail:0.1", "--scheme", "uniform:300"],
        ["announce", "--measure", "alpha:8", "--scheme", "uniform:300"],
        ["contrib", "--firm", "FIRM", "--measure", "alpha:8", "--scheme", "uniform:300"],
    ])
    # 0 used to run the exact path
    @pytest.mark.parametrize("trials", [1, 0, -3])
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


def order_statistics_reference(values, b):
    """Minus the trial mean of each row's b smallest values (lowest column
    first on ties), each summed left to right."""
    per_trial = []
    for row in values.tolist():
        picks = sorted(range(len(row)), key=lambda j: (row[j], j))[:b]
        total = row[picks[0]]
        for j in picks[1:]:
            total += row[j]
        per_trial.append(total / b)
    return -math.fsum(per_trial) / len(per_trial)


class TestOneMonteCarloPath:
    @pytest.mark.parametrize("measure, a, b", [
        ("alpha:8.0", 8, 1), ("beta: 6, 2", 6, 2), ("beta:4,4", 4, 4), ("alpha:1", 1, 1)])
    def test_order_statistics_measures_keep_monte_carlo(self, panel_csv, measure, a, b,
                                                        capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv, "--measure", measure,
                                 "--scheme", "uniform:200", "--trials", 300, "--seed", 5])
        assert code == 0 and rep["method"] == "monte-carlo"
        series = ingest_panel(panel_csv).series()[:200]
        draws = sampling.generate_draws(sampling.parse_scheme("uniform:200"), 200, 300, a, 5)
        assert rep["estimate"] == order_statistics_reference(series[draws.indices], b)

    def test_fractional_alpha_weights_the_pooled_draws(self, panel_csv, capsys):
        code, rep = run(capsys, ["estimate", "--input", panel_csv, "--measure", "alpha:2.5",
                                 "--scheme", "uniform:200", "--trials", 300, "--seed", 5])
        assert code == 0 and rep["method"] == "monte-carlo-weighted"
        assert "std_error" not in rep

    def test_announce_needs_integer_orders(self, panel_csv, tmp_path, capsys):
        out = tmp_path / "a.json"
        code = cli.run_command(["announce", "--input", str(panel_csv), "--measure",
                                "tail:0.05", "--trials", "50", "--seed", "1",
                                "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert "announce needs an integer-order measure" in captured.err


class TestAnnounceFileChecks:
    """An announce file is checked key by key before any value is read."""

    @pytest.fixture()
    def announced(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        firm, trade = tmp_path / "firm.csv", tmp_path / "trade.csv"
        write_panel(firm, ["A"], rng.normal(size=(28, 1)).round(6).tolist())
        write_panel(trade, ["X"], rng.normal(size=(28, 1)).round(6).tolist())
        ann = tmp_path / "ann.json"
        code, _ = run(capsys, ["announce", "--input", firm, "--measure", "beta:6,2",
                               "--trials", 40, "--seed", 3, "--out", ann])
        assert code == 0
        return trade, ann

    def contrib(self, capsys, trade, ann, edit):
        payload = json.loads(ann.read_text())
        edit(payload)
        ann.write_text(json.dumps(payload))
        code = cli.run_command(["contrib", "--input", str(trade), "--announced", str(ann),
                                "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        return captured.err

    @pytest.mark.parametrize("value", [-1, 999])
    def test_index_outside_the_series(self, announced, capsys, value):
        def edit(p):
            p["indices"][5][2] = value
        err = self.contrib(capsys, *announced, edit)
        assert "ann.json: key 'indices' must be integers in [0, 28) of shape (40, 6)" in err

    def test_selected_column_outside_the_trial(self, announced, capsys):
        def edit(p):
            p["selected"][0][1] = 7
        err = self.contrib(capsys, *announced, edit)
        assert "ann.json: key 'selected' must be integers in [0, 6) of shape (40, 2)" in err

    def test_short_selected(self, announced, capsys):
        def edit(p):
            p["selected"] = p["selected"][:-1]
        err = self.contrib(capsys, *announced, edit)
        assert "ann.json: key 'selected' must be integers" in err

    def test_missing_series_len(self, announced, capsys):
        err = self.contrib(capsys, *announced, lambda p: p.pop("series_len"))
        assert "ann.json: missing key 'series_len'" in err

    def test_missing_dates_sha256(self, announced, capsys):
        err = self.contrib(capsys, *announced, lambda p: p.pop("dates_sha256"))
        assert "ann.json: missing key 'dates_sha256'" in err

    def test_missing_standardize(self, announced, capsys):
        err = self.contrib(capsys, *announced, lambda p: p.pop("standardize"))
        assert "ann.json: missing key 'standardize'" in err

    @pytest.mark.parametrize("key, value", [("order_beta", 7), ("order_beta", 2.0),
                                            ("trials", "40"), ("draws_per_trial", True)])
    def test_bad_counts_name_the_key(self, announced, capsys, key, value):
        err = self.contrib(capsys, *announced, lambda p: p.update({key: value}))
        assert f"ann.json: key {key!r} must be an integer" in err

    def test_unchanged_file_still_prices(self, announced, capsys):
        trade, ann = announced
        code, rep = run(capsys, ["contrib", "--input", trade, "--announced", ann,
                                 "--seed", 3])
        assert code == 0 and rep["trials"] == 40


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
        assert (f"{files[weighted]}: panel probability weights are not supported by "
                "factor") in captured.err


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

    @pytest.mark.parametrize("regression", ["kernel", "knn:15"])
    def test_one_fit_per_factor_sample(self, tmp_path, panel_csv, trade_csv, capsys,
                                       monkeypatch, regression):
        # the firm and the trade share each fit: one per factor column, one joint
        rng = np.random.default_rng(9)
        fpath = tmp_path / "f2.csv"
        write_panel(fpath, ["F1", "F2"], rng.normal(size=(300, 2)).round(6).tolist())
        calls = count_calls(monkeypatch, F, "fit_conditional_mean")
        code, rep = run(capsys, ["factor", "--input", panel_csv, "--factors", fpath,
                                 "--trade", trade_csv, "--measure", "tail:0.25",
                                 "--regression", regression, "--joint"])
        assert code == 0 and len(calls) == 3
        assert [c.shape for c in calls] == [(300, 2)] * 3
        for row in rep["factors"]:
            assert np.isfinite(row["factor_risk"]) and np.isfinite(row["factor_contribution"])


class TestRegressionFlag:
    """--regression is kernel, kernel:BANDWIDTH with a finite bandwidth > 0,
    or knn:K with an integer K >= 1; anything else exits 1 naming the flag and
    its text, on both commands that read it."""

    @pytest.mark.parametrize("spec", ["kernel:nan", "kernel:inf", "kernel:0", "kernel:abc",
                                      "knn:abc", "knn:2.5", "knn:0", "knn:"])
    @pytest.mark.parametrize("command", ["factor", "optimize"])
    def test_rejected_naming_the_flag(self, tmp_path, capsys, command, spec):
        panel, factors = tmp_path / "p.csv", tmp_path / "f.csv"
        write_panel(panel, ["A"], [[1.0], [-2.0], [0.5], [3.0]])
        write_panel(factors, ["Y"], [[0.2], [-0.4], [0.1], [0.9]])
        if command == "factor":
            argv = ["factor", "--input", panel, "--factors", factors, "--measure", "tail:0.5"]
        else:
            rewards, limits = tmp_path / "r.csv", tmp_path / "l.json"
            rewards.write_text("asset,reward\nA,1.0\n")
            limits.write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0,
                                           "factor": "Y"}]))
            argv = ["optimize", "--panel", panel, "--rewards", rewards, "--limits", limits,
                    "--factors", factors, "--seed", 1]
        code = cli.run_command([str(a) for a in argv + ["--regression", spec]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"crm: error: --regression {spec}: ")

    # F0, F1 and joint factor risks under tail:0.05 on crmbench's seed-5
    # solver_factor inputs. At 1e-300 and 1e-160 every scaled distance but a
    # sample's own overflows: one factor falls back to the mean of the
    # sample's bin, two take the sample's own value. At 1e300 every weight is
    # 1: one factor takes the global mean, summed by the bin table's matrix
    # product and so held to the last bits only, and two take the mean of the
    # 256 earliest rows, all tied at distance 0.
    @pytest.mark.parametrize("bandwidth, risks", [
        ("1e-300", (12.586966824803806, 11.830719859558913, 14.098098914721445)),
        ("1e-160", (12.586966824803806, 11.830719859558913, 14.098098914721445)),
        ("1e300", (-0.13094548720621355, -0.13094548720621366, -0.01299112461954409)),
    ])
    def test_extreme_bandwidths_on_the_benchmark_inputs(self, tmp_path, capsys, bandwidth,
                                                         risks):
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.benchmark_factor_risks(tmp_path, capsys, bandwidth)
        if bandwidth == "1e300":
            assert got[:2] == pytest.approx(risks[:2], rel=1e-14, abs=0.0)
            assert got[2] == risks[2]
        else:
            assert tuple(got) == risks

    # the overflows at these bandwidths are intended, and computed where numpy
    # is told so: no RuntimeWarning reaches the user
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bandwidth, risks", [
        ("1e-300", (12.586966824803806, 11.830719859558913, 14.098098914721445)),
        ("1e-160", (12.586966824803806, 11.830719859558913, 14.098098914721445)),
    ])
    def test_overflowing_bandwidths_warn_nothing(self, tmp_path, capsys, bandwidth, risks):
        assert tuple(self.benchmark_factor_risks(tmp_path, capsys, bandwidth)) == risks

    @staticmethod
    def benchmark_factor_risks(tmp_path, capsys, bandwidth) -> list:
        """F0, F1 and joint factor risks of `factor --joint` under tail:0.05 and
        kernel:bandwidth on crmbench's seed-5 solver_factor inputs."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "crmbench_inputs", os.path.join(root, "crmbench", "inputs.py"))
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        inputs.generate("solver_factor", 5, str(tmp_path))
        code, rep = run(capsys, ["factor", "--input", tmp_path / "panel.csv",
                                 "--factors", tmp_path / "factors.csv",
                                 "--measure", "tail:0.05", "--regression",
                                 f"kernel:{bandwidth}", "--joint"])
        assert code == 0
        return [row["factor_risk"] for row in rep["factors"]] + [rep["joint_factor_risk"]]


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

    def test_unknown_limit_key_names_file_entry_and_key(self, tmp_path, capsys):
        ppath = tmp_path / "panel.csv"
        write_panel(ppath, ["A"], [[1.0], [-1.0], [0.5]])
        rpath = tmp_path / "rewards.csv"
        rpath.write_text("asset,reward\nA,1.0\n")
        lpath = tmp_path / "limits.json"
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 2.0, "label": "L"},
                                     {"measure": "tail:0.5", "limit": 1.0, "limt": 1.0}]))
        code = cli.run_command(["optimize", "--panel", str(ppath), "--rewards", str(rpath),
                                "--limits", str(lpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{lpath}: entry 1: unknown key 'limt'" in captured.err

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

    def test_factor_mapped_limit_fits_the_panel_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(400)
        ppath = tmp_path / "pf.csv"
        write_panel(ppath, ["A", "B", "C"],
                    (y[:, None] + rng.standard_normal((400, 3))).round(6).tolist())
        fpath = tmp_path / "ff.csv"
        write_panel(fpath, ["Y"], y.round(6)[:, None].tolist())
        rpath = tmp_path / "rf.csv"
        rpath.write_text("asset,reward\nA,1.0\nB,0.5\nC,0.8\n")
        lpath = tmp_path / "lf.json"
        lpath.write_text(json.dumps([
            {"measure": "tail:0.5", "limit": 1.0},
            {"measure": "tail:0.5", "limit": 0.4, "factor": "Y"}]))
        calls = count_calls(monkeypatch, F, "fit_conditional_mean")
        code, _ = run(capsys, ["optimize", "--panel", ppath, "--rewards", rpath,
                               "--limits", lpath, "--factors", fpath, "--seed", 2])
        assert code == 0
        assert [c.shape for c in calls] == [(400, 3)]

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
        assert (f"{fpath}: panel probability weights are not supported by "
                "optimize --factors") in captured.err

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
        # rows nothing reads: each was dropped, or outvoted, with exit 0
        ("asset,reward\nA,0.05\nA,0.5\n",
         r"rewards\.csv: rows 2 and 3 both give asset 'A' a reward$"),
        ("asset,reward\nA,0.5\nZ,9\n",
         r"rewards\.csv: row 3: asset 'Z' is not a column of \S+panel\.csv$"),
    ])
    def test_bad_reward_row_names_file_row_and_column(self, tmp_path, capsys,
                                                      rewards, where):
        code = cli.run_command(self._inputs(tmp_path, rewards=rewards))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert re.search(where, captured.err), captured.err

    @pytest.mark.parametrize("limit", ["NaN", "Infinity", '"abc"', "-1", "0", "[1.0]"])
    def test_bad_limit_names_file_entry_and_key(self, tmp_path, capsys, limit):
        argv = self._inputs(tmp_path)
        lpath = tmp_path / "limits.json"
        lpath.write_text('[{"measure": "tail:0.5", "limit": 2.0}, '
                         f'{{"measure": "tail:0.5", "limit": {limit}}}]')
        code = cli.run_command(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{lpath}: entry 1: key 'limit' must be a positive finite number, "
                f"got {json.loads(limit)!r}") in captured.err

    @pytest.mark.parametrize("measure, why", [
        ("tail:abc", "malformed measure spec 'tail:abc'"),
        ("cvar:0.1", "unknown measure kind 'cvar'"),
        (5, "measure spec must be a string, got 5"),
    ])
    def test_malformed_measure_names_file_and_entry(self, tmp_path, capsys, measure, why):
        argv = self._inputs(tmp_path)
        lpath = tmp_path / "limits.json"
        lpath.write_text(json.dumps([{"measure": measure, "limit": 2.0}]))
        code = cli.run_command(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{lpath}: entry 0: {why}" in captured.err

    @pytest.mark.parametrize("limits, why", [
        ([{"label": ["x"]}], "key 'label' must be a nonempty string, got ['x']"),
        ([{"label": 7}], "key 'label' must be a nonempty string, got 7"),
        ([{"label": ""}], "key 'label' must be a nonempty string, got ''"),
        ([{"label": "a"}, {"label": "a"}],
         "key 'label': 'a' is already the label of entry 1"),
        ([{}, {}], "key 'label': 'tail:0.5<= 1.0' is already the label of entry 1"),
        ([{"label": "tail:0.5<= 1.0 | Y"}, {"factor": "Y"}],
         "key 'label': 'tail:0.5<= 1.0 | Y' is already the label of entry 1"),
    ], ids=["list", "number", "empty", "given-twice", "generated-twice", "factor-suffix"])
    def test_bad_or_repeated_label_names_file_entry_and_key(self, tmp_path, limits, why):
        argv = self._inputs(tmp_path)
        lpath = tmp_path / "limits.json"
        entries = [{"measure": "tail:0.5", "limit": 1.0, **extra} for extra in limits]
        lpath.write_text(json.dumps([{"measure": "tail:0.5", "limit": 2.0}] + entries))
        code, err = run_child(argv, tmp_path)
        assert code == 1 and "Traceback" not in err
        assert f"{lpath}: entry {len(entries)}: {why}" in err


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

    @pytest.mark.parametrize("path, key, value, need", [
        (("desks", 1), "rewards", [float("nan")], "one finite number per column"),
        (("desks", 1), "rewards", ["abc"], "one finite number per column"),
        (("desks", 1), "rewards", [1.0, 2.0], "one finite number per column"),
        (("limits", 0), "limit", float("nan"), "a positive finite number"),
        (("limits", 0), "limit", -1.0, "a positive finite number"),
        (("desks", 0), "bounds", [[0.001, 0.01]],
         "one [lo, hi] pair per column with lo <= 0 <= hi"),
        (("desks", 0), "bounds", [[-1.0, float("nan")]],
         "one [lo, hi] pair per column with lo <= 0 <= hi"),
        (("desks", 0), "bounds", [[-1.0, 1.0], [-1.0, 1.0]],
         "one [lo, hi] pair per column with lo <= 0 <= hi"),
    ])
    def test_bad_number_names_file_entry_and_key(self, tmp_path, capsys, path, key,
                                                 value, need):
        write_panel(tmp_path / "d.csv", ["A", "B"], [[1.0, 2.0], [-1.0, 0.5]])
        firm = {"desks": [
                    {"name": "d1", "panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "d.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}]}
        firm[path[0]][path[1]][key] = value
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps(firm))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{fpath}: {path[0]}[{path[1]}]: key {key!r} must be {need}, "
                f"got {value!r}") in captured.err

    @staticmethod
    def _two_desks(tmp_path, **extra):
        write_panel(tmp_path / "d.csv", ["A", "B"], [[1.0, 2.0], [-1.0, 0.5]])
        firm = {"desks": [
                    {"name": "d1", "panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "d.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.5", "limit": 1.0}], **extra}
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps(firm))
        return fpath

    def test_malformed_measure_names_file_and_entry(self, tmp_path, capsys):
        fpath = self._two_desks(tmp_path)
        firm = json.loads(fpath.read_text())
        firm["limits"].append({"measure": "tail:abc", "limit": 1.0})
        fpath.write_text(json.dumps(firm))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{fpath}: limits[1]: malformed measure spec 'tail:abc'" in captured.err

    @pytest.mark.parametrize("allocation", [
        [[float("nan")], [1.0]], [[1.0]], [[0.5, 0.5], [0.5, 0.5]], [["abc"], [1.0]],
        [[float("inf")], [1.0]], 1.0,
    ])
    def test_bad_allocation_names_file_and_key(self, tmp_path, capsys, allocation):
        fpath = self._two_desks(tmp_path, allocation=allocation)
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{fpath}: key 'allocation' must be one finite row per desk and one "
                f"column per limit, got {allocation!r}") in captured.err

    def test_allocation_off_the_limits_names_file(self, tmp_path, capsys):
        fpath = self._two_desks(tmp_path, allocation=[[0.2], [0.2]])
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{fpath}: allocation columns must sum to the firm limits" in captured.err

    def test_boxed_desk_stays_in_its_box(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        write_panel(tmp_path / "d.csv", ["A", "B"],
                    (rng.standard_normal((2000, 2)) + 0.05).round(6).tolist())
        firm = {"desks": [
                    {"name": "d1", "panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                    {"name": "d2", "panel": "d.csv", "columns": ["B"], "rewards": [1.0]}],
                "limits": [{"measure": "tail:0.1", "limit": 1.0}]}
        holdings = []
        for box in (None, [[0.0, 0.01]]):
            if box:
                firm["desks"][0]["bounds"] = box
            fpath = tmp_path / "firm.json"
            fpath.write_text(json.dumps(firm))
            code, rep = run(capsys, ["equilibrium", "--firm", fpath, "--seed", 1])
            assert code == 0
            v = rep["verification"]
            assert v["trades_zero_sum"] and v["feasible"] and v["some_binding"]
            holdings.append(rep["holdings"])
        assert holdings[0]["d1"][0] > 0.1           # the box binds
        assert 0.01 * (1.0 - 1e-3) <= holdings[1]["d1"][0] <= 0.01
        assert holdings[1]["d2"][0] > holdings[0]["d2"][0]

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

    @pytest.mark.parametrize("path, key, where", [
        ((), "allocations", ""),
        (("desks", 1), "reward", ": desks[1]"),
        (("limits", 0), "factor", ": limits[0]"),  # equilibrium maps no limit to a factor
    ])
    def test_unknown_key_names_file_entry_and_key(self, tmp_path, capsys, path, key, where):
        fpath = self._two_desks(tmp_path)
        firm = json.loads(fpath.read_text())
        entry = firm
        for step in path:
            entry = entry[step]
        entry[key] = "F1"
        fpath.write_text(json.dumps(firm))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{fpath}{where}: unknown key {key!r}" in captured.err

    @pytest.mark.parametrize("desks, where, why", [
        ([{"name": "d1"}, {"name": "d1"}], "desks[1]",
         "key 'name': 'd1' is already the name of desks[0]"),
        ([{"name": "desk1"}, {}], "desks[1]",
         "key 'name': 'desk1' is already the name of desks[0]"),
        ([{"name": ["x"]}, {}], "desks[0]", "key 'name' must be a nonempty string, got ['x']"),
        ([{"name": 7}, {}], "desks[0]", "key 'name' must be a nonempty string, got 7"),
        ([{"name": ""}, {}], "desks[0]", "key 'name' must be a nonempty string, got ''"),
        ([{}, {"panel": 5}], "desks[1]", "key 'panel' must be a nonempty string, got 5"),
        ([{}, {"columns": "B"}], "desks[1]",
         "key 'columns' must be a nonempty list of column names, got 'B'"),
        ([{}, {"columns": [1]}], "desks[1]",
         "key 'columns' must be a nonempty list of column names, got [1]"),
        ([{"columns": []}, {}], "desks[0]",
         "key 'columns' must be a nonempty list of column names, got []"),
    ], ids=["given-twice", "generated-twice", "name-list", "name-number", "name-empty",
            "panel-number", "columns-string", "columns-number", "columns-empty"])
    def test_bad_or_repeated_desk_names_file_entry_and_key(self, tmp_path, desks, where,
                                                           why):
        write_panel(tmp_path / "d.csv", ["A", "B"], [[1.0, 2.0], [-1.0, 0.5]])
        base = [{"panel": "d.csv", "columns": ["A"], "rewards": [1.0]},
                {"panel": "d.csv", "columns": ["B"], "rewards": [1.0]}]
        fpath = tmp_path / "firm.json"
        fpath.write_text(json.dumps({
            "desks": [{**b, **d} for b, d in zip(base, desks)],
            "limits": [{"measure": "tail:0.5", "limit": 1.0}]}))
        code, err = run_child(["equilibrium", "--firm", fpath, "--seed", "1"], tmp_path)
        assert code == 1 and "Traceback" not in err
        assert f"{fpath}: {where}: {why}" in err

    def test_empty_limit_list_rejected(self, tmp_path, capsys):
        fpath = self._two_desks(tmp_path)
        firm = json.loads(fpath.read_text())
        firm["limits"] = []
        fpath.write_text(json.dumps(firm))
        code = cli.run_command(["equilibrium", "--firm", str(fpath), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{fpath}: expected a nonempty JSON array of limits" in captured.err

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
        assert (f"{tmp_path / 'b.csv'}: panel probability weights are not supported by "
                "equilibrium") in captured.err

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


    def test_desks_on_one_file_read_it_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(12)
        write_panel(tmp_path / "d.csv", ["A", "B", "C", "D"],
                    rng.standard_normal((600, 4)).round(6).tolist())
        desks = [{"name": "d1", "columns": ["A", "B"], "rewards": [1.0, 0.5]},
                 {"name": "d2", "columns": ["C"], "rewards": [0.8]},
                 {"name": "d3", "columns": ["D"], "rewards": [1.2]}]
        limits = [{"measure": "tail:0.5", "limit": 1.0},
                  {"measure": "beta:6,2", "limit": 1.5}]

        def equilibrium(panels):
            fpath = tmp_path / "firm.json"
            fpath.write_text(json.dumps({
                "desks": [{**d, "panel": f} for d, f in zip(desks, panels)],
                "limits": limits}))
            calls = []
            read = cli.ingest_panel
            monkeypatch.setattr(cli, "ingest_panel",
                                lambda path, **kw: calls.append(path) or read(path, **kw))
            code, rep = run(capsys, ["equilibrium", "--firm", fpath, "--seed", 9])
            assert code == 0
            return len(calls), strip_timings(rep)

        for copy in ("e.csv", "f.csv"):
            (tmp_path / copy).write_bytes((tmp_path / "d.csv").read_bytes())
        shared, apart = equilibrium(["d.csv"] * 3), equilibrium(["d.csv", "e.csv", "f.csv"])
        assert (shared[0], apart[0]) == (1, 3)
        assert shared[1] == apart[1]


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
        assert f"{firm}: panel probability weights are not supported with --trials" \
            in captured.err

    def test_zero_weight_rejected_as_weights_with_trials(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        trade = tmp_path / "x.csv"
        trade.write_text("date,X\n2025-01-02,1.0\n2025-01-03,-1.0\n")
        code = cli.run_command(["contrib", "--input", str(trade), "--firm", str(firm),
                                "--measure", "alpha:2", "--trials", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{firm}: panel probability weights are not supported with --trials" \
            in captured.err

    def test_estimate_rejects_weights_with_trials(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        code = cli.run_command(["estimate", "--input", str(firm), "--measure", "alpha:2",
                                "--trials", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{firm}: panel probability weights are not supported with --trials" \
            in captured.err

    def test_announce_rejects_weights(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        out = tmp_path / "a.json"
        code = cli.run_command(["announce", "--input", str(firm), "--measure", "alpha:2",
                                "--trials", "50", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists()
        assert f"{firm}: panel probability weights are not supported with --trials" \
            in captured.err

    def test_contrib_announced_rejects_weights(self, tmp_path, capsys):
        firm = tmp_path / "firm.csv"
        firm.write_text("date,A\n2025-01-01,1.0\n2025-01-02,-2.0\n2025-01-03,3.0\n"
                        "2025-01-04,-1.0\n")
        ann = tmp_path / "a.json"
        code, _ = run(capsys, ["announce", "--input", firm, "--measure", "alpha:2",
                               "--trials", 50, "--seed", 1, "--out", ann])
        assert code == 0
        code = cli.run_command(["contrib", "--input", str(self._trade(tmp_path, [1, 0, 0, 1])),
                                "--announced", str(ann), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{tmp_path / 'x.csv'}: panel probability weights are not supported "
                "with --trials") in captured.err

    def test_timechange_rejects_weights(self, tmp_path, capsys):
        # its periods sum windows of rows, which the row weights do not describe
        firm = tmp_path / "firm.csv"
        firm.write_text(self.FIRM)
        code = cli.run_command(["estimate", "--input", str(firm), "--measure", "tail:0.5",
                                "--scheme", "timechange:1.0,2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"{firm}: panel probability weights are not supported by the timechange "
                "scheme") in captured.err

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


class TestPanelErrorsNameTheFile:
    """Every column name goes through one lookup, and an unknown one exits 1
    naming the file, after the JSON entry that names it."""

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        paths = {name: tmp_path / f"{name}.csv" for name in ("firm", "trade", "factors")}
        for name, cols in (("firm", ["A", "B"]), ("trade", ["X"]), ("factors", ["F"])):
            write_panel(paths[name], cols, rng.normal(size=(30, len(cols))).round(6).tolist())
        paths["ann"] = tmp_path / "ann.json"
        assert run(capsys, ["announce", "--input", paths["firm"], "--measure", "beta:6,2",
                            "--trials", 20, "--seed", 1, "--out", paths["ann"]])[0] == 0
        (tmp_path / "rewards.csv").write_text("asset,reward\nA,1.0\nB,1.0\n")
        paths["limits"] = tmp_path / "limits.json"
        paths["limits"].write_text(json.dumps(
            [{"measure": "tail:0.5", "limit": 2.0, "factor": "Z"}]))
        paths["desks"] = tmp_path / "firm.json"
        paths["desks"].write_text(json.dumps(
            {"desks": [{"panel": "firm.csv", "columns": ["Z"], "rewards": [1.0]}],
             "limits": [{"measure": "tail:0.5", "limit": 1.0}]}))
        return {k: str(v) for k, v in paths.items()}

    EXACT = ["--measure", "tail:0.5", "--seed", "1"]
    TRIALS = ["--measure", "beta:6,2", "--trials", "20", "--seed", "1"]

    @pytest.mark.parametrize("argv, where", [
        (["estimate", "--input", "{firm}", "--columns", "A,Z"] + EXACT, "{firm}"),
        (["announce", "--input", "{firm}", "--columns", "Z"] + TRIALS, "{firm}"),
        (["contrib", "--input", "{trade}", "--firm", "{firm}", "--columns", "Z"] + EXACT,
         "{trade}"),
        (["contrib", "--input", "{trade}", "--firm", "{firm}", "--firm-columns", "Z"]
         + EXACT, "{firm}"),
        (["contrib", "--input", "{trade}", "--firm", "{firm}", "--columns", "Z"] + TRIALS,
         "{trade}"),
        (["contrib", "--input", "{trade}", "--firm", "{firm}", "--firm-columns", "Z"]
         + TRIALS, "{firm}"),
        (["contrib", "--input", "{trade}", "--announced", "{ann}", "--columns", "Z",
          "--seed", "1"], "{trade}"),
        (["kappa", "--input", "{trade}", "--firm", "{firm}", "--columns", "Z",
          "--measure", "tail:0.5"], "{trade}"),
        (["kappa", "--input", "{trade}", "--firm", "{firm}", "--firm-columns", "Z",
          "--measure", "tail:0.5"], "{firm}"),
        (["factor", "--input", "{firm}", "--factors", "{factors}", "--columns", "Z",
          "--measure", "tail:0.5", "--regression", "knn:2"], "{firm}"),
        (["factor", "--input", "{firm}", "--factors", "{factors}", "--trade", "{trade}",
          "--trade-columns", "Z", "--measure", "tail:0.5", "--regression", "knn:2"],
         "{trade}"),
        (["optimize", "--panel", "{firm}", "--rewards", "{dir}/rewards.csv",
          "--limits", "{limits}", "--factors", "{factors}", "--seed", "1"],
         "{limits}: entry 0: {factors}"),
        (["equilibrium", "--firm", "{desks}", "--seed", "1"],
         "{desks}: desks[0]: {firm}"),
    ], ids=["estimate", "announce", "contrib", "contrib-firm", "contrib-trials",
            "contrib-trials-firm", "contrib-announced", "kappa", "kappa-firm", "factor",
            "factor-trade", "optimize-limit", "equilibrium-desk"])
    def test_unknown_column(self, tmp_path, files, capsys, argv, where):
        def fill(text):
            return text.format(dir=tmp_path, **files)

        code = cli.run_command([fill(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"crm: error: {fill(where)}: unknown column 'Z'; "
                                       "panel has [")

    def test_weighting_scheme_conflict(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("date,A,prob\n2025-01-01,1.0,1\n2025-01-02,-2.0,1\n"
                        "2025-01-03,0.5,2\n")
        code = cli.run_command(["estimate", "--input", str(path), "--measure", "tail:0.5",
                                "--scheme", "geometric:0.9", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"crm: error: {path}: panel probability weights conflict with a "
                "weighting scheme\n") == captured.err

    def test_trade_history_too_short(self, files, capsys):
        # the trade holds the firm's 30 dates; the file claims one period more
        payload = json.loads(open(files["ann"]).read())
        payload["series_len"] = 31
        with open(files["ann"], "w") as fh:
            json.dump(payload, fh)
        code = cli.run_command(["contrib", "--input", files["trade"], "--announced",
                                files["ann"], "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert (f"crm: error: {files['trade']}: trade history too short: announce covers "
                "31 periods, trade has 30\n") == captured.err


class TestOneRankingPerCommand:
    """Each exact command ranks its one series once: the firm (estimate,
    contrib, allocate's book) or the trade (kappa's own risk)."""

    @pytest.mark.parametrize("command", ["estimate", "allocate", "contrib", "kappa"])
    def test_rank_blocks_runs_once(self, panel_csv, trade_csv, capsys, monkeypatch,
                                   command):
        from crm import contribution, scenario
        calls = []
        rank = scenario._rank_blocks

        def counted(*args):
            calls.append(1)
            return rank(*args)

        for module in (scenario, contribution):
            monkeypatch.setattr(module, "_rank_blocks", counted)
        argv = {"estimate": ["estimate", "--input", panel_csv, "--seed", 1],
                "allocate": ["allocate", "--input", panel_csv],
                "contrib": ["contrib", "--input", trade_csv, "--firm", panel_csv,
                            "--seed", 1],
                "kappa": ["kappa", "--input", trade_csv, "--firm", panel_csv]}[command]
        code, _ = run(capsys, argv + ["--measure", "beta:8,2"])
        assert code == 0 and len(calls) == 1


class TestBoundaryErrors:
    """Inputs that used to fail late, or with a traceback, exit 1 with one
    `crm: error:` line."""

    @pytest.mark.parametrize("spec", ["tail:nan", "mix:nan@0.5,1@0.5", "beta:inf,1"])
    @pytest.mark.parametrize("command", ["estimate", "allocate", "kappa"])
    def test_non_finite_measure_parameters(self, tmp_path, panel_csv, trade_csv, command,
                                           spec):
        argv = {"estimate": ["estimate", "--input", panel_csv, "--seed", 1],
                "allocate": ["allocate", "--input", panel_csv],
                "kappa": ["kappa", "--input", trade_csv, "--firm", panel_csv]}[command]
        code, err = run_child(argv + ["--measure", spec], tmp_path)
        assert code == 1
        assert err.startswith(f"crm: error: malformed measure spec {spec!r}: ")
        assert err.count("\n") == 1 and "Warning" not in err

    # seeds used to be read modulo 2**64: -1 drew what 2**64 - 1 draws
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64)])
    @pytest.mark.parametrize("command", ["estimate", "estimate-trials", "announce",
                                         "contrib-trials", "optimize"])
    def test_seed_outside_64_bits_names_the_flag(self, tmp_path, panel_csv, trade_csv,
                                                 capsys, command, seed):
        (tmp_path / "r.csv").write_text("asset,reward\nA,1.0\nB,0.5\n")
        (tmp_path / "l.json").write_text(json.dumps([{"measure": "tail:0.5", "limit": 1.0}]))
        trials = ["--measure", "beta:6,2", "--trials", 20]
        argv = {"estimate": ["estimate", "--input", panel_csv, "--measure", "tail:0.5"],
                "estimate-trials": ["estimate", "--input", panel_csv] + trials,
                "announce": ["announce", "--input", panel_csv] + trials,
                "contrib-trials": ["contrib", "--input", trade_csv, "--firm", panel_csv]
                + trials,
                "optimize": ["optimize", "--panel", panel_csv, "--rewards", tmp_path / "r.csv",
                             "--limits", tmp_path / "l.json"]}[command]
        assert run(capsys, argv + ["--seed", 2 ** 64 - 1])[0] == 0
        code = cli.run_command([str(a) for a in argv + ["--seed", seed]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("crm: error: --seed must be an integer from 0 to "
                                f"2**64 - 1, got {seed}\n")

    # x / 1e-320 overflows to inf, which the distortion caps at 1 on purpose:
    # the level weighs the firm's worst scenario alone, and nothing warns
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["estimate", "allocate", "contrib", "kappa"])
    def test_subnormal_level_warns_nothing(self, panel_csv, trade_csv, capsys, command):
        argv = {"estimate": ["estimate", "--input", panel_csv, "--seed", 1],
                "allocate": ["allocate", "--input", panel_csv],
                "contrib": ["contrib", "--input", trade_csv, "--firm", panel_csv, "--seed", 1],
                "kappa": ["kappa", "--input", trade_csv, "--firm", panel_csv]}[command]
        code, rep = run(capsys, argv + ["--measure", "mix:1@1e-320"])
        assert code == 0
        x, w = ingest_panel(trade_csv).series(), ingest_panel(panel_csv).series()
        got, want = {
            "estimate": (rep.get("estimate"), -w.min()),
            "allocate": (rep.get("total_risk"), -w.min()),
            "contrib": ((rep.get("contribution"), rep.get("firm_risk")),
                        (-x[w.argmin()], -w.min())),
            "kappa": (rep.get("tail_correlation"), x[w.argmin()] / x.min())}[command]
        assert got == want

    def test_memory_error_is_one_line(self, tmp_path):
        # 2e6 trials of 250 draws need gigabytes; the child may map 1 GiB
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        panel = tmp_path / "p.csv"
        write_panel(panel, ["A"], [[1.0], [-2.0], [0.5], [3.0]])
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "crm.cli", "estimate", "--input", str(panel),
             "--measure", "beta:250,25", "--trials", "2000000", "--seed", "1"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120, preexec_fn=limit_memory)
        assert proc.returncode == 1 and proc.stdout == ""
        assert re.fullmatch(r"crm: error: Unable to allocate \S+ \S+ for an array .*\n",
                            proc.stderr)


class TestStrictEmit:
    def test_non_finite_report_value_exits_one(self, panel_csv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_allocate", lambda args: {"total_risk": float("nan")})
        code = cli.run_command(["allocate", "--input", str(panel_csv), "--measure",
                                "tail:0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("crm: error: ")


@pytest.fixture()
def every_subcommand(tmp_path, panel_csv, trade_csv):
    """One argv per subcommand (contrib twice) and the announce file it writes."""
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
    return commands, ann


class TestDeterminismAndExitCodes:
    def test_byte_identical_reruns_all_subcommands(self, every_subcommand, capsys):
        commands, _ = every_subcommand
        for argv in commands:
            code1, rep1 = run(capsys, argv)
            code2, rep2 = run(capsys, argv)
            assert code1 == code2 == 0, argv
            b1 = json.dumps(strip_timings(rep1), sort_keys=True)
            b2 = json.dumps(strip_timings(rep2), sort_keys=True)
            assert b1 == b2, argv

    def test_reports_and_announce_file_keep_the_json_layout(self, every_subcommand,
                                                             capsys):
        def canonical(text):
            # the announce arrays are the only integer ndarrays a report holds
            report = json.loads(text)
            for key in ("indices", "selected"):
                if key in report:
                    report[key] = np.asarray(report[key])
            return emit_reference(report)

        commands, ann = every_subcommand
        for argv in commands:
            assert cli.run_command([str(a) for a in argv]) == 0, argv
            text = capsys.readouterr().out
            assert text == canonical(text), argv
        text = ann.read_text()
        assert text == canonical(text)

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run_command(["estimate", "--measure", "tail:0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["factor", "--input", "p.csv", "--factors", "f.csv", "--measure", "tail:0.5",
         "--standardize"],
        ["optimize", "--panel", "p.csv", "--rewards", "r.csv", "--limits", "l.json",
         "--seed", "1", "--standardize"],
        ["allocate", "--input", "p.csv", "--measure", "tail:0.5", "--standardize"],
        ["kappa", "--input", "p.csv", "--firm", "f.csv", "--measure", "tail:0.5",
         "--standardize"],
        ["equilibrium", "--firm", "firm.json", "--seed", "1", "--standardize"],
        ["equilibrium", "--firm", "firm.json", "--seed", "1", "--returns"],
    ])
    def test_flags_a_command_never_reads_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.run_command(argv)
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


class TestUtf8Inputs:
    """Every input is UTF-8: a leading byte-order mark, as spreadsheet "CSV
    UTF-8" exports write, changes no report, and a file that does not decode
    is an error naming it."""

    KINDS = {"panel": ("panel.csv", "optimize"), "rewards": ("rewards.csv", "optimize"),
             "limits": ("limits.json", "optimize"), "firm": ("firm.json", "equilibrium"),
             "announced": ("ann.json", "contrib")}

    @pytest.fixture()
    def inputs(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        write_panel(tmp_path / "panel.csv", ["A", "B"], rng.normal(size=(30, 2)).tolist())
        write_panel(tmp_path / "trade.csv", ["X"], rng.normal(size=(30, 1)).tolist())
        (tmp_path / "rewards.csv").write_text("asset,reward\nA,0.05\nB,0.03\n")
        limits = [{"measure": "tail:0.2", "limit": 1.0}]
        (tmp_path / "limits.json").write_text(json.dumps(limits))
        (tmp_path / "firm.json").write_text(json.dumps({
            "desks": [{"panel": "panel.csv", "columns": ["A"], "rewards": [0.05]},
                      {"panel": "panel.csv", "columns": ["B"], "rewards": [0.03]}],
            "limits": limits}))
        code, _ = run(capsys, ["announce", "--input", tmp_path / "panel.csv", "--measure",
                               "beta:6,2", "--trials", 40, "--seed", 3,
                               "--out", tmp_path / "ann.json"])
        assert code == 0
        return {"optimize": ["optimize", "--panel", tmp_path / "panel.csv", "--rewards",
                             tmp_path / "rewards.csv", "--limits", tmp_path / "limits.json",
                             "--seed", 1],
                "equilibrium": ["equilibrium", "--firm", tmp_path / "firm.json", "--seed", 1],
                "contrib": ["contrib", "--input", tmp_path / "trade.csv", "--announced",
                            tmp_path / "ann.json", "--seed", 1]}

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_byte_order_mark_changes_no_report(self, tmp_path, capsys, inputs, kind):
        name, command = self.KINDS[kind]
        code, plain = run(capsys, inputs[command])
        assert code == 0
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, marked = run(capsys, inputs[command])
        assert code == 0
        del plain["timings"], marked["timings"]
        assert marked == plain

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, capsys, inputs, kind):
        name, command = self.KINDS[kind]
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        code = cli.run_command([str(a) for a in inputs[command]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"crm: error: {path}: not UTF-8 text ("), captured.err
