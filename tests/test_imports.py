"""Start-up cost: `crm` loads scipy only inside the functions that call it,
and `crm.cli` loads the solver modules (factor, optimize, sharing) only in
the commands that call them.

Every `crm` command is a fresh interpreter, so a module-level import is paid
by every command, including the many that never use it. The test process
itself has these modules loaded already, so each case runs in a fresh
subprocess and reports which modules it ended up with.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""
_SOLVER_MODULES = ("crm.factor", "crm.optimize", "crm.sharing")


def modules_after(code: str, cwd) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code) + _REPORT],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_modules_after(code: str, cwd) -> list:
    return [m for m in modules_after(code, cwd) if m.split(".")[0] == "scipy"]


def solver_modules_after(code: str, cwd) -> list:
    return [m for m in modules_after(code, cwd) if m in _SOLVER_MODULES]


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after("import crm, crm.cli", tmp_path) == []


def test_import_loads_no_solver_module(tmp_path):
    assert solver_modules_after("import crm, crm.cli", tmp_path) == []


# Commands whose work is sort, weight and sum: none of them calls scipy.
_ANNOUNCE = ["announce", "--input", "firm.csv", "--measure", "beta:6,2", "--trials", "50",
             "--seed", "1", "--out", "ann.json"]
_COMMANDS = {
    "estimate-tail": ["estimate", "--input", "firm.csv", "--measure", "tail:0.1", "--seed", "1"],
    "estimate-mix": ["estimate", "--input", "firm.csv", "--measure", "mix:0.5@0.05,0.5@0.25",
                     "--scheme", "geometric:0.99", "--seed", "1"],
    "allocate": ["allocate", "--input", "firm.csv", "--measure", "tail:0.1"],
    "contrib-firm": ["contrib", "--input", "desk.csv", "--firm", "firm.csv", "--measure",
                     "tail:0.1", "--seed", "1"],
    "kappa": ["kappa", "--input", "desk.csv", "--firm", "firm.csv", "--measure",
              "mix:0.5@0.05,0.5@0.25"],
    "announce-beta": _ANNOUNCE,
    "contrib-announced": ["contrib", "--input", "desk.csv", "--announced", "ann.json",
                          "--seed", "1"],
    "estimate-trials": ["estimate", "--input", "firm.csv", "--measure", "beta:6,2",
                        "--trials", "50", "--seed", "1"],
}


def _desk_command(argv) -> str:
    # the announce file is read by `contrib --announced`, so every case makes one
    return f"""
    import contextlib, io
    import numpy as np
    from crm import cli

    rng = np.random.default_rng(0)
    for name, cols in (("firm.csv", ["A", "B"]), ("desk.csv", ["X"])):
        rows = rng.normal(size=(60, len(cols)))
        with open(name, "w") as fh:
            fh.write("date," + ",".join(cols) + "\\n")
            for i, row in enumerate(rows):
                day = np.datetime64("2025-01-01") + i
                fh.write(f"{{day}}," + ",".join(repr(float(v)) for v in row) + "\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_command({_ANNOUNCE!r}) == 0
        assert cli.run_command({argv!r}) == 0
    """


@pytest.mark.parametrize("argv", list(_COMMANDS.values()), ids=list(_COMMANDS))
def test_command_loads_no_scipy(tmp_path, argv):
    assert scipy_modules_after(_desk_command(argv), tmp_path) == []


# The exact desk commands rank, weight and sum: none of them fits, solves or prices.
_EXACT = ("estimate-tail", "estimate-mix", "allocate", "contrib-firm", "kappa")


@pytest.mark.parametrize("name", _EXACT)
def test_exact_command_loads_no_solver_module(tmp_path, name):
    assert solver_modules_after(_desk_command(_COMMANDS[name]), tmp_path) == []


# The solvers: the cutting-plane LP and the price fit are numpy; a
# factor-mapped limit on one factor uses the binned 1-D kernel or, under
# knn:K, the numpy neighbour search. So do `factor`'s joint fits.
_OPTIMIZE = ["optimize", "--panel", "panel.csv", "--rewards", "rewards.csv",
             "--limits", "limits.json", "--factors", "factors.csv", "--seed", "1"]
_FACTOR = ["factor", "--input", "panel.csv", "--columns", "A,B", "--factors", "factors.csv",
           "--measure", "tail:0.1", "--joint"]
_SOLVERS = {
    "optimize": _OPTIMIZE + ["--regression", "kernel"],
    "optimize-knn": _OPTIMIZE + ["--regression", "knn:5"],
    "factor-kernel-joint": _FACTOR + ["--regression", "kernel", "--trade", "panel.csv",
                                      "--trade-columns", "C"],
    "factor-knn-joint": _FACTOR + ["--regression", "knn:5"],
    "equilibrium": ["equilibrium", "--firm", "firm.json", "--seed", "1"],
}


@pytest.mark.parametrize("argv", list(_SOLVERS.values()), ids=list(_SOLVERS))
def test_solver_loads_no_scipy(tmp_path, argv):
    code = f"""
    import contextlib, io, json
    import numpy as np
    from crm import cli

    rng = np.random.default_rng(0)
    for name, cols in (("panel.csv", ["A", "B", "C"]), ("factors.csv", ["F", "G"])):
        rows = rng.standard_t(5, size=(200, len(cols))) + 0.05
        with open(name, "w") as fh:
            fh.write("date," + ",".join(cols) + "\\n")
            for i, row in enumerate(rows):
                day = np.datetime64("2025-01-01") + i
                fh.write(f"{{day}}," + ",".join(repr(float(v)) for v in row) + "\\n")
    with open("rewards.csv", "w") as fh:
        fh.write("asset,reward\\nA,0.05\\nB,0.03\\nC,0.04\\n")
    mix = "mix:0.5@0.01,0.5@0.1"
    with open("limits.json", "w") as fh:
        json.dump([{{"measure": "tail:0.05", "limit": 2.0}}, {{"measure": mix, "limit": 2.5}},
                   {{"measure": "tail:0.1", "limit": 1.0, "factor": "F"}}], fh)
    with open("firm.json", "w") as fh:
        json.dump({{"desks": [{{"panel": "panel.csv", "columns": ["A", "B"],
                                "rewards": [0.05, 0.03]}},
                               {{"panel": "panel.csv", "columns": ["C"], "rewards": [0.04]}}],
                    "limits": [{{"measure": "tail:0.05", "limit": 2.0}},
                               {{"measure": mix, "limit": 2.5}}]}}, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_command({argv!r}) == 0
    """
    assert scipy_modules_after(code, tmp_path) == []
