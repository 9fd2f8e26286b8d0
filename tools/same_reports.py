#!/usr/bin/env python3
"""Check that two source trees give the same crm reports on the crmbench workloads.

    python3 tools/same_reports.py PARENT_TREE CHANGE_TREE --seeds 7 11

For every crmbench workload and seed, the inputs are written once by
crmbench's ``inputs.generate``, and each command of ``workloads.commands``
runs as a ``python -m crm.cli`` child of each tree (``PYTHONPATH=<tree>/src``)
in that tree's own copy of the inputs. A command prints ``same`` when its exit
code, its stdout with the ``timings`` value blanked, and every file it writes
(``--out``) are byte-identical in the two trees, else ``DIFF`` and where the
texts first part. When both stdouts parse as JSON with the same key paths, a
``DIFF`` also gives the largest relative difference over their numbers, with
its key path, and every key path whose other value differs. The crmbench used
is the one beside this script; it is only read. Exits 1 when any command
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# "timings" holds one flat object of wall-clock numbers
_TIMINGS = re.compile(r'("timings": )\{[^{}]*\}')


def _run(tree: str, work: str, cmd) -> dict:
    """Exit code, timing-free stdout and written files of cmd run from tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "crm.cli"] + cmd.argv, cwd=work, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    files = dict.fromkeys(cmd.outputs)
    for name in cmd.outputs:
        if os.path.exists(os.path.join(work, name)):
            with open(os.path.join(work, name), "rb") as fh:
                files[name] = fh.read()
    return {"exit": proc.returncode,
            "stdout": _TIMINGS.sub(r"\1{}", proc.stdout.decode()).encode(), **files}


def _first_difference(a, b) -> str:
    if a is None or b is None:
        return "missing in " + ("parent" if a is None else "change")
    if isinstance(a, int):
        return f"{a} != {b}"
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"byte {at} of {len(a)} / {len(b)}: {a[at:at + 40]!r} vs {b[at:at + 40]!r}"


def _leaves(value, path=""):
    """(key path, value) of every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_difference(a: bytes, b: bytes) -> list:
    """How two JSON texts with the same key paths differ: the largest relative
    difference over their numbers, and every key path whose other value
    differs. Empty when either text is not JSON or their key paths differ."""
    try:
        la, lb = (dict(_leaves(json.loads(text))) for text in (a, b))
    except ValueError:
        return []
    if la.keys() != lb.keys():
        return []
    changed = [k for k in la if la[k] != lb[k]]
    numbers = [k for k in changed if _is_number(la[k]) and _is_number(lb[k])]
    others = [k for k in changed if k not in numbers]
    lines = []
    if numbers:
        rel, key = max((abs(la[k] - lb[k]) / max(abs(la[k]), abs(lb[k])), k) for k in numbers)
        lines.append(f"largest relative difference {rel:.3g} at {key}: {la[key]!r} vs {lb[key]!r}")
    if others:
        lines.append("other values differ at " + ", ".join(others))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent commit (holds src/crm)")
    ap.add_argument("change", help="source tree of the change (holds src/crm)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = ap.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]  # children run elsewhere
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "crm", "cli.py")):
            ap.error(f"no src/crm/cli.py under {tree}")
    sys.path.insert(0, os.path.join(ROOT, "crmbench"))
    import inputs
    import workloads

    differ = 0
    scratch = tempfile.mkdtemp(prefix="same_reports-")
    try:
        for workload in inputs.WORKLOADS:
            for seed in args.seeds:
                base = os.path.join(scratch, f"{workload}-{seed}")
                _, data = inputs.generate(workload, seed, os.path.join(base, "inputs"))
                cmds = workloads.commands(workload, seed, data, os.path.join(base, "inputs"))
                works = []
                for side in ("parent", "change"):
                    works.append(os.path.join(base, side))
                    shutil.copytree(os.path.join(base, "inputs"), works[-1])
                for cmd in cmds:
                    a, b = (_run(tree, work, cmd)
                            for tree, work in zip(trees, works))
                    diffs = [f"{key}: {_first_difference(a[key], b[key])}"
                             for key in a if a[key] != b[key]]
                    if a["stdout"] != b["stdout"]:
                        diffs += _json_difference(a["stdout"], b["stdout"])
                    differ += bool(diffs)
                    line = f"{'DIFF' if diffs else 'same'}  {workload} seed={seed} {cmd.name}"
                    if not diffs and a["exit"]:
                        line += f" (exit {a['exit']} in both)"
                    print("\n    ".join([line] + diffs), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{differ} command(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
