"""README.md names exactly the flags that the `crm` parser defines."""

import argparse
import os
import re

from crm import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
# flags README.md shows for the repo's other tools: tools/same_reports.py
OTHER_TOOLS = {"--seeds"}


def parser_flags() -> set:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for p in sub.choices.values() for action in p._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings}


def test_readme_flags_are_the_parser_flags():
    with open(README) as fh:
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", fh.read())) - OTHER_TOOLS
    flags = parser_flags()
    assert {"stale in README": sorted(named - flags),
            "missing from README": sorted(flags - named)} == \
        {"stale in README": [], "missing from README": []}


def test_package_layout_names_every_module():
    with open(README) as fh:
        block = fh.read().split("## Package layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\S+\.py) ", block, re.MULTILINE))
    src = os.path.join(os.path.dirname(README), "src", "crm")
    modules = {f for f in os.listdir(src) if f.endswith(".py") and f != "__init__.py"}
    assert {"stale in README": sorted(named - modules),
            "missing from README": sorted(modules - named)} == \
        {"stale in README": [], "missing from README": []}
