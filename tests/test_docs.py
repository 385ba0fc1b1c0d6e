"""README keeps the user's contract: every key, option, run file, policy,
charger and module is named there, each module in one row of the
library table."""

import argparse
import pathlib
import re

import pytest

from gridshare import cli
from gridshare.policies import POLICY_NAMES
from gridshare.powergrid import CHARGER_PRESETS

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# What README writes as code: fenced blocks and inline spans.
CODE = "\n".join(re.findall(r"```.*?```|`[^`]+`", README, re.S))
MODULES = sorted(path.stem for path in (ROOT / "src" / "gridshare").glob("*.py")
                 if path.stem != "__init__")
# The library table's rows, "| `gridshare.<module>` | ... |", as (row, module).
ROWS = re.findall(r"^(\| `gridshare\.(\w+)` \|.*)$", README, re.M)


def long_options():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted({option for sub in commands.choices.values() for action in sub._actions
                   for option in action.option_strings if option.startswith("--") and option != "--help"})


def named(name):
    """Whether README's code names `name` whole, not as part of a longer name."""
    return re.search(r"(?<![\w-])" + re.escape(name) + r"(?![\w-])", CODE) is not None


@pytest.mark.parametrize("name", [*cli._CONFIG_DEFAULTS, *long_options(), *cli.RUN_FILES,
                                  *POLICY_NAMES, *CHARGER_PRESETS])
def test_readme_names_every_key_option_file_policy_and_charger(name):
    assert named(name), f"README.md does not name `{name}`"


@pytest.mark.parametrize("module", MODULES)
def test_readme_gives_every_module_one_short_row(module):
    rows = [row for row, name in ROWS if name == module]
    assert len(rows) == 1, f"README.md's library table has {len(rows)} rows for gridshare.{module}"
    assert len(rows[0]) <= 250, f"gridshare.{module}'s row is {len(rows[0])} characters"
