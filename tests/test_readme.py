"""README's CLI section names only commands and flags that exist, and its
Suites table matches the claim registry."""

import argparse
import re
from pathlib import Path

import pytest

from piclass.cli import build_parser
from piclass.suite import SUITES

README = Path(__file__).parent.parent / "README.md"


def _section(heading: str) -> str:
    """The text under ``heading`` (a line like ``## CLI``), up to the next
    level-2 heading."""
    if not README.exists():  # an installed package ships no README
        pytest.skip("README.md is absent")
    text = README.read_text()
    start = text.index(f"\n{heading}\n") + len(f"\n{heading}\n")
    return text[start:].split("\n## ", 1)[0]


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Subcommand name -> its parser, read from the ``piclass`` parser."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_readme_cli_block_names_registered_commands():
    block = re.search(r"```sh\n(.*?)```", _section("## CLI"), re.S).group(1)
    words = re.findall(r"^piclass (\S+)", block, re.M)
    assert words
    assert set(words) <= set(_commands()), sorted(set(words) - set(_commands()))


def test_readme_common_flags_are_options():
    paragraph = re.search(r"^Common flags:(.*?)\n\n", _section("## CLI"), re.S | re.M).group(1)
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    assert flags
    options = {opt for command in _commands().values()
               for action in command._actions for opt in action.option_strings}
    assert flags <= options, sorted(flags - options)


def test_readme_suites_table_matches_the_registry():
    """README's Suites table lists exactly the SUITES selectors, each with
    the result id its verdicts carry."""
    rows = re.findall(r"^\| `([a-z]+)` +\| `([a-z0-9-]+)` +\|", _section("### Suites"), re.M)
    assert dict(rows) == {name: entry[2] for name, entry in SUITES.items()}
    assert len(rows) == len(SUITES)
