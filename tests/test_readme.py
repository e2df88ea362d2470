"""README's CLI section names only commands and flags that exist."""

import re
from pathlib import Path

import pytest

from piclass.cli import main

README = Path(__file__).parent.parent / "README.md"


def _cli_section() -> str:
    if not README.exists():  # an installed package ships no README
        pytest.skip("README.md is absent")
    text = README.read_text()
    start = text.index("\n## CLI\n") + len("\n## CLI\n")
    return text[start:].split("\n## ", 1)[0]


def test_readme_cli_block_names_registered_commands():
    block = re.search(r"```sh\n(.*?)```", _cli_section(), re.S).group(1)
    words = re.findall(r"^piclass (\S+)", block, re.M)
    assert words
    assert set(words) <= set(main.commands), sorted(set(words) - set(main.commands))


def test_readme_common_flags_are_options():
    paragraph = re.search(r"^Common flags:(.*?)\n\n", _cli_section(), re.S | re.M).group(1)
    flags = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
    assert flags
    options = {opt for command in main.commands.values()
               for param in command.params for opt in param.opts}
    assert flags <= options, sorted(flags - options)
