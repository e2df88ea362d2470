"""Hypothesis fuzzing of the group-file parser and the command line.

Bad input must come out as a typed error, never a traceback: the parser may
raise only ``PiclassError``, and every CLI call ends with exit status 0, 1
or 2 and raises nothing but ``SystemExit``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from piclass.catalog import census_specs, parse_group_file
from piclass.config import Config
from piclass.errors import PiclassError

_FILE_TOKENS = st.sampled_from([
    "degree", "degree ", " ", "\t", "\n", "#", "(", ")", "()", ",", "-", "x", "é",
    "0", "1", "2", "3", "7", "10", "128", "129", "99999999999999999999",
])


@st.composite
def _structured_files(draw):
    """A degree header and generator lines whose points may run off the end."""
    degree = draw(st.integers(-1, 12))
    lines = [f"degree {degree}"]
    for _ in range(draw(st.integers(0, 3))):
        cycles = draw(st.lists(st.lists(st.integers(-1, degree + 1), max_size=5), max_size=3))
        lines.append("".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(_FILE_TOKENS, max_size=30).map("".join),
                 _structured_files()))
def test_group_file_parser_raises_only_piclass_errors(text):
    try:
        group = parse_group_file(text)
    except PiclassError:
        return
    assert all(g.degree == group.degree for g in group.generators)


_SMALL_NAMES = [s.name for s in census_specs(Config(max_order=72))]
_JUNK_NAMES = ["", " ", "E8", "C0", "D7", "S0", "A2", "x", "C3 x", "Q9", "C99999999999999999999"]
_PI_VALUES = ["2", "3", "2,3", "2 5", "7", "4", "1", "0", "-2", "x", "", ",", "2,,3",
              "1000000000000000003", "2147483647", "2147483659", "9" * 30]


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["analyze", "hall", "census", "verify"]))
    args = [command]
    if command == "census":
        if draw(st.booleans()):
            args += ["--max-order", str(draw(st.integers(-2, 3000)))]
    elif command == "verify" and draw(st.booleans()):
        # without a group source, a census capped at a small order
        args += ["--max-order", str(draw(st.integers(-2, 8)))]
        args += ["--suite", draw(st.sampled_from(["cap", "commuting", "all", "nope"]))]
    else:
        args.append(draw(st.sampled_from(_SMALL_NAMES + _JUNK_NAMES)))
        if command == "verify":
            args += ["--suite", draw(st.sampled_from(["all", "main", "selftest", "nope"]))]
    if command != "census":
        for _ in range(draw(st.integers(1 if command == "hall" else 0, 2))):
            args += ["--pi", draw(st.sampled_from(_PI_VALUES))]
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["json", "csv", "text", "xml"]))]
    # The checks of these values live in Config and the library, not the parser.
    if command == "hall" and draw(st.booleans()):
        args += ["--budget", draw(st.sampled_from(["3", "0", "-1", "x"]))]
    args += draw(st.sampled_from([[], [], ["--seed", "-1"], ["--seed", "x"]]))
    missing = os.path.join("no-such-dir", "no-such-file")
    args += draw(st.sampled_from([[], [], ["--config", missing]]
                                 + ([["--replay", missing]] if command == "verify" else [])))
    return args


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bundles"))


@settings(max_examples=160, deadline=None)
@given(_cli_args())
def test_cli_exits_cleanly_on_any_input(bundle_dir, args):
    if args[0] == "verify":  # the selftest suite writes failure bundles
        args += ["--bundle-dir", bundle_dir]
    result = invoke(args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
