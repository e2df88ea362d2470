"""Importing piclass loads no ``dataclasses``, and so none of the
``inspect``, ``ast``, ``dis`` and ``tokenize`` it pulls in: the records are
``NamedTuple`` classes.  The command line is ``argparse``: importing
``piclass.cli`` loads nothing outside the standard library, nor
``inspect`` or ``ast``, and the package has no runtime dependency.  Every run
imports the package before it computes anything, so these modules would be
paid for on each start.

Two checks read each module of ``src/piclass/`` with ``ast``: it imports
no ``dataclasses``, and nothing outside the standard library and piclass.
Two import the package, and its command line, in a fresh interpreter and
list what each added to ``sys.modules``.  One reads ``pyproject.toml``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = {path.name: path for path in (SRC / "piclass").glob("*.py")}
BANNED = {"dataclasses"}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the absolute imports of ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_sees_a_dataclasses_import():
    assert len(MODULES) > 10  # the glob found the library
    source = "from dataclasses import dataclass\nimport os.path\nfrom . import errors\n"
    assert imported_modules(source) == {"dataclasses", "os"}
    assert imported_modules("import dataclasses as dc\n") == {"dataclasses"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_no_dataclasses(module):
    assert not BANNED & imported_modules(MODULES[module].read_text()), module


ALLOWED = sys.stdlib_module_names | {"piclass"}


def test_the_check_sees_a_third_party_import():
    source = "import hypothesis\nfrom numpy import array\nimport argparse, piclass.cli\n"
    assert imported_modules(source) - ALLOWED == {"hypothesis", "numpy"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_only_the_standard_library(module):
    assert imported_modules(MODULES[module].read_text()) <= ALLOWED, module


def modules_added_by(statement: str) -> set[str]:
    """The names that ``statement`` adds to ``sys.modules`` in a fresh
    interpreter, with ``src`` on its path."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + statement +
              "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


def test_package_import_adds_no_dataclasses_or_inspect():
    added = modules_added_by("import piclass, piclass.reporting")
    assert "piclass.reporting" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


def test_cli_import_adds_only_the_standard_library_and_no_inspect_or_ast():
    """A third-party command-line package would show up here, as would
    the ``inspect`` and ``ast`` that such packages load."""
    added = modules_added_by("import piclass.cli")
    assert {"piclass.cli", "argparse"} <= added
    assert {name.split(".")[0] for name in added} <= ALLOWED, sorted(added)
    assert not {"inspect", "ast"} & added, sorted(added)


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
