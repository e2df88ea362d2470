"""Importing piclass loads no ``dataclasses``, and so none of the
``inspect``, ``ast``, ``dis`` and ``tokenize`` it pulls in: the records are
``NamedTuple`` classes.  Every run imports the package before it computes
anything, so these modules would be paid for on each start.

One check reads each module of ``src/piclass/`` with ``ast``; the other
imports the package in a fresh interpreter and lists what it added to
``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
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


def test_package_import_adds_no_dataclasses_or_inspect():
    script = ("import json, sys\nbefore = set(sys.modules)\nimport piclass, piclass.reporting\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    added = set(json.loads(out.stdout))
    assert "piclass.reporting" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)
