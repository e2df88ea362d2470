"""No library or test module imports a name it never uses.

A deleted helper often leaves its import behind in the modules that called
it.  This reads each module of ``src/piclass/`` and of ``tests/`` with
``ast`` and fails on an imported name that no expression of the module
reads.  ``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "piclass"
# library modules by file name, test modules as tests/<file name>
MODULES = {path.name: path for path in SRC.glob("*.py") if path.name != "__init__.py"}
MODULES.update({f"tests/{path.name}": path for path in TESTS.glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no ``Name`` node
    reads, in source order.  ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


def test_the_check_sees_an_unused_import():
    assert sum(not m.startswith("tests/") for m in MODULES) > 10  # the glob found the library
    assert sum(m.startswith("tests/") for m in MODULES) > 10  # and the tests
    source = "import math\nfrom os import path, sep as s\nimport a.b\n\nprint(path, a)\n"
    assert unused_imports(source) == ["math", "s"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_are_used(module):
    assert unused_imports(MODULES[module].read_text()) == [], module
