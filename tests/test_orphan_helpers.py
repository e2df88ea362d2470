"""No library module keeps a private helper that nothing reads, and no
oracle or lemma of the tests goes dead.

A deletion often leaves behind the private function, method or class that
only the deleted code called.  This reads every module of ``src/piclass/``
with ``ast`` and fails on a single-underscore name defined there that no
``Name``, ``Attribute`` or import alias of the library reads outside the
name's own definition.  The same reader runs over ``tests/`` for every
function, method and class of ``oracles.py`` and ``lemmas.py``: one that no
test module (nor another oracle) reads checks nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "piclass"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def orphan_helpers(sources: dict[str, str], checked=lambda module, name: _is_private(name)):
    """``module:name`` for each function, method or class defined in
    ``sources`` (module name -> source text), private by default, else where
    ``checked(module, name)`` holds, that is read nowhere in them but inside
    its own definition, in module and source order."""
    defined = []  # (module, first line, last line, name)
    reads = []  # (module, line, name)
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, _DEFINITIONS) and checked(module, node.name):
                defined.append((module, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, ast.Name):
                reads.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((module, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reads.extend((module, node.lineno, alias.name) for alias in node.names)
    return [f"{module}:{name}" for module, first, last, name in sorted(defined)
            if not any(read == name and not (where == module and first <= line <= last)
                       for where, line, read in reads)]


def test_the_check_sees_an_orphan_helper():
    sources = {
        "a": "def _kept(): return _kept()\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "class _Box:\n    def _open(self): return self._open\n"
             "def __dunder__(): pass\n",
        "b": "from a import _kept\n",
    }
    assert orphan_helpers(sources) == ["a:_recursive", "a:_Box", "a:_open"]


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 10  # the glob found the library
    assert orphan_helpers(sources) == []


def _in_oracles_or_lemmas(module: str, name: str) -> bool:
    return module in ("oracles", "lemmas") and not name.startswith("__")


def test_the_check_sees_a_dead_oracle():
    sources = {
        "oracles": "def used(): return _helper()\ndef _helper(): pass\ndef dead(): pass\n",
        "lemmas": "class Bound:\n    pass\n",
        "test_a": "from oracles import used\n",
    }
    assert orphan_helpers(sources, _in_oracles_or_lemmas) == ["lemmas:Bound", "oracles:dead"]


def test_every_oracle_and_lemma_is_read():
    sources = {path.stem: path.read_text() for path in TESTS.glob("*.py")}
    assert {"oracles", "lemmas", "test_fast_paths"} <= set(sources)
    assert orphan_helpers(sources, _in_oracles_or_lemmas) == []
