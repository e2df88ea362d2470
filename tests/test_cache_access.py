"""Every per-group fact the library keeps goes through ``PermGroup.cached``.

A group's derived data (its class table, its ``d_pi`` profiles, its Hall,
Sylow and subgroup-class answers) lives in ``PermGroup.cache``, and one
method reads and fills it.  This reads every module of ``src/piclass/``
with ``ast`` and fails on a function other than ``PermGroup.__init__`` and
``PermGroup.cached`` that names an attribute ``cache``, so a hand-written
get, build and store cannot come back beside the one primitive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "piclass"

ALLOWED = {"group:PermGroup.__init__", "group:PermGroup.cached"}


def cache_readers(sources: dict[str, str]) -> list[str]:
    """``module:qualname`` of each function, or ``module:<module>`` for
    code outside any function, that names the attribute ``cache`` in
    ``sources`` (module name -> source text), once each, in module and
    source order."""
    found = []

    def visit(module: str, node: ast.AST, scope: list[str], in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(module, child, scope + [child.name], in_function or is_function)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "cache":
                name = f"{module}:{'.'.join(scope) if in_function else '<module>'}"
                if name not in found:
                    found.append(name)
            visit(module, child, scope, in_function)

    for module, source in sorted(sources.items()):
        visit(module, ast.parse(source), [], False)
    return found


def test_the_check_sees_a_hand_written_cache():
    sources = {
        "group": "class PermGroup:\n"
                 "    def __init__(self): self.cache = {}\n"
                 "    def cached(self, key, build, *args): return self.cache[key]\n"
                 "    def order(self): return self.cache.get('order')\n",
        "table": "def table(g):\n"
                 "    def build(): return g.cache.setdefault('t', 1)\n"
                 "    return build()\n"
                 "g.cache = None\n"
                 "def through_cached(g): return g.cached('t', dict)\n",
    }
    assert [name for name in cache_readers(sources) if name not in ALLOWED] == [
        "group:PermGroup.order", "table:table.build", "table:<module>"]


def test_only_the_cache_primitive_touches_the_cache():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 10  # the glob found the library
    assert [name for name in cache_readers(sources) if name not in ALLOWED] == []
