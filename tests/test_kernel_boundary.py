"""Images are composed in ``perm`` alone, and in the class-product supports.

``perm``'s docstring promises that it owns the permutation kernel and
builds every table, and that only the class-product supports of
``classes`` (``ClassTable._support``) read a table outside it.  This reads
every module of ``src/piclass/`` with ``ast`` and fails on code anywhere
else that names the kernel's tools: a ``.translate(`` call, ``maketrans``,
the padding tails ``_TAILS``, or an ``itemgetter(*...)`` built on unpacked
images.  So a hand-written composition cannot come back beside the kernel.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "piclass"

ALLOWED_MODULES = {"perm"}
ALLOWED = {"classes:ClassTable._support"}


def _is_kernel(node: ast.AST) -> bool:
    """Whether ``node`` names one of the kernel's tools."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "translate":
            return True
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name == "itemgetter" and any(isinstance(a, ast.Starred) for a in node.args)
    if isinstance(node, ast.Name):
        return node.id in ("maketrans", "_TAILS")
    if isinstance(node, ast.Attribute):
        return node.attr in ("maketrans", "_TAILS")
    if isinstance(node, ast.alias):
        return node.name in ("maketrans", "_TAILS")
    return False


def kernel_users(sources: dict[str, str]) -> list[str]:
    """``module:qualname`` of each function, or ``module:<module>`` for code
    outside any function, that names a kernel tool in ``sources`` (module
    name -> source text), once each, in module and source order."""
    found = []

    def visit(module: str, node: ast.AST, scope: list[str], in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(module, child, scope + [child.name], in_function or is_function)
                continue
            if _is_kernel(child):
                name = f"{module}:{'.'.join(scope) if in_function else '<module>'}"
                if name not in found:
                    found.append(name)
            visit(module, child, scope, in_function)

    for module, source in sorted(sources.items()):
        visit(module, ast.parse(source), [], False)
    return found


def outside_the_kernel(names: list[str]) -> list[str]:
    return [name for name in names
            if name.split(":")[0] not in ALLOWED_MODULES and name not in ALLOWED]


def test_the_check_sees_a_hand_written_composition():
    sources = {
        "perm": "def compose_images(a, b):\n"
                "    return b.translate(a + _TAILS[len(a)])\n",
        "classes": "class ClassTable:\n"
                   "    def _support(self, i, j): return y.translate(table)\n"
                   "    def fusion(self, n): return bytes.maketrans(a, b)\n",
        "group": "from operator import itemgetter\n"
                 "def mul(a, b): return itemgetter(*b)(a)\n"
                 "def first(a): return itemgetter(0)(a)\n",
        "subgroups": "from .perm import _TAILS\n",
        "suite": "def compose(a, b):\n"
                 "    def step(x): return x.translate(a + bytes(range(len(a), 256)))\n"
                 "    return step(b)\n",
    }
    assert outside_the_kernel(kernel_users(sources)) == [
        "classes:ClassTable.fusion", "group:mul", "subgroups:<module>", "suite:compose.step"]


def test_only_the_kernel_composes_images():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 10  # the glob found the library
    users = kernel_users(sources)
    assert "classes:ClassTable._support" in users and "perm:compose_images" in users
    assert outside_the_kernel(users) == []
