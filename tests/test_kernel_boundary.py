"""Images are composed in ``perm`` alone, and in the class-product supports;
the layout of images is decided in ``perm``'s layout helpers alone.

``perm``'s docstring promises that it owns the permutation kernel and
builds every table, and that only the class-product supports of
``classes`` (``ClassTable._support``) read a table outside it.  This reads
every module of ``src/piclass/`` with ``ast`` and fails on code anywhere
else that names the kernel's tools: a ``.translate(`` call, ``maketrans``,
the padding tails ``_TAILS``, or an ``itemgetter(*...)`` built on unpacked
images.  So a hand-written composition cannot come back beside the kernel.

Both layouts, bytes up to degree 256 and the wide tuple type ``_Wide``
above it, compose by ``.translate``, so no kernel function asks which
layout it holds.  The check also fails on a layout test anywhere but
``perm._pack``, ``perm._inverse_images`` and the wide type itself:
``type(x) is bytes``, ``isinstance(x, bytes)`` or the name ``_Wide``.  So a
second kernel body for one layout cannot come back either.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "piclass"

ALLOWED_MODULES = {"perm"}
ALLOWED = {"classes:ClassTable._support"}
LAYOUT_HELPERS = {"perm:_pack", "perm:_inverse_images", "perm:_Wide"}
WIDE = "_Wide"


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


def _names_bytes(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bytes"
            or isinstance(node, ast.Tuple) and any(map(_names_bytes, node.elts)))


def _is_layout_test(node: ast.AST) -> bool:
    """Whether ``node`` asks for the layout of images: ``type(x) is bytes``
    (or ``is not``), ``isinstance(x, bytes)`` or the wide type's name."""
    if isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.Is, ast.IsNot)):
        sides = [node.left, node.comparators[0]]
        return (any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type"
                    for s in sides) and any(map(_names_bytes, sides)))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        return len(node.args) == 2 and _names_bytes(node.args[1])
    if isinstance(node, ast.Name):
        return node.id == WIDE
    if isinstance(node, ast.Attribute):
        return node.attr == WIDE
    if isinstance(node, ast.alias):
        return node.name == WIDE
    return False


def scopes_with(sources: dict[str, str], matches) -> list[str]:
    """``module:qualname`` of each function, or ``module:<module>`` for code
    outside any function, with a node that ``matches`` in ``sources``
    (module name -> source text), once each, in module and source order."""
    found = []

    def visit(module: str, node: ast.AST, scope: list[str], in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(module, child, scope + [child.name], in_function or is_function)
                continue
            if matches(child):
                name = f"{module}:{'.'.join(scope) if in_function else '<module>'}"
                if name not in found:
                    found.append(name)
            visit(module, child, scope, in_function)

    for module, source in sorted(sources.items()):
        visit(module, ast.parse(source), [], False)
    return found


def kernel_users(sources: dict[str, str]) -> list[str]:
    """The scopes that name a kernel tool."""
    return scopes_with(sources, _is_kernel)


def layout_tests(sources: dict[str, str]) -> list[str]:
    """The scopes that ask which layout images have."""
    return scopes_with(sources, _is_layout_test)


def outside_the_kernel(names: list[str]) -> list[str]:
    return [name for name in names
            if name.split(":")[0] not in ALLOWED_MODULES and name not in ALLOWED]


def outside_the_layout_helpers(names: list[str]) -> list[str]:
    """The names that are neither a layout helper nor a method of one."""
    return [name for name in names if name.split(".")[0] not in LAYOUT_HELPERS]


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
    layouts = {
        "perm": "class _Wide(tuple):\n"
                "    def translate(self, table): return _Wide(table)\n"
                "def _pack(images): return bytes(images) if small else _Wide(images)\n"
                "def _inverse_images(images):\n"
                "    return maketrans(images) if type(images) is bytes else _Wide(images)\n"
                "def compose_images(a, b):\n"
                "    if type(b) is not bytes: return itemgetter(*b)(a)\n",
        "classes": "from .perm import _Wide\n"
                   "class ClassTable:\n"
                   "    def _support(self, table):\n"
                   "        return y.translate(table) if isinstance(table, (str, bytes)) else 0\n"
                   "    def size(self): return len(bytes(self.members))\n",
        "group": "def wide(images): return isinstance(images, perm._Wide)\n"
                 "def is_str(x): return type(x) is str\n",
    }
    assert outside_the_layout_helpers(layout_tests(layouts)) == [
        "classes:<module>", "classes:ClassTable._support", "group:wide", "perm:compose_images"]


def test_only_the_kernel_composes_images():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 10  # the glob found the library
    users = kernel_users(sources)
    assert "classes:ClassTable._support" in users and "perm:compose_images" in users
    assert outside_the_kernel(users) == []
    layouts = layout_tests(sources)
    assert "perm:_pack" in layouts and "perm:_Wide.translate" in layouts
    assert outside_the_layout_helpers(layouts) == []
