"""Every top-level import of a package module is used in that module, and
every private top-level name it defines (a function, class or constant
whose name starts with one underscore) is read in that module, so that no
helper stays in the package only for the tests.

__init__.py only re-exports, so it is left out.  A name counts as used when
it appears as a Name node anywhere in the module (an attribute chain such as
np.linalg.eigh starts with the Name np), and as read when that node loads
it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hillkdv"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by the module's top-level imports that no Name node
    of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; from m import x as y binds y
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def unread_private_names(source):
    """The private names that the module's top-level def, class and
    assignment statements bind and that no Name node of the module loads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_found():
    src = "import math\nimport numpy as np\nfrom os import path, sep\n" \
          "x = np.pi + len(sep)\n"
    assert unused_imports(src) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unread_private_names_found():
    src = "_A, B = 1, 2\n_C: int = 3\n__all__ = []\n" \
          "def _f():\n    return _A\n\n" \
          "def _g():\n    _h = 1\n\n" \
          "class _K:\n    pass\n\n" \
          "def public():\n    return _f() + _C\n"
    assert unread_private_names(src) == [(7, "_g"), (10, "_K")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_read(path):
    assert unread_private_names(path.read_text()) == []
