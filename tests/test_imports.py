"""Every top-level import of a package module is used in that module, and
every private top-level name it defines (a function, class or constant
whose name starts with one underscore) is read in that module, so that no
helper stays in the package only for the tests.

__init__.py only re-exports, so it is left out.  A name counts as used when
it appears as a Name node anywhere in the module (an attribute chain such as
np.linalg.eigh starts with the Name np), and as read when that node loads
it.  Every name that __init__.py re-exports is loaded, as a Name or as an
Attribute (R.find_roots), by another package module or by the benchmark's
scripts, so that the public surface holds nothing only the tests call."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hillkdv"
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


def loaded_names(source):
    """The names that the module loads as a Name or as an Attribute; a name
    imported under another (from m import x as y) counts as loaded when y
    is."""
    tree = ast.parse(source)
    loaded = {n.id if isinstance(n, ast.Name) else n.attr
              for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute))
              and isinstance(n.ctx, ast.Load)}
    return loaded | {a.name for n in ast.walk(tree)
                     if isinstance(n, ast.ImportFrom) for a in n.names
                     if a.asname in loaded}


def test_loaded_names_found():
    src = "import numpy as np\nfrom m import f as g, h as k\n" \
          "x = np.linalg.eigh\ny = g(z)\nw.v = 1\n"
    assert loaded_names(src) == {"np", "linalg", "eigh", "g", "f", "z", "w"}


def test_every_export_has_a_caller():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    callers = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    loaded = set().union(*(loaded_names(p.read_text()) for p in callers))
    assert sorted(exported - loaded) == []


def test_src_line_budget():
    # ROADMAP item 8: the package source, __init__.py included, counted as
    # wc -l counts it
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines <= 2296
