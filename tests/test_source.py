"""Source checks over src/wbtree/*.py that need only the standard library:
no line is longer than 79 columns, no imported name goes unused, no
function assigns a local it never reads, and no private name is defined
that nothing in the package reads. A name imported only to be re-exported
carries `# noqa: F401` on its line and is exempt. Every class of the trees
and their nodes declares __slots__."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "wbtree")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
MAX_COLUMNS = 79


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def test_the_modules_are_found():
    assert {"core.py", "redblack.py", "bench.py"} <= set(
        map(os.path.basename, MODULES))


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_line_is_longer_than_79_columns(path):
    long = [f"{os.path.basename(path)}:{i}: {len(line)} columns"
            for i, line in enumerate(_read(path).splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert long == []


def _imported(tree: ast.Module, lines: list[str]):
    """(name bound, line) for every import not marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, alias.lineno


def _used(tree: ast.Module) -> set[str]:
    """Every name read anywhere."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_imported_name_goes_unused(path):
    text = _read(path)
    tree = ast.parse(text)
    used = _used(tree)
    unused = [f"{os.path.basename(path)}:{line}: {name}"
              for name, line in _imported(tree, text.splitlines())
              if name not in used]
    assert unused == []


def test_the_unused_import_check_sees_one():
    text = ("import os\nimport sys  # noqa: F401\n"
            "from a import b as c\nprint(c)\n")
    tree = ast.parse(text)
    found = list(_imported(tree, text.splitlines()))
    assert found == [("os", 1), ("c", 3)]
    assert {n for n, _ in found} - _used(tree) == {"os"}


def _own_scope(node: ast.AST):
    """The nodes below a function in its own scope: nested functions,
    lambdas and classes open scopes of their own and are skipped."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
            yield child
            yield from _own_scope(child)


def _unused_locals(tree: ast.Module):
    """(name, line) for each local a function binds by plain assignment
    or `except ... as` and never reads, in itself or in a function nested
    in it (pyflakes F841). Tuple unpacking, names declared global or
    nonlocal, and names starting with `_` are exempt."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(name for n in ast.walk(fn)
                    if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names)
        for node in _own_scope(fn):
            if isinstance(node, ast.Assign):
                bound = [(t.id, t.lineno) for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                   ast.NamedExpr)):
                t = node.target
                bound = [(t.id, t.lineno)] if isinstance(t, ast.Name) else []
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound = [(node.name, node.lineno)]
            else:
                continue
            yield from ((name, line) for name, line in bound
                        if name not in read and not name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_local_is_assigned_and_never_read(path):
    unused = [f"{os.path.basename(path)}:{line}: {name}"
              for name, line in _unused_locals(ast.parse(_read(path)))]
    assert unused == []


def test_the_unused_local_check_sees_one():
    text = ("def f(a):\n"
            "    k = a.key\n"
            "    _spare = a\n"
            "    x, y = a\n"
            "    total = 0\n"
            "    def g():\n"
            "        return total\n"
            "    try:\n"
            "        pass\n"
            "    except ValueError as e:\n"
            "        pass\n"
            "    return g\n")
    assert list(_unused_locals(ast.parse(text))) == [("k", 2), ("e", 10)]


def _private_definitions(tree: ast.Module):
    """(name, line) for each `_name` a module defines at its top level, as
    a function, class or assigned constant, and for each `_name` method of
    its classes. Dunders are exempt."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found = [(m.name, m.lineno) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.FunctionDef):
            found = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            found = [(t.id, t.lineno) for t in node.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                              ast.Name):
            found = [(node.target.id, node.lineno)]
        else:
            continue
        yield from ((name, line) for name, line in found
                    if name.startswith("_") and not name.startswith("__"))


def _read_names(trees) -> set[str]:
    """Every name the modules read, as a plain name, an attribute or an
    imported name."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif (isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load)):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return read


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = _read_names(trees.values())
    return [f"{name}:{line}: {private}" for name, tree in trees.items()
            for private, line in _private_definitions(tree)
            if private not in read]


def test_every_private_name_has_a_reader():
    assert _dead_private_names(
        {os.path.basename(p): _read(p) for p in MODULES}) == []


def test_the_dead_private_name_check_sees_them():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_spare: int = 4\n"
                 "__version__ = '1'\n"
                 "def _helper():\n"
                 "    return _LIMIT\n"
                 "def _dead():\n"
                 "    _dead_too = 1\n"
                 "class _Box:\n"
                 "    def __init__(self):\n"
                 "        self._gone = 0\n"
                 "    def _kept(self):\n"
                 "        return 1\n"
                 "    def _gone(self):\n"
                 "        pass\n"),
        "b.py": ("from .a import _Box, _helper\n"
                 "print(_Box()._kept())\n"),
    }
    assert _dead_private_names(sources) == [
        "a.py:2: _spare", "a.py:6: _dead", "a.py:13: _gone"]


# The modules defining the trees and their nodes. A class without
# __slots__ gives its instances a __dict__, and on a copy.copy clone that
# dict stops every tree-field load from specialising.
SLOTTED = ["core.py", "top_down.py", "bottom_up.py", "redblack.py"]


def _classes_without_slots(tree: ast.Module) -> list[str]:
    """Names of the classes whose body assigns no __slots__."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and not any(isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name)
                                and t.id == "__slots__"
                                for t in stmt.targets)
                        for stmt in node.body)]


@pytest.mark.parametrize("name", SLOTTED)
def test_every_tree_and_node_class_declares_slots(name):
    tree = ast.parse(_read(os.path.join(SRC, name)))
    assert any(isinstance(n, ast.ClassDef) for n in ast.walk(tree))
    assert _classes_without_slots(tree) == []


def test_the_slots_check_sees_a_class_without():
    tree = ast.parse("class A:\n    __slots__ = ()\n\n\n"
                     "class B(A):\n    x = 1\n")
    assert _classes_without_slots(tree) == ["B"]
