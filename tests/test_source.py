"""Source checks over src/wbtree/*.py that need only the standard library:
no line is longer than 79 columns, and no imported name goes unused. A
name imported only to be re-exported carries `# noqa: F401` on its line
and is exempt. Every class of the trees and their nodes declares
__slots__."""

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
