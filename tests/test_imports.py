"""Every name a meanlab module imports is used in that module, and the
package's export table hands out each module's own objects.

``__init__.py`` is left out of the first check: its names come from the
table, not from imports.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import meanlab

_SRC = Path(__file__).resolve().parent.parent / "src" / "meanlab"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    src = "import os\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(src) == ["b (line 2)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imports_by_function(source: str) -> set[tuple[str, str]]:
    """(innermost function, or "" at module or class level, imported
    module) for each import statement."""
    found: set[tuple[str, str]] = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
            elif isinstance(child, ast.ImportFrom):
                found.add((fn, child.module or ""))
            elif isinstance(child, ast.Import):
                found.update((fn, alias.name) for alias in child.names)
            else:
                visit(child, fn)

    visit(ast.parse(source), "")
    return found


def test_local_imports_only_keep_modules_off_the_start_up_path():
    # mpmath loads on the first certified value; the audit and the
    # analysis load only in the CLI commands that run them
    found = {(path.name, fn, module) for path in _MODULES
             for fn, module in imports_by_function(
                 path.read_text(encoding="utf-8"))}
    assert {entry for entry in found if entry[1]} == {
        ("funcs.py", "_certified", "mpmath"),
        ("cli.py", "_cmd_derive", "analysis"),
        ("cli.py", "_cmd_accpoints", "analysis"),
        ("cli.py", "_cmd_bounds", "analysis"),
        ("cli.py", "_suite_ids", "axioms"),
        ("cli.py", "_run_reports", "axioms"),
    }
    assert [entry for entry in found if entry[2].startswith("mpmath")] == [
        ("funcs.py", "_certified", "mpmath")]


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from meanlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == meanlab.__all__
    assert not [name for name in meanlab.__all__ if name.startswith("_")]
    assert not [name for name in meanlab.__all__
                if isinstance(getattr(meanlab, name), types.ModuleType)]


def test_each_export_is_the_object_its_module_defines():
    for name in meanlab.__all__:
        if name == "Q":
            continue
        module = importlib.import_module(
            f"meanlab.{meanlab._MODULE_OF[name]}")
        assert getattr(meanlab, name) is getattr(module, name), name


def test_each_module_of_the_table_resolves_as_an_attribute():
    for name in meanlab._EXPORTS:
        assert getattr(meanlab, name) is importlib.import_module(
            f"meanlab.{name}")


def test_dir_lists_every_export_and_an_unknown_name_fails():
    assert set(meanlab.__all__) | set(meanlab._EXPORTS) <= set(dir(meanlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        meanlab.no_such_name
