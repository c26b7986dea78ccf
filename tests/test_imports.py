"""Every name a meanlab module imports is used in that module, and the
package exports each public name it imports.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""

import ast
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


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from meanlab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == meanlab.__all__
    assert not [name for name in meanlab.__all__ if name.startswith("_")]
    assert not [name for name in meanlab.__all__
                if isinstance(getattr(meanlab, name), types.ModuleType)]
