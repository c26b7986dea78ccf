"""The line census's lists of code tier-1 need not run stay current.

``scripts/line_census.py`` runs tier-1 under a tracer, which takes about
five minutes, so it stays out of tier-1. Its ``GUARDS`` and ``ITEM_1``
entries name a function and a line of text; an entry whose function or
line is gone would silently match nothing, so each is checked here.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_census.py"
_spec = importlib.util.spec_from_file_location("line_census", _SCRIPT)
line_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_census)


def _lines_by_function(name: str) -> dict[str, set[str]]:
    path = line_census.PACKAGE / name
    source = path.read_text(encoding="utf-8").splitlines()
    out: dict[str, set[str]] = {}
    for line, fn in line_census.function_names(path).items():
        out.setdefault(fn, set()).add(source[line - 1].strip())
    return out


def test_function_names_are_dotted_through_classes_and_defs(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class A:\n    def f(self):\n        def g():\n"
                    "            return 1\n        return g\n\n\n"
                    "def h():\n    pass\n")
    names = line_census.function_names(path)
    assert names[1] == "A" and names[2] == "A.f" and names[4] == "A.f.g"
    assert names[5] == "A.f" and names[9] == "h" and 6 not in names


def test_no_entry_is_both_a_guard_and_item_1():
    assert not line_census.GUARDS.keys() & line_census.ITEM_1.keys()


def test_each_entry_names_a_line_of_its_function():
    entries = line_census.GUARDS.keys() | line_census.ITEM_1.keys()
    lines = {name: _lines_by_function(name) for name, _, _ in entries}
    stale = [entry for entry in sorted(entries)
             if entry[2] not in lines[entry[0]].get(entry[1], set())]
    assert stale == []
