#!/usr/bin/env python3
"""Line census: which lines of ``src/meanlab`` does tier-1 never run?

Runs the tier-1 suite (``tests/``) in this process through
``pytest.main`` under a ``sys.settrace`` line tracer. The tracer is armed
before collection, so functions that run only at import time count as
run, and a plugin re-arms it before each test: a ``RecursionError``
inside the tracer disarms it for the rest of that test, so the census
can over-count unrun lines there, never under-count them.

It counts the lines that carry bytecode in function bodies (every
``def`` and ``lambda``, with the comprehensions and inner functions in
it); module and class bodies, and the ``def`` lines, are left out. For
each module it prints the unrun count over that total, then each unrun
range (a maximal run of counted lines none of which ran) with its first
source line, then the grand total and a digest of the module and range
lines. The pytest report goes to stderr.

It needs Python 3.11 or later (instruction positions). Run it from the
repository root, on any checkout; it takes no options and about five
minutes on one core (the tracer runs tier-1 about five times slower):

    python3 scripts/line_census.py > census.txt
"""

from __future__ import annotations

import contextlib
import dis
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "meanlab"

_FUNC = 0x02  # CO_NEWLOCALS: a function's own frame, not a module or class


def _body_lines(code) -> set[int]:
    """Lines of code's instructions after its prologue, which ends with the
    first RESUME and sits on the def line (or the first decorator's): that
    line runs when the module is imported, whether or not the body does."""
    out: set[int] = set()
    prologue = True
    for ins in dis.get_instructions(code):
        if not prologue and ins.positions.lineno is not None:
            out.add(ins.positions.lineno)
        prologue = prologue and ins.opname != "RESUME"
    return out


def _function_lines(code, out: set[int], in_function: bool) -> None:
    """Add to out the lines of every function body nested in code."""
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        # a comprehension outside any def runs at import, in module scope
        inside = in_function or (bool(const.co_flags & _FUNC) and (
            const.co_name == "<lambda>" or not const.co_name.startswith("<")))
        if inside:
            out.update(_body_lines(const))
        _function_lines(const, out, inside)


def counted_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    out: set[int] = set()
    _function_lines(code, out, False)
    return out


class Census:
    """The tracer, and a pytest plugin that re-arms it for each test."""

    def __init__(self, paths: list[Path]):
        self.seen: dict[str, set[int]] = {str(p): set() for p in paths}
        self.outcomes: Counter = Counter()

    def _global(self, frame, event, arg):
        seen = self.seen.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    def arm(self) -> None:
        sys.settrace(self._global)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.arm()
        yield

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes[report.outcome] += 1


def _ranges(lines: list[int], seen: set[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive counted lines that never ran."""
    out: list[tuple[int, int]] = []
    run: list[int] = []
    for line in lines + [None]:
        if line is not None and line not in seen:
            run.append(line)
        elif run:
            out.append((run[0], run[-1]))
            run = []
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    paths = sorted(PACKAGE.glob("*.py"))
    census = Census(paths)
    census.arm()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors"],
                               plugins=[census])
    finally:
        sys.settrace(None)

    outcomes = ", ".join(f"{n} {k}"
                         for k, n in sorted(census.outcomes.items()))
    print("line census of src/meanlab under tier-1: lines that carry "
          "bytecode in function bodies")
    print(f"pytest exit {int(code)}: {outcomes}")
    digest = hashlib.sha256()
    total = unrun = 0
    for path in paths:
        lines = sorted(counted_lines(path))
        seen = census.seen[str(path)]
        missed = [line for line in lines if line not in seen]
        total += len(lines)
        unrun += len(missed)
        source = path.read_text(encoding="utf-8").splitlines()
        out = [f"{path.stem} {len(missed)}/{len(lines)}"]
        for lo, hi in _ranges(lines, seen):
            span = str(lo) if lo == hi else f"{lo}-{hi}"
            out.append(f"  {path.name}:{span}  {source[lo - 1].strip()}")
        for line in out:
            print(line)
            digest.update(line.encode() + b"\n")
    print(f"total {unrun}/{total} unrun")
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
