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
it); module and class bodies, and the ``def`` lines, are left out. An
unrun range is a maximal run of counted lines none of which ran. For each
module it prints the unrun count over that total and each unlisted range
with its first source line; then the ranges of ``GUARDS`` and of
``ITEM_1``, each with its reason, and any entry that matched no unrun
range; then the grand total, a digest of the module lines and of every
range line (in the unlisted form) and, last, the count of unlisted
ranges. The pytest report goes to stderr.

``GUARDS`` lists code that tier-1 need not run: validation raises, and
fall-backs for an engine error or a skipped trial. ``ITEM_1`` lists the
nested-cluster code that ROADMAP item 1 keeps for sets of level 2 and up.
Each entry is keyed by the innermost function holding the range (dotted
through enclosing classes and functions) and the stripped text of the
range's first line, not by line number, and it covers every range that
starts on such a line. ``tests/test_line_census.py`` checks that each
entry still names a function and a line that exist.

It needs Python 3.11 or later (instruction positions). Run it from the
repository root, on any checkout; it takes no options and about five
minutes on one core (the tracer runs tier-1 about five times slower):

    python3 scripts/line_census.py > census.txt
"""

from __future__ import annotations

import ast
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

_REFUSED = "refuses an input outside the mean's or the engine's domain"
_SKIPPED = "a drawn trial outside the judge's premise is skipped"

# (file, function, first line of the range) -> why tier-1 need not run it
GUARDS: dict[tuple[str, str, str], str] = {
    ("analysis.py", "_bound_by_search.pred", "except MeanlabError:"):
        "a cut the engine cannot represent is judged as moving the mean",
    ("analysis.py", "core_restriction_check", "except MeanlabError:"):
        "a core outside the mean's domain does not keep the mean",
    ("analysis.py", "uniformity_witness_at", "except MeanlabError:"):
        "a family member outside a mean's domain is passed over",
    **{("axioms.py", fn, "raise _Skip"): _SKIPPED for fn in (
        "_disjoint_parts_in_domain", "_j_disjoint_monotone",
        "_j_union_monotone", "_j_equi_monotone", "_draw_slice", "_draw_point",
        "_draw_hausdorff", "_j_finite_independent", "_j_u_bounded_overlap",
        "_j_u_bounded_infinite")},
    ("axioms.py", "gen_sets", "continue"): _SKIPPED,
    ("axioms.py", "gen_disjoint_pairs", "except _Skip:"): _SKIPPED,
    ("axioms.py", "gen_equal_mean_pairs", "except _Skip:"): _SKIPPED,
    ("axioms.py", "_verify_witness",
     'raise MeanlabError("witness failed replay within tolerance")'):
        "a witness whose replay disagrees is an engine fault, never shown",
    ("cli.py", "value_json", 'raise BadParameters(f"not a value: {v!r}")'):
        _REFUSED,
    ("cli.py", "value_text", 'raise BadParameters(f"not a value: {v!r}")'):
        _REFUSED,
    ("cli.py", "_set_text", "except MeanlabError:"):
        "a set outside the expression grammar prints as its repr",
    ("exactset.py", "Harmonic.__post_init__",
     'raise BadParameters("harmonic rule needs c > 0")'): _REFUSED,
    ("exactset.py", "Geometric.__post_init__",
     'raise BadParameters("geometric rule needs c > 0")'): _REFUSED,
    ("exactset.py", "Geometric.__post_init__",
     'raise BadParameters("geometric rule needs 0 < q < 1")'): _REFUSED,
    ("exactset.py", "MappedRule.__post_init__",
     'raise BadParameters("mapped rule needs an exact transform")'):
        _REFUSED,
    ("exactset.py", "rule_scaled",
     'raise BadParameters("offset scale factor must be positive")'):
        _REFUSED,
    ("exactset.py", "_max_k_offset_ge",
     'raise BadParameters("offset threshold must be positive")'): _REFUSED,
    ("exactset.py", "make_cluster",
     'raise BadParameters("cluster start index must be >= 1")'): _REFUSED,
    ("exactset.py", "make_cluster",
     'raise BadParameters("no child block may follow an unbounded one")'):
        _REFUSED,
    ("exactset.py", "make_cluster",
     'raise BadParameters("child block indices out of range")'): _REFUSED,
    ("exactset.py", "make_cluster",
     'raise BadParameters("child blocks must be disjoint and sorted")'):
        _REFUSED,
    ("exactset.py", "make_cluster",
     'raise BadParameters("child template must be a cluster")'): _REFUSED,
    ("exactset.py", "cluster_affine",
     'raise ZeroScale("scale factor must be nonzero")'): _REFUSED,
    ("exactset.py", "placed_child",
     'raise BadParameters(f"index {k} carries no child copy")'): _REFUSED,
    ("exactset.py", "RealSet.bounds",
     'raise EmptySet("the empty set has no bounds")'): _REFUSED,
    ("exactset.py", "_cluster_cluster_intersect",
     'raise UnrepresentableResult("coincidence scan too large")'):
        "a resource bound: MATERIALIZE_CAP explicit terms",
    ("exactset.py", "image_set", "raise UnsupportedDepth("): _REFUSED,
    ("exactset.py", "derived_iter",
     'raise BadParameters("derived iteration count must be >= 0")'):
        _REFUSED,
    ("exactset.py", "level",
     'raise EmptySet("level of the empty set is undefined")'): _REFUSED,
    ("funcs.py", "_certified", 'raise BadParameters("enclosure failed to '
     'reach the requested width")'):
        "a bound on the precision loop, which no known input reaches",
    ("funcs.py", "MonotoneFunc.apply", 'raise DomainViolation(f"{self.name()}'
     ' has no exact forward evaluation")'): _REFUSED,
    **{("funcs.py", fn, "raise NotImplementedError"):
       "an abstract method: every transform overrides it"
       for fn in ("MonotoneFunc.inverse_bounds", "MonotoneFunc.name")},
    ("funcs.py", "Affine.__post_init__",
     'raise BadParameters("affine transform needs a nonzero slope")'):
        _REFUSED,
    ("funcs.py", "ExpBase.__post_init__",
     'raise BadParameters("exp kind needs base > 0, base != 1")'): _REFUSED,
    ("funcs.py", "LogBase.__post_init__",
     'raise BadParameters("log kind needs base > 0, base != 1")'): _REFUSED,
    ("funcs.py", "parse_func",
     'raise BadParameters("compose needs two arguments")'): _REFUSED,
    ("funcs.py", "parse_func",
     'raise BadParameters(f"wrong arguments for {head}(...)")'): _REFUSED,
    ("means.py", "m_mu",
     'raise EmptySet("average of the empty set is undefined")'): _REFUSED,
    ("means.py", "avg_f",
     'raise EmptySet("average of the empty set is undefined")'): _REFUSED,
    ("means.py", "_amean_certified", 'raise EmptySet("arithmetic mean '
     'of the empty set is undefined")'): _REFUSED,
    ("means.py", "_avg1_certified",
     'raise EmptySet("average of the empty set is undefined")'): _REFUSED,
    ("measure.py", "_native_depth1", "raise UnsupportedDepth("): _REFUSED,
    ("measure.py", "_directed_hausdorff", 'raise EmptySet("distance to the '
     'empty set is undefined")'): _REFUSED,
    ("setexpr.py", "parse", 'raise UnsupportedDepth("set expression nested '
     'too deeply to "'): _REFUSED,
    ("setexpr.py", "print_expr", 'raise UnsupportedDepth("set expression '
     'nested too deeply to "'): _REFUSED,
    ("setexpr.py", "_print",
     'raise BadParameters(f"not a set expression: {e!r}")'): _REFUSED,
    ("setexpr.py", "evaluate", 'raise UnsupportedDepth("set expression '
     'nested too deeply to "'): _REFUSED,
    ("setexpr.py", "_evaluate",
     'raise BadParameters(f"not a set expression: {e!r}")'): _REFUSED,
    ("setexpr.py", "set_to_expr", "raise UnrepresentableResult("): _REFUSED,
    ("values.py", "value_bounds",
     'raise TypeError(f"not a mean value: {type(v).__name__}")'): _REFUSED,
}

# (file, function, first line of the range) -> what of item 1 it is
ITEM_1: dict[tuple[str, str, str], str] = {
    ("exactset.py", "_derived_cluster", "sub_p, sub_c = _derived_cluster("
     "placed_child(c, k))"): "the derived set of a copy of depth 2 or more",
    ("exactset.py", "_derived_cluster",
     "sub_p, sub_c = _derived_cluster(tpl)"):
        "the derived set of an unbounded block of depth 2 or more",
}


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


def function_names(path: Path) -> dict[int, str]:
    """Line -> dotted name of the innermost def or class holding it."""
    out: dict[int, str] = {}

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}" if prefix else child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    out[line] = name
            walk(child, name)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


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
    total = unrun = unlisted = 0
    listed: dict[str, list[str]] = {"guards": [], "item 1": []}
    matched = set()
    for path in paths:
        lines = sorted(counted_lines(path))
        seen = census.seen[str(path)]
        missed = [line for line in lines if line not in seen]
        total += len(lines)
        unrun += len(missed)
        source = path.read_text(encoding="utf-8").splitlines()
        names = function_names(path)
        head = f"{path.stem} {len(missed)}/{len(lines)}"
        print(head)
        digest.update(head.encode() + b"\n")
        for lo, hi in _ranges(lines, seen):
            text = source[lo - 1].strip()
            span = str(lo) if lo == hi else f"{lo}-{hi}"
            line = f"  {path.name}:{span}  {text}"
            digest.update(line.encode() + b"\n")
            key = (path.name, names.get(lo, ""), text)
            for section, table in (("guards", GUARDS), ("item 1", ITEM_1)):
                if key in table:
                    listed[section].append(f"{line}  [{key[1]}: "
                                           f"{table[key]}]")
                    matched.add(key)
                    break
            else:
                print(line)
                unlisted += 1
    for section, out in listed.items():
        print(f"{section}: {len(out)} ranges")
        for line in out:
            print(line)
    for key in sorted((GUARDS.keys() | ITEM_1.keys()) - matched):
        print(f"listed but run: {key[0]} {key[1]}: {key[2]}")
    print(f"total {unrun}/{total} unrun")
    print(f"digest {digest.hexdigest()}")
    print(f"unlisted ranges {unlisted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
