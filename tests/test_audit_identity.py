"""The audit reports of seed 0 match the recorded sweep line for line.

``scripts/audit_sweep.py`` prints one line per report (property, mean,
seed, verdict, trials, replay count and a short hash of the report's
``repr``) for every property on every benchmark mean. This test runs its
seed-0 tasks in process, 314 reports, and compares each line with
``tests/data/audit_sweep_seed0.txt``, so a change to the audit harness
that moves a report fails tier-1, not only the full twelve-seed sweep.
After a change that moves reports on purpose, regenerate the file from
the sweep's output (its lines whose third field is 0).
"""

import importlib.util
import sys
from pathlib import Path

import meanlab

_ROOT = Path(__file__).resolve().parent.parent
_DATA = Path(__file__).resolve().parent / "data" / "audit_sweep_seed0.txt"


def _sweep_module():
    spec = importlib.util.spec_from_file_location(
        "audit_sweep", _ROOT / "scripts" / "audit_sweep.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_seed_0_audit_reports_match_the_recorded_sweep():
    sweep = _sweep_module()
    cat = sweep.worker.catalogue(meanlab)
    lines = [sweep.report_line(cat, task)
             for task in sweep.tasks(cat, seeds=(0,))]
    expected = _DATA.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 314
    moved = [(want, got) for want, got in zip(expected, lines) if want != got]
    assert moved == [] and len(lines) == len(expected)
