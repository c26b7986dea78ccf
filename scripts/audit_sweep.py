#!/usr/bin/env python3
"""Audit-identity sweep: every property on every benchmark mean, 12 seeds.

Runs ``check(pid, k, GeneratorConfig(schedule=...), trials=3, seed=s)`` for
the 12 means of the benchmark catalogue (``bench/worker.py``, schedule
16..1024), all 27 properties and seeds 0-11, leaving out the pairs the
benchmark skips (``bench/gen.py`` ``AUDIT_SKIPPED``): 3,768 reports. It
prints one line per report (property, mean, seed, verdict, trials, replay
count and a short hash of ``repr(report)``), then the count of reports and
counterexamples and a digest of all the lines.

Run it on two checkouts and diff the outputs: a refactor of the audit
harness that changes no report prints byte-identical output, and any line
that differs names a report that moved. It imports meanlab from the
``src/`` of its own checkout and only reads ``bench/``. With its two
worker processes it takes about half a minute on two cores.
``tests/test_audit_identity.py`` runs the seed-0 reports of the same task
list through ``report_line`` in tier-1.

    python3 scripts/audit_sweep.py > sweep.txt
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import gen  # noqa: E402
import worker  # noqa: E402

SEEDS = range(12)
TRIALS = 3
WORKERS = 2

_cat: dict = {}


def _init() -> None:
    _cat.update(worker.catalogue(worker.setup()))


def tasks(cat: dict, seeds=SEEDS) -> list[tuple[str, str, int]]:
    """(mean, property, seed) of every report the sweep makes, in order."""
    from meanlab.axioms import PROPERTY_IDS

    means = [m for m in cat if not m.startswith("_")]
    return [(mean, pid, seed) for mean in means for pid in PROPERTY_IDS
            for seed in seeds if (pid, mean) not in gen.AUDIT_SKIPPED]


def report_line(cat: dict, task: tuple[str, str, int]) -> str:
    """The sweep's line for one report of the catalogue ``cat``."""
    from meanlab.axioms import GeneratorConfig, check

    mean, pid, seed = task
    cfg = GeneratorConfig(schedule=cat["_schedule"])
    report = check(pid, cat[mean], cfg, trials=TRIALS, seed=seed)
    replays = len(report.witness.replays) if report.witness else 0
    short = hashlib.sha256(repr(report).encode()).hexdigest()[:12]
    return (f"{pid} {mean} {seed} {report.verdict} {report.trials} "
            f"{replays} {short}")


def _line(task: tuple[str, str, int]) -> str:
    return report_line(_cat, task)


def main() -> int:
    _init()
    todo = tasks(_cat)
    digest = hashlib.sha256()
    found = 0
    with multiprocessing.Pool(WORKERS, initializer=_init) as pool:
        for line in pool.imap(_line, todo, chunksize=4):
            print(line)
            digest.update(line.encode() + b"\n")
            found += " counterexample " in line
    print(f"{len(todo)} reports, {found} counterexamples")
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
