"""Every mean id the program prints reads back through ``resolve_mean``.

A mean's id, ``family[:tag][^f]...``, is its one text form: ``eval
--json`` prints it in its ``"mean"`` field and the audit in every report.
For each mean below, ``resolve_mean(k.id, schedule=...)`` must rebuild a
mean with the same id and, on seeded sets, the same value or the same
error type. The means are the 12 of the benchmark's catalogue
(``bench/worker.py``, read only), the stage means its limit-type means
build along the audit's schedule, and every mean that a succeeding call
of the golden CLI corpus builds from its flags.
"""

import json
import random
from pathlib import Path

import pytest

import meanlab
from conftest import (
    bench_module,
    random_cluster_set,
    random_mixed_set,
    random_union,
)
from meanlab import cli, resolve_mean
from meanlab.errors import MeanlabError
from meanlab.means import MeanSequence

_GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _catalogue() -> list:
    cat = bench_module("worker").catalogue(meanlab)
    sched = cat.pop("_schedule")
    return [(k, sched) for k in cat.values()]


def _catalogue_means() -> list:
    cat = _catalogue()
    return cat + [(k.param.at(n), sched) for k, sched in cat
                  if isinstance(k.param, MeanSequence) for n in sched.indices]


def _golden_means() -> list:
    parser, seen = cli._make_parser(), {}
    for case in json.loads(_GOLDEN.read_text(encoding="utf-8")):
        if case["exit"] == 0:
            args = parser.parse_args(case["argv"])
            sched = cli._build_schedule(args)
            k = cli._build_mean(args, sched)
            seen.setdefault((k.id, sched), (k, sched))
    return list(seen.values())


def _value_or_error_type(k, h):
    try:
        return k(h)
    except MeanlabError as e:
        return type(e)


def _sets(seed: str) -> list:
    rng = random.Random(seed)
    return ([random_mixed_set(rng) for _ in range(4)]
            + [random_cluster_set(rng), random_union(rng)])


def _reads_back(k, sched) -> None:
    again = resolve_mean(k.id, schedule=sched)
    assert again.id == k.id
    for h in _sets(k.id):
        assert _value_or_error_type(again, h) == _value_or_error_type(k, h)


def test_the_catalogue_ids_include_every_text_form():
    ids = {k.id for k, _ in _catalogue()}
    assert {"m_mu:-64,0,1;0,64,2", "avg_f:square", "avg1^exp(2)"} <= ids
    assert len(ids) == 12


def _params(means) -> list:
    return [pytest.param(k, sched, id=f"{k.id}@{sched.indices[-1]}")
            for k, sched in means]


@pytest.mark.parametrize("k, sched", _params(_catalogue_means()))
def test_every_catalogue_and_audit_mean_reads_back(k, sched):
    _reads_back(k, sched)


@pytest.mark.parametrize("k, sched", _params(_golden_means()))
def test_every_mean_of_the_golden_calls_reads_back(k, sched):
    _reads_back(k, sched)
