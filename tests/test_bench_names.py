"""Every name the benchmark under ``bench/`` reaches into still resolves.

The benchmark is frozen: it builds its mean catalogue through
``resolve_mean``, checks answers through ``cli.value_json`` and
``values.value_mid``, counts components with ``RealSet.component_count``,
and its tracer (``bench/tracing.py``) wraps each ``(layer, fn)`` of
``SPANS``, every ``MeanRef`` evaluation, ``means._domain_by_trial`` and
the cuts ``analysis.slice_le``/``slice_ge``. Its own tests import
``cli._make_parser`` and ``cli._parse_density``. A rename in ``src/`` that
drops one of these breaks the benchmark, so this test reads ``bench/``
(it never writes there) and checks each name. The tracer's own test, in
``bench/tests``, runs the traced worker end to end.
"""

import ast
import importlib
from fractions import Fraction as Q

import pytest

import meanlab
from conftest import BENCH, bench_module
from meanlab import analysis, cli, exactset, funcs, means, values
from meanlab.errors import BadParameters
from meanlab.exactset import from_points, harmonic_cluster, realset, set_union


def test_every_traced_span_names_a_function():
    spans = bench_module("tracing").SPANS
    assert spans
    for layer, fn in spans:
        assert callable(getattr(importlib.import_module(f"meanlab.{layer}"),
                                fn)), (layer, fn)


def test_the_catalogue_the_benchmark_builds_resolves():
    worker = bench_module("worker")
    cat = worker.catalogue(meanlab)
    assert isinstance(cat.pop("_schedule"), meanlab.LimitSchedule)
    assert all(isinstance(k, means.MeanRef) for k in cat.values())
    assert {means.AMEAN, means.AVG1, means.M_ACC} <= set(cat.values())
    assert meanlab.PROPERTY_IDS and meanlab.values is values
    assert any("apply_bounds" in vars(c) for c in vars(funcs).values()
               if isinstance(c, type))


def test_the_domain_trial_is_looked_up_when_a_mean_is_built(monkeypatch):
    # the tracer replaces means._domain_by_trial to time the trials
    seen = []
    by_trial = means._domain_by_trial

    def traced(ev):
        seen.append(ev)
        return by_trial(ev)

    monkeypatch.setattr(means, "_domain_by_trial", traced)
    k = means.resolve_mean("iso:4")
    assert len(seen) == 1
    assert k.in_domain(from_points(Q(0), Q(1)))


def test_bounds_cut_through_the_slices_the_tracer_wraps(monkeypatch):
    cuts = []
    for name in ("slice_le", "slice_ge"):
        cut = getattr(exactset, name)
        assert getattr(analysis, name) is cut
        monkeypatch.setattr(analysis, name,
                            lambda h, x, cut=cut: cuts.append(x) or cut(h, x))
    h = from_points(Q(0), Q(1), Q(3))
    analysis.liminf_by_mean(means.AMEAN, h)
    analysis.limsup_by_mean(means.AMEAN, h)
    assert len(cuts) > 2


def test_answers_and_counts_the_benchmark_reads():
    h = set_union(realset(clusters=[harmonic_cluster(Q(0))]),
                  from_points(Q(2), Q(3)))
    assert h.component_count() == 3
    assert cli.value_json(Q(1, 2)) == {"num": 1, "den": 2,
                                       "decimal": "0.500000000000"}
    assert values.value_mid(values.Approx(Q(1), Q(1, 4))) == 1


def test_the_cli_names_the_benchmark_tests_import_resolve():
    tree = ast.parse((BENCH / "tests" / "test_bench.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "meanlab.cli" for alias in node.names}
    assert names == {"_make_parser", "_parse_density"}
    args = cli._make_parser().parse_args(
        ["eval", "--mean", "m_mu", "--density=0,1,2;1,3,1", "--set", "[0,1]"])
    assert cli._parse_density(args.density).text() == "0,1,2;1,3,1"
    with pytest.raises(BadParameters) as e:
        cli._parse_density("0,1")
    assert str(e.value) == "density pieces are 'lo,hi,weight' separated by ';'"
