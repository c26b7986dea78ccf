"""Every name the benchmark under ``bench/`` reaches into still resolves.

The benchmark is frozen: it builds its mean catalogue through
``resolve_mean``, checks answers through ``cli.value_json`` and
``values.value_mid``, counts components with ``RealSet.component_count``,
and its tracer (``bench/tracing.py``) wraps each ``(layer, fn)`` of
``SPANS``, every ``MeanRef`` evaluation, ``means._domain_by_trial`` and
the cuts ``analysis.slice_le``/``slice_ge``. A rename in ``src/`` that
drops one of these breaks the benchmark, so this test reads ``bench/``
(it never writes there) and checks each name. The tracer's own test, in
``bench/tests``, runs the traced worker end to end.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction as Q
from pathlib import Path

import meanlab
from meanlab import analysis, cli, exactset, funcs, means, values
from meanlab.exactset import from_points, harmonic_cluster, realset, set_union

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", _BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
    return module


def test_every_traced_span_names_a_function():
    spans = _bench_module("tracing").SPANS
    assert spans
    for layer, fn in spans:
        assert callable(getattr(importlib.import_module(f"meanlab.{layer}"),
                                fn)), (layer, fn)


def test_the_catalogue_the_benchmark_builds_resolves():
    worker = _bench_module("worker")
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
