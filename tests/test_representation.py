"""A RealSet is the record of its key spans and clusters; its intervals
and points are views.

The first test checks that the stored form leaves every set as the frozen
dataclass of (intervals, points, clusters) printed and compared it, with
equal sets hashing alike, on seeded sets: ``conftest`` sets, a slice of
the cluster-sweep pairs and two 1,500-component operands drawn as the
benchmark draws them. The digest of the results' ``repr`` was recorded
from the dataclass implementation. The other tests pin the mechanism:
set operations, images, measures and the stage mean ``eds`` pass or read
spans, the views are built once, when something reads them, and a set is
built only from spans and clusters.
"""

import hashlib
import importlib.util
import random
import sys
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction as Q
from pathlib import Path

import pytest

from conftest import bench_module, random_mixed_set
from meanlab import exactset, means, setexpr
from meanlab.errors import InfiniteLevel, MeanlabError
from meanlab.exactset import (
    Interval,
    RealSet,
    closure,
    derived,
    from_interval,
    from_points,
    image_set,
    level,
    realset,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
)
from meanlab.funcs import SQUARE, Affine
from meanlab.measure import (
    DensityMeasure,
    fatten,
    hausdorff_distance,
    mu_mass_moment,
    support,
)

_ROOT = Path(__file__).resolve().parent.parent

# sha256 of the repr of every result of _results() on _pairs(), one line
# each, as the dataclass representation printed them
_REPR_DIGEST = ("01ef7299c618effee4b73c3a92937188"
                "f57ee8c343e11d5eb4efbd855d3476e8")

DataclassForm = make_dataclass(
    "RealSet", [("intervals", tuple, ()), ("points", tuple, ()),
                ("clusters", tuple, ())], frozen=True)


def _sweep_pairs(count: int) -> list:
    spec = importlib.util.spec_from_file_location(
        "cluster_sweep", _ROOT / "scripts" / "cluster_sweep.py")
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    pairs = module._pairs(1)
    return [next(pairs) for _ in range(count)]


def _slot_set(rng: random.Random, share: float) -> RealSet:
    comps = bench_module("gen").slot_operand(rng, Q(0), 3000, 1500, share)
    return realset([Interval(*c[1:]) for c in comps if c[0] == "iv"],
                   [p for c in comps if c[0] == "pts" for p in c[1]])


def _pairs() -> list:
    rng = random.Random(24)
    pairs = [(random_mixed_set(rng), random_mixed_set(rng))
             for _ in range(60)]
    pairs += _sweep_pairs(60)
    pairs.append((_slot_set(rng, 0.5), _slot_set(rng, 0.2)))
    return pairs


def _results(a: RealSet, b: RealSet) -> list:
    """a, b and each operation's result, or the error's name."""
    mid = sum(a.bounds()) / 2
    ops = (lambda: set_union(a, b), lambda: set_diff(a, b),
           lambda: set_intersect(a, b), lambda: slice_le(a, mid),
           lambda: slice_ge(a, mid), lambda: closure(a), lambda: derived(a))
    out = [a, b]
    for op in ops:
        try:
            out.append(op())
        except MeanlabError as exc:
            out.append(type(exc).__name__)
    return out


def test_every_set_prints_and_compares_as_the_dataclass_did():
    digest = hashlib.sha256()
    checked = 0
    for a, b in _pairs():
        sets = []
        for h in _results(a, b):
            if isinstance(h, str):
                digest.update(h.encode() + b"\n")
                continue
            old = DataclassForm(h.intervals, h.points, h.clusters)
            spans = sorted([iv.span() for iv in h.intervals]
                           + [exactset._point_span(p) for p in h.points])
            raw = RealSet(tuple(spans), h.clusters)
            assert repr(h) == repr(old)
            assert raw == h and hash(raw) == hash(h)
            assert raw.spans == h.spans  # the views give back the spans
            digest.update(repr(h).encode() + b"\n")
            sets.append((h, old))
        for h, old in sets:
            for h2, old2 in sets:
                assert (h == h2) == (old == old2)
        checked += len(sets)
    assert checked > 1000
    assert digest.hexdigest() == _REPR_DIGEST


@pytest.fixture
def view_builds(monkeypatch) -> list:
    """One entry per build of a set's interval and point views."""
    builds: list = []
    build = exactset._span_views

    def counted(spans):
        builds.append(len(spans))
        return build(spans)

    monkeypatch.setattr(exactset, "_span_views", counted)
    return builds


def test_a_union_builds_views_only_when_a_mean_reads_them(view_builds):
    rng = random.Random(24)
    a, b = _slot_set(rng, 0.5), _slot_set(rng, 0.2)
    h = set_union(a, b)
    assert h.component_count() > 2000 and view_builds == []
    means.resolve_mean("avg1").evaluate(h)  # length and moment read spans
    means.resolve_mean("eds:8").evaluate(h)
    means.resolve_mean("eds:3").evaluate(h)
    assert view_builds == []
    # the builders and readers of exactset and measure walk spans too;
    # hausdorff_distance is quadratic, so it gets the operands below 200
    mu = DensityMeasure.from_parts([(0, 3000, 1)])
    for read in (lambda: fatten(a, Q(1, 5)), lambda: support(b),
                 lambda: image_set(a, Affine(Q(-2), Q(1))),
                 lambda: image_set(b, SQUARE),
                 lambda: pytest.raises(InfiniteLevel, level, a),
                 lambda: mu_mass_moment(b, mu),
                 lambda: hausdorff_distance(slice_le(a, 200),
                                            slice_le(b, 200))):
        read()
    assert view_builds == []
    assert len(h.intervals) + len(h.points) == h.component_count()
    assert view_builds == [h.component_count()]


def test_a_union_chain_builds_views_only_when_a_mean_reads_them(view_builds):
    text = " u ".join(f"[{2 * i},{2 * i + 1})" for i in range(39)) + " u {99}"
    h = setexpr.evaluate(setexpr.parse(text))
    assert h.component_count() == 40 and view_builds == []
    means.resolve_mean("eds:8").evaluate(h)
    assert view_builds == []
    assert h.points == (99,) and len(h.intervals) == 39
    assert view_builds == [40]


def test_a_set_is_frozen_and_equal_only_to_a_set():
    h = from_interval(0, 1)
    for name in ("spans", "intervals", "clusters"):
        with pytest.raises(FrozenInstanceError):
            setattr(h, name, ())
    with pytest.raises(AttributeError, match="no attribute 'lo'"):
        h.lo
    assert h != (h.intervals, h.points, h.clusters)
    assert h == RealSet((h.intervals[0].span(),))
    assert h.spans == (h.intervals[0].span(),)


def test_a_set_is_built_only_from_spans_and_clusters():
    with pytest.raises(TypeError):
        RealSet(points=(0, 5, Q(1, 10)))  # raw parts go through realset
    a, b = realset(points=(0, 5, Q(1, 10))), from_points(0, Q(1, 10), 5)
    assert a == b
    assert means.eds_n(a, 3) == means.eds_n(b, 3) == Q(5, 2)
    assert fatten(a, Q(1, 5)) == fatten(b, Q(1, 5))
    assert fatten(a, Q(1, 5)).member(5)
