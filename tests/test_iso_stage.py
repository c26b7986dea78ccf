"""``iso_n`` sums the survivors of the excision by index range, without
building them. ``tests/iso_reference.py`` keeps the stage that built them:
every value and error must stay the same."""

import random
from fractions import Fraction as Q

from conftest import random_cluster_set, random_points
import iso_reference
from iso_reference import iso_n as iso_n_reference
from meanlab import exactset, means
from meanlab.errors import MeanlabError
from meanlab.exactset import (
    MATERIALIZE_CAP,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    image_set,
    realset,
    set_union,
    translate,
)
from meanlab.funcs import SQUARE, Affine, Power
from meanlab.means import iso_n
from meanlab.measure import fatten

_STAGES = (1, 2, 3, 4, 16, 256, 1024)


def _outcome(stage, h, n):
    try:
        return stage(h, n)
    except MeanlabError as exc:
        return type(exc).__name__, str(exc)


def _level_two_set():
    # the set of test_exactset.test_a_level_two_set_by_hand
    tpl = harmonic_cluster(5)
    return realset(clusters=[harmonic_cluster(
        1, children=[(1, 2, tpl), (3, None, tpl)])])


def _cases():
    """(set, stages): seeded cluster sets, most united with points; their
    images under affine(2,1), under square once moved to start at 0, and
    under pow(3); and a set of level 2. A pow(3) image materialises slowly
    in the reference, so it stops at n = 16."""
    rng = random.Random(1)
    cases = []
    for i in range(12):
        h = random_cluster_set(rng, harmonic_c=rng.choice((Q(1, 2), Q(1))))
        if i % 3:
            h = set_union(h, random_points(rng, count=i % 4 + 1, lo=-2, hi=2))
        cases += [(h, _STAGES), (image_set(h, Affine(Q(2), Q(1))), _STAGES),
                  (image_set(translate(h, -h.bounds()[0]), SQUARE), _STAGES),
                  (image_set(h, Power(3)), _STAGES[:5])]
    return cases + [(_level_two_set(), _STAGES)]


def test_iso_n_matches_the_materialising_reference():
    got, want = [], []
    for h, stages in _cases():
        for n in stages:
            got.append(_outcome(iso_n, h, n))
            want.append(_outcome(iso_n_reference, h, n))
    assert got == want
    kinds = {(type(c.rule).__name__, c.above, c.include_limit)
             for h, _ in _cases()[:48:4] for c in h.clusters}
    assert len(kinds) == 8  # both rules, both sides, with and without limit
    errors = [o for o in got if isinstance(o, tuple)]
    assert len(got) == 319 and 0 < len(errors) < len(got) // 4
    assert {o[0] for o in errors} == {"EmptySlice"}


def test_the_harmonic_stage_is_a_harmonic_number():
    # the terms 1/k with k <= 4096 lie outside (-1/4096, 1/4096)
    h = set_union(realset(clusters=[harmonic_cluster(0)]), realset(
        points=[3]))
    harmonic = sum(Q(1, k) for k in range(1, 4097))
    assert iso_n(h, 4096) == (harmonic + 3) / 4097


def test_the_geometric_stage_is_a_geometric_sum():
    # the terms 2 - 3·(2/3)^k with k <= 12 are at least 1/64 below the
    # limit 2, and 3·(2/3)^13 < 1/64: twelve terms and the point 5 survive
    h = set_union(realset(clusters=[geometric_cluster(
        2, Q(3), Q(2, 3), above=False)]), realset(points=[5]))
    assert 3 * Q(2, 3) ** 13 < Q(1, 64) <= 3 * Q(2, 3) ** 12
    terms = [2 - 3 * Q(2, 3) ** k for k in range(1, 13)]
    assert iso_n(h, 64) == (sum(terms) + 5) / 13


def test_native_runs_are_summed_without_building_a_term(monkeypatch):
    bare_terms = exactset._bare_terms
    rules = []

    def spy(cl, k_lo, k_hi):
        rules.append(type(cl.rule).__name__)
        return bare_terms(cl, k_lo, k_hi)

    cases = _cases()
    monkeypatch.setattr(exactset, "_bare_terms", spy)
    for h, stages in cases:
        for n in stages:
            _outcome(iso_n, h, n)
    assert set(rules) == {"MappedRule"}  # the square and pow(3) images


def test_a_stage_past_the_cap_is_refused_before_any_sum(monkeypatch):
    # 2^18 terms 1/k survive, more than MATERIALIZE_CAP
    h = realset(clusters=[harmonic_cluster(0, include_limit=True)])
    assert 2 ** 18 > MATERIALIZE_CAP
    refused = ("UnrepresentableResult",
               "difference needs too many explicit components")
    assert _outcome(iso_n_reference, h, 2 ** 18) == refused

    def no_sum(*args):
        raise AssertionError("a run was summed")

    monkeypatch.setattr(means, "_run_sum", no_sum)
    monkeypatch.setattr(means, "balanced_sum", no_sum)
    assert _outcome(iso_n, h, 2 ** 18) == refused


def test_a_surviving_cluster_is_refused_as_the_reference_refuses_it(
        monkeypatch):
    # the neighbourhood of the accumulation points swallows every cluster
    # tail, so only a fake one that misses the limit 0 leaves a cluster:
    # then NotFinite, unless the cut of the later cluster passes the cap
    h = realset(clusters=[harmonic_cluster(0), harmonic_cluster(5)])

    def ball_at_5(d, delta):
        return fatten(from_points(5), delta)

    for module in (means, iso_reference):
        monkeypatch.setattr(module, "fatten", ball_at_5)
    outcomes = [(_outcome(iso_n, h, n), _outcome(iso_reference.iso_n, h, n))
                for n in (4, 2 ** 18)]
    assert outcomes == [
        (("NotFinite", "arithmetic mean needs a finite point set"),) * 2,
        (("UnrepresentableResult",
          "difference needs too many explicit components"),) * 2]
