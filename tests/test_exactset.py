"""Set representation: normalization, membership, algebra, and topology."""

import dataclasses
import pickle
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import exactset_reference as cut_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_member,
    probe_points,
    random_cluster_set,
    random_mixed_set,
    random_points,
    random_union,
)
from meanlab import exactset, measure, setexpr
from meanlab.errors import (
    BadParameters,
    MeanlabError,
    OverlappingClusterWindows,
    UnrepresentableResult,
)
from meanlab.exactset import (
    EMPTY,
    MATERIALIZE_CAP,
    Cluster,
    Geometric,
    Harmonic,
    Interval,
    RealSet,
    acc_bounds,
    closure,
    derived,
    derived_iter,
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    interior,
    level,
    make_cluster,
    normalize,
    placed_child,
    realset,
    reflect,
    rule_gap,
    rule_offset,
    scale,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
    subset_of,
    translate,
)
from meanlab.funcs import SQUARE, Affine, Power
from meanlab.means import image_set, m_acc


# --------------------------------------------------------------------------
# literals and normalization


def test_degenerate_interval_is_a_point():
    h = from_interval(Q(2), Q(2))
    assert h.points == (Q(2),) and not h.intervals


def test_half_open_degenerate_is_rejected():
    with pytest.raises(BadParameters):
        from_interval(Q(2), Q(2), True, False)


def test_reversed_endpoints_rejected():
    with pytest.raises(BadParameters):
        from_interval(Q(3), Q(1))


def test_union_merges_touching_intervals():
    h = set_union(from_interval(0, 1), from_interval(1, 2))
    assert len(h.intervals) == 1
    assert (h.intervals[0].lo, h.intervals[0].hi) == (0, 2)


def test_union_keeps_open_gap():
    h = set_union(from_interval(0, 1, True, False),
                  from_interval(1, 2, False, True))
    assert len(h.intervals) == 2
    assert not h.member(Q(1))


def test_point_fills_open_gap():
    h = set_union(set_union(from_interval(0, 1, True, False),
                            from_interval(1, 2, False, True)),
                  from_points(Q(1)))
    assert len(h.intervals) == 1 and not h.points


def test_normalization_is_order_independent():
    a = set_union(set_union(from_interval(0, 1), from_points(Q(3))),
                  from_interval(5, 6, False, False))
    b = set_union(set_union(from_interval(5, 6, False, False),
                            from_interval(0, 1)), from_points(Q(3)))
    assert a == b


def test_point_inside_interval_absorbed():
    h = set_union(from_interval(0, 2), from_points(Q(1)))
    assert not h.points


def test_limit_point_merges_into_cluster():
    tail = realset(clusters=[harmonic_cluster(Q(0), start=2)])
    h = set_union(tail, from_points(Q(0)))
    assert not h.points and h.clusters[0].include_limit


def test_point_a_placed_cluster_holds_is_absorbed():
    # B's tail falls in I, so its head 1/3, 5/12, 4/9 becomes points only
    # after the tail of A (from 1/3, as I took 1/2) is already placed
    a = set_union(realset(clusters=[harmonic_cluster(Q(0))]),
                  from_interval(Q(9, 20), Q(11, 20)))
    b = realset(clusters=[harmonic_cluster(Q(1, 2), Q(1, 6), above=False)])
    h = set_union(b, a)
    assert h.points == (Q(5, 12), Q(4, 9), Q(1))
    assert h.clusters == (harmonic_cluster(Q(0), start=3),)
    assert h.member(Q(1, 3))
    assert set_union(a, b) == h  # in either order 1/3 is a term of A


def _outcome(op, *sets):
    try:
        return op(*sets)
    except MeanlabError as exc:
        return exc.code


def test_a_set_has_one_record():
    # on seeded depth-1 sets: the record survives taking a cluster term
    # away and putting it back, and splitting by another set and joining
    # the parts; a union's record does not depend on the order; and two
    # sets are == exactly when both differences are empty
    rng = random.Random(26)
    for i in range(300):
        a = random_cluster_set(rng) if i % 2 else random_mixed_set(rng)
        b = random_cluster_set(rng) if i % 3 == 0 else random_mixed_set(rng)
        assert _outcome(set_union, a, b) == _outcome(set_union, b, a)
        same = []
        for c in a.clusters:
            t = from_points(c.term(c.start + rng.randrange(4)))
            same.append(set_union(set_diff(a, t), t))
        split = _outcome(set_diff, a, b), _outcome(set_intersect, a, b)
        if all(isinstance(h, RealSet) for h in split):
            same.append(set_union(*split))
        assert all(h == a for h in same)
        for h in [b, _outcome(set_union, a, b), *same]:
            diffs = [_outcome(set_diff, a, h), _outcome(set_diff, h, a)] \
                if isinstance(h, RealSet) else []
            if diffs and all(isinstance(d, RealSet) for d in diffs):
                assert (h == a) == all(d.is_empty for d in diffs)


@pytest.mark.parametrize("text, other", [
    ("[7,8] u seq(limit=8, rule=geometric(1/8,1/3), from=1, with_limit)",
     "[7,8) u seq(limit=8, rule=geometric(1/8,1/3), from=1, with_limit)"),
    ("{1/2,1} u seq(limit=0, rule=harmonic(1), from=3)",
     "seq(limit=0, rule=harmonic(1), from=1)"),
    ("{1/8,1/4} u seq(limit=0, rule=geometric(1/8,1/2), from=1)",
     "seq(limit=0, rule=geometric(1/2,1/2), from=1)"),
])
def test_equal_sets_written_apart_have_one_record(text, other):
    h, h2 = (setexpr.evaluate(setexpr.parse(t)) for t in (text, other))
    assert set_diff(h, h2).is_empty and set_diff(h2, h).is_empty
    assert h == h2 and not h.points


def test_a_head_stops_where_its_hull_would_meet_another():
    # the harmonic cluster's previous term 1 is the geometric's limit; its
    # hull would reach past 1, so 1 stays the limit, held by that flag (R1)
    h = realset([], [1], [harmonic_cluster(0, start=2),
                          geometric_cluster(1, Q(1, 2), Q(1, 3))])
    assert not h.points
    assert h.clusters == (harmonic_cluster(0, start=2), geometric_cluster(
        1, Q(1, 2), Q(1, 3), include_limit=True))


def test_a_point_two_heads_share_goes_to_the_nearer_limit():
    a, b = harmonic_cluster(0, start=2), harmonic_cluster(Q(3, 2), start=3,
                                                          above=False)
    for parts in ([a, b], [b, a]):
        assert realset([], [1], parts).clusters == (
            a, harmonic_cluster(Q(3, 2), start=2, above=False))
    # on a tie the lower limit takes it
    c = harmonic_cluster(2, start=2, above=False)
    assert realset([], [1], [c, a]).clusters == (harmonic_cluster(0), c)
    # 1 is a head term of the geometric cluster at 3/2, which is nearer,
    # though its own previous term 11/8 is missing: 1 stays a point
    g = geometric_cluster(Q(3, 2), Q(1, 8), Q(1, 2), above=False)
    h = realset([], [1], [g, a])
    assert h.points == (1,) and h.clusters == (a, g)


def test_overlapping_cluster_windows_rejected():
    with pytest.raises(OverlappingClusterWindows):
        realset(clusters=[harmonic_cluster(Q(0), start=1),
                          harmonic_cluster(Q(1), start=1)])


def test_adjacent_clusters_fit_with_later_start():
    h = realset(clusters=[harmonic_cluster(Q(0), start=2),
                          harmonic_cluster(Q(1), start=2)])
    assert len(h.clusters) == 2


# --------------------------------------------------------------------------
# membership against the independent oracle


def test_membership_matches_brute_oracle_on_random_sets():
    rng = random.Random(7)
    for _ in range(120):
        h = random_mixed_set(rng)
        for x in probe_points(h):
            assert h.member(x) == brute_member(h, x), (h, x)


def test_cluster_membership_terms_and_limit():
    h = realset(clusters=[harmonic_cluster(Q(0), start=3)])
    assert h.member(Q(1, 3)) and h.member(Q(1, 997))
    assert not h.member(Q(1, 2)) and not h.member(Q(0))
    assert not h.member(Q(2, 7))


@pytest.mark.parametrize("rule", [Harmonic(Q(3, 7)), Geometric(Q(3), Q(2, 3))],
                         ids=["harmonic", "geometric"])
def test_max_index_with_offset_at_least_matches_a_scan(rule):
    rng = random.Random(5)
    for _ in range(200):
        start = rng.randint(1, 20)
        k = rng.randint(1, 40)
        # thresholds at a term's offset, just above and below it
        for t in (rule_offset(rule, k), rule_offset(rule, k) * Q(101, 100),
                  rule_offset(rule, k) * Q(99, 100)):
            ks = [j for j in range(start, 200) if rule_offset(rule, j) >= t]
            want = ks[-1] if ks else None
            assert exactset._max_k_offset_ge(rule, start, t) == want
        # and the first index whose gap falls below a gap threshold
        for t in (rule_gap(rule, k), rule_gap(rule, k) * Q(101, 100),
                  rule_gap(rule, k) * Q(99, 100)):
            want = next(j for j in range(start, 200) if rule_gap(rule, j) < t)
            assert measure._merge_index(rule, start, t) == want


# --------------------------------------------------------------------------
# boolean algebra (spec: union/diff/intersect respect membership pointwise)


_rat = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _interval_sets(draw):
    parts = draw(st.lists(st.tuples(_rat, _rat, st.booleans(), st.booleans()),
                          min_size=1, max_size=3))
    pts = draw(st.lists(_rat, max_size=2))
    out = from_points(*pts) if pts else EMPTY
    for a, b, locl, hicl in parts:
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            locl = hicl = True
        out = set_union(out, from_interval(lo, hi, locl, hicl))
    return out


@settings(max_examples=60, deadline=None)
@given(_interval_sets(), _interval_sets())
def test_boolean_laws_pointwise(a, b):
    u, d, i = set_union(a, b), set_diff(a, b), set_intersect(a, b)
    for x in probe_points(a, b):
        ma, mb = a.member(x), b.member(x)
        assert u.member(x) == (ma or mb)
        assert d.member(x) == (ma and not mb)
        assert i.member(x) == (ma and mb)


@settings(max_examples=60, deadline=None)
@given(_interval_sets(), _interval_sets(), _interval_sets())
def test_cluster_free_algebra_returns_the_normal_form(a, b, c):
    # these results skip normalize; they must equal what it would return
    for h in (set_union(a, b), set_diff(a, b), set_intersect(a, b),
              set_union(a, b, c)):
        assert h == normalize(h.intervals, h.points)
    assert set_union(a, b, c) == set_union(set_union(a, b), c)
    assert set_diff(set_diff(a, b), c) == \
        set_diff(a, set_union(b, c))


def test_algebra_with_clusters_returns_the_normal_form():
    # normalize on a result's own parts is the identity, clusters or not
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        a, b = random_mixed_set(rng), random_mixed_set(rng)
        for op in (set_union, set_diff, set_intersect):
            try:
                h = op(a, b)
            except (OverlappingClusterWindows, UnrepresentableResult):
                continue
            assert h == normalize(h.intervals, h.points, h.clusters)
            checked += 1
    assert checked > 1000


def test_boolean_laws_with_clusters():
    rng = random.Random(11)
    for _ in range(60):
        a, b = random_mixed_set(rng), random_mixed_set(rng)
        try:
            u, d = set_union(a, b), set_diff(a, b)
            i = set_intersect(a, b)
        except (OverlappingClusterWindows, UnrepresentableResult):
            # Some random pairs fall outside the closed representation
            # class (e.g. removing a cluster from interior interval mass).
            continue
        for x in probe_points(a, b):
            ma, mb = a.member(x), b.member(x)
            assert u.member(x) == (ma or mb)
            assert d.member(x) == (ma and not mb)
            assert i.member(x) == (ma and mb)


def test_subset_and_empty_identities():
    rng = random.Random(3)
    for _ in range(40):
        a = random_mixed_set(rng)
        assert subset_of(a, a)
        assert set_diff(a, a).is_empty
        assert set_union(a, EMPTY) == a
        assert set_intersect(a, EMPTY).is_empty


# --------------------------------------------------------------------------
# slices


def test_slice_examples():
    assert slice_le(from_interval(0, 2), Q(1)) == from_interval(0, 1)
    h = set_union(from_interval(0, 1), from_interval(2, 3))
    assert slice_ge(h, Q(3, 2)) == from_interval(2, 3)
    assert set_intersect(h, from_interval(Q(-10), Q(5, 2))) == \
        set_union(from_interval(0, 1), from_interval(2, Q(5, 2)))
    assert slice_le(EMPTY, Q(1)) is EMPTY and slice_ge(EMPTY, Q(1)) is EMPTY


def test_slice_through_cluster_keeps_tail():
    h = set_union(realset(clusters=[harmonic_cluster(Q(0), start=1)]),
                  from_points(Q(0)))
    s = slice_le(h, Q(1, 3))
    assert s.member(Q(0)) and s.member(Q(1, 3)) and s.member(Q(1, 4))
    assert not s.member(Q(1, 2)) and not s.member(Q(1))


# --------------------------------------------------------------------------
# rigid motions


def test_translate_example():
    h = set_union(from_interval(0, 1), from_points(Q(2)))
    assert translate(h, Q(3)) == set_union(from_interval(3, 4),
                                           from_points(Q(5)))


def test_reflect_is_an_involution():
    rng = random.Random(5)
    for _ in range(40):
        h = random_mixed_set(rng)
        s = Q(rng.randint(-6, 6), rng.choice((1, 2)))
        assert reflect(reflect(h, s), s) == h


def test_reflect_interval_about_zero():
    assert reflect(from_interval(0, 1), Q(0)) == from_interval(-1, 0)


def test_scale_cluster_scales_coefficient():
    h = realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=1)])
    g = scale(h, Q(2))
    assert g.member(Q(2)) and g.member(Q(2, 5))
    assert not g.member(Q(3, 4)) and not g.member(Q(3))


def test_scale_by_zero_rejected():
    from meanlab.errors import ZeroScale

    with pytest.raises(ZeroScale):
        scale(from_interval(0, 1), Q(0))


def test_motions_commute_with_membership():
    rng = random.Random(13)
    for _ in range(40):
        h = random_mixed_set(rng)
        x = Q(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        a = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        for p in probe_points(h, terms=8):
            assert translate(h, x).member(p + x) == h.member(p)
            assert scale(h, a).member(a * p) == h.member(p)
            assert reflect(h, x).member(2 * x - p) == h.member(p)


def _nested_set() -> RealSet:
    """Terms 1/3 - (1/9)(1/3)^k below 1/3; indices 1..3 carry a copy of the
    geometric sequence (1/2)^j below its limit, limit included."""
    tpl = Cluster(Q(0), False, Geometric(Q(1, 2), Q(1, 2)), 1, True, ())
    return realset(clusters=[make_cluster(
        Q(1, 3), False, Geometric(Q(1, 9), Q(1, 3)), 1, False,
        [(1, 3, tpl)])])


def test_motions_are_images_under_affine_maps():
    # translate, scale and reflect are image_set under x -> a*x + b, which
    # keeps each cluster's own rule and child blocks
    rng = random.Random(21)
    sets = [random_mixed_set(rng) for _ in range(20)]
    sets += [random_cluster_set(rng) for _ in range(10)] + [_nested_set()]
    for h in sets:
        x = Q(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        a = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        assert repr(translate(h, x)) == repr(image_set(h, Affine(Q(1), x)))
        assert repr(scale(h, a)) == repr(image_set(h, Affine(a, Q(0))))
        assert repr(reflect(h, x)) == repr(
            image_set(h, Affine(Q(-1), 2 * x)))


def test_an_affine_image_keeps_nested_clusters():
    h = _nested_set()
    g = image_set(h, Affine(Q(-2), Q(1)))
    (c,) = g.clusters
    assert c.depth == 2 and c.above and isinstance(c.rule, Geometric)
    (cl,) = h.clusters
    copies = [placed_child(cl, k).term(j) for k in (1, 2, 3) for j in (1, 5)]
    for p in probe_points(h, terms=8) + copies:
        assert g.member(1 - 2 * p) == h.member(p)
    assert all(g.member(1 - 2 * p) for p in copies)


# --------------------------------------------------------------------------
# topology: closure, interior, derived sets, accumulation bounds


def test_closure_and_interior_examples():
    h = set_union(from_points(Q(0), Q(3)), from_interval(1, 2, False, False))
    assert closure(h) == set_union(from_points(Q(0), Q(3)),
                                   from_interval(1, 2))
    assert interior(set_union(from_interval(0, 1), from_points(Q(2)))) == \
        from_interval(0, 1, False, False)


def test_derived_of_interval_union_is_its_closure():
    h = set_union(from_interval(0, 1, False, False), from_points(Q(5)))
    assert derived(h) == from_interval(0, 1)


def test_derived_of_cluster_is_its_limit():
    h = realset(clusters=[harmonic_cluster(Q(2), start=2)])
    assert derived(h) == from_points(Q(2))
    assert derived(from_points(Q(1), Q(2))).is_empty


def test_level_and_derived_iter():
    pts = from_points(Q(1), Q(2))
    assert level(pts) == 0 and derived_iter(pts, 0) == pts
    tail = realset(clusters=[harmonic_cluster(Q(0), start=2)])
    assert level(tail) == 1
    assert derived_iter(tail, 1) == from_points(Q(0))


def _level_two_cluster() -> Cluster:
    """Anchors 1 + 1/k above the limit 1, each carrying a copy of the
    harmonic sequence 1/j (written at the limit 5, so it is recentered):
    bounded blocks at k = 1, 2 and an unbounded one from k = 3."""
    tpl = harmonic_cluster(5)
    return harmonic_cluster(1, children=[(1, 2, tpl), (3, None, tpl)])


def test_a_level_two_set_by_hand():
    # H is the union over k >= 1 of the copies {1 + 1/k + w_k/j : j >= 1},
    # w_k = (1/k - 1/(k+1))/4 the window of anchor k. Each copy accumulates
    # at its anchor alone, and the anchors at 1: the first derived set is
    # {1 + 1/k} u {1}, the second {1}, the third empty. So H has level 2
    # and m_acc(H) = 1.
    c = _level_two_cluster()
    h = realset(clusters=[c])
    assert c.depth == 2 and c.children[0].template.limit == 0
    d = derived(h)
    assert level(h) == 2
    assert derived_iter(h, 2) == from_points(Q(1))
    assert derived_iter(h, 3).is_empty
    assert m_acc(h) == 1
    assert d.member(Q(1))
    for k in range(1, 12):
        anchor, w = 1 + Q(1, k), c.window(k)
        assert w == Q(1, 4 * k * (k + 1))
        assert d.member(anchor) and not h.member(anchor)
        assert h.member(anchor + w) and h.member(anchor + w / 3)
        assert not d.member(anchor + w) and not h.member(anchor + w * 3 / 2)


def test_bounded_child_blocks_do_not_raise_the_level():
    # copies at the anchors 2 and 3/2 only: finitely many, so they do not
    # accumulate. The first derived set is {1, 3/2, 2}, the second empty.
    h = realset(clusters=[harmonic_cluster(
        1, children=[(1, 2, harmonic_cluster(0))])])
    assert level(h) == 1
    assert derived(h) == from_points(Q(1), Q(3, 2), Q(2))
    assert derived_iter(h, 2).is_empty
    assert m_acc(h) == Q(3, 2)


def test_a_level_two_set_meets_a_range_only_through_a_child_copy():
    # a copy lies above its anchor, which it does not hold: the anchor
    # alone, and the stretch just below it, miss H; any stretch just above
    # it, with the anchor or without, holds the copy's tail
    c = _level_two_cluster()

    def meets(*interval):
        # the test set_diff makes; set_intersect would drop the whole copy
        # once the anchor is cut away (ROADMAP item 1)
        span = Interval(*interval).span()
        return exactset._cluster_intersects_span(c, span)

    for k in range(1, 12):
        anchor, w = 1 + Q(1, k), c.window(k)
        assert not meets(anchor, anchor)
        assert not meets(anchor - w / 2, anchor, True, False)
        assert meets(anchor, anchor + w / 2)
        assert meets(anchor, anchor + w / 2, False, False)


def test_acc_bounds_examples():
    h = set_union(from_points(Q(-5)), from_interval(0, 1))
    assert acc_bounds(h) == (Q(0), Q(1))
    tail = realset(clusters=[harmonic_cluster(Q(0), start=1)])
    assert acc_bounds(tail) == (Q(0), Q(0))


def test_acc_bounds_fails_on_finite_sets():
    from meanlab.errors import EmptyDerivedSet

    with pytest.raises(EmptyDerivedSet):
        acc_bounds(from_points(Q(1), Q(2)))


def test_intersects_interval():
    h = set_union(from_interval(0, 1), from_points(Q(4)))
    assert not set_intersect(h, from_interval(Q(1, 2), Q(5))).is_empty
    assert set_intersect(h, from_interval(Q(2), Q(3))).is_empty


def test_is_finite_and_compact_flags():
    assert from_points(Q(1)).is_finite()
    assert not from_interval(0, 1).is_finite()
    assert from_interval(0, 1).is_compact_rep()
    assert not from_interval(0, 1, False, True).is_compact_rep()
    tail_open = realset(clusters=[harmonic_cluster(Q(0), start=1)])
    assert not tail_open.is_compact_rep()
    tail_closed = realset(clusters=[harmonic_cluster(Q(0), start=1,
                                                     include_limit=True)])
    assert tail_closed.is_compact_rep()


# --------------------------------------------------------------------------
# what a cluster caches


def test_cached_hull_leaves_the_dataclass_as_it_was():
    c = harmonic_cluster(Q(1), c=Q(1, 2), start=2, above=False,
                         include_limit=True)
    fresh = dataclasses.replace(c)
    before = (repr(c), hash(c), dataclasses.fields(c))
    hull = c.hull
    assert "hull" in vars(c) and "hull" not in vars(fresh)
    assert (repr(c), hash(c), dataclasses.fields(c)) == before
    assert c == fresh and hash(c) == hash(fresh) and fresh.hull == hull
    back = pickle.loads(pickle.dumps(c))
    assert back == c and repr(back) == repr(c) and back.hull == hull
    # replace() builds a new instance, so a changed field gets a new hull
    moved = dataclasses.replace(c, start=5)
    assert moved.hull == harmonic_cluster(Q(1), c=Q(1, 2), start=5,
                                          above=False).hull != hull


def test_canonical_cluster_is_kept_and_a_raw_one_rebuilt():
    for c in (harmonic_cluster(Q(0), c=Q(1, 2), start=2),
              geometric_cluster(Q(3), c=Q(1, 4), q=Q(1, 2), above=False)):
        assert exactset._canonical_cluster(c) is c
    raw = Cluster(Q(0), True, Geometric(Q(1, 4), Q(1, 2)), start=3)
    rebuilt = exactset._canonical_cluster(raw)
    assert rebuilt is not raw and rebuilt.start == 1
    assert rebuilt == make_cluster(Q(0), True, Geometric(Q(1, 16), Q(1, 2)))


def _transformed(rng: random.Random, c: Cluster) -> Cluster:
    """A cluster with a transformed (MappedRule) rule and the same limit:
    c shrunk to a quarter around 1, squared or cubed, then moved back."""
    f = rng.choice((SQUARE, Power(3)))
    base = realset(clusters=[exactset.cluster_affine(c, Q(1, 4),
                                                     1 - c.limit / 4)])
    (out,) = image_set(image_set(base, f), Affine(Q(1), c.limit - 1)).clusters
    assert isinstance(out.rule, exactset.MappedRule) and out.limit == c.limit
    return out


def test_scaling_a_transformed_cluster_scales_its_offsets():
    # the squares of 1 + 1/(2k), k >= 2, scaled by 3: terms 3(1 + 1/(2k))^2
    # above the limit 3
    base = realset(clusters=[harmonic_cluster(1, c=Q(1, 2), start=2)])
    (c,) = scale(image_set(base, SQUARE), 3).clusters
    assert isinstance(c.rule, exactset.MappedRule)
    assert c.limit == 3 and c.above and c.start == 2
    assert [c.term(k) for k in (2, 3, 10)] == [
        3 * (1 + Q(1, 2 * k)) ** 2 for k in (2, 3, 10)]


def _random_sided_cluster_set(rng: random.Random,
                              transformed: bool = False) -> RealSet:
    clusters = []
    for lim in rng.sample(range(-6, 7, 2), rng.randint(1, 2)):
        lim = Q(lim) + rng.choice((0, Q(1, 3)))  # hulls stay 2/3 apart
        above, include = rng.random() < 0.5, rng.random() < 0.5
        if rng.random() < 0.5:
            c = harmonic_cluster(lim, c=Q(1, 2), start=rng.randint(1, 3),
                                 above=above, include_limit=include)
        else:
            c = geometric_cluster(lim, c=Q(1, 4), q=Q(1, 2),
                                  start=rng.randint(1, 3), above=above,
                                  include_limit=include)
        clusters.append(_transformed(rng, c) if transformed else c)
    return realset(clusters=clusters)


_TRUTH = {set_union: lambda x, y: x or y,
          set_diff: lambda x, y: x and not y,
          set_intersect: lambda x, y: x and y}


def _outcome(op, a, b) -> str:
    try:
        return repr(op(a, b))
    except MeanlabError as exc:
        return type(exc).__name__


def test_cluster_algebra_matches_reflect_first_reference(monkeypatch):
    # The reference is the older path: every raw cluster is rebuilt, and a
    # below-side cluster is reflected before any span is looked at. The
    # last 100 sets hold transformed (MappedRule) clusters, which keep
    # their transform through a reflection there and back.
    rng = random.Random(2024)
    cases = []
    for i in range(400):
        a = _random_sided_cluster_set(rng, transformed=i >= 300)
        b = (random_union(rng) if rng.random() < 0.6
             else random_points(rng, count=4))
        for op in (set_union, set_diff, set_intersect):
            cases.append((op, a, b))
        cases.append((set_diff, b, a))
    got = [_outcome(op, a, b) for op, a, b in cases]

    minus_spans = exactset._cluster_minus_spans

    def minus_spans_reflecting_first(cl, spans):
        if not cl.above:
            rcl = exactset._cluster_reflect(cl)
            rc, rp = minus_spans_reflecting_first(
                rcl, exactset._reflect_spans(spans))
            return ([exactset._cluster_reflect(c) for c in rc],
                    [-p for p in rp])
        return minus_spans(cl, spans)

    def always_rebuild(cl):
        return make_cluster(cl.limit, cl.above, cl.rule, cl.start,
                            cl.include_limit,
                            [(b.lo, b.hi, b.template) for b in cl.children])

    monkeypatch.setattr(exactset, "_cluster_minus_spans",
                        minus_spans_reflecting_first)
    monkeypatch.setattr(exactset, "_canonical_cluster", always_rebuild)
    want = [_outcome(op, a, b) for op, a, b in cases]
    assert got == want
    assert sum(o.startswith("RealSet") for o in got) > len(got) // 2

    # and the shared answers are right, by the independent oracle
    monkeypatch.undo()
    for op, a, b in cases:
        try:
            h = op(a, b)
        except MeanlabError:
            continue
        for x in probe_points(a, b, terms=6):
            assert brute_member(h, x) == _TRUTH[op](brute_member(a, x),
                                                    brute_member(b, x))


def test_reflection_keeps_a_transformed_rule_as_it_is():
    # a below-side transformed cluster is reflected, cut and reflected back
    # on every cut; a scale factor of 1 must leave its rule untouched
    g = image_set(realset(clusters=[harmonic_cluster(Q(2), c=Q(1, 2),
                                                     above=False)]), SQUARE)
    func = g.clusters[0].rule.func
    assert exactset.rule_scaled(g.clusters[0].rule, Q(1)) is g.clusters[0].rule
    for lo, hi in ((Q(3), Q(7, 2)), (Q(7, 2), Q(37, 10)),
                   (Q(37, 10), Q(38, 10))):
        g = set_diff(g, from_interval(lo, hi))
        assert g.clusters[0].rule.func is func
    assert g.points  # the cuts did turn head terms into points


# --------------------------------------------------------------------------
# bulk cuts of bare clusters against the per-term reference


def _cut_cluster(rng: random.Random) -> Cluster:
    """A harmonic, geometric, transformed or nested cluster near 0."""
    lim = Q(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    above, include = rng.random() < 0.5, rng.random() < 0.5
    start = rng.randint(1, 3)
    kind = rng.randrange(4)
    if kind == 1 or (kind == 2 and rng.random() < 0.5):
        c = geometric_cluster(lim, c=Q(1, rng.randint(1, 4)),
                              q=Q(1, rng.randint(2, 3)), start=start,
                              above=above, include_limit=include)
    else:
        c = harmonic_cluster(lim, c=Q(1, rng.randint(1, 4)), start=start,
                             above=above, include_limit=include)
    if kind == 2:
        return _transformed(rng, c)
    if kind == 3:
        tpl = (harmonic_cluster(Q(0), c=Q(1, 2)) if rng.random() < 0.5
               else geometric_cluster(Q(0), c=Q(1, 2), q=Q(1, 2),
                                      above=False, include_limit=True))
        lo = start + rng.randint(0, 2)
        hi = None if rng.random() < 0.3 else lo + rng.randint(0, 3)
        return make_cluster(lim, above, c.rule, c.start, include,
                            [(lo, hi, tpl)])
    return c


def _cut_set(rng: random.Random, cl: Cluster) -> RealSet:
    """Intervals and points that start and end on term positions, open or
    closed, on the limit, or past either end of the cluster."""
    marks = [cl.term(k) for k in range(cl.start, cl.start + 12)]
    marks += [cl.limit, cl.limit - 2, cl.limit + 2]
    out = EMPTY
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            piece = from_points(rng.choice(marks))
        else:
            lo, hi = sorted(rng.sample(marks, 2))
            piece = from_interval(lo, hi, rng.random() < 0.5,
                                  rng.random() < 0.5)
        out = set_union(out, piece)
    return out


def _partner(rng: random.Random, cl: Cluster) -> Cluster:
    """A cluster whose terms meet some of cl's: a multiple of its rule at
    the same limit and side, or a harmonic cluster through one of its
    terms from another limit."""
    include = rng.random() < 0.5
    if rng.random() < 0.5 and isinstance(cl.rule, Harmonic):
        return make_cluster(cl.limit, cl.above,
                            Harmonic(cl.rule.c * rng.randint(1, 3)),
                            rng.randint(1, 6), include)
    if rng.random() < 0.5 and isinstance(cl.rule, Geometric):
        q = cl.rule.q
        return make_cluster(cl.limit, cl.above,
                            Geometric(cl.rule.c * q ** rng.randint(-1, 2), q),
                            rng.randint(1, 4), include)
    x = cl.term(cl.start + rng.randint(0, 5))
    c, m, above = Q(1, rng.randint(2, 6)), rng.randint(1, 4), rng.random() < 0.5
    return harmonic_cluster(x - c / m if above else x + c / m, c=c,
                            above=above, include_limit=include)


def _cut_cases(rng: random.Random) -> list:
    cases = []
    for _ in range(250):
        cl = _cut_cluster(rng)
        a = realset(clusters=[cl])
        b = _cut_set(rng, cl)
        y = rng.choice([cl.term(k) for k in range(cl.start, cl.start + 12)]
                       + [cl.limit])
        cases += [(set_diff, a, b), (set_intersect, a, b),
                  (set_intersect, b, a), (slice_le, a, y), (slice_ge, a, y)]
        cases.append((set_diff, a, realset(clusters=[_partner(rng, cl)])))
    # a head of MATERIALIZE_CAP + 1 terms is refused before any is built
    big = realset(clusters=[harmonic_cluster(Q(0))])
    near = from_interval(Q(0), Q(1, MATERIALIZE_CAP + 2), False, True)
    cases += [(set_diff, big, near), (slice_ge, big, Q(1, MATERIALIZE_CAP + 1))]
    return cases


def _truth(op, a, b, ia: bool, x) -> bool:
    if op is slice_le:
        return ia and x <= b
    if op is slice_ge:
        return ia and x >= b
    return _TRUTH[op](ia, brute_member(b, x))


def test_bulk_cluster_cuts_match_the_per_term_reference(monkeypatch):
    cases = _cut_cases(random.Random(77))
    bare_terms, materialize = exactset._bare_terms, exactset.materialize_index
    seen = {"bulk": 0, "per_index": 0}

    def bare_terms_spy(cl, k_lo, k_hi):
        assert not cl.children  # nested clusters keep the per-index loop
        seen["bulk"] += 1
        return bare_terms(cl, k_lo, k_hi)

    def materialize_spy(cl, k):
        assert cl.children
        seen["per_index"] += 1
        return materialize(cl, k)

    monkeypatch.setattr(exactset, "_bare_terms", bare_terms_spy)
    monkeypatch.setattr(exactset, "materialize_index", materialize_spy)
    got = [_outcome(op, a, b) for op, a, b in cases]
    assert seen["bulk"] > 200 and seen["per_index"] > 100

    monkeypatch.setattr(exactset, "_bare_terms", cut_reference.bare_terms)
    monkeypatch.setattr(exactset, "materialize_index", materialize)
    monkeypatch.setattr(exactset, "_cluster_minus_spans",
                        cut_reference.cluster_minus_spans)
    want = [_outcome(op, a, b) for op, a, b in cases]
    assert got == want
    assert got[-2:] == ["UnrepresentableResult"] * 2
    assert sum(o.startswith("RealSet") for o in got) > len(got) * 3 // 4

    # and the answers are right, by the independent oracle
    monkeypatch.undo()
    checked = 0
    for (op, a, b), out in zip(cases, got):
        sets = (a, b) if isinstance(b, RealSet) else (a,)
        if (not out.startswith("RealSet")
                or any(c.children for h in sets for c in h.clusters)):
            continue  # the oracle reads depth-1 clusters only
        h = op(a, b)
        for x in probe_points(*sets, terms=6):
            assert brute_member(h, x) == _truth(op, a, b,
                                                brute_member(a, x), x)
        checked += 1
    assert checked > 600


# coordinates whose float prefixes tie, overflow or underflow: the key's
# float decides only when the floats differ


def _key_coordinates(rng) -> dict[str, list[Q]]:
    """About 40 distinct coordinates of each hard class, sorted."""
    near = [1 + Q(d, 10 ** 30) for d in range(-3, 4)]
    near += [1 + Q(rng.choice((-1, 1)), 10 ** rng.randint(17, 40))
             for _ in range(33)]
    big200 = Q(rng.randrange(10 ** 199, 10 ** 200), 7)
    wide200 = [big200 + Q(d, 3) for d in range(-20, 20)]
    num4k, den4k = rng.randrange(10 ** 3999, 10 ** 4000), 10 ** 3999 + 7
    wide4k = [Q(num4k + d, den4k) for d in range(-20, 20)]
    huge = [Q(s * (2 ** 1024 + d)) for s in (1, -1) for d in range(10)]
    huge += [s * Q(10 ** 400 + d, 3) for s in (1, -1) for d in range(10)]
    tiny = [s * Q(d, 2 ** 1100) for s in (1, -1) for d in range(1, 11)]
    tiny += [s * Q(1, 10 ** 400 + d) for s in (1, -1) for d in range(10)]
    plain = [Q(rng.randint(-40, 40), rng.choice((1, 2, 3)))
             for _ in range(40)]
    return {name: sorted(set(xs)) for name, xs in (
        ("1 ± 1/10^d", near), ("200 digits", wide200),
        ("4,000 digits", wide4k), ("past 2^1024", huge),
        ("below 2^-1074", tiny), ("small", plain))}


def test_keys_order_exactly_as_position_and_side():
    rng = random.Random(11)
    classes = list(_key_coordinates(rng).values())
    every = [x for xs in classes for x in xs]
    ties = inf = zero = same_x = 0
    for _ in range(20_000):
        xs = rng.choice(classes)
        x = rng.choice(xs)
        y = x if rng.random() < 0.2 else rng.choice(
            xs if rng.random() < 0.8 else every)
        e, f = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
        kx, ky = exactset._key(x, e), exactset._key(y, f)
        assert (kx < ky) == ((x, e) < (y, f))
        assert (kx == ky) == ((x, e) == (y, f))
        ties += kx[0] == ky[0] and x != y
        same_x += x == y and e != f
        inf += abs(kx[0]) == float("inf")
        zero += kx[0] == 0 and x != 0
    assert min(ties, same_x, inf, zero) > 1000, (ties, same_x, inf, zero)


def test_set_algebra_on_hard_coordinates_matches_the_oracle():
    rng = random.Random(12)

    def parts(xs):
        ivs, pts = [], []
        for _ in range(rng.randint(1, 3)):
            lo, hi = sorted(rng.sample(xs, 2))
            ivs.append(exactset.Interval(lo, hi, rng.random() < 0.5,
                                         rng.random() < 0.5))
        pts += rng.sample(xs, rng.randint(0, 3))
        cls = []
        if rng.random() < 0.3:  # its terms sit far inside every gap
            c = min(b - a for a, b in zip(xs, xs[1:])) / 10 ** 10
            cls.append(harmonic_cluster(rng.choice(xs), c=c,
                                        above=rng.random() < 0.5,
                                        include_limit=rng.random() < 0.5))
        return ivs, pts, cls

    checked = 0
    # the oracle's comparisons of 4,000-digit fractions take ~0.1 s a round
    rounds = [(xs, 6 if name == "4,000 digits" else 30)
              for name, xs in _key_coordinates(rng).items()]
    for xs in (xs for xs, n in rounds for _ in range(n)):
        ivs, pts, cls = parts(xs)
        ivs2, pts2, cls2 = parts(xs)
        try:
            a, b = normalize(ivs, pts, cls), normalize(ivs2, pts2, cls2)
            results = [(op, op(a, b)) for op in _TRUTH]
        except MeanlabError:
            continue
        raw = SimpleNamespace(intervals=ivs, points=pts, clusters=cls)
        for x in probe_points(a, b, raw, terms=4):
            ia, ib = brute_member(a, x), brute_member(b, x)
            assert ia == brute_member(raw, x)
            for op, h in results:
                assert brute_member(h, x) == _TRUTH[op](ia, ib)
        checked += 1
    assert checked > 120


# --------------------------------------------------------------------------
# cluster differences


@pytest.mark.parametrize("text, want", [
    # opposite sides of one limit: only the shared limit point goes
    ("seq(limit=0, rule=harmonic(1), from=1, with_limit)"
     r" \ seq(limit=0, rule=harmonic(1), from=1, side=below, with_limit)",
     "seq(limit=0, rule=harmonic(1), from=1)"),
    # interleaved geometric ladders share no term
    ("seq(limit=0, rule=geometric(1,1/2), from=1, with_limit)"
     r" \ seq(limit=0, rule=geometric(3,1/2), from=1)",
     "seq(limit=0, rule=geometric(1,1/2), from=1, with_limit)"),
    ("seq(limit=0, rule=geometric(1,1/2), from=1, with_limit)"
     r" \ seq(limit=0, rule=geometric(3,1/2), from=1, with_limit)",
     "seq(limit=0, rule=geometric(1,1/2), from=1)"),
    # another limit: the one shared term, 1, goes
    ("seq(limit=0, rule=harmonic(1), from=1, with_limit)"
     r" \ seq(limit=3/2, rule=harmonic(1/2), from=1, side=below, with_limit)",
     "seq(limit=0, rule=harmonic(1), from=2, with_limit)"),
    # one limit and side: the shared terms, found in closed form
    ("seq(limit=0, rule=harmonic(1), from=1)"
     " & seq(limit=0, rule=harmonic(2/3), from=1)",
     "seq(limit=0, rule=harmonic(1/3), from=1)"),
    ("seq(limit=0, rule=geometric(1,1/2), from=1, with_limit)"
     " & seq(limit=0, rule=geometric(3,1/2), from=1, with_limit)",
     "{0}"),
    ("seq(limit=0, rule=geometric(1,1/2), from=1)"
     " & seq(limit=0, rule=geometric(1/4,1/2), from=1, with_limit)",
     "seq(limit=0, rule=geometric(1/4,1/2), from=1)"),
    ("seq(limit=0, rule=harmonic(2), from=1)"
     " u seq(limit=0, rule=harmonic(1), from=1, with_limit)",
     "seq(limit=0, rule=harmonic(2), from=1, with_limit)"),
    ("seq(limit=0, rule=geometric(1,1/2), from=1)"
     " u seq(limit=0, rule=geometric(3,1/2), from=1)",
     "seq(limit=0, rule=geometric(1,1/2), from=1)"
     " u seq(limit=0, rule=geometric(3,1/2), from=1)"),
    ("seq(limit=0, rule=geometric(1/4,1/2), from=1)"
     " u seq(limit=0, rule=geometric(1,1/2), from=3)",
     "seq(limit=0, rule=geometric(1/4,1/2), from=1)"),
])
def test_cluster_difference_branches(text, want):
    got = setexpr.print_expr(setexpr.set_to_expr(
        setexpr.evaluate(setexpr.parse(text))))
    assert got == want


@pytest.mark.parametrize("text, error, message", [
    ("seq(limit=0, rule=geometric(1,1/2), from=1)"
     " & seq(limit=0, rule=geometric(1,1/3), from=1)",
     UnrepresentableResult, "geometric intersection with mismatched ratios"),
    ("seq(limit=0, rule=geometric(1,1/2), from=1)"
     " & seq(limit=0, rule=harmonic(1), from=1)",
     UnrepresentableResult,
     "same-limit cross-family intersection is not decidable here"),
    ("seq(limit=0, rule=harmonic(1), from=1)"
     " u seq(limit=0, rule=harmonic(2/3), from=1)",
     OverlappingClusterWindows,
     "same-limit clusters with entangled term sets"),
    ("seq(limit=0, rule=harmonic(1), from=1)"
     r" \ seq(limit=0, rule=harmonic(1/2), from=1)",
     UnrepresentableResult,
     "harmonic difference leaves a term set outside the class"),
])
def test_same_limit_cluster_refusals(text, error, message):
    with pytest.raises(error) as info:
        setexpr.evaluate(setexpr.parse(text))
    assert info.value.payload() == {"code": error.code, "message": message}


def test_nested_same_limit_intersection_is_refused():
    tpl = make_cluster(0, True, Harmonic(1), 1)
    a = realset(clusters=[make_cluster(0, True, Harmonic(1), 1, False,
                                       [(1, 1, tpl)])])
    b = realset(clusters=[harmonic_cluster(0, c=2)])
    with pytest.raises(UnrepresentableResult, match="intersection of nested "
                       "same-limit clusters is not supported"):
        set_intersect(a, b)


def test_difference_removes_a_term_shared_with_a_child_copy():
    # B's first term is a term of A's child copy at index 1: the difference
    # must not keep it inside that copy
    tpl = make_cluster(0, True, Harmonic(1), 1)
    a = realset(clusters=[make_cluster(0, True, Harmonic(1), 1, False,
                                       [(1, 1, tpl)])])
    y = placed_child(a.clusters[0], 1).term(3)
    assert y == Q(25, 24)
    b = realset(clusters=[harmonic_cluster(5, c=5 - y, above=False)])
    assert a.member(y) and b.member(y)
    assert not set_diff(a, b).member(y)
