"""Mean-relative bounds, accumulation structure, derivatives, limits."""

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from bounds_reference import bound_by_bisection, cut_holds
from conftest import random_cluster_set, random_points, random_union
from meanlab.analysis import (
    _SEARCH_WIDTH,
    INEXACT_TOL,
    acc_points_by_mean,
    core_restriction_check,
    d_mean,
    d_probe,
    extremal_avg,
    grid_family,
    is_k_closed,
    liminf_by_mean,
    limsup_by_mean,
    uniformity_witness,
    uniformity_witness_at,
)
from meanlab.errors import (
    BadParameters,
    DomainExit,
    DomainViolation,
    NoConvergence,
    NotCompact,
    UnsupportedMean,
)
from meanlab.exactset import (
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    realset,
    set_union,
)
from meanlab.funcs import SQUARE
from meanlab.limits import LimitSchedule
from meanlab.means import (
    AMEAN,
    AVG1,
    M_ACC,
    MeanRef,
    avg1,
    avg_fat_sequence,
    eds_ref,
    eds_sequence,
    iso_sequence,
    lavg_ref,
    m_eds,
    pointwise_limit,
    resolve_mean,
)
from meanlab.measure import lebesgue
from meanlab.values import Approx, value_bounds, value_mid


def _two_interval_set():
    return set_union(from_interval(Q(0), Q(1)), from_interval(Q(2), Q(3)))


# --------------------------------------------------------------------------
# liminf / limsup with respect to a mean


def test_mean_bounds_fast_path_ignores_null_satellites():
    h = set_union(from_points(Q(-5)), from_interval(Q(0), Q(1)))
    assert liminf_by_mean(AVG1, h) == 0
    assert limsup_by_mean(AVG1, h) == 1


def test_mean_bounds_fast_path_on_an_interval_union():
    h = _two_interval_set()
    assert liminf_by_mean(AVG1, h) == 0
    assert limsup_by_mean(AVG1, h) == 3


def test_mean_bounds_bisection_agrees_with_the_fast_path():
    h = _two_interval_set()
    bisected = dataclasses.replace(AVG1, bounds=None)
    lo = liminf_by_mean(bisected, h)
    hi = limsup_by_mean(bisected, h)
    assert abs(value_mid(lo) - 0) <= INEXACT_TOL
    assert abs(value_mid(hi) - 3) <= INEXACT_TOL


def _counted(k: MeanRef, evaluated: list) -> MeanRef:
    """k, recording each set it evaluates in ``evaluated``."""
    def ev(s):
        evaluated.append(s)
        return k.evaluate(s)

    return dataclasses.replace(k, evaluate=ev)


def test_mean_bounds_evaluate_each_distinct_cut_once():
    # amean of {0, 1, 3} is 4/3: the search cuts at 3 and at 1, the only
    # breakpoints between the ends, and both cuts move the mean
    h = from_points(Q(0), Q(1), Q(3))
    evaluated = []
    counted = _counted(AMEAN, evaluated)
    for bound in (liminf_by_mean, limsup_by_mean):
        evaluated.clear()
        assert bound(counted, h) == bound(AMEAN, h)
        whole, *cuts = evaluated
        assert whole == h
        assert len(cuts) >= 2
        assert len(cuts) == len(set(cuts))


def test_mean_bounds_take_few_cuts():
    # one cut at the far end, then a binary search over the breakpoints:
    # about log2 of the point count
    rng = random.Random(35)
    h = from_points(*rng.sample(range(-1000, 1000), 64))
    evaluated = []
    counted = _counted(AMEAN, evaluated)
    for bound in (liminf_by_mean, limsup_by_mean):
        evaluated.clear()
        assert bound(counted, h) == h.bounds()[bound is limsup_by_mean]
        assert len(evaluated) - 1 <= 2 * 6 + 4
    # the benchmark's harmonic sets: a cut at the first term, one at the
    # first term within 2^-44 of the limit, then the term indices between
    tail = Q(1, 2 ** 32) + Q(5, 4)
    for limit_in in (False, True):
        h = set_union(realset(clusters=[harmonic_cluster(
            Q(0), c=Q(1, 2 ** 32), include_limit=limit_in)]),
            from_points(tail))
        for name in ("m_acc", "eds:3", "iso:4", "avg_fat:1/4"):
            counted = _counted(resolve_mean(name), evaluated)
            for bound in (liminf_by_mean, limsup_by_mean):
                evaluated.clear()
                bound(counted, h)
                assert len(evaluated) - 1 <= 16, (name, limit_in)


def _meets_reference(new, ref) -> bool:
    """An exact bound inside the reference bracket, or a bracket at most
    2^-44 wide that meets it."""
    (lo, hi), (rlo, rhi) = value_bounds(new), value_bounds(ref)
    if isinstance(new, Q):
        return rlo <= new <= rhi
    return hi - lo <= _SEARCH_WIDTH and lo <= rhi and rlo <= hi


def test_mean_bounds_agree_with_the_reference_bisection():
    # harmonic scale 2^-32, as in the benchmark's bounds sets, so that the
    # reference's cuts near a limit stay small
    rng = random.Random(36)
    c = Q(1, 2 ** 32)
    sets = ([random_points(rng) for _ in range(3)]
            + [random_union(rng) for _ in range(3)]
            + [random_cluster_set(rng, harmonic_c=c) for _ in range(4)]
            + [set_union(random_cluster_set(rng, harmonic_c=c),
                         random_points(rng, count=2)) for _ in range(6)])
    means = [resolve_mean(m) for m in
             ("amean", "m_acc", "eds:3", "iso:4", "avg_fat:1/4")]
    means.append(MeanRef("avg1", avg1, AVG1.domain_predicate, exact=True))
    checked, exact, not_rays = 0, 0, 0
    for h in sets:
        for k in means:
            if not k.in_domain(h):
                continue
            for upper, bound in ((False, liminf_by_mean),
                                 (True, limsup_by_mean)):
                new, ref = bound(k, h), bound_by_bisection(k, h, upper=upper)
                checked += 1
                exact += isinstance(new, Q)
                if _meets_reference(new, ref):
                    continue
                # the two searches may stop at different flips only when
                # the cut predicate is no ray: it fails at some x and holds
                # again further from where it holds first
                xs = sorted({*value_bounds(new), *value_bounds(ref)},
                            reverse=upper)
                v = k.evaluate(h)
                holds = [cut_holds(k, h, v, x, upper=upper) for x in xs]
                assert holds != sorted(holds, reverse=True), (k.id, h, upper)
                not_rays += 1
    # 120 bounds, 72 of them exact; the two no-ray cases are iso:4's, whose
    # cut at an included limit leaves that limit as an isolated point
    assert checked >= 100 and exact >= 60 and not_rays <= 2


def test_mean_bounds_bracket_the_mean():
    rng = random.Random(31)
    for _ in range(40):
        h = random_union(rng)
        lo = value_mid(liminf_by_mean(AVG1, h))
        hi = value_mid(limsup_by_mean(AVG1, h))
        v = avg1(h)
        assert lo <= v <= hi
        if lo != hi:
            assert lo < v < hi


def test_mean_bounds_need_a_nonempty_set():
    for bound in (liminf_by_mean, limsup_by_mean):
        with pytest.raises(DomainViolation):
            bound(AVG1, realset())


def test_mean_bounds_of_a_mean_with_root_values():
    # avg1 conjugated by square takes root values, which compare through
    # their enclosures, equal within INEXACT_TOL: the cut stops that close
    # to the ends of [1, 2], and the null point 5 is cut away
    k = resolve_mean("avg1", func=SQUARE)
    h = set_union(from_interval(Q(1), Q(2)), from_points(Q(5)))
    assert abs(value_mid(liminf_by_mean(k, h)) - 1) < 2 ** 8 * INEXACT_TOL
    assert abs(value_mid(limsup_by_mean(k, h)) - 2) < 2 ** 8 * INEXACT_TOL


def test_core_restriction_keeps_the_mean():
    h = set_union(from_points(Q(-5), Q(7)), from_interval(Q(0), Q(1)))
    assert core_restriction_check(AVG1, h)
    assert core_restriction_check(AVG1, _two_interval_set())
    rng = random.Random(32)
    for _ in range(30):
        core = random_union(rng)
        a, b = core.bounds()
        planted = set_union(core, from_points(a - 3, b + Q(7, 2)))
        assert core_restriction_check(AVG1, planted)
    # by m_acc both bounds of H are the limit 1 of its cluster, which H
    # does not hold: the core is empty, so it cannot keep the mean
    h = set_union(from_points(Q(0), Q(3)), realset(
        clusters=[geometric_cluster(Q(1), c=Q(1), q=Q(1, 3))]))
    assert not core_restriction_check(M_ACC, h)
    # amean's bounds of {0, 1} are exactly 0 and 1, so the core is the set
    assert core_restriction_check(AMEAN, from_points(Q(0), Q(1)))


# --------------------------------------------------------------------------
# accumulation points by a mean


def test_acc_points_for_the_length_average_is_the_support():
    h = set_union(from_interval(Q(0), Q(1), True, False), from_points(Q(5)))
    assert acc_points_by_mean(AVG1, h) == from_interval(Q(0), Q(1))


def test_acc_points_for_the_finite_mean_drops_the_mean():
    got = acc_points_by_mean(AMEAN, from_points(Q(0), Q(1), Q(2)))
    assert got == from_points(Q(0), Q(2))
    # a singleton keeps itself
    assert acc_points_by_mean(AMEAN, from_points(Q(4))) == from_points(Q(4))


def _triple_cluster_set():
    return set_union(
        realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=2),
                          harmonic_cluster(Q(1), c=Q(1), start=2),
                          harmonic_cluster(Q(2), c=Q(1), start=2)]),
        from_points(Q(0), Q(2)))


def _satellite_cluster_set():
    return set_union(realset(clusters=[harmonic_cluster(Q(3), c=Q(1), start=2)]),
                     from_points(Q(3)))


def test_acc_points_for_the_deep_derived_mean():
    h1 = _triple_cluster_set()
    assert acc_points_by_mean(M_ACC, h1) == from_points(Q(0), Q(2))
    assert is_k_closed(M_ACC, h1)
    h2 = _satellite_cluster_set()
    assert acc_points_by_mean(M_ACC, h2) == from_points(Q(3))
    assert is_k_closed(M_ACC, h2)


def test_mean_closed_sets_are_not_stable_under_union():
    # both parts are closed under the deep-derived mean, yet their union
    # acquires an accumulation point (1) that the union does not contain
    u = set_union(_triple_cluster_set(), _satellite_cluster_set())
    acc = acc_points_by_mean(M_ACC, u)
    assert acc.member(Q(1)) and not u.member(Q(1))
    assert not is_k_closed(M_ACC, u)


def test_acc_points_unsupported_means_and_domains():
    with pytest.raises(UnsupportedMean):
        acc_points_by_mean(eds_ref(3), from_points(Q(0), Q(1)))
    with pytest.raises(DomainViolation):
        acc_points_by_mean(AMEAN, from_interval(Q(0), Q(1)))


def test_mean_closedness_of_intervals():
    assert is_k_closed(AVG1, from_interval(Q(0), Q(1)))
    assert not is_k_closed(AVG1, from_interval(Q(0), Q(1), False, False))


# --------------------------------------------------------------------------
# derivative-like quantities


def test_difference_quotient_at_interval_edges_and_interior():
    h = from_interval(Q(0), Q(1))
    assert d_mean(AVG1, h, Q(0)) == (Q(1, 2), Q(1, 2), Q(1, 2))
    assert d_mean(AVG1, h, Q(1)) == (Q(-1, 2), Q(-1, 2), Q(-1, 2))
    assert d_mean(AVG1, h, Q(1, 2)) == (Q(0), Q(0), Q(0))


def test_difference_quotient_for_the_deep_derived_mean_at_the_limit():
    h = set_union(realset(clusters=[harmonic_cluster(Q(0), c=Q(1))]),
                  from_points(Q(0)))
    lo, hi, hint = d_mean(M_ACC, h, Q(0))
    assert lo == hi == 0 and hint is None


def test_difference_quotient_stays_in_the_halfband():
    rng = random.Random(33)
    for _ in range(25):
        h = random_union(rng, closed_only=True)
        iv = h.intervals[rng.randrange(len(h.intervals))]
        x = rng.choice([iv.lo, iv.hi, (iv.lo + iv.hi) / 2])
        lo, hi, _ = d_mean(AVG1, h, x)
        assert Q(-1, 2) <= value_mid(lo) <= value_mid(hi) <= Q(1, 2)


def test_difference_quotient_domain_exits():
    h = from_interval(Q(0), Q(1))
    with pytest.raises(DomainExit):
        d_mean(AVG1, h, Q(5))  # every ball misses the set
    with pytest.raises(DomainExit):
        d_mean(AVG1, set_union(h, from_points(Q(5))), Q(5))  # null slice


def test_append_probe_exact_values():
    v, exact = d_probe(AVG1, from_interval(Q(0), Q(1)), "sup_append")
    assert v == Q(1, 2) and exact == Q(1, 2)
    v, _ = d_probe(AVG1, set_union(from_interval(Q(0), Q(1)),
                                   from_interval(Q(3), Q(4))), "sup_append")
    assert v == 1
    v, _ = d_probe(AVG1, set_union(from_interval(Q(0), Q(1)),
                                   from_interval(Q(7), Q(8))), "sup_append")
    assert v == 2
    v, _ = d_probe(AVG1, from_interval(Q(0), Q(1)), "inf_append")
    assert v == Q(-1, 2)


def test_append_probe_generic_path():
    v, exact = d_probe(eds_ref(1), from_points(Q(0), Q(1)), "sup_append")
    assert exact is None
    assert isinstance(v, Approx) and v.value == Q(1, 2)


def test_a_mean_named_avg1_without_hooks_takes_every_generic_path():
    # the structural answers come from the MeanRef's hooks, not its name
    bare = MeanRef("avg1", avg1, AVG1.domain_predicate, exact=True)
    h = from_interval(Q(0), Q(1))
    lo = liminf_by_mean(bare, h)
    assert isinstance(lo, Approx) and abs(lo.value) <= INEXACT_TOL
    assert isinstance(limsup_by_mean(bare, h), Approx)
    with pytest.raises(UnsupportedMean):
        acc_points_by_mean(bare, h)
    assert d_mean(bare, h, Q(0))[2] is None
    v, exact = d_probe(bare, h, "sup_append")
    assert exact is None and isinstance(v, Approx)


def test_append_probe_requires_a_compact_set():
    with pytest.raises(NotCompact):
        d_probe(AVG1, from_interval(Q(0), Q(1), False, False), "sup_append")
    with pytest.raises(NotCompact):
        d_probe(AVG1, realset(clusters=[harmonic_cluster(Q(0), c=Q(1))]),
                "sup_append")
    with pytest.raises(BadParameters):
        d_probe(AVG1, from_interval(Q(0), Q(1)), "sideways")


def test_extremal_average_bounds():
    assert extremal_avg(0, 1, Q(1, 2)) == (Q(1, 4), Q(3, 4))
    with pytest.raises(BadParameters):
        extremal_avg(0, 1, 1)
    with pytest.raises(BadParameters):
        extremal_avg(1, 0, Q(1, 2))
    with pytest.raises(BadParameters):
        extremal_avg(0, 1, 0)


def test_random_sets_of_fixed_length_respect_the_extremal_bounds():
    rng = random.Random(34)
    a, b, total = Q(0), Q(1), Q(1, 2)
    lo_bound, hi_bound = extremal_avg(a, b, total)
    for _ in range(40):
        l1 = Q(rng.randint(1, 7), 16)
        l2 = total - l1
        x1 = Q(rng.randint(0, 3), 16)
        room = (b - l2) - (x1 + l1)
        x2 = x1 + l1 + room * Q(rng.randint(0, 4), 4)
        h = set_union(from_interval(x1, x1 + l1), from_interval(x2, x2 + l2))
        assert lebesgue(h) == total
        assert lo_bound <= avg1(h) <= hi_bound


# --------------------------------------------------------------------------
# sequences of means


def test_pointwise_limits_of_the_stage_families():
    est = pointwise_limit(avg_fat_sequence(), from_interval(Q(0), Q(2)))
    assert est.value == 1
    est = pointwise_limit(eds_sequence(), from_interval(Q(0), Q(1)))
    assert est.value == Q(1, 2)
    sym = realset(clusters=[harmonic_cluster(Q(1), c=Q(1), above=True),
                            harmonic_cluster(Q(1), c=Q(1), above=False)])
    est = pointwise_limit(iso_sequence(), sym)
    assert est.value == 1


def test_stage_limit_of_the_division_mean_with_a_null_satellite():
    # the satellite contributes one grid cell out of ~n, so the stage
    # values drift like 1/n with floor jitter: a loose tolerance certifies
    # the limit, the default tolerance honestly reports no stabilization
    h = set_union(from_points(Q(0)), from_interval(Q(2), Q(3)))
    sched = LimitSchedule(indices=tuple(2 ** j for j in range(4, 21)),
                          tolerance=Q(1, 10 ** 4))
    est = m_eds(h, sched)
    assert abs(est.value - Q(5, 2)) <= est.error
    with pytest.raises(NoConvergence):
        m_eds(h)


def test_symmetric_division_mean_limit():
    est = m_eds(_two_interval_set())
    assert abs(est.value - Q(3, 2)) <= Q(1, 10 ** 6)


def test_grid_family_structure():
    h = grid_family(2)
    assert h.bounds() == (Q(0), Q(2))
    assert h.member(Q(1, 2)) and h.member(Q(3, 2))
    assert lebesgue(h) == 1
    with pytest.raises(BadParameters):
        grid_family(0)


def test_uniformity_witness_found_at_every_probed_stage():
    seq = avg_fat_sequence()
    lim = lavg_ref()
    for n in (1, 4, 16, 64):
        w = uniformity_witness_at(seq, lim, grid_family, Q(1, 4), n)
        assert w is not None
        gap = abs(value_mid(seq.at(n).evaluate(w)) - value_mid(lim.evaluate(w)))
        assert gap >= Q(1, 4)
    found = uniformity_witness(seq, lim, grid_family, Q(1, 4), 8)
    assert found is not None and found[1] == 8


def test_uniformity_witness_respects_the_search_cap():
    # the search doubles m up to max(8n + 16, 64): 64 at n = 1 and 528 at
    # n = 64; a family whose first gap lies one doubling past it is missed
    seq, lim = avg_fat_sequence(), lavg_ref()

    def gap_from(first):
        return lambda m: grid_family(m) if m >= first else from_interval(
            Q(1), Q(2))

    for n, last in ((1, 64), (64, 512)):
        assert uniformity_witness_at(seq, lim, gap_from(last), Q(1, 4),
                                     n) is not None
        assert uniformity_witness_at(seq, lim, gap_from(2 * last), Q(1, 4),
                                     n) is None


def test_no_uniformity_witness_for_a_uniformly_convergent_family():
    found = uniformity_witness(avg_fat_sequence(), lavg_ref(),
                               lambda m: from_interval(Q(m), Q(m + 1)),
                               Q(1, 4), 8)
    assert found is None
