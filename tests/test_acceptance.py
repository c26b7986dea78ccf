"""Acceptance suite: one test per release criterion.

Each test stands alone and prints one pass/fail line under ``pytest -v``.
Random draws are seeded, so every run exercises identical instances.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as Q

from conftest import random_mixed_set, random_points, random_union

from meanlab.analysis import (
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
from meanlab.axioms import check, gen_dilution, gen_equal_mean_pairs
from meanlab.exactset import (
    from_interval,
    from_points,
    harmonic_cluster,
    realset,
    set_diff,
    set_union,
)
from meanlab.funcs import SQUARE
from meanlab.limits import DEFAULT_SCHEDULE
from meanlab.means import (
    amean,
    avg1,
    avg_f,
    avg_fat,
    avg_fat_sequence,
    eds_n,
    image_set,
    iso_n,
    m_acc,
    resolve_mean,
    transform_kf,
)
from meanlab.measure import DensityMeasure, essential_bounds, lebesgue
from meanlab.values import Approx, RootValue, value_bounds, value_mid

AVG1 = resolve_mean("avg1")
LAVG = resolve_mean("lavg")
M_ACC = resolve_mean("m_acc")


def _squared(v):
    """The exact square of a mean value that is either rational or the
    principal square root of a rational."""
    if isinstance(v, RootValue):
        assert v.degree == 2
        return v.radicand
    return v * v


def _rand_pair(rng):
    a = Q(rng.randint(0, 40), rng.randint(1, 9))
    b = a + Q(rng.randint(1, 40), rng.randint(1, 9))
    return a, b


def test_criterion_01_closed_form_square_transforms():
    rng = random.Random(101)
    for _ in range(20):
        a, b = _rand_pair(rng)
        h = from_interval(a, b)
        assert _squared(avg_f(SQUARE, h)) == (a * a + a * b + b * b) / 3
        conjugated = transform_kf(AVG1, SQUARE)
        assert _squared(conjugated.evaluate(h)) == (a * a + b * b) / 2


def test_criterion_02_transform_failure_witness():
    h1 = set_union(from_interval(Q(0), Q(1)), from_interval(Q(2), Q(3)))
    h2 = from_interval(Q(1), Q(2), False, False)
    assert avg1(image_set(set_union(h1, h2), SQUARE)) == Q(9, 2)
    assert avg1(image_set(h2, SQUARE)) == Q(5, 2)


def test_criterion_03_extremal_bounds_for_fixed_length():
    assert extremal_avg(Q(0), Q(1), Q(1, 2)) == (Q(1, 4), Q(3, 4))
    rng = random.Random(103)
    for _ in range(500):
        a, b = _rand_pair(rng)
        m = rng.randint(1, 4)
        cuts = set()
        while len(cuts) < 2 * m:
            cuts.add(a + (b - a) * Q(rng.randint(1, 119), 120))
        cuts = sorted(cuts)
        h = realset(intervals=[
            from_interval(cuts[2 * i], cuts[2 * i + 1]).intervals[0]
            for i in range(m)])
        length = lebesgue(h)
        lo, hi = extremal_avg(a, b, length)
        v = avg1(h)
        assert lo <= v <= hi
        assert avg1(from_interval(a, a + length)) == lo


def test_criterion_04_endpoint_probe_formula_and_threshold():
    h = set_union(from_interval(Q(0), Q(1)), from_interval(Q(7), Q(8)))
    value, exact = d_probe(AVG1, h, "sup_append", DEFAULT_SCHEDULE)
    assert value == exact == Q(2)
    rng = random.Random(104)
    done = 0
    while done < 100:
        h = random_union(rng, closed_only=True)
        if not h.intervals:
            continue
        value, exact = d_probe(AVG1, h, "sup_append", DEFAULT_SCHEDULE)
        sup = h.bounds()[1]
        assert value == exact == (sup - avg1(h)) / lebesgue(h)
        assert value >= Q(1, 2)
        single = len(h.intervals) == 1 and not h.points and not h.clusters
        assert (value == Q(1, 2)) == single
        done += 1


def test_criterion_05_pointwise_derivative_of_the_length_average():
    h = from_interval(Q(0), Q(1))
    for x, want in ((Q(0), Q(1, 2)), (Q(1), Q(-1, 2)), (Q(1, 2), Q(0))):
        lower, upper, _hint = d_mean(AVG1, h, x, DEFAULT_SCHEDULE)
        assert lower == upper == want
    tol = Q(1, 10 ** 9)
    rng = random.Random(105)
    done = 0
    while done < 50:
        h = random_union(rng, closed_only=True)
        spans = [iv for iv in h.intervals if iv.lo < iv.hi]
        if not spans:
            continue
        x = (spans[0].lo + spans[0].hi) / 2
        lower, upper, _hint = d_mean(AVG1, h, x, DEFAULT_SCHEDULE)
        for side in (lower, upper):
            lo, hi = value_bounds(side)
            assert -Q(1, 2) - tol <= lo and hi <= Q(1, 2) + tol
        done += 1


def test_criterion_06_pointwise_but_not_uniform_stage_convergence():
    limit_set = from_interval(Q(0), Q(2))
    for m in (*range(1, 65), 2 ** 10, 2 ** 12):
        assert avg1(grid_family(m)) == Q(3, 2)
        assert avg1(limit_set) == Q(1)
    delta = Q(1, 4)
    want = avg_fat(limit_set, delta)
    for m in (2 ** 12, 2 ** 12 + 1, 2 ** 13):
        assert abs(avg_fat(grid_family(m), delta) - want) <= Q(1, 1000)
    seq = avg_fat_sequence()
    for n in range(1, 1025):
        assert uniformity_witness_at(seq, LAVG, grid_family, Q(1, 4),
                                     n) is not None
    witness = uniformity_witness(seq, LAVG, grid_family, Q(1, 4), 8)
    assert witness is not None and witness[1] == 8


def test_criterion_07_cell_average_closure_counterexample():
    h = set_union(from_points(Q(0), Q(3)),
                  from_interval(Q(1), Q(2), False, False))
    closure = set_union(from_points(Q(0), Q(3)), from_interval(Q(1), Q(2)))
    assert eds_n(h, 3) == Q(4, 3)
    assert eds_n(closure, 3) == Q(3, 2)


def test_criterion_08_isolation_average_non_monotone_family():
    for n in range(1, 11):
        p = 2 * (n + 3)
        h1 = realset(points=[Q(0), Q(p), Q(p) - Q(1, 2 * n)],
                     clusters=[harmonic_cluster(Q(0), start=n)])
        h2 = realset(points=[Q(p)],
                     clusters=[harmonic_cluster(Q(p), start=n)])
        union = set_union(h1, h2)
        first = iso_n(h1, n)
        joined = iso_n(union, n)
        assert first == Q(4 * (n + 3), 3) + Q(1, 6 * n)
        assert joined == Q(n + 3) + Q(1, n)
        assert first > joined


def test_criterion_09_union_deviation_bounds():
    report = check("u_bounded_overlap", resolve_mean("amean"), trials=5)
    assert report.verdict == "counterexample"
    vals = dict(report.witness.values)
    assert vals["K(H u all)"] == Q(1, 2)
    assert vals["K(HuH1)"] == Q(0) and vals["K(HuH2)"] == Q(1, 3)
    assert check("u_bounded", AVG1, trials=500,
                 seed=5).verdict == "holds_on_sample"
    for parts in ([(0, 1, 2), (1, 3, 1)],
                  [(-2, 0, 1), (0, 1, 3), (1, 4, Q(1, 2))]):
        k = resolve_mean("m_mu", density=DensityMeasure.from_parts(parts))
        report = check("u_bounded", k, trials=500, seed=5)
        assert report.verdict == "holds_on_sample"
        assert report.trials == 500
    assert check("u_bounded_n_fold", AVG1, trials=120,
                 seed=5).verdict == "holds_on_sample"


def test_criterion_10_mean_bounds_match_essential_bounds():
    rng = random.Random(110)
    done = 0
    while done < 200:
        h = random_union(rng)
        if not h.intervals:
            continue
        h = set_union(h, random_points(rng))  # null satellites
        lo, hi = essential_bounds(h)
        assert liminf_by_mean(AVG1, h) == lo
        assert limsup_by_mean(AVG1, h) == hi
        by_bisection = dataclasses.replace(AVG1, bounds=None)
        for exact, bisected in ((lo, liminf_by_mean(by_bisection, h)),
                                (hi, limsup_by_mean(by_bisection, h))):
            assert abs(bisected.value - exact) <= Q(1, 2 ** 40) \
                + bisected.error
        if lo != hi:
            v = avg1(h)
            assert lo < v < hi  # strict strong internality
        assert core_restriction_check(AVG1, h)
        done += 1


def test_criterion_11_accumulation_point_laws():
    rng = random.Random(111)
    done = 0
    while done < 500:
        a, b = random_union(rng), random_union(rng)
        if not (a.intervals and b.intervals):
            continue
        assert acc_points_by_mean(AVG1, set_union(a, b)) == set_union(
            acc_points_by_mean(AVG1, a), acc_points_by_mean(AVG1, b))
        done += 1
    # a union can acquire a relevant accumulation point neither part has
    h1 = set_union(
        realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=2),
                          harmonic_cluster(Q(1), c=Q(1), start=2),
                          harmonic_cluster(Q(2), c=Q(1), start=2)]),
        from_points(Q(0), Q(2)))
    h2 = set_union(realset(clusters=[harmonic_cluster(Q(3), c=Q(1),
                                                      start=2)]),
                   from_points(Q(3)))
    union = set_union(h1, h2)
    acc = acc_points_by_mean(M_ACC, union)
    assert acc.member(Q(1)) and not union.member(Q(1))
    assert not is_k_closed(M_ACC, union)
    # the relevant accumulation points carry the same cluster mean
    done = 0
    while done < 100:
        limits = rng.sample(range(8), rng.randint(2, 4))
        h = realset(clusters=[
            harmonic_cluster(Q(x), c=Q(1, 8), start=2,
                             above=rng.random() < 0.5)
            for x in limits])
        assert m_acc(acc_points_by_mean(M_ACC, h)) == m_acc(h)
        done += 1


def test_criterion_12_equal_mean_pairs_and_the_cluster_counterexample():
    pairs = itertools.islice(gen_equal_mean_pairs(12), 1000)
    for a, b in pairs:
        assert avg1(a) == avg1(b)
        assert avg1(set_union(a, b)) == avg1(a)
    report = check("equi_monotone", M_ACC, trials=5)
    assert report.verdict == "counterexample"
    vals = dict(report.witness.values)
    assert vals["K(H1)"] == Q(0) and vals["K(H2)"] == Q(2)
    assert vals["K(H1uH2)"] == Q(0)


def test_criterion_13_limit_values_agree_with_closed_forms():
    rng = random.Random(113)
    done = 0
    while done < 100:
        h = random_union(rng, closed_only=True)
        if not h.intervals:
            continue
        v = LAVG.evaluate(h)
        assert abs(value_mid(v) - avg1(h)) <= Q(1, 10 ** 9)
        done += 1
    v = LAVG.evaluate(set_union(from_points(Q(0)),
                                from_interval(Q(2), Q(3))))
    assert abs(value_mid(v) - Q(5, 2)) <= Q(1, 10 ** 6)
    from meanlab.measure import fatten

    done = 0
    while done < 200:
        h = random_mixed_set(rng)
        if h.is_empty:
            continue
        eps = Q(rng.randint(1, 8), rng.randint(8, 40))
        delta = Q(rng.randint(1, 8), rng.randint(8, 40))
        assert fatten(fatten(h, eps), delta) == fatten(h, eps + delta)
        done += 1


def test_criterion_14_dilution_keeps_the_mean():
    families = itertools.islice(gen_dilution(9), 50)
    n_end = 2 ** 13
    for family, target in families:
        h, removed = family(n_end)
        assert abs(amean(set_diff(h, removed)) - target) <= Q(1, 1000)
