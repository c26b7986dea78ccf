"""Length, moments, densities, fattening, and Hausdorff distance."""

import random
from fractions import Fraction as Q

import pytest

from conftest import random_union
from meanlab.errors import (
    BadParameters,
    EmptySet,
    NullSet,
    OutsideSupport,
    UnsupportedDepth,
)
from meanlab.exactset import (
    Interval,
    closure,
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    normalize,
    realset,
    scale,
    set_intersect,
    set_union,
    translate,
)
from meanlab.measure import (
    DensityMeasure,
    essential_bounds,
    fatten,
    hausdorff_distance,
    lebesgue,
    moment,
    mu_mass_moment,
    split_native,
    support,
)


# --------------------------------------------------------------------------
# length and first moment against a raw-coverage oracle


def _raw_pieces(rng):
    """Random overlapping raw intervals + points, before any normalization."""
    ivs = []
    for _ in range(rng.randint(1, 4)):
        a = Q(rng.randint(-16, 16), rng.randint(1, 4))
        b = a + Q(rng.randint(0, 12), rng.randint(1, 4))
        if a == b:
            ivs.append((a, b, True, True))
        else:
            ivs.append((a, b, rng.random() < 0.5, rng.random() < 0.5))
    pts = [Q(rng.randint(-16, 16), rng.randint(1, 4))
           for _ in range(rng.randint(0, 3))]
    return ivs, pts


def _oracle_length_and_moment(ivs, pts):
    """Measure the raw coverage directly: cut at every endpoint/point and
    test each elementary gap's midpoint against the raw intervals."""
    cuts = sorted({x for a, b, _, _ in ivs for x in (a, b)} | set(pts))
    length = Q(0)
    mom = Q(0)
    for x, y in zip(cuts, cuts[1:]):
        mid = (x + y) / 2
        if any(a < mid < b for a, b, _, _ in ivs):
            length += y - x
            mom += (y * y - x * x) / 2
    return length, mom


def test_length_and_moment_match_raw_coverage_oracle():
    rng = random.Random(20260816)
    for _ in range(250):
        ivs, pts = _raw_pieces(rng)
        h = normalize(
            [Interval(a, b, cl, cr) for a, b, cl, cr in ivs if a < b],
            pts + [a for a, b, _, _ in ivs if a == b],
        )
        want_len, want_mom = _oracle_length_and_moment(ivs, pts)
        assert lebesgue(h) == want_len
        assert moment(h) == want_mom


def test_null_parts_carry_no_length():
    h = realset(points=[Q(-5), Q(7)],
                clusters=[harmonic_cluster(Q(0), c=Q(1), start=1)])
    assert lebesgue(h) == 0
    assert moment(h) == 0


def test_length_is_translation_invariant_and_moment_shifts():
    rng = random.Random(7)
    for _ in range(60):
        h = random_union(rng)
        t = Q(rng.randint(-8, 8), rng.randint(1, 4))
        g = translate(h, t)
        assert lebesgue(g) == lebesgue(h)
        assert moment(g) == moment(h) + t * lebesgue(h)


def test_scaling_laws_for_length_and_moment():
    rng = random.Random(8)
    for _ in range(60):
        h = random_union(rng)
        s = Q(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        g = scale(h, s)
        assert lebesgue(g) == abs(s) * lebesgue(h)
        assert moment(g) == s * abs(s) * moment(h)


# --------------------------------------------------------------------------
# support and essential bounds


def test_support_closes_interval_mass_and_drops_null_parts():
    h = set_union(
        realset(intervals=[Interval(Q(0), Q(1), False, False),
                           Interval(Q(1), Q(2), False, False)]),
        realset(points=[Q(-9)],
                clusters=[harmonic_cluster(Q(5), c=Q(1), start=2)]),
    )
    assert support(h) == from_interval(Q(0), Q(2))


def test_support_of_null_set_is_empty():
    h = realset(points=[Q(1)], clusters=[harmonic_cluster(Q(0), c=Q(1))])
    assert support(h).is_empty


def test_essential_bounds_ignore_null_satellites():
    h = set_union(from_points(Q(-5)), from_interval(Q(0), Q(1)))
    assert essential_bounds(h) == (Q(0), Q(1))


def test_essential_bounds_need_length():
    with pytest.raises(NullSet):
        essential_bounds(from_points(Q(0), Q(1)))


# --------------------------------------------------------------------------
# piecewise-constant density measures


def _mu() -> DensityMeasure:
    return DensityMeasure.from_parts([(Q(0), Q(1), Q(2)), (Q(1), Q(3), Q(1))])


def test_density_measure_evaluates_exactly():
    mu = _mu()
    assert mu_mass_moment(from_interval(Q(0), Q(1)), mu) == (2, 1)
    assert mu_mass_moment(from_interval(Q(0), Q(2)), mu) == (3, Q(5, 2))


def test_density_measure_matches_unit_density():
    rng = random.Random(9)
    flat = DensityMeasure.from_parts([(Q(-60), Q(60), Q(1))])
    for _ in range(40):
        h = random_union(rng)
        assert mu_mass_moment(h, flat) == (lebesgue(h), moment(h))


def test_density_measure_rejects_length_outside_support():
    mu = _mu()
    with pytest.raises(OutsideSupport):
        mu_mass_moment(from_interval(Q(-1), Q(1)), mu)
    with pytest.raises(OutsideSupport):
        mu_mass_moment(from_interval(Q(2), Q(4)), mu)
    # null parts outside the pieces are fine
    h = set_union(from_points(Q(-7)), from_interval(Q(0), Q(1)))
    assert mu_mass_moment(h, mu)[0] == 2


def test_density_mass_and_moment_come_from_one_pass():
    mu = _mu()
    rng = random.Random(13)
    for _ in range(40):
        h = random_union(rng)
        # each piece's density times the length and moment of h on it
        parts = [(dens, set_intersect(h, from_interval(lo, hi)))
                 for lo, hi, dens in ((0, 1, 2), (1, 3, 1))]
        if lebesgue(h) > sum(lebesgue(part) for _, part in parts):
            with pytest.raises(OutsideSupport):
                mu_mass_moment(h, mu)
            continue
        assert mu_mass_moment(h, mu) == (
            sum(dens * lebesgue(part) for dens, part in parts),
            sum(dens * moment(part) for dens, part in parts))
    assert mu_mass_moment(from_interval(Q(0), Q(2)), mu) == (3, Q(5, 2))


def test_density_measure_validation():
    with pytest.raises(BadParameters):
        DensityMeasure.from_parts([(Q(0), Q(1), Q(-1))])
    with pytest.raises(BadParameters):
        DensityMeasure.from_parts([(Q(0), Q(0), Q(1))])
    with pytest.raises(BadParameters):
        DensityMeasure.from_parts([(Q(0), Q(2), Q(1)), (Q(1), Q(3), Q(1))])
    # unsorted input is sorted by the constructor
    mu = DensityMeasure.from_parts([(Q(1), Q(3), Q(1)), (Q(0), Q(1), Q(2))])
    assert mu == _mu()


def test_density_text_reads_back():
    assert _mu().text() == "0,1,2;1,3,1"
    assert DensityMeasure.parse(_mu().text()) == _mu()
    # pieces in any order and any rational spelling, printed in one form
    mu = DensityMeasure.parse("1, 3, 1.0;0,2/2,4e-1")
    assert mu.text() == "0,1,2/5;1,3,1"
    assert DensityMeasure.parse(mu.text()) == mu
    for text, message in (
            ("0,1", "density pieces are 'lo,hi,weight' separated by ';'"),
            ("0,1,1;", "density pieces are 'lo,hi,weight' separated by ';'"),
            ("x,1,1;0,1", "not a rational: 'x'"),
            ("0,1,0", "density values must be positive")):
        with pytest.raises(BadParameters) as e:
            DensityMeasure.parse(text)
        assert str(e.value) == message


# --------------------------------------------------------------------------
# fattening


def test_fatten_point_and_interval():
    h = set_union(from_points(Q(0)), from_interval(Q(2), Q(3)))
    want = realset(intervals=[Interval(Q(-1), Q(1), False, False),
                              Interval(Q(1), Q(4), False, False)])
    assert fatten(h, Q(1)) == want


def test_fatten_semigroup_on_interval_union():
    h = set_union(from_interval(Q(0), Q(1)), from_points(Q(3)))
    assert fatten(fatten(h, Q(1, 4)), Q(1, 8)) == fatten(h, Q(3, 8))


def test_fatten_harmonic_tail_merges_into_one_blob():
    h = realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=1)])
    got = fatten(h, Q(1, 10))
    # consecutive term gaps 1/(k(k+1)) drop below 2/10 from k=2 on, so the
    # balls around 1/2, 1/3, ... chain into the limit's neighborhood while
    # the ball around 1 stays separate
    want = normalize([
        Interval(Q(-1, 10), Q(1, 3) + Q(1, 10), False, False),
        Interval(Q(1, 2) - Q(1, 10), Q(1, 2) + Q(1, 10), False, False),
        Interval(Q(1) - Q(1, 10), Q(1) + Q(1, 10), False, False),
    ])
    assert got == want
    assert len(got.intervals) == 2 and not got.points and not got.clusters


def test_fatten_semigroup_through_a_cluster():
    h = realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=1)])
    assert fatten(fatten(h, Q(1, 20)), Q(1, 20)) == fatten(h, Q(1, 10))


def test_fatten_tightly_packed_tail_is_a_single_interval():
    h = realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=10)])
    got = fatten(h, Q(1, 10))
    assert got == realset(intervals=[Interval(Q(-1, 10), Q(1, 5), False, False)])


@pytest.mark.parametrize("c", [
    harmonic_cluster(Q(0), c=Q(1), start=1),
    harmonic_cluster(Q(2), c=Q(1, 2), start=3, above=False),
    geometric_cluster(Q(1), c=Q(1, 2), q=Q(1, 3), start=1),
    geometric_cluster(Q(-1), c=Q(3), q=Q(2, 3), start=2, above=False)])
def test_split_native_gives_the_merge_index_and_the_head_terms(c):
    for threshold in (Q(10), Q(1, 3), Q(1, 50), Q(1, 1000)):
        k_merge, head = split_native(c, threshold)
        assert k_merge >= c.start
        assert head == [c.term(k) for k in range(c.start, k_merge)]
        gaps = [abs(c.term(k + 1) - c.term(k))
                for k in range(c.start, k_merge + 1)]
        assert all(g >= threshold for g in gaps[:-1]) and gaps[-1] < threshold


def test_fatten_rejects_bad_input():
    with pytest.raises(BadParameters):
        fatten(from_interval(Q(0), Q(1)), Q(0))
    with pytest.raises(EmptySet):
        fatten(realset(), Q(1, 2))


def test_fatten_length_is_continuous_in_the_radius():
    rng = random.Random(10)
    delta, eps = Q(1, 4), Q(1, 8)
    for _ in range(60):
        h = random_union(rng)
        n_balls = len(h.intervals) + len(h.points)
        grow = lebesgue(fatten(h, delta + eps)) - lebesgue(fatten(h, delta - eps))
        assert 0 <= grow <= 4 * n_balls * eps


# --------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_detects_an_extra_point():
    a = from_interval(Q(0), Q(1))
    b = set_union(a, from_points(Q(2)))
    assert hausdorff_distance(a, b) == 1


def test_hausdorff_of_fattened_set_is_the_radius():
    h = from_interval(Q(0), Q(1))
    for d in (Q(1, 3), Q(2), Q(1, 7)):
        assert hausdorff_distance(h, closure(fatten(h, d))) == d
    g = set_union(from_points(Q(-3)), from_interval(Q(0), Q(1)))
    assert hausdorff_distance(g, closure(fatten(g, Q(1, 2)))) == Q(1, 2)


def test_hausdorff_is_a_metric_on_interval_point_sets():
    rng = random.Random(11)
    for _ in range(80):
        a, b, c = (random_union(rng) for _ in range(3))
        dab = hausdorff_distance(a, b)
        assert dab >= 0
        assert dab == hausdorff_distance(b, a)
        assert hausdorff_distance(a, a) == 0
        assert hausdorff_distance(a, c) <= dab + hausdorff_distance(b, c)
        if dab == 0:
            assert closure(a) == closure(b)


def test_hausdorff_ignores_missing_endpoints():
    a = realset(intervals=[Interval(Q(0), Q(1), False, False)])
    b = from_interval(Q(0), Q(1))
    assert hausdorff_distance(a, b) == 0


def test_hausdorff_joins_closures_that_touch():
    a = realset(intervals=[Interval(Q(0), Q(1), True, False),
                           Interval(Q(1), Q(2), False, True)])
    assert hausdorff_distance(a, from_interval(Q(0), Q(2))) == 0
    assert hausdorff_distance(a, from_points(Q(0), Q(2))) == 1


def test_hausdorff_reads_closed_ranges_that_touch_or_leave_a_gap():
    def open_iv(lo, hi):
        return from_interval(Q(lo), Q(hi), False, False)

    whole = from_interval(Q(0), Q(2))
    assert hausdorff_distance(set_union(open_iv(0, 1), open_iv(1, 2)),
                              whole) == 0
    with_points = set_union(open_iv(0, 1), from_points(Q(1), Q(3)))
    assert hausdorff_distance(with_points, from_interval(Q(0), Q(1))) == 2
    assert hausdorff_distance(set_union(open_iv(0, 1), open_iv(2, 3)),
                              from_interval(Q(0), Q(3))) == Q(1, 2)


def test_hausdorff_rejects_clusters_and_empty_sets():
    tail = realset(clusters=[harmonic_cluster(Q(0), c=Q(1))])
    with pytest.raises(UnsupportedDepth):
        hausdorff_distance(tail, from_interval(Q(0), Q(1)))
    with pytest.raises(EmptySet):
        hausdorff_distance(realset(), from_interval(Q(0), Q(1)))
