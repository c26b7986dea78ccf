"""The walks that amean, eds_n and fatten make over sorted points, against
their point-by-point definitions."""

import random
from fractions import Fraction as Q

import pytest

from meanlab.exactset import Interval, from_points, normalize
from meanlab.means import _cell, _point_cells, amean, eds_n
from meanlab.measure import _runs, fatten

DELTA = Q(1, 8)


def _point_sets():
    """Seeded sorted point sets: one and two points, random rationals, grid
    points with gaps of exactly 2·DELTA, and harmonic heads within 2^-44 of
    their limit next to one far point."""
    rng = random.Random(12)
    sets = [(Q(3, 7),), (Q(0), Q(1, 4)), (Q(0), 2 * DELTA), (Q(-1), Q(5))]
    for _ in range(40):
        sets.append(tuple(sorted({Q(rng.randint(-60, 60), rng.randint(1, 12))
                                  for _ in range(rng.randint(1, 30))})))
        sets.append(tuple(sorted({DELTA * rng.randint(-20, 20)
                                  for _ in range(rng.randint(1, 30))})))
    for _ in range(10):
        x = Q(rng.randint(-16, 16), 4)
        c = Q(rng.randint(1, 16), 2 ** 40)
        start = rng.randint(16, 64) * 16  # c/start <= 2^-44
        head = [x + c / k for k in range(start, start + rng.randint(1, 600))]
        sets.append(tuple(sorted(head + [x + 1])))
    return sets


POINT_SETS = _point_sets()


def _runs_point_by_point(xs, width):
    runs = []
    for x in xs:
        if runs and x - runs[-1][1] < width:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs


@pytest.mark.parametrize("width", [2 * DELTA, Q(1, 3), Q(1, 2 ** 50), Q(100)])
def test_runs_match_the_gap_by_gap_walk(width):
    for xs in POINT_SETS:
        assert _runs(xs, width) == _runs_point_by_point(xs, width)


def test_fatten_matches_one_ball_per_point():
    for xs in POINT_SETS:
        for delta in (DELTA, Q(1, 2 ** 46)):
            balls = [Interval(p - delta, p + delta, False, False) for p in xs]
            assert fatten(from_points(*xs), delta) == normalize(balls)


def test_a_gap_of_exactly_two_delta_stays_open():
    fat = fatten(from_points(Q(0), 2 * DELTA), DELTA)
    assert len(fat.intervals) == 2
    assert not fat.member(DELTA)


def test_point_cells_match_the_cell_of_each_point():
    for xs in POINT_SETS:
        lo, hi = xs[0], xs[-1]
        frames = [(lo - 1, Q(1, 3)), (Q(0), DELTA)]
        if lo < hi:
            frames += [(lo, (hi - lo) / n) for n in (1, 2, 3, 7, 64)]
        for a, w in frames:
            want = sorted({_cell(x, a, w) for x in xs})
            assert _point_cells(xs, a, w) == want


def test_eds_of_points_is_the_mean_of_their_cells():
    for xs in POINT_SETS:
        if len(xs) < 2:
            continue
        for n in (1, 3, 4, 16):
            a = xs[0]
            w = (xs[-1] - a) / n
            cells = {_cell(x, a, w) for x in xs}  # the sup's cell is n
            want = sum((a + c * w for c in cells), Q(0)) / len(cells)
            assert eds_n(from_points(*xs), n) == want


def test_amean_is_the_left_to_right_sum():
    for xs in POINT_SETS:
        got = amean(from_points(*xs))
        assert type(got) is Q
        assert got == sum(xs, Q(0)) / len(xs)
