"""Limit schedules, exact Aitken acceleration, and stabilization."""

from fractions import Fraction as Q

import pytest

from meanlab.errors import BadConfig, NoConvergence
from meanlab.limits import (
    DEFAULT_SCHEDULE,
    LimitSchedule,
    aitken_accelerate,
    doubling_indices,
    limit_estimate,
)
from meanlab.values import Approx


def test_default_schedule_samples_powers_of_two():
    assert DEFAULT_SCHEDULE.indices[0] == 16
    assert DEFAULT_SCHEDULE.indices[-1] == 2 ** 20
    assert all(b == 2 * a for a, b in zip(DEFAULT_SCHEDULE.indices,
                                          DEFAULT_SCHEDULE.indices[1:]))
    assert DEFAULT_SCHEDULE.tolerance == Q(1, 10 ** 9)


def test_doubling_indices_double_from_16_up_to_max_n():
    assert doubling_indices() == DEFAULT_SCHEDULE.indices
    for max_n in (64, 65, 127, 128, 1000, 4096, 4097):
        indices, n = [], 16
        while n <= max_n:
            indices.append(n)
            n *= 2
        assert doubling_indices(max_n) == tuple(indices)


def test_schedule_validation():
    with pytest.raises(BadConfig):
        LimitSchedule(indices=(1, 2))
    with pytest.raises(BadConfig):
        LimitSchedule(indices=(1, 2, 2))
    with pytest.raises(BadConfig):
        LimitSchedule(tolerance=Q(0))


def test_aitken_is_exact_on_geometric_tails():
    # s_n = L + c*q^n has vanishing Aitken residual: every accelerated
    # value equals L exactly, in rational arithmetic
    L, c, q = Q(5, 3), Q(7, 2), Q(1, 4)
    samples = [L + c * q ** n for n in range(8)]
    assert aitken_accelerate(samples) == [L] * 6


def test_aitken_falls_back_on_vanishing_second_difference():
    samples = [Q(1), Q(2), Q(3), Q(4)]  # arithmetic: denominator is zero
    assert aitken_accelerate(samples) == [Q(3), Q(4)]


def test_limit_estimate_certifies_geometric_convergence():
    target = Q(3, 7)
    est = limit_estimate(lambda n: target + Q(1, n))
    assert isinstance(est, Approx)
    assert abs(est.value - target) <= est.error
    assert est.error == 2 * DEFAULT_SCHEDULE.tolerance


def test_limit_estimate_is_exact_on_eventually_constant_sequences():
    est = limit_estimate(lambda n: Q(2) if n >= 64 else Q(0))
    assert est.value == 2


def test_limit_estimate_honors_custom_tolerance():
    sched = LimitSchedule(indices=tuple(2 ** j for j in range(4, 14)),
                          tolerance=Q(1, 10 ** 6))
    est = limit_estimate(lambda n: Q(1) - Q(1, n * n), sched)
    assert abs(est.value - 1) <= est.error == 2 * sched.tolerance


def test_no_convergence_carries_the_sampled_trace():
    sched = LimitSchedule(indices=(16, 32, 64, 128), tolerance=Q(1, 10 ** 9))
    with pytest.raises(NoConvergence) as exc:
        # alternates 1, 0, 1, 0 along the doubling schedule
        limit_estimate(lambda n: Q(n.bit_length() % 2), sched,
                       label="oscillation")
    err = exc.value
    assert "oscillation" in str(err)
    assert [n for n, _ in err.trace] == [16, 32, 64, 128]
    assert all(isinstance(v, float) for _, v in err.trace)


def test_samples_past_the_float_range_are_traced_as_decimal_text():
    sched = LimitSchedule(indices=(16, 32, 64, 128), tolerance=Q(1, 10 ** 9))
    with pytest.raises(NoConvergence) as exc:
        limit_estimate(lambda n: Q(10 ** 400 * (n.bit_length() % 2)), sched)
    far = "1" + "0" * 400 + ".000000000000"
    assert exc.value.trace == [(16, far), (32, 0.0), (64, far), (128, 0.0)]


def test_slow_drift_does_not_stabilize_on_a_short_schedule():
    # harmonic drift under a tight tolerance and a short schedule
    sched = LimitSchedule(indices=(16, 32, 64), tolerance=Q(1, 10 ** 12))
    with pytest.raises(NoConvergence):
        limit_estimate(lambda n: Q(1, n), sched)
