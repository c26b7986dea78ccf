"""Numeric limit estimation over exact rational sample sequences.

A LimitSchedule fixes the sample indices and the stabilization policy.
Samples are exact Fractions; acceleration (Aitken delta-squared) runs in
exact rational arithmetic, and only the convergence verdict is a judgment:
the estimate stabilizes when several consecutive accelerated values agree
within the tolerance. The result is an Approx carrying the declared radius;
it is a stabilization certificate, not a proof of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BadConfig, NoConvergence
from .values import Approx, float_or_decimal

Q = Fraction

#: consecutive accelerated values that must agree for a limit to settle
AGREEMENTS = 3


#: the largest index and the tolerance of the default schedule
DEFAULT_MAX_N = 2 ** 20
DEFAULT_TOLERANCE = Q(1, 10 ** 9)


def doubling_indices(max_n: int = DEFAULT_MAX_N) -> tuple[int, ...]:
    """16, 32, 64, ... up to max_n: three samples or more when max_n >= 64."""
    return tuple(2 ** j for j in range(4, max_n.bit_length()))


@dataclass(frozen=True)
class LimitSchedule:
    """Sample indices plus the stabilization policy for limit estimates."""

    indices: tuple[int, ...] = field(default_factory=doubling_indices)
    tolerance: Fraction = DEFAULT_TOLERANCE

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(n) for n in self.indices))
        object.__setattr__(self, "tolerance", Q(self.tolerance))
        if len(self.indices) < 3:
            raise BadConfig("a limit schedule needs at least three samples")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise BadConfig("schedule indices must be strictly increasing")
        if self.tolerance <= 0:
            raise BadConfig("tolerance must be positive")


DEFAULT_SCHEDULE = LimitSchedule()


def _aitken_step(a0: Fraction, a1: Fraction, a2: Fraction) -> Fraction:
    """One exact delta-squared step; the raw a2 when the second difference
    vanishes."""
    denom = a2 - 2 * a1 + a0
    return a2 if denom == 0 else a2 - (a2 - a1) ** 2 / denom


def aitken_accelerate(samples: Sequence[Fraction]) -> list[Fraction]:
    """Exact delta-squared acceleration; falls back to the raw value when
    the second difference vanishes."""
    return [_aitken_step(*samples[i:i + 3]) for i in range(len(samples) - 2)]


def limit_estimate(sampler: Callable[[int], Fraction],
                   schedule: LimitSchedule = DEFAULT_SCHEDULE,
                   label: str = "limit") -> Approx:
    """Estimate lim sampler(n) along the schedule.

    Stabilizes when ``AGREEMENTS`` consecutive accelerated values agree within
    the tolerance; raises NoConvergence with the sampled trace otherwise,
    each sample a float or, past the float range, its decimal text.
    """
    samples: list[Fraction] = []
    accel: list[Fraction] = []
    streak = 0
    for n in schedule.indices:
        samples.append(Q(sampler(n)))
        if len(samples) >= 3:
            acc = _aitken_step(*samples[-3:])
            if accel and abs(acc - accel[-1]) <= schedule.tolerance:
                streak += 1
            else:
                streak = 0
            accel.append(acc)
            if streak + 1 >= AGREEMENTS:
                return Approx(acc, 2 * schedule.tolerance)
    trace = [(n, float_or_decimal(v))
             for n, v in zip(schedule.indices, samples)]
    raise NoConvergence(
        f"{label} did not stabilize within the schedule", trace=trace)
