"""Analytical constructions over a chosen mean.

Everything here is parameterized by a ``MeanRef``: liminf/limsup of a set
*with respect to a mean*, accumulation points *by a mean*, closedness in
that sense, two derivative-like quantities built from shrinking or appended
neighborhoods, extremal bounds for length-constrained subsets, and
witnesses against uniform convergence of a sequence of means (the
sequences themselves, and their pointwise limits, live in ``means``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import (
    BadParameters,
    DomainExit,
    DomainViolation,
    MeanlabError,
    NotCompact,
    UnsupportedMean,
)
from .exactset import (
    RealSet,
    _breakpoints,
    _probe_inside,
    from_interval,
    from_points,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
    subset_of,
)
from .limits import (
    AGREEMENTS,
    DEFAULT_SCHEDULE,
    LimitSchedule,
    aitken_accelerate,
    limit_estimate,
)
from .means import MeanRef, MeanSequence
from .values import Approx, RootValue, value_mid, values_close

Q = Fraction

Value = Union[Fraction, RootValue, Approx]

#: equality tolerance for means that only return certified estimates
INEXACT_TOL = Q(1, 2 ** 40)

#: the generic liminf/limsup search stops at this bracket width
_SEARCH_WIDTH = Q(1, 2 ** 44)


def _values_equal(k: MeanRef, a: Value, b: Value) -> bool:
    """Exactly equal rationals of an exact mean, else within INEXACT_TOL."""
    exact = k.exact and all(isinstance(v, (Fraction, int)) for v in (a, b))
    return a == b if exact else values_close(a, b, INEXACT_TOL)


# --------------------------------------------------------------------------
# liminf / limsup with respect to a mean


def _bound_by_search(k: MeanRef, h: RealSet, *, upper: bool) -> Value:
    """sup{x : K(H ∩ [x,∞)) = K(H)} (lower bound) or the mirrored
    inf{x : K(H ∩ (−∞,x]) = K(H)} (upper bound), by cuts at the points of
    the set that ``_probe_inside`` picks in the bracket (good, bad).

    The equality set is assumed to be a ray ending at the answer, which
    holds for monotone means; non-monotone means get a best-effort answer.
    Once H ∩ (good, bad) is empty, every cut in (good, bad] is the cut at
    bad, so the answer is exactly ``good``; where interval mass, a nested
    cluster or terms within 2^-44 of a limit stay inside, the search stops
    at width 2^-44 with an ``Approx``.

    The cut sets at the two ends of the bracket are kept, and a cut equal
    (``==``) to one of them, which is the same set, takes that end's
    answer without evaluating the mean again.
    """
    base = k.evaluate(h)
    lo, hi = h.bounds()
    breaks = _breakpoints(h)
    ends: dict[bool, RealSet] = {}  # answer -> the cut set at that end

    def pred(x: Fraction) -> bool:
        try:
            sl = slice_le(h, x) if upper else slice_ge(h, x)
        except MeanlabError:
            return False
        for answer, end in ends.items():
            if sl == end:
                return answer
        try:
            answer = (not sl.is_empty
                      and _values_equal(k, k.evaluate(sl), base))
        except MeanlabError:
            answer = False
        ends[answer] = sl  # the caller moves that end of the bracket to x
        return answer

    # upper: pred(sup) is true by construction; find the smallest true x.
    # lower: pred(inf) is true; find the largest true x.
    # invariant: pred(good), not pred(bad)
    first, good, bad = (lo, hi, lo) if upper else (hi, lo, hi)
    if pred(first):
        return first
    while True:
        x = _probe_inside(h, breaks, min(good, bad), max(good, bad),
                          _SEARCH_WIDTH)
        if x is None:
            return good
        if abs(good - bad) <= _SEARCH_WIDTH:
            return Approx((good + bad) / 2, abs(good - bad) / 2)
        if pred(x):
            good = x
        else:
            bad = x


def liminf_by_mean(k: MeanRef, h: RealSet) -> Value:
    """The largest x below which the set can be cut without moving the mean:
    sup{x : K(H ∩ [x, ∞)) = K(H)}.

    The mean's ``bounds`` hook answers exactly where it has one. Other
    means search the set's breakpoints: exact when the cut predicate flips
    across a gap of the set, else a 2^-44 ``Approx`` (inside interval
    mass, a nested cluster, or within 2^-44 of a cluster limit).
    """
    if h.is_empty:
        raise DomainViolation("mean bounds need a nonempty set")
    if k.bounds is not None:
        return k.bounds(h)[0]
    return _bound_by_search(k, h, upper=False)


def limsup_by_mean(k: MeanRef, h: RealSet) -> Value:
    """inf{x : K(H ∩ (−∞, x]) = K(H)}; from the ``bounds`` hook where the
    mean has one (the essential supremum for the plain length average),
    else exact or a 2^-44 bracket as for ``liminf_by_mean``."""
    if h.is_empty:
        raise DomainViolation("mean bounds need a nonempty set")
    if k.bounds is not None:
        return k.bounds(h)[1]
    return _bound_by_search(k, h, upper=True)


def core_restriction_check(k: MeanRef, h: RealSet) -> bool:
    """Does restricting the set to [liminf, limsup] (by the mean) keep the
    mean unchanged?"""
    li = liminf_by_mean(k, h)
    ls = limsup_by_mean(k, h)
    a, b = value_mid(li), value_mid(ls)
    core = set_intersect(h, from_interval(a, b))
    if core.is_empty:
        return False
    try:
        return _values_equal(k, k.evaluate(core), k.evaluate(h))
    except MeanlabError:
        return False


# --------------------------------------------------------------------------
# accumulation points by a mean


def acc_points_by_mean(k: MeanRef, h: RealSet) -> RealSet:
    """The set of points near which some removable piece would change the
    mean (removal that exits the mean's domain counts as a change).

    Supported exactly by the mean's ``acc_points`` hook: the essential
    support for the plain length average and its conjugates, and the
    finite arithmetic mean and the deep-derived mean (not their conjugates).
    """
    if k.acc_points is None:
        raise UnsupportedMean(
            f"no structural accumulation-point evaluation for {k.id}")
    return k.acc_points(h)


def is_k_closed(k: MeanRef, h: RealSet) -> bool:
    """Does the set contain all of its accumulation points by the mean?"""
    return subset_of(acc_points_by_mean(k, h), h)


# --------------------------------------------------------------------------
# derivative-like quantities


def d_mean(k: MeanRef, h: RealSet, x, schedule: LimitSchedule = DEFAULT_SCHEDULE
           ) -> tuple[Value, Value, Optional[Fraction]]:
    """Difference quotient (K(ball(x, δ) ∩ H) − x)/δ along shrinking δ.

    Returns (lower, upper, exact_hint): equal exact values when the
    quotient is eventually constant, otherwise a bracket from the
    accelerated tail. The hint is the mean's ``occupancy`` hook: for the
    plain length average (``avg1`` itself, not a conjugate of it), the
    closed-form value when the point sits on interval mass.
    """
    x = Q(x)
    quotients: list[Fraction] = []
    for n in schedule.indices:
        delta = Q(1, n)
        ball = from_interval(x - delta, x + delta, False, False)
        sl = set_intersect(h, ball)
        if sl.is_empty:
            raise DomainExit(
                f"the ball of radius 1/{n} around {x} misses the set")
        try:
            v = k.evaluate(sl)
        except MeanlabError as e:
            raise DomainExit(
                f"the slice at radius 1/{n} leaves the mean's domain: {e}")
        quotients.append((value_mid(v) - x) / delta)
    hint = k.occupancy(h, x) if k.occupancy is not None else None
    tail = quotients[-AGREEMENTS:]
    if all(t == tail[0] for t in tail):
        return tail[0], tail[0], hint
    acc = aitken_accelerate(quotients)
    tail = acc[-AGREEMENTS:]
    lo, hi = min(tail), max(tail)
    spread = max(hi - lo, schedule.tolerance)
    return Approx(lo, spread), Approx(hi, spread), hint


def d_probe(k: MeanRef, h: RealSet, side: str,
            schedule: LimitSchedule = DEFAULT_SCHEDULE
            ) -> tuple[Value, Optional[Fraction]]:
    """Rate of change of the mean when a vanishing interval is appended at
    the supremum (side="sup_append") or infimum (side="inf_append").

    Exact by the mean's ``append_rate`` hook, which only the plain length
    average sets; a conjugate of it takes the generic probe.
    """
    if side not in ("sup_append", "inf_append"):
        raise BadParameters("side must be sup_append or inf_append")
    if not h.is_compact_rep():
        raise NotCompact("the probe needs a compact set")
    if k.append_rate is not None:
        exact = k.append_rate(h, side)
        return exact, exact

    a, b = h.bounds()
    base = value_mid(k.evaluate(h))

    def sampler(n: int) -> Fraction:
        eps = Q(1, n)
        if side == "sup_append":
            probe = set_union(h, from_interval(b, b + eps))
        else:
            probe = set_union(h, from_interval(a - eps, a))
        return (value_mid(k.evaluate(probe)) - base) / eps

    return limit_estimate(sampler, schedule, label="append probe"), None


def extremal_avg(a, b, h) -> tuple[Fraction, Fraction]:
    """Range of the length average over subsets of [a, b] carrying total
    length h: the minimum a + h/2 (attained by [a, a+h]) and the maximum
    b − h/2 (attained by [b−h, b])."""
    a, b, h = Q(a), Q(b), Q(h)
    if not a < b:
        raise BadParameters("need a < b")
    if not (0 < h < b - a):
        raise BadParameters("need 0 < h < b - a")
    return a + h / 2, b - h / 2


# --------------------------------------------------------------------------
# sequences of means: uniform convergence


def grid_family(m: int) -> RealSet:
    """[1,2] together with the m-step grid on [0,1]; converges to [0,2] in
    the Hausdorff metric while carrying length only on [1,2]."""
    if m < 1:
        raise BadParameters("the grid family needs m >= 1")
    pts = [Q(kk, m) for kk in range(m + 1)]
    return set_union(from_interval(Q(1), Q(2)), from_points(*pts))


def uniformity_witness_at(seq: MeanSequence, k_limit: MeanRef,
                          family: Callable[[int], RealSet], epsilon,
                          n: int) -> Optional[RealSet]:
    """Search the family (doubling the index) for a set where the stage-n
    mean sits at least epsilon away from the limit mean."""
    epsilon = Q(epsilon)
    cap = max(8 * n + 16, 64)
    m = 1
    while m <= cap:
        try:
            h = family(m)
            gap = abs(value_mid(seq.at(n).evaluate(h))
                      - value_mid(k_limit.evaluate(h)))
            if gap >= epsilon:
                return h
        except MeanlabError:
            pass
        m *= 2
    return None


def uniformity_witness(seq: MeanSequence, k_limit: MeanRef,
                       family: Callable[[int], RealSet], epsilon,
                       n_max: int) -> Optional[tuple[RealSet, int]]:
    """Evidence against uniform convergence: a family member and a stage n
    at which the stage mean misses the limit mean by at least epsilon."""
    n = n_max
    while n >= 1:
        h = uniformity_witness_at(seq, k_limit, family, epsilon, n)
        if h is not None:
            return h, n
        n //= 2
    return None
