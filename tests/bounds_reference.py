"""Reference mean bounds for differential tests.

This is the search that ``meanlab.analysis`` made before it searched the
set's own breakpoints: it halves the real bracket between the set's inf
and sup down to width 2^-44 and always answers an ``Approx``, however the
predicate flips. It is slow but plain to read. ``tests/test_analysis.py``
checks every bound of the breakpoint search against it.
"""

from __future__ import annotations

from fractions import Fraction

from meanlab.analysis import _SEARCH_WIDTH, _values_equal
from meanlab.errors import MeanlabError
from meanlab.exactset import RealSet, slice_ge, slice_le
from meanlab.means import MeanRef
from meanlab.values import Approx


def cut_holds(k: MeanRef, h: RealSet, base, x: Fraction, *,
              upper: bool) -> bool:
    """Does cutting H at x keep its mean ``base``: K(H ∩ (−∞, x]) = K(H)
    (upper), else K(H ∩ [x, ∞)) = K(H)? An engine error moves it."""
    try:
        sl = slice_le(h, x) if upper else slice_ge(h, x)
        return (not sl.is_empty
                and _values_equal(k, k.evaluate(sl), base))
    except MeanlabError:
        return False


def bound_by_bisection(k: MeanRef, h: RealSet, *, upper: bool):
    """sup{x : K(H ∩ [x,∞)) = K(H)} (upper=False) or the mirrored inf,
    as ``first`` when the cut there keeps the mean, else as the 2^-44
    bracket that halving the reals reaches."""
    base = k.evaluate(h)
    lo, hi = h.bounds()

    def pred(x: Fraction) -> bool:
        return cut_holds(k, h, base, x, upper=upper)

    first, good, bad = (lo, hi, lo) if upper else (hi, lo, hi)
    if pred(first):
        return first
    while abs(good - bad) > _SEARCH_WIDTH:
        mid = (good + bad) / 2
        if pred(mid):
            good = mid
        else:
            bad = mid
    return Approx((good + bad) / 2, abs(good - bad) / 2)
