"""Reference isolated-point stage means for differential tests.

This is the stage that ``meanlab.means.iso_n`` computed before it summed
the survivors of the excision by index range: it builds the surviving set
with ``set_diff`` and takes its ``amean``. It is slow but plain to read.
``tests/test_iso_stage.py`` checks every value and error of ``iso_n``
against it.
"""

from __future__ import annotations

from fractions import Fraction

from meanlab.errors import BadParameters, DomainViolation, EmptySet, EmptySlice
from meanlab.exactset import RealSet, derived, set_diff
from meanlab.means import amean
from meanlab.measure import fatten


def iso_n(h: RealSet, n: int) -> Fraction:
    """The mean of the points of h outside the open 1/n-neighborhood of
    the accumulation points, from the materialised remainder."""
    if n < 1:
        raise BadParameters("the neighborhood stage must be >= 1")
    if h.is_empty:
        raise EmptySet("mean of the empty set is undefined")
    if h.intervals:
        raise DomainViolation(
            "interval mass has no isolated points, so the isolated part "
            "is not dense in the set")
    d = derived(h)
    if d.is_empty:
        return amean(h)
    rem = set_diff(h, fatten(d, Fraction(1, n)))
    if rem.is_empty:
        raise EmptySlice("no points survive outside the neighborhood")
    return amean(rem)
