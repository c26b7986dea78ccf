"""Exact measure-side computations on RealSets.

Length (Lebesgue) measure, first moments, piecewise-constant density
measures, open neighborhood fattening with exact merge indices, and the
Hausdorff distance for interval/point sets. Everything returns Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    BadParameters,
    EmptySet,
    NullSet,
    OutsideSupport,
    UnsupportedDepth,
)
from .exactset import (
    Cluster,
    Geometric,
    Harmonic,
    Interval,
    RealSet,
    Rule,
    _bare_terms,
    _first_index,
    _key,
    _normalize_spans,
    closure,
    rule_gap,
    rule_offset,
)
from .values import parse_rational_text

Q = Fraction


def lebesgue(h: RealSet) -> Fraction:
    """Total length of the interval mass; points and clusters are null."""
    return sum((hi[1] - lo[1] for lo, hi in h.spans if lo != hi), Q(0))


def moment(h: RealSet) -> Fraction:
    """First moment of the interval mass: sum of integrals of x dx, each
    (hi - lo)(hi + lo)/2, halved once at the end."""
    return sum(((hi[1] - lo[1]) * (hi[1] + lo[1]) for lo, hi in h.spans
                if lo != hi), Q(0)) / 2


def support(h: RealSet) -> RealSet:
    """Essential support: the closed interval mass (null parts dropped)."""
    return _normalize_spans([((lo[0], lo[1], 0), (hi[0], hi[1], 0))
                             for lo, hi in h.spans if lo != hi], ())


def essential_bounds(h: RealSet) -> tuple[Fraction, Fraction]:
    """(inf, sup) of the interval mass; NullSet when there is none."""
    ivs = [(lo[1], hi[1]) for lo, hi in h.spans if lo != hi]
    if not ivs:
        raise NullSet("the set carries no length; essential bounds undefined")
    return ivs[0][0], ivs[-1][1]


# --------------------------------------------------------------------------
# piecewise-constant density measures


@dataclass(frozen=True)
class DensityMeasure:
    """A measure with piecewise-constant density against length.

    pieces: sorted, non-overlapping (interval, density) pairs with density
    > 0. Everything outside the pieces carries no mass.
    """

    pieces: tuple[tuple[Interval, Fraction], ...]

    def __post_init__(self):
        prev_hi: Optional[Fraction] = None
        for iv, dens in self.pieces:
            if dens <= 0:
                raise BadParameters("density values must be positive")
            if iv.lo >= iv.hi:
                raise BadParameters("density pieces need positive length")
            if prev_hi is not None and iv.lo < prev_hi:
                raise BadParameters("density pieces must be sorted and disjoint")
            prev_hi = iv.hi

    @staticmethod
    def from_parts(parts: Iterable[tuple[Fraction, Fraction, Fraction]]) -> "DensityMeasure":
        return DensityMeasure(tuple(sorted(
            (Interval(Q(lo), Q(hi)), Q(d)) for lo, hi, d in parts)))

    @staticmethod
    def parse(text: str) -> "DensityMeasure":
        """Read the text form ``lo,hi,weight[;lo,hi,weight...]``."""
        parts = []
        for piece in text.split(";"):
            fields = piece.split(",")
            if len(fields) != 3:
                raise BadParameters(
                    "density pieces are 'lo,hi,weight' separated by ';'")
            parts.append(tuple(map(parse_rational_text, fields)))
        return DensityMeasure.from_parts(parts)

    def text(self) -> str:
        """The text form that ``parse`` reads, pieces in order."""
        return ";".join(f"{iv.lo},{iv.hi},{d}" for iv, d in self.pieces)


def _overlap(a_lo, a_hi, b_lo, b_hi) -> tuple[Fraction, Fraction]:
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    return (lo, hi) if lo < hi else (Q(0), Q(0))


def mu_mass_moment(h: RealSet,
                   mu: DensityMeasure) -> tuple[Fraction, Fraction]:
    """(mu(h), integral of x over h against mu) in one pass; raises
    OutsideSupport when h has length outside the pieces."""
    mass = first = Q(0)
    for start, end in h.spans:
        if start == end:
            continue  # a point carries no mass
        x, y = start[1], end[1]
        covered = Q(0)
        for piece, dens in mu.pieces:
            lo, hi = _overlap(x, y, piece.lo, piece.hi)
            covered += hi - lo
            mass += dens * (hi - lo)
            first += dens * (hi * hi - lo * lo) / 2
        if covered < y - x:
            raise OutsideSupport(
                "part of the set carries length outside the measure's support")
    return mass, first


# --------------------------------------------------------------------------
# fattening: the open delta-neighborhood


def _native_depth1(c: Cluster) -> None:
    if c.children:
        raise UnsupportedDepth(
            "this operation supports plain depth-1 sequence components")
    if not isinstance(c.rule, (Harmonic, Geometric)):
        raise UnsupportedDepth(
            "this operation supports harmonic/geometric rules only")


def _merge_index(rule: Rule, start: int, threshold: Fraction) -> int:
    """Smallest k >= start with gap(k) < threshold; native-rule gaps
    decrease strictly, so the search is exact."""
    return _first_index(lambda k: rule_gap(rule, k) < threshold, start)


def split_native(c: Cluster, threshold: Fraction) -> tuple[int, list[Fraction]]:
    """The merge index of a plain depth-1 harmonic/geometric cluster for
    threshold, and the head terms before it, whose gaps are >= threshold."""
    _native_depth1(c)
    k_merge = _merge_index(c.rule, c.start, threshold)
    return k_merge, _bare_terms(c, c.start, k_merge - 1)


def _runs(xs: Sequence[Fraction],
          width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """(first, last) of each maximal run of the sorted, distinct points xs
    in which consecutive points are less than width apart.

    A stretch narrower than width is one run whatever lies inside it, so
    halving only the wider stretches finds the runs without looking at
    every gap.
    """
    runs: list[tuple[Fraction, Fraction]] = []

    def walk(i: int, j: int) -> None:
        if xs[j] - xs[i] < width:
            if runs and xs[i] - runs[-1][1] < width:
                runs[-1] = (runs[-1][0], xs[j])
            else:
                runs.append((xs[i], xs[j]))
        else:
            m = (i + j) // 2
            walk(i, m)
            walk(m + 1, j)

    if xs:
        walk(0, len(xs) - 1)
    return runs


def fatten(h: RealSet, delta) -> RealSet:
    """The open delta-neighborhood: the union of (x - delta, x + delta)
    over the elements x of h. Exact; the result is a finite union of open
    intervals. Clusters must be plain depth-1 harmonic/geometric components.

    The points' balls come from ``_runs``: the point spans of a set are
    sorted and distinct, and each run of points closer than 2·delta gets
    one ball. Points exactly 2·delta apart leave the midpoint between
    their balls out.
    """
    delta = Q(delta)
    if delta <= 0:
        raise BadParameters("fattening radius must be positive")
    if h.is_empty:
        raise EmptySet("cannot fatten the empty set")

    def ball(lo, hi):  # the open span (lo - delta, hi + delta)
        return (_key(lo - delta, 1), _key(hi + delta, -1))

    spans = []
    points = []
    for lo, hi in h.spans:
        if lo == hi:
            points.append(lo[1])
        else:
            spans.append(ball(lo[1], hi[1]))
    spans += [ball(lo, hi) for lo, hi in _runs(points, 2 * delta)]
    for c in h.clusters:
        # Terms with consecutive gap < 2*delta chain together and connect
        # to the limit's neighborhood; earlier terms keep separate balls.
        k_merge, head = split_native(c, 2 * delta)
        reach = rule_offset(c.rule, k_merge)
        if c.above:
            spans.append(ball(c.limit, c.limit + reach))
        else:
            spans.append(ball(c.limit - reach, c.limit))
        spans += [ball(t, t) for t in head]
    return _normalize_spans(spans, ())


# --------------------------------------------------------------------------
# Hausdorff distance (interval/point sets)


def _closed_spans(h: RealSet) -> list[tuple[Fraction, Fraction]]:
    """The components of the closure of h as sorted closed [lo, hi] pairs."""
    return [(lo[1], hi[1]) for lo, hi in closure(h).spans]


def _dist_to_closed(x: Fraction, spans: list[tuple[Fraction, Fraction]]) -> Fraction:
    best: Optional[Fraction] = None
    for lo, hi in spans:
        if lo <= x <= hi:
            return Q(0)
        d = lo - x if x < lo else x - hi
        if best is None or d < best:
            best = d
    assert best is not None
    return best


def _directed_hausdorff(a: RealSet, b: RealSet) -> Fraction:
    """sup over x in a of dist(x, closure of b); both interval/point sets."""
    a_spans = _closed_spans(a)
    b_spans = _closed_spans(b)
    if not b_spans:
        raise EmptySet("distance to the empty set is undefined")
    candidates: list[Fraction] = []
    for lo, hi in a_spans:
        candidates.extend((lo, hi))
        # interior maxima of dist(., b) sit at midpoints of b's gaps
        for (l1, h1), (l2, h2) in zip(b_spans, b_spans[1:]):
            mid = (h1 + l2) / 2
            if lo < mid < hi:
                candidates.append(mid)
    return max((_dist_to_closed(x, b_spans) for x in candidates), default=Q(0))


def hausdorff_distance(a: RealSet, b: RealSet) -> Fraction:
    """Hausdorff distance between the closures of two interval/point sets."""
    if a.clusters or b.clusters:
        raise UnsupportedDepth(
            "hausdorff distance is implemented for interval/point sets")
    if a.is_empty or b.is_empty:
        raise EmptySet("hausdorff distance needs nonempty sets")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
