"""Exact representation of finitely describable bounded real sets.

A ``RealSet`` is a normalized disjoint union of three component kinds:

* finitely many intervals with rational endpoints and open/closed flags,
* finitely many isolated rational points,
* finitely many ``Cluster`` structures: convergent sequences with a declared
  rational limit, a side (terms above or below the limit), an exact offset
  rule, and optionally nested child clusters placed in disjoint windows
  around terms, which makes iterated derived sets structurally decidable.

All arithmetic is exact rational arithmetic. The interval/point fragment is
encoded on a totally ordered key space ``(position, side)`` with side in
{-1, 0, +1} meaning "just below x", "exactly x", "just above x"; every
boolean operation reduces to closed key-range algebra, so open/closed
endpoint behavior is exact by construction. A key carries a monotone float
prefix, ``(float(x), x, side)``, so that keys compare as tuples in C: the
prefix decides only when the floats differ, and equal floats fall through
to the exact ``Fraction``.

A ``RealSet`` is the record of its sorted, merged key spans and its
clusters; intervals and points are views of the spans. The operations
hand their results to one normalizer, which builds the set: spans merged,
no point held by a cluster, clusters canonically based (geometric rules
rebased to start index 1, child templates centered at 0) with pairwise
disjoint hulls, apart from provably disjoint same-limit ladders.

Two clusters a and b with one limit and side meet by one rule
(``_shared_indices``), with s_a and s_b their first indices. For harmonic
rules c_a/k and c_b/m with c_b/c_a = p/q in lowest terms, the indices of a
whose terms are terms of b are the multiples of q from
q·max(⌈s_a/q⌉, ⌈s_b/p⌉). For geometric rules with one ratio, where a's term
k is b's term k + d, they are the k >= max(s_a, s_b - d); with no such d
there are none. Any other pair is refused. Union merges the two when one's
shared indices are all of it; difference keeps the terms of a before its
first shared index, and refuses when the shared indices skip some;
intersection is the shared indices as a cluster.

Two sets are equal exactly when their records are, by two rules that
``_normalize_spans`` alone applies, however the parts are grouped:

* R1, limits. A cluster limit in the set and in no cluster's hull is
  first a point of the spans, so it merges with any interval it touches.
  Only a limit left as an isolated point becomes ``include_limit``, on
  the first cluster at that limit in canonical order; every other cluster
  there has it off.
* R2, heads. In canonical order, each cluster without children takes back
  each point that is its previous term: a harmonic or mapped rule down to
  index 1, a geometric one rebased to start at 1 again. It stops when its
  hull would meet another cluster's hull, and at a point that is a head
  term of a cluster with a nearer limit (the lower limit on a tie).

Left open: nested clusters (no R2); same-ratio geometric ladders at one
limit, whose hulls meet, so neither takes a head; a term at an open end
of an interval, which stays a term; and a limit inside another hull, which
keeps its flag, so such a union may be refused.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, itemgetter
from typing import Callable, Iterable, Optional, Union

from .errors import (
    BadParameters,
    DomainViolation,
    EmptyDerivedSet,
    EmptySet,
    InfiniteLevel,
    OverlappingClusterWindows,
    UnrepresentableResult,
    UnsupportedDepth,
    ZeroScale,
)
from .funcs import Affine, Compose, MonotoneFunc

Q = Fraction

# Guard against astronomically large finite materializations (cutting a
# cluster at index ~10**9 is representable only by enumerating every head
# term, which is a resource boundary rather than a mathematical one).
MATERIALIZE_CAP = 200_000

# --------------------------------------------------------------------------
# key space: (position, side), side -1 = just below, 0 = at, +1 = just above,
# stored as (float prefix, position, side)

Key = tuple[float, Fraction, int]


def _rounded(x: Fraction) -> float:
    """x rounded to the nearest float, or ±inf past the float range.

    Rounding is monotone, so unequal results order the positions exactly;
    equal ones (ties, ±inf, or an underflow to ±0.0) leave it to x. The
    integer true division is what float(x) computes, at a third of the
    cost."""
    try:
        return x.numerator / x.denominator
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _key(x: Fraction, e: int) -> Key:
    return (_rounded(x), x, e)


def _point_span(p: Fraction) -> Span:
    k = _key(p, 0)
    return (k, k)


Span = tuple[Key, Key]  # closed range in key space, start <= end
_start = itemgetter(0)


def _merge_spans(spans: list[Span]) -> list[Span]:
    """Sort and coalesce closed key-ranges, fusing adjacent ones."""
    if not spans:
        return []
    spans = sorted(spans, key=_start)  # ties fuse whatever their order
    out = [spans[0]]
    for s in spans[1:]:
        last = out[-1]
        f, x, e = last[1]
        # s overlaps or touches last iff its start is at most the key just
        # after last's end; side 2 stands above every key at x
        if s[0] <= (f, x, e + 1):
            if s[1] > last[1]:
                out[-1] = (last[0], s[1])
        else:
            out.append(s)
    return out


def _span_intersect(a: list[Span], b: list[Span]) -> list[Span]:
    out: list[Span] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _span_diff(a: list[Span], b: list[Span]) -> list[Span]:
    """Key-ranges of a not covered by b; both sorted, b merged. One forward
    pass: the start index into b only moves ahead, so the cost is
    O(|a| + |b|).

    A span starts on side 0 or +1 and ends on side 0 or -1, so the key
    just below a start of b, or just above an end of b, is the same
    position one side over, and it still bounds a span."""
    out: list[Span] = []
    j, nb = 0, len(b)
    for lo, hi in a:
        while j < nb and b[j][1] < lo:
            j += 1  # ends before this span, so before every later one too
        cur: Optional[Key] = lo
        for k in range(j, nb):
            blo, bhi = b[k]
            if blo > hi:
                break
            if blo > cur:
                f, x, e = blo
                out.append((cur, (f, x, e - 1)))
            if bhi >= hi:
                cur = None
                break
            f, x, e = bhi
            cur = (f, x, e + 1)  # b is merged: b[k + 1] starts above it
        if cur is not None:
            out.append((cur, hi))
    return out


def _span_contains(spans: list[Span], x: Fraction) -> bool:
    key = _key(x, 0)
    top = (key[0], x, 2)
    i = bisect.bisect_right(spans, (top, top)) - 1
    while i >= 0:
        if spans[i][0] <= key <= spans[i][1]:
            return True
        if spans[i][1] < key:
            return False
        i -= 1
    return False


def _span_overlaps(spans: list[Span], lo: Key, hi: Key) -> bool:
    for s in spans:
        if s[0] > hi:
            break
        if s[1] >= lo:
            return True
    return False


def _reflect_spans(spans: list[Span]) -> list[Span]:
    return sorted(((-b[0], -b[1], -b[2]), (-a[0], -a[1], -a[2]))
                  for a, b in spans)


# --------------------------------------------------------------------------
# intervals


@dataclass(frozen=True, order=True)
class Interval:
    """A nonempty rational interval; degenerate [a,a] must be closed."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Q(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Q(self.hi))
        if self.lo > self.hi:
            raise BadParameters("interval endpoints out of order")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise BadParameters("half-open degenerate interval is empty")

    def span(self) -> Span:
        return (_key(self.lo, 0 if self.lo_closed else 1),
                _key(self.hi, 0 if self.hi_closed else -1))


# --------------------------------------------------------------------------
# offset rules


@dataclass(frozen=True)
class Harmonic:
    """offset(k) = c / k for k >= 1; c > 0."""

    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))
        if self.c <= 0:
            raise BadParameters("harmonic rule needs c > 0")


@dataclass(frozen=True)
class Geometric:
    """offset(k) = c * q**k for k >= 1; c > 0, 0 < q < 1."""

    c: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))
        object.__setattr__(self, "q", Q(self.q))
        if self.c <= 0:
            raise BadParameters("geometric rule needs c > 0")
        if not (0 < self.q < 1):
            raise BadParameters("geometric rule needs 0 < q < 1")


@dataclass(frozen=True)
class MappedRule:
    """Offsets of a monotone image of a native-rule sequence.

    offset(k) = |func(base_term(k)) - func(base_limit)| where base_term(k)
    is the k-th term of the underlying native sequence. func must be an
    exact monotone kind so terms stay rational. Mapped clusters never carry
    child blocks, so offset monotonicity is the only property required.
    """

    base: Union[Harmonic, Geometric]
    base_limit: Fraction
    base_above: bool
    func: MonotoneFunc

    def __post_init__(self):
        if not self.func.exact:
            raise BadParameters("mapped rule needs an exact transform")


Rule = Union[Harmonic, Geometric, MappedRule]


def rule_offset(rule: Rule, k: int) -> Fraction:
    if isinstance(rule, Harmonic):
        return rule.c / k
    if isinstance(rule, Geometric):
        return rule.c * rule.q ** k
    base_off = rule_offset(rule.base, k)
    t = rule.base_limit + base_off if rule.base_above else rule.base_limit - base_off
    return abs(rule.func.apply(t) - rule.func.apply(rule.base_limit))


def rule_gap(rule: Rule, k: int) -> Fraction:
    return rule_offset(rule, k) - rule_offset(rule, k + 1)


def rule_scaled(rule: Rule, factor: Fraction) -> Rule:
    """The rule with every offset multiplied by factor > 0."""
    if factor <= 0:
        raise BadParameters("offset scale factor must be positive")
    if factor == 1:
        return rule
    if isinstance(rule, Harmonic):
        return Harmonic(rule.c * factor)
    if isinstance(rule, Geometric):
        return Geometric(rule.c * factor, rule.q)
    return MappedRule(rule.base, rule.base_limit, rule.base_above,
                      Compose(Affine(factor, Q(0)), rule.func))


def _first_index(pred: Callable[[int], bool], start: int) -> int:
    """Smallest k >= start with pred(k), for a pred that is false up to
    some index and true from there on: doubling steps, then bisection."""
    if pred(start):
        return start
    step = 1
    while not pred(start + step):
        step *= 2
    lo, hi = start + step // 2, start + step  # not pred(lo), pred(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _max_k_offset_ge(rule: Rule, start: int, t: Fraction) -> Optional[int]:
    """Largest k >= start with offset(k) >= t, or None. Requires t > 0.

    A harmonic rule answers in closed form (c/k >= t exactly when
    k <= c/t); other rules find the first index whose offset is below t."""
    if t <= 0:
        raise BadParameters("offset threshold must be positive")
    if isinstance(rule, Harmonic):
        k = math.floor(rule.c / t)
        return k if k >= start else None
    k = _first_index(lambda j: rule_offset(rule, j) < t, start)
    return k - 1 if k > start else None


def _breakpoints(h: RealSet) -> list[Fraction]:
    """Sorted positions of h's span ends, cluster limits and cluster hull
    ends: a cut of h changes only at one of them or inside a component."""
    xs = {key[1] for s in h.spans for key in s}
    for c in h.clusters:
        xs.update((c.limit, c.inf(), c.sup()))
    return sorted(xs)


def _probe_inside(h: RealSet, breaks: list[Fraction], l: Fraction,
                  r: Fraction, near: Fraction) -> Optional[Fraction]:
    """A point strictly inside (l, r) to cut h at, or None when h ∩ (l, r)
    is empty (``breaks`` is ``_breakpoints(h)``): the middle breakpoint
    inside; else a term of the one bare cluster whose hull holds (l, r),
    the middle one by index, but first the first term at most ``near``
    from the limit when (l, r) reaches it; else the midpoint, for interval
    mass, nested clusters and same-limit ladders."""
    i, j = bisect.bisect_right(breaks, l), bisect.bisect_left(breaks, r)
    if i < j:
        return breaks[(i + j) // 2]
    # no breakpoint inside: each component holds all of (l, r) or none of it
    mid = (l + r) / 2
    held = [c for c in h.clusters if c.inf() <= l and r <= c.sup()]
    if _span_contains(h.spans, mid) or len(held) > 1 or (
            held and held[0].children):
        return mid
    if not held:
        return None
    c = held[0]
    lo, hi = sorted(abs(x - c.limit) for x in (l, r))  # offsets
    k = _max_k_offset_ge(c.rule, c.start, hi)  # offsets below hi from k + 1
    k_lo = c.start if k is None else k + 1
    if lo == 0:  # (l, r) reaches the limit
        k = _max_k_offset_ge(c.rule, c.start, near)
        k_near = c.start if k is None else k + (rule_offset(c.rule, k) > near)
        return c.term(max(k_near, k_lo))
    k_hi = _max_k_offset_ge(c.rule, c.start, lo)  # offsets above lo up to it
    if k_hi is not None and rule_offset(c.rule, k_hi) == lo:
        k_hi -= 1
    if k_hi is None or k_hi < k_lo:
        return None
    return c.term((k_lo + k_hi) // 2)


# --------------------------------------------------------------------------
# clusters


@dataclass(frozen=True)
class ChildBlock:
    """Indices [lo, hi] (hi None = unbounded) carrying scaled child copies."""

    lo: int
    hi: Optional[int]
    template: "Cluster"


@dataclass(frozen=True)
class Cluster:
    limit: Fraction
    above: bool
    rule: Rule
    start: int = 1
    include_limit: bool = False
    children: tuple[ChildBlock, ...] = ()

    def term(self, k: int) -> Fraction:
        off = rule_offset(self.rule, k)
        return self.limit + off if self.above else self.limit - off

    def window(self, k: int) -> Fraction:
        """Window radius around term(k); child copies live inside it and
        windows of distinct indices are disjoint by construction."""
        return rule_gap(self.rule, k) / 4

    def block_at(self, k: int) -> Optional[ChildBlock]:
        for b in self.children:
            if b.lo <= k and (b.hi is None or k <= b.hi):
                return b
        return None

    @property
    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(b.template.depth for b in self.children)

    def first_offset(self) -> Fraction:
        return rule_offset(self.rule, self.start)

    def sup(self) -> Fraction:
        if not self.above:
            return self.limit
        k = self.start
        b = self.block_at(k)
        if b is not None and b.template.above:
            return self.term(k) + self.window(k)
        return self.term(k)

    def inf(self) -> Fraction:
        if self.above:
            return self.limit
        k = self.start
        b = self.block_at(k)
        if b is not None and not b.template.above:
            return self.term(k) - self.window(k)
        return self.term(k)

    @cached_property
    def hull(self) -> tuple[Key, Key]:
        """Conservative key-range containing every element except the limit
        point, staying strictly on the cluster's side of the limit.

        Computed once per instance and kept in its ``__dict__``, which the
        dataclass's ``==``, ``hash`` and ``repr`` never look at."""
        if self.above:
            return (_key(self.limit, 1),
                    _key(self.term(self.start) + self.window(self.start), 0))
        return (_key(self.term(self.start) - self.window(self.start), 0),
                _key(self.limit, -1))


def make_cluster(limit, above: bool, rule: Rule, start: int = 1,
                 include_limit: bool = False,
                 children: Iterable[tuple[int, Optional[int], "Cluster"]] = ()) -> Cluster:
    """Validating, canonicalizing cluster constructor.

    Geometric rules are rebased to start index 1, child templates are
    recentered so their limit sits at 0, and child blocks must be sorted,
    disjoint, within range, with at most one unbounded block at the end.
    """
    limit = Q(limit)
    if start < 1:
        raise BadParameters("cluster start index must be >= 1")
    blocks: list[ChildBlock] = []
    open_ended = False
    prev_hi: Optional[int] = None
    for lo, hi, tpl in children:
        if open_ended:
            raise BadParameters("no child block may follow an unbounded one")
        if lo < start or (hi is not None and hi < lo):
            raise BadParameters("child block indices out of range")
        if blocks and prev_hi is not None and lo <= prev_hi:
            raise BadParameters("child blocks must be disjoint and sorted")
        if not isinstance(tpl, Cluster):
            raise BadParameters("child template must be a cluster")
        tpl0 = _canonical_cluster(tpl)
        if tpl0.limit != 0:
            tpl0 = cluster_affine(tpl0, Q(1), -tpl0.limit)
        blocks.append(ChildBlock(lo, hi, tpl0))
        prev_hi = hi
        open_ended = hi is None
    if isinstance(rule, Geometric) and start != 1:
        shift = start - 1
        rule = Geometric(rule.c * rule.q ** shift, rule.q)
        blocks = [ChildBlock(b.lo - shift, None if b.hi is None else b.hi - shift,
                             b.template) for b in blocks]
        start = 1
    return Cluster(limit, above, rule, start, include_limit, tuple(blocks))


def _canonical_cluster(cl: Cluster) -> Cluster:
    """Re-run the canonicalizing constructor on a raw Cluster object.

    A cluster the constructor would rebuild unchanged comes back as itself,
    so what it has cached (its hull) survives normalization."""
    if (not cl.children and isinstance(cl.limit, Fraction) and cl.start >= 1
            and not (isinstance(cl.rule, Geometric) and cl.start != 1)):
        return cl
    return make_cluster(cl.limit, cl.above, cl.rule, cl.start, cl.include_limit,
                        [(b.lo, b.hi, b.template) for b in cl.children])


def cluster_affine(cl: Cluster, a: Fraction, b: Fraction) -> Cluster:
    """Exact image of the cluster under x -> a*x + b, a != 0."""
    if a == 0:
        raise ZeroScale("scale factor must be nonzero")
    above = cl.above if a > 0 else not cl.above
    rule = rule_scaled(cl.rule, abs(a))
    children = tuple(ChildBlock(c.lo, c.hi, cluster_affine(c.template, a, Q(0)))
                     for c in cl.children)
    return Cluster(a * cl.limit + b, above, rule, cl.start, cl.include_limit,
                   children)


def cluster_tail(cl: Cluster, new_start: int) -> Cluster:
    """The sub-cluster of indices k >= new_start, canonically rebased."""
    if new_start <= cl.start:
        return cl
    blocks = []
    for b in cl.children:
        if b.hi is not None and b.hi < new_start:
            continue
        blocks.append((max(b.lo, new_start), b.hi, b.template))
    return make_cluster(cl.limit, cl.above, cl.rule, new_start,
                        cl.include_limit, blocks)


def placed_child(cl: Cluster, k: int) -> Cluster:
    """The child copy anchored at term(k): the template scaled to fill the
    window of radius window(k), with its limit moved onto the term."""
    b = cl.block_at(k)
    if b is None:
        raise BadParameters(f"index {k} carries no child copy")
    factor = cl.window(k) / b.template.first_offset()
    return cluster_affine(b.template, factor, cl.term(k))


def materialize_index(cl: Cluster, k: int):
    """('point', x) for a bare index, ('cluster', copy) for a child index."""
    if cl.block_at(k) is not None:
        return ("cluster", placed_child(cl, k))
    return ("point", cl.term(k))


def _bare_terms(cl: Cluster, k_lo: int, k_hi: int) -> list[Fraction]:
    """[cl.term(k) for k in k_lo..k_hi], built for a harmonic or geometric
    rule with integer arithmetic and one normalising Fraction per term."""
    rule = cl.rule
    ks = range(k_lo, k_hi + 1)
    if isinstance(rule, MappedRule):
        return [cl.term(k) for k in ks]
    ln, ld = cl.limit.numerator, cl.limit.denominator
    cn, cd = rule.c.numerator, rule.c.denominator
    a, d = ln * cd, ld * cd
    b = cn * ld if cl.above else -cn * ld
    if isinstance(rule, Harmonic):
        # limit ± c/k = (ln·cd·k ± cn·ld) / (ld·cd·k)
        return [Q(a * k + b, d * k) for k in ks]
    # limit ± c·q^k = (ln·cd·qd^k ± cn·ld·qn^k) / (ld·cd·qd^k)
    qn, qd = rule.q.numerator, rule.q.denominator
    pn, pd = qn ** k_lo, qd ** k_lo
    out = []
    for _ in ks:
        out.append(Q(a * pd + b * pn, d * pd))
        pn *= qn
        pd *= qd
    return out


def cluster_member(cl: Cluster, x: Fraction) -> bool:
    if x == cl.limit:
        return cl.include_limit
    off = x - cl.limit if cl.above else cl.limit - x
    if off <= 0:
        return False
    cands = set()
    k1 = _max_k_offset_ge(cl.rule, cl.start, off)
    if k1 is None:
        cands.add(cl.start)
    else:
        cands.update((k1, k1 + 1))
    for k in cands:  # _max_k_offset_ge answers no index below start
        if cl.block_at(k) is None:
            if cl.term(k) == x:
                return True
        else:
            if (abs(x - cl.term(k)) <= cl.window(k)
                    and cluster_member(placed_child(cl, k), x)):
                return True
    return False


def _cluster_reflect(cl: Cluster) -> Cluster:
    return cluster_affine(cl, Q(-1), Q(0))


def _covered_index_range(cl: Cluster, u: Key, v: Key) -> Optional[tuple[int, Optional[int]]]:
    """Indices k of an above-cluster whose term lies in the key-range [u, v].

    Returns (k_lo, k_hi) with k_hi None meaning the range reaches the limit
    (every sufficiently large index is covered), or None when empty.
    """
    limit = cl.limit
    _, vx, ve = v
    if vx <= limit:
        return None  # the range top is at or below the limit; terms are above
    k_ge = _max_k_offset_ge(cl.rule, cl.start, vx - limit)
    if k_ge is None:
        k_lo = cl.start
    elif ve >= 0 and cl.term(k_ge) == vx:
        k_lo = k_ge
    else:
        k_lo = k_ge + 1
    _, ux, ue = u
    if ux <= limit:
        k_hi: Optional[int] = None  # the range reaches down to the limit
    else:
        k_max = _max_k_offset_ge(cl.rule, cl.start, ux - limit)
        if k_max is None:
            return None
        if cl.term(k_max) == ux and ue == 1:
            k_max -= 1
        if k_max < cl.start:
            return None
        k_hi = k_max
    if k_hi is not None and k_lo > k_hi:
        return None
    return (max(k_lo, cl.start), k_hi)


def _envelope_below(cl: Cluster, key: Key) -> int:
    """Smallest k with term(k) plus window allowance strictly below key.

    Valid for above-clusters when pos(key) > limit; the envelope
    term(k) + window(k) is strictly decreasing in k, so the search is exact.
    """

    def below(k: int) -> bool:
        w = cl.window(k) if cl.children else Q(0)
        return _key(cl.term(k) + w, 0) < key

    return _first_index(below, cl.start)


def _with_include(cl: Cluster, flag: bool) -> Cluster:
    if cl.include_limit == flag:
        return cl
    out = Cluster(cl.limit, cl.above, cl.rule, cl.start, flag, cl.children)
    if "hull" in cl.__dict__:  # the hull leaves the limit out
        out.__dict__["hull"] = cl.hull
    return out


def _cut_parts(cl: Cluster, spans: list[Span]):
    """cl minus a span union as (clusters, points, runs). Exact.

    A run (c, k_lo, k_hi) stands for the bare terms of c, a cluster without
    children, from index k_lo to k_hi; a child copy that meets a span is cut
    in turn. Raises UnrepresentableResult when one cut would need more than
    MATERIALIZE_CAP explicit components.
    """
    include = cl.include_limit and not _span_contains(spans, cl.limit)
    relevant = _span_intersect(spans, [cl.hull])
    if not relevant:
        return [_with_include(cl, include)], [], []
    up = cl  # the ranges are found above the limit; a mirror keeps indices
    if not cl.above:
        up, relevant = _cluster_reflect(cl), _reflect_spans(relevant)

    covered: list[tuple[int, Optional[int]]] = []
    for u, v in relevant:
        r = _covered_index_range(up, u, v)
        if r is not None:
            covered.append(r)

    survivors: list[tuple[int, int]] = []
    cur: Optional[int] = cl.start
    # only the lowest span can reach the limit (k_hi None), and its range
    # sorts last
    for k_lo, k_hi in sorted(covered, key=lambda r: r[0]):
        if k_lo > cur:
            survivors.append((cur, k_lo - 1))
        if k_hi is None:
            cur = None
        else:
            cur = max(cur, k_hi + 1)
    tail_start = cur  # None when a span swallows the tail
    if tail_start is not None and cl.children:
        # push the tail start until child windows clear every span
        safe = _envelope_below(up, relevant[0][0])
        if safe > tail_start:
            survivors.append((tail_start, safe - 1))
            tail_start = safe
    if sum(k_hi - k_lo + 1 for k_lo, k_hi in survivors) > MATERIALIZE_CAP:
        raise UnrepresentableResult(
            "difference needs too many explicit components")

    clusters: list[Cluster] = []
    points: list[Fraction] = []
    if tail_start is not None:
        clusters.append(_with_include(cluster_tail(cl, tail_start), include))
    elif include:
        points.append(cl.limit)
    if not cl.children:
        # a span holding a term meets the hull, so it is in relevant, and
        # the term's index is not among the survivors
        return clusters, points, [(cl, k_lo, k_hi) for k_lo, k_hi in survivors]
    runs: list[tuple[Cluster, int, int]] = []
    for k_lo, k_hi in survivors:
        for k in range(k_lo, k_hi + 1):
            kind, obj = materialize_index(cl, k)
            if kind == "point":
                points.append(obj)
                continue
            w = cl.window(k)
            t = cl.term(k)
            if not _span_overlaps(spans, _key(t - w, 0), _key(t + w, 0)):
                clusters.append(obj)
            else:
                sub_c, sub_p, sub_r = _cut_parts(obj, spans)
                clusters += sub_c
                points += sub_p
                runs += sub_r
    return clusters, points, runs


def _cluster_minus_spans(cl: Cluster, spans: list[Span]):
    """Decompose cl minus a span union into (clusters, points). Exact."""
    clusters, points, runs = _cut_parts(cl, spans)
    for c, k_lo, k_hi in runs:
        points += _bare_terms(c, k_lo, k_hi)
    return clusters, points


def balanced_sum(xs: list, plus=add):
    """The sum of a nonempty list, added in balanced pairs of neighbours.

    Exact sums do not depend on the order, but n harmonic terms added left
    to right carry a denominator near lcm(1..n) through every one of n
    additions; in pairs, only the last few levels see it."""
    while len(xs) > 1:
        xs = [plus(a, b) for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0]


def _add_ratios(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for ratios held as reduced (numerator, denominator) pairs."""
    n, d = x[0] * y[1] + y[0] * x[1], x[1] * y[1]
    g = math.gcd(n, d)
    return n // g, d // g


def _run_sum(cl: Cluster, k_lo: int, k_hi: int) -> Fraction:
    """Sum of cl.term(k) for k_lo <= k <= k_hi, a run of bare terms:
    m·limit ± c·Σ1/k (harmonic), m·limit ± c·q^k_lo·(1 − q^m)/(1 − q)
    (geometric), or the terms themselves added up (mapped)."""
    rule, m = cl.rule, k_hi - k_lo + 1
    if isinstance(rule, Harmonic):
        off = rule.c * Q(*balanced_sum(
            [(1, k) for k in range(k_lo, k_hi + 1)], _add_ratios))
    elif isinstance(rule, Geometric):
        off = rule.c * rule.q ** k_lo * (1 - rule.q ** m) / (1 - rule.q)
    else:
        return balanced_sum(_bare_terms(cl, k_lo, k_hi))
    return m * cl.limit + (off if cl.above else -off)


def _cluster_intersects_span(cl: Cluster, s: Span) -> bool:
    """Exact test: does any element of the cluster lie in the key-range s?"""
    if cl.include_limit and s[0] <= _key(cl.limit, 0) <= s[1]:
        return True
    if not cl.above:
        rs = _reflect_spans([s])[0]
        return _cluster_intersects_span(_cluster_reflect(cl), rs)
    r = _covered_index_range(cl, s[0], s[1])
    if r is not None:
        k_lo, k_hi = r
        if k_hi is None:
            # infinitely many terms in range: bare terms, or whole shrinking
            # copies, eventually lie strictly inside
            return True
        for k in range(k_lo, k_hi + 1):
            if cl.block_at(k) is None:
                return True
            if _cluster_intersects_span(placed_child(cl, k), s):
                return True
    # a child window can straddle a range edge without its term inside
    for edge in (s[0], s[1]):
        pos = edge[1]
        off = pos - cl.limit
        if off <= 0:
            continue
        k1 = _max_k_offset_ge(cl.rule, cl.start, off)
        cands = {cl.start} if k1 is None else {k1, k1 + 1}
        for k in cands:
            if cl.block_at(k) is None:
                continue
            if abs(pos - cl.term(k)) <= cl.window(k):
                if _cluster_intersects_span(placed_child(cl, k), s):
                    return True
    return False


# --------------------------------------------------------------------------
# the RealSet


@dataclass(frozen=True, repr=False)
class RealSet:
    """A set recorded as its sorted, merged key spans and its clusters.

    Its only constructor takes those two tuples, already in normal form;
    ``realset``/``normalize`` build a set from raw parts. ``==`` and
    ``hash`` compare the record. ``intervals`` and ``points``, the views
    that ``repr`` prints, are built together on first read.
    """

    spans: tuple[Span, ...] = ()
    clusters: tuple[Cluster, ...] = ()

    @cached_property
    def _views(self) -> tuple[tuple[Interval, ...], tuple[Fraction, ...]]:
        return _span_views(self.spans)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._views[0]

    @property
    def points(self) -> tuple[Fraction, ...]:
        return self._views[1]

    def __repr__(self):
        return (f"RealSet(intervals={self.intervals!r}, "
                f"points={self.points!r}, clusters={self.clusters!r})")

    @property
    def is_empty(self) -> bool:
        return not (self.spans or self.clusters)

    def member(self, x) -> bool:
        x = Q(x)
        if _span_contains(self.spans, x):
            return True
        return any(cluster_member(c, x) for c in self.clusters)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """(inf, sup); raises EmptySet on the empty set."""
        if self.is_empty:
            raise EmptySet("the empty set has no bounds")
        los = [c.inf() for c in self.clusters]
        his = [c.sup() for c in self.clusters]
        if self.spans:
            los.append(self.spans[0][0][1])
            his.append(self.spans[-1][1][1])
        return min(los), max(his)

    def is_compact_rep(self) -> bool:
        """Closed and bounded as represented: every interval closed and
        every cluster limit, at every depth, included."""

        def closed_cluster(c: Cluster) -> bool:
            return c.include_limit and all(closed_cluster(b.template)
                                           for b in c.children)

        return (all(lo[2] == hi[2] == 0 for lo, hi in self.spans)
                and all(closed_cluster(c) for c in self.clusters))

    def is_finite(self) -> bool:
        return not self.clusters and all(lo == hi for lo, hi in self.spans)

    def component_count(self) -> int:
        return len(self.spans) + len(self.clusters)


EMPTY = RealSet()


def _span_views(spans) -> tuple[tuple[Interval, ...], tuple[Fraction, ...]]:
    """The intervals and the points of sorted, merged key spans."""
    intervals: list[Interval] = []
    points: list[Fraction] = []
    for s in spans:
        (_, x, ex), (_, y, ey) = s
        if s[0] == s[1]:  # a start side is 0 or 1 and an end side 0 or -1
            points.append(x)
        else:
            intervals.append(Interval(x, y, ex == 0, ey == 0))
    return tuple(intervals), tuple(points)


def _geom_power_shift(a: Geometric, b: Geometric) -> Optional[int]:
    """d with a.c == b.c * b.q**d when it exists (same q assumed)."""
    v, q, d = a.c / b.c, a.q, 0
    while v < 1:
        v, d = v / q, d + 1
    while v > 1:  # runs after the loop above only when it overshot
        v, d = v * q, d - 1
    return d if v == 1 else None


def _shared_indices(a: Cluster, b: Cluster, op: str) -> Optional[tuple[int, int]]:
    """The indices of a whose terms are terms of b, for two clusters with
    one limit and side: (first, step), meaning first, first + step, ...;
    None when they share no term. op names the operation in a refusal."""
    if type(a.rule) is not type(b.rule) or isinstance(a.rule, MappedRule):
        raise UnrepresentableResult(
            f"same-limit cross-family {op} is not decidable here")
    if isinstance(a.rule, Harmonic):
        # c_a/k = c_b/m needs m = k*p/q integral: k a multiple of q
        ratio = b.rule.c / a.rule.c
        p, q = ratio.numerator, ratio.denominator
        return q * max(-(-a.start // q), -(-b.start // p)), q
    if a.rule.q != b.rule.q:
        raise UnrepresentableResult(f"geometric {op} with mismatched ratios")
    d = _geom_power_shift(a.rule, b.rule)
    if d is None:
        return None
    return max(a.start, b.start - d), 1  # a's term k is b's term k + d


def _merge_same_side_clusters(a: Cluster, b: Cluster) -> Optional[Cluster]:
    """Union of two clusters with one limit and side as one cluster, when
    one holds every term of the other; None when they share no term.
    Raises OverlappingClusterWindows for any other pair."""
    try:
        shared = _shared_indices(a, b, "union")
        if shared is None:
            return None
        if not (a.children or b.children):
            inc = a.include_limit or b.include_limit
            if shared == (a.start, 1):  # every term of a is in b
                return _with_include(b, inc)
            if _shared_indices(b, a, "union") == (b.start, 1):
                return _with_include(a, inc)
    except UnrepresentableResult:
        pass
    raise OverlappingClusterWindows(
        "same-limit clusters with entangled term sets")


def _hulls_overlap(a: Cluster, b: Cluster) -> bool:
    alo, ahi = a.hull
    blo, bhi = b.hull
    return alo <= bhi and blo <= ahi


def normalize(intervals: Iterable[Interval] = (), points: Iterable = (),
              clusters: Iterable[Cluster] = ()) -> RealSet:
    """Normal-form RealSet from raw parts describing their union."""
    spans = [iv.span() for iv in intervals]
    spans += [_point_span(p if isinstance(p, Fraction) else Q(p))
              for p in points]
    return _normalize_spans(spans, clusters)


def _normalize_spans(spans: list[Span], clusters: Iterable[Cluster]) -> RealSet:
    """Normal-form RealSet of the union of key spans and clusters, by the
    rules R1 and R2 of the module docstring."""
    work = [_canonical_cluster(c) for c in clusters]
    # R1; a lone cluster's limit meets nothing, so it keeps its flag
    limits = [c.limit for c in work if c.include_limit and not any(
        o.hull[0] <= _key(c.limit, 0) <= o.hull[1] for o in work)] \
        if spans or len(work) > 1 else []
    spans = _merge_spans([*spans, *map(_point_span, limits)])
    work = [_with_include(c, False) if c.limit in limits else c for c in work]
    points = True
    while points:  # cut every cluster by the spans until no cut leaves points
        cuts = [_cluster_minus_spans(c, spans) for c in work]
        work = [c for parts, _ in cuts for c in parts]
        points = [_point_span(p) for _, pts in cuts for p in pts]
        spans = _merge_spans(spans + points) if points else spans
    final: list[Cluster] = []
    while work:
        c = work.pop()
        for i, other in enumerate(final):
            if not _hulls_overlap(c, other):
                continue
            if c.limit != other.limit or c.above != other.above:
                raise OverlappingClusterWindows(
                    "cluster hulls overlap; the representation requires "
                    "separated clusters")
            merged = _merge_same_side_clusters(c, other)
            if merged is not None:  # None: provably disjoint ladders
                del final[i]
                work.append(merged)
                break
        else:
            final.append(c)
    if len(final) > 1:  # the key redoes each cluster's term arithmetic
        final.sort(key=_cluster_order)
    if not (spans and final):
        return RealSet(tuple(spans), tuple(final))
    return _place_points(spans, final)


def _cluster_order(c: Cluster):
    return (c.inf(), c.sup(), not c.above, repr(c.rule))


def _place_points(spans: list[Span], clusters: list[Cluster]) -> RealSet:
    """The set of merged spans and of cut, separated clusters in canonical
    order, once each cluster has taken back its head (R2) and limit (R1)."""
    taken: set[int] = set()  # indices of the point spans a cluster took

    def point_at(x: Fraction) -> Optional[int]:
        s = _point_span(x)
        i = bisect.bisect_left(spans, s)
        if i < len(spans) and spans[i] == s and i not in taken:
            return i
        return None

    for n, c in enumerate(clusters):
        while not c.children:
            if isinstance(c.rule, Geometric):
                prev = Cluster(c.limit, c.above,
                               Geometric(c.rule.c / c.rule.q, c.rule.q))
            elif c.start > 1:
                prev = Cluster(c.limit, c.above, c.rule, c.start - 1)
            else:
                break
            p = prev.term(prev.start)
            i = point_at(p)
            if i is None or any(
                    _hulls_overlap(prev, o) or _claims_head(o, p, c.limit)
                    for m, o in enumerate(clusters) if m != n):
                break
            taken.add(i)
            c = clusters[n] = prev
    if len(clusters) > 1:
        clusters.sort(key=_cluster_order)
    for n, c in enumerate(clusters):
        i = point_at(c.limit)
        if i is not None:
            taken.add(i)
            clusters[n] = _with_include(c, True)
    if taken:
        spans = [s for i, s in enumerate(spans) if i not in taken]
    return RealSet(tuple(spans), tuple(clusters))


def _claims_head(o: Cluster, p: Fraction, limit: Fraction) -> bool:
    """Does p, the previous term of a cluster at limit, go to o (R2): is it
    a head term of o, and o's limit nearer, or as near and lower?"""
    d = p - o.limit if o.above else o.limit - p
    if (o.children or d <= o.first_offset()
            or (d, o.limit) >= (abs(p - limit), limit)):
        return False
    if isinstance(o.rule, Geometric):
        return _geom_power_shift(Geometric(d, o.rule.q), o.rule) is not None
    return cluster_member(Cluster(o.limit, o.above, o.rule), p)


realset = normalize


# --------------------------------------------------------------------------
# boolean operations


def set_union(*sets: RealSet) -> RealSet:
    """Union of any number of sets, normalized once."""
    spans: list[Span] = []
    clusters: list[Cluster] = []
    for h in sets:
        spans.extend(h.spans)
        clusters.extend(h.clusters)
    return _normalize_spans(spans, clusters)


def _cluster_cluster_diff(a: Cluster, b: Cluster):
    """Parts of a minus b, both normalized clusters.

    Two clusters with one limit and side whose hulls overlap share a tail
    of terms or none, found in closed form. Any other pair shares finitely
    many points: limit points, and terms at least half the distance between
    the limits from their own limit. a loses the ones that
    _cluster_cluster_intersect finds, through the one cut of a cluster.
    """
    if a.limit == b.limit and a.above == b.above and _hulls_overlap(a, b):
        if a.children or b.children:
            raise UnrepresentableResult(
                "difference of nested same-limit clusters is not supported")
        inc = a.include_limit and not b.include_limit
        shared = _shared_indices(a, b, "difference")
        if shared is None:
            return [_with_include(a, inc)], []  # provably disjoint
        first, step = shared
        if step > 1:
            raise UnrepresentableResult(
                "harmonic difference leaves a term set outside the class")
        pts = _bare_terms(a, a.start, first - 1)
        if inc:
            pts.append(a.limit)
        return [], pts
    _, shared = _cluster_cluster_intersect(a, b)
    return _cluster_minus_spans(a, sorted(map(_point_span, shared)))


def set_diff(a: RealSet, b: RealSet) -> RealSet:
    b_spans = b.spans
    spans = _span_diff(a.spans, b_spans)
    if not a.clusters and not b.clusters:
        return RealSet(tuple(spans))  # already canonical
    out_spans: list[Span] = []
    for s in spans:
        if s[0] == s[1]:
            if not any(cluster_member(c, s[0][1]) for c in b.clusters):
                out_spans.append(s)
            continue
        if not b.clusters:
            out_spans.append(s)
            continue
        # removing cluster elements from interval mass: endpoint hits trim
        # the interval; interior hits leave holes outside the class
        (_, sx, se), (_, sy, sye) = s
        if se == 0 and any(cluster_member(c, sx) for c in b.clusters):
            se = 1
        if sye == 0 and any(cluster_member(c, sy) for c in b.clusters):
            sye = -1
        trimmed = (_key(sx, se), _key(sy, sye))
        for c in b.clusters:
            if _cluster_intersects_span(c, trimmed):
                raise UnrepresentableResult(
                    "removing cluster points from an interval leaves holes "
                    "outside the class")
        out_spans.append(trimmed)
    out_clusters: list[Cluster] = []
    for c in a.clusters:
        parts_c, parts_p = _cluster_minus_spans(c, b_spans)
        for bc in b.clusters:
            next_c: list[Cluster] = []
            for pc in parts_c:
                r_c, r_p = _cluster_cluster_diff(pc, bc)
                next_c.extend(r_c)
                parts_p.extend(r_p)
            parts_c = next_c
        parts_p = [p for p in parts_p
                   if not any(cluster_member(bc, p) for bc in b.clusters)]
        out_clusters.extend(parts_c)
        out_spans.extend(map(_point_span, parts_p))
    return _normalize_spans(out_spans, out_clusters)


def _cluster_intersect_spans(cl: Cluster, spans: list[Span]):
    lo, hi = cl.hull
    if cl.include_limit:
        at = _key(cl.limit, 0)
        lo = min(lo, at)
        hi = max(hi, at)
    return _cluster_minus_spans(cl, _span_diff([(lo, hi)], spans))


def _cluster_cluster_intersect(a: Cluster, b: Cluster):
    """Parts of the intersection of two clusters."""
    pts: list[Fraction] = []
    if a.include_limit and cluster_member(b, a.limit):
        pts.append(a.limit)
    if b.include_limit and b.limit != a.limit and cluster_member(a, b.limit):
        pts.append(b.limit)
    if not _hulls_overlap(a, b):
        return [], pts
    if a.limit == b.limit and a.above == b.above:
        if a.children or b.children:
            raise UnrepresentableResult(
                "intersection of nested same-limit clusters is not supported")
        inc = a.include_limit and b.include_limit
        shared = _shared_indices(a, b, "intersection")
        if shared is None:
            return [], [a.limit] if inc else []
        first, step = shared
        if step > 1:
            return [Cluster(a.limit, a.above, Harmonic(a.rule.c / step),
                            first // step, inc, ())], []
        return [cluster_tail(_with_include(a, inc), first)], []
    # different limits: finitely many coincidences
    sep = abs(a.limit - b.limit) / 2
    for src, dst in ((a, b), (b, a)):
        k_far = _max_k_offset_ge(src.rule, src.start, sep)
        if k_far is None:
            continue
        if k_far - src.start + 1 > MATERIALIZE_CAP:
            raise UnrepresentableResult("coincidence scan too large")
        for k in range(src.start, k_far + 1):
            if src.block_at(k) is None:
                x = src.term(k)
                if cluster_member(dst, x) and x not in pts:
                    pts.append(x)
    return [], pts


def set_intersect(a: RealSet, b: RealSet) -> RealSet:
    a_spans, b_spans = a.spans, b.spans
    spans = _span_intersect(a_spans, b_spans)
    if not a.clusters and not b.clusters:
        return RealSet(tuple(spans))  # already canonical
    out_clusters: list[Cluster] = []
    for c in a.clusters:
        pc, pp = _cluster_intersect_spans(c, b_spans)
        out_clusters.extend(pc)
        spans.extend(map(_point_span, pp))
        for bc in b.clusters:
            ic, ip = _cluster_cluster_intersect(c, bc)
            out_clusters.extend(ic)
            spans.extend(map(_point_span, ip))
    for c in b.clusters:
        pc, pp = _cluster_intersect_spans(c, a_spans)
        out_clusters.extend(pc)
        spans.extend(map(_point_span, pp))
    return _normalize_spans(spans, out_clusters)


def slice_le(h: RealSet, y) -> RealSet:
    """h intersected with (-inf, y]."""
    y = Q(y)
    if h.is_empty:
        return EMPTY
    lo, _hi = h.bounds()
    return set_intersect(h, from_interval(min(lo, y) - 1, y))


def slice_ge(h: RealSet, y) -> RealSet:
    """h intersected with [y, +inf)."""
    y = Q(y)
    if h.is_empty:
        return EMPTY
    _lo, hi = h.bounds()
    return set_intersect(h, from_interval(y, max(hi, y) + 1))


def subset_of(a: RealSet, b: RealSet) -> bool:
    return set_diff(a, b).is_empty


# --------------------------------------------------------------------------
# images under monotone maps


def translate(h: RealSet, x) -> RealSet:
    return image_set(h, Affine(Q(1), Q(x)))


def scale(h: RealSet, a) -> RealSet:
    a = Q(a)
    if a == 0:
        raise ZeroScale("scaling a set by zero is not invertible")
    return image_set(h, Affine(a, Q(0)))


def reflect(h: RealSet, s=0) -> RealSet:
    """Reflection around the point s: x -> 2s - x."""
    return image_set(h, Affine(Q(-1), 2 * Q(s)))


def image_set(h: RealSet, f: MonotoneFunc) -> RealSet:
    """Exact image of a RealSet under an exact monotone map. An affine map
    keeps each cluster's own rule and child blocks; any other map wraps
    the rule in a MappedRule and refuses nested clusters."""
    if not f.exact:
        raise BadParameters("image sets need an exact transform")
    increasing = f.increasing

    def image(x: Fraction) -> Fraction:
        if not f.contains(x):
            raise DomainViolation("the set leaves the transform's domain")
        return f.apply(x)

    spans: list[Span] = []
    for lo, hi in h.spans:
        fx = image(lo[1])
        fy = fx if lo == hi else image(hi[1])
        if increasing:
            spans.append((_key(fx, lo[2]), _key(fy, hi[2])))
        else:  # the ends swap, and so do the sides of their keys
            spans.append((_key(fy, -hi[2]), _key(fx, -lo[2])))
    if isinstance(f, Affine):
        cls = [cluster_affine(c, f.slope, f.shift) for c in h.clusters]
    else:
        cls = []
        for c in h.clusters:
            if c.children:
                raise UnsupportedDepth(
                    "images of nested clusters are not supported")
            image(c.sup() if c.above else c.inf())  # the end off the limit
            if isinstance(c.rule, MappedRule):
                rule = MappedRule(c.rule.base, c.rule.base_limit,
                                  c.rule.base_above, Compose(f, c.rule.func))
            else:
                rule = MappedRule(c.rule, c.limit, c.above, f)
            cls.append(Cluster(image(c.limit), c.above == increasing, rule,
                               c.start, c.include_limit, ()))
    return _normalize_spans(spans, cls)


# --------------------------------------------------------------------------
# topology


def closure(h: RealSet) -> RealSet:
    def close_cluster(c: Cluster) -> Cluster:
        children = tuple(ChildBlock(b.lo, b.hi, close_cluster(b.template))
                         for b in c.children)
        return Cluster(c.limit, c.above, c.rule, c.start, True, children)

    spans = [((f, x, 0), (g, y, 0)) for (f, x, _), (g, y, _) in h.spans]
    return _normalize_spans(spans, [close_cluster(c) for c in h.clusters])


def interior(h: RealSet) -> RealSet:
    return _normalize_spans([((f, x, 1), (g, y, -1)) for (f, x, _), (g, y, _)
                             in h.spans if x != y], ())


def derived(h: RealSet) -> RealSet:
    """The set of accumulation points (the classical derived set)."""
    spans = [((f, x, 0), (g, y, 0)) for (f, x, _), (g, y, _) in h.spans
             if x != y]
    cls: list[Cluster] = []
    for c in h.clusters:
        dp, dc = _derived_cluster(c)
        spans.extend(map(_point_span, dp))
        cls.extend(dc)
    return _normalize_spans(spans, cls)


def _derived_cluster(c: Cluster):
    """(points, clusters) decomposition of the derived set of one cluster."""
    pts: list[Fraction] = [c.limit]
    cls: list[Cluster] = []
    for b in c.children:
        tpl = b.template
        if b.hi is not None:
            for k in range(b.lo, b.hi + 1):
                if tpl.depth == 1:
                    pts.append(c.term(k))
                else:
                    sub_p, sub_c = _derived_cluster(placed_child(c, k))
                    pts.extend(sub_p)
                    cls.extend(sub_c)
            continue
        # unbounded block: the anchors themselves accumulate at the limit
        anchors = cluster_tail(c, b.lo)
        if tpl.depth == 1:
            cls.append(Cluster(anchors.limit, anchors.above, anchors.rule,
                               anchors.start, True, ()))
        else:
            sub_p, sub_c = _derived_cluster(tpl)
            if len(sub_c) == 1 and all(p == tpl.limit for p in sub_p):
                sub = sub_c[0]
            else:
                raise UnrepresentableResult(
                    "derived set of this nesting shape is not supported")
            cls.append(Cluster(anchors.limit, anchors.above, anchors.rule,
                               anchors.start, True,
                               (ChildBlock(anchors.start, None, sub),)))
    return pts, cls


def derived_iter(h: RealSet, n: int) -> RealSet:
    if n < 0:
        raise BadParameters("derived iteration count must be >= 0")
    cur = h
    for _ in range(n):
        cur = derived(cur)
    return cur


def level(h: RealSet) -> int:
    """Largest n with the n-th derived set nonempty.

    Finite point sets have level 0; interval mass makes every derived set
    nonempty. A cluster has level 1 at least, a bounded block of child
    copies its template's level, and an unbounded block one more, since
    those copies accumulate at the cluster's limit.
    """
    if h.is_empty:
        raise EmptySet("level of the empty set is undefined")
    if any(lo != hi for lo, hi in h.spans):
        raise InfiniteLevel("interval components make every derived set nonempty")
    if not h.clusters:
        return 0
    return max(map(_cluster_level, h.clusters))


def _cluster_level(c: Cluster) -> int:
    return max([1] + [_cluster_level(b.template) + (b.hi is None)
                      for b in c.children])


def acc_bounds(h: RealSet) -> tuple[Fraction, Fraction]:
    """(inf, sup) of the derived set: the accumulation bounds."""
    d = derived(h)
    if d.is_empty:
        raise EmptyDerivedSet("finite sets have no accumulation points")
    return d.bounds()


# --------------------------------------------------------------------------
# convenience constructors


def from_interval(lo, hi, lo_closed=True, hi_closed=True) -> RealSet:
    return RealSet((Interval(lo, hi, lo_closed, hi_closed).span(),))


def from_points(*xs) -> RealSet:
    return normalize((), xs, ())


def harmonic_cluster(limit, c=1, start=1, above=True, include_limit=False,
                     children=()) -> Cluster:
    return make_cluster(Q(limit), above, Harmonic(Q(c)), start, include_limit,
                        children)


def geometric_cluster(limit, c, q, start=1, above=True, include_limit=False,
                      children=()) -> Cluster:
    return make_cluster(Q(limit), above, Geometric(Q(c), Q(q)), start,
                        include_limit, children)
