"""Reference cluster cuts for differential tests.

These are the cuts that ``meanlab.exactset`` made before it built a bare
cluster's head terms in bulk: every surviving index goes through
``materialize_index`` on its own, and every bare term is checked against
the spans with ``_span_contains``, a bisection per term. They are slow but
plain to read. ``tests/test_exactset.py`` installs them in place of the
bulk path and checks that every answer and error stays the same.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from meanlab.errors import UnrepresentableResult
from meanlab.exactset import (
    MATERIALIZE_CAP,
    Cluster,
    Span,
    _cluster_reflect,
    _covered_index_range,
    _envelope_below,
    _key,
    _reflect_spans,
    _span_contains,
    _span_intersect,
    _span_overlaps,
    _with_include,
    cluster_tail,
    materialize_index,
)


def bare_terms(cl: Cluster, k_lo: int, k_hi: int) -> list[Fraction]:
    """term(k) for k_lo..k_hi, one ``Cluster.term`` call each."""
    return [cl.term(k) for k in range(k_lo, k_hi + 1)]


def cluster_minus_spans(cl: Cluster, spans: list[Span]):
    """Decompose cl minus a span union into (clusters, points). Exact.

    Raises UnrepresentableResult when the remainder would need more than
    MATERIALIZE_CAP explicit components.
    """
    include = cl.include_limit and not _span_contains(spans, cl.limit)
    hull_lo, hull_hi = cl.hull
    relevant = _span_intersect(spans, [(hull_lo, hull_hi)])
    if not relevant:
        return [_with_include(cl, include)], []
    if not cl.above:
        rcl = _cluster_reflect(cl)
        rclusters, rpoints = cluster_minus_spans(rcl, _reflect_spans(spans))
        return [_cluster_reflect(c) for c in rclusters], [-p for p in rpoints]

    covered: list[tuple[int, Optional[int]]] = []
    for u, v in relevant:
        r = _covered_index_range(cl, u, v)
        if r is not None:
            covered.append(r)

    survivors: list[tuple[int, int]] = []
    cur: Optional[int] = cl.start
    for k_lo, k_hi in sorted(covered, key=lambda r: r[0]):
        if cur is None:
            break
        if k_lo > cur:
            survivors.append((cur, k_lo - 1))
        if k_hi is None:
            cur = None
        else:
            cur = max(cur, k_hi + 1)
    tail_start = cur  # None when a span swallows the tail

    out_clusters: list[Cluster] = []
    out_points: list[Fraction] = []

    if tail_start is not None:
        lowest = relevant[0][0]
        if cl.children:
            # push the tail start until child windows clear every span
            safe = _envelope_below(cl, lowest)
            if safe > tail_start:
                survivors.append((tail_start, safe - 1))
                tail_start = safe
        out_clusters.append(_with_include(cluster_tail(cl, tail_start), include))
    elif include:
        out_points.append(cl.limit)

    total = 0
    for k_lo, k_hi in survivors:
        total += k_hi - k_lo + 1
        if total > MATERIALIZE_CAP:
            raise UnrepresentableResult(
                "difference needs too many explicit components")
        for k in range(k_lo, k_hi + 1):
            kind, obj = materialize_index(cl, k)
            if kind == "point":
                if not _span_contains(spans, obj):
                    out_points.append(obj)
            else:
                w = cl.window(k)
                t = cl.term(k)
                if not _span_overlaps(spans, _key(t - w, 0), _key(t + w, 0)):
                    out_clusters.append(obj)
                else:
                    sub_c, sub_p = cluster_minus_spans(obj, spans)
                    out_clusters.extend(sub_c)
                    out_points.extend(sub_p)
    return out_clusters, out_points
