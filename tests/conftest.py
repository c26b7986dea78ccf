"""Shared test helpers: an independent membership oracle, probe-point
enumeration, seeded random set builders, and a read-only loader of the
benchmark's modules."""

import importlib.util
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

from meanlab.exactset import (
    RealSet,
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    realset,
    rule_offset,
    set_union,
)


def brute_member(h: RealSet, x) -> bool:
    """Membership decided from the raw representation, independently of the
    engine's member(). Depth-1 clusters only."""
    x = Q(x)
    for iv in h.intervals:
        if iv.lo < x < iv.hi:
            return True
        if x == iv.lo and iv.lo_closed:
            return True
        if x == iv.hi and iv.hi_closed:
            return True
    if x in h.points:
        return True
    for c in h.clusters:
        assert not c.children, "oracle handles depth-1 clusters only"
        if x == c.limit:
            if c.include_limit:
                return True
            continue
        if c.above != (x > c.limit):
            continue
        dx = abs(x - c.limit)
        k = c.start
        while True:
            off = rule_offset(c.rule, k)
            if off < dx:
                break
            if off == dx:
                return True
            k += 1
            assert k < c.start + 10 ** 6, "oracle ran away"
    return False


def probe_points(*sets: RealSet, terms: int = 20) -> list[Q]:
    """Rationals worth testing membership at: every representation feature,
    midpoints between features, and points outside the hull."""
    feats: set[Q] = set()
    for h in sets:
        for iv in h.intervals:
            feats.update((iv.lo, iv.hi))
        feats.update(h.points)
        for c in h.clusters:
            feats.add(c.limit)
            for k in range(c.start, c.start + terms):
                feats.add(c.term(k))
    ordered = sorted(feats)
    out = set(ordered)
    for a, b in zip(ordered, ordered[1:]):
        out.add((a + b) / 2)
    if ordered:
        out.add(ordered[0] - 1)
        out.add(ordered[-1] + 1)
    return sorted(out)


def random_union(rng: random.Random, *, max_parts: int = 3,
                 closed_only: bool = False, lo: int = -8,
                 hi: int = 8) -> RealSet:
    """Random nonempty union of intervals."""
    m = rng.randint(1, max_parts)
    cuts: set[Q] = set()
    while len(cuts) < 2 * m:
        cuts.add(Q(rng.randint(lo * 6, hi * 6), rng.choice((1, 2, 3, 6))))
    cs = sorted(cuts)
    out = None
    for i in range(m):
        a, b = cs[2 * i], cs[2 * i + 1]
        if closed_only:
            locl = hicl = True
        else:
            locl, hicl = rng.random() < 0.8, rng.random() < 0.8
        piece = from_interval(a, b, locl, hicl)
        out = piece if out is None else set_union(out, piece)
    return out


def random_points(rng: random.Random, *, count: int = 3, lo: int = -8,
                  hi: int = 8) -> RealSet:
    pts: set[Q] = set()
    while len(pts) < count:
        pts.add(Q(rng.randint(lo * 4, hi * 4), rng.choice((1, 2, 4))))
    return from_points(*pts)


def random_cluster_set(rng: random.Random, *, max_clusters: int = 2,
                       harmonic_c: Q = Q(1, 2)) -> RealSet:
    n = rng.randint(1, max_clusters)
    limits = rng.sample(range(-6, 6), n)
    clusters = []
    for lim in limits:
        above = rng.random() < 0.7
        include = rng.random() < 0.5
        if rng.random() < 0.5:
            clusters.append(harmonic_cluster(Q(lim), c=harmonic_c, start=2,
                                             above=above,
                                             include_limit=include))
        else:
            clusters.append(geometric_cluster(Q(lim), c=Q(1, 4), q=Q(1, 2),
                                              start=1, above=above,
                                              include_limit=include))
    return realset(clusters=clusters)


def random_mixed_set(rng: random.Random) -> RealSet:
    shape = rng.randrange(4)
    if shape == 0:
        return random_points(rng)
    if shape == 1:
        return random_union(rng)
    if shape == 2:
        return random_cluster_set(rng)
    return set_union(random_union(rng, max_parts=2),
                     random_points(rng, count=2, lo=9, hi=14))


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """The module ``bench/<name>.py``, loaded without writing to ``bench/``."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module
