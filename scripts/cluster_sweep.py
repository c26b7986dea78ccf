#!/usr/bin/env python3
"""Cluster-pair sweep: set_diff, set_intersect and set_union on seeded
cluster pairs.

Draws pairs of harmonic and geometric clusters near 0 on both sides of
their limits, with and without the limit point, about a quarter of them
carrying child copies. The second cluster of a pair is often a partner
of the first: a multiple of its rule at the same limit, or a harmonic
cluster from another limit through one of its terms or of its child
copies' terms. For each pair it runs ``a \\ b``, ``a ∩ b``, ``b ∩ a``,
``a ∪ b`` and ``b ∪ a`` and prints one line each: the operation, a depth
tag (d1 when neither cluster has children, d2 otherwise), a short hash
of the answer's ``repr`` or of the error, and a judgement. An answer is
``ok`` when its membership agrees with the operation applied to the two
inputs' at every probe point (the clusters' limits, their first 12
terms, and the limit and first 12 terms of each child copy among them),
``wrong`` when it does not; a refusal reads ``error``. The sweep ends
with the counts and a digest of all the lines.

Run it on two checkouts and diff the outputs: a refactor that keeps
every answer prints byte-identical output. It imports meanlab from the
``src/`` of its own checkout and takes about thirty seconds on one core.

    python3 scripts/cluster_sweep.py > sweep.txt
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from collections import Counter
from fractions import Fraction as Q

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from meanlab.errors import MeanlabError  # noqa: E402
from meanlab.exactset import (  # noqa: E402
    Geometric,
    Harmonic,
    geometric_cluster,
    harmonic_cluster,
    make_cluster,
    placed_child,
    realset,
    set_diff,
    set_intersect,
    set_union,
)

SEEDS = (1, 3, 4)
PAIRS = 500
TERMS = 12


def _cluster(rng: random.Random, nested: bool):
    lim = Q(rng.randint(-2, 2), rng.choice((1, 2, 3)))
    above, include = rng.random() < 0.5, rng.random() < 0.5
    start = rng.randint(1, 3)
    if rng.random() < 0.5:
        c = harmonic_cluster(lim, c=Q(1, rng.randint(1, 4)), start=start,
                             above=above, include_limit=include)
    else:
        c = geometric_cluster(lim, c=Q(1, rng.randint(1, 4)),
                              q=Q(1, rng.randint(2, 3)), start=start,
                              above=above, include_limit=include)
    if not nested:
        return c
    tpl = (harmonic_cluster(Q(0), c=Q(1, 2), include_limit=rng.random() < 0.5)
           if rng.random() < 0.5
           else geometric_cluster(Q(0), c=Q(1, 2), q=Q(1, 2),
                                  above=False, include_limit=True))
    lo = c.start + rng.randint(0, 2)
    hi = None if rng.random() < 0.3 else lo + rng.randint(0, 3)
    return make_cluster(lim, above, c.rule, c.start, include, [(lo, hi, tpl)])


def _copies(cl) -> list:
    """The child copies among the first TERMS indices."""
    return [placed_child(cl, k) for k in range(cl.start, cl.start + TERMS)
            if cl.block_at(k) is not None]


def _marks(cl) -> list[Q]:
    """The limit and first TERMS terms of cl and of its child copies."""
    out = [cl.limit] + [cl.term(k) for k in range(cl.start, cl.start + TERMS)]
    for child in _copies(cl):
        out += [child.limit] + [child.term(k) for k in
                                range(child.start, child.start + TERMS)]
    return out


def _partner(rng: random.Random, cl, nested: bool):
    include = rng.random() < 0.5
    r = rng.random()
    if r < 0.3 and isinstance(cl.rule, Harmonic):
        return make_cluster(cl.limit, cl.above,
                            Harmonic(cl.rule.c * rng.randint(1, 3)),
                            rng.randint(1, 6), include)
    if r < 0.3 and isinstance(cl.rule, Geometric):
        q = cl.rule.q
        return make_cluster(cl.limit, cl.above,
                            Geometric(cl.rule.c * q ** rng.randint(-1, 2), q),
                            rng.randint(1, 4), include)
    if r < 0.8:  # through one of cl's terms or child-copy terms
        x = rng.choice(_marks(cl)[1:])
        c, m = Q(1, rng.randint(2, 6)), rng.randint(1, 4)
        above = rng.random() < 0.5
        return harmonic_cluster(x - c / m if above else x + c / m, c=c,
                                start=rng.randint(1, m), above=above,
                                include_limit=include)
    return _cluster(rng, nested)


def _pairs(seed: int):
    rng = random.Random(seed)
    for _ in range(PAIRS):
        a = _cluster(rng, rng.random() < 0.15)
        b = _partner(rng, a, rng.random() < 0.15)
        yield realset(clusters=[a]), realset(clusters=[b])


_OPS = (("diff", set_diff, lambda x, y: x and not y),
        ("meet", set_intersect, lambda x, y: x and y),
        ("meet_ba", lambda a, b: set_intersect(b, a), lambda x, y: x and y),
        ("join", set_union, lambda x, y: x or y),
        ("join_ba", lambda a, b: set_union(b, a), lambda x, y: x or y))


def _lines(a, b) -> list[str]:
    """One line per operation on the pair."""
    depth = "d2" if any(c.children for c in a.clusters + b.clusters) else "d1"
    probes = [(x, a.member(x), b.member(x))
              for x in {x for c in a.clusters + b.clusters for x in _marks(c)}]
    out = []
    for name, op, truth in _OPS:
        try:
            h = op(a, b)
        except MeanlabError as exc:
            text = f"{type(exc).__name__}: {exc}"
            verdict = "error"
        else:
            text = repr(h)
            verdict = ("ok" if all(h.member(x) == truth(ia, ib)
                                   for x, ia, ib in probes) else "wrong")
        short = hashlib.sha256(text.encode()).hexdigest()[:12]
        out.append(f"{name} {depth} {short} {verdict}")
    return out


def main() -> int:
    digest = hashlib.sha256()
    counts: Counter = Counter()
    for seed in SEEDS:
        for i, (a, b) in enumerate(_pairs(seed)):
            for line in _lines(a, b):
                line = f"{seed} {i} {line}"
                print(line)
                digest.update(line.encode() + b"\n")
                _, _, name, depth, _, verdict = line.split()
                counts[name, depth, verdict] += 1
    for key in sorted(counts):
        print(" ".join(key), counts[key])
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
