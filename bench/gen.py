"""Seeded request generators for the four benchmark workloads.

Every workload is a stream of *rounds*. A round holds a fixed mix of
request forms; only the random parameters inside each form change from
round to round, and each form draws its sizes from its own
equal-probability strata, so that a run of a few dozen rounds covers the
whole size range evenly. That keeps the mix, and so the timings, nearly the
same from one seed to the next.

A set is generated as a list of components laid out left to right with
gaps, so that components never touch or overlap and the reference answers
in ``reference.py`` can be computed component by component:

* ``("iv", lo, hi, lo_closed, hi_closed)`` an interval,
* ``("pts", (p, ...))`` a points literal,
* ``("harm", limit, c, start, below, with_limit)`` a harmonic cluster,
* ``("geom", limit, c, q, start, below, with_limit)`` a geometric cluster.

A request is a plain tuple that the worker runs against the program:

* ``("cli", argv, check)`` a ``meanlab.cli.main`` call,
* ``("lib", op, a, b, param, mean, check)`` a library-built set operation
  followed by a mean,
* ``("check", pid, mean, seed, trials)`` one property audit.

``check`` is what ``reference.py`` needs to judge the answer.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

# The shortened limit schedule every workload passes to the program:
# doubling indices 16 .. 2^12 instead of the default 16 .. 2^20.
MAX_N = 4096
MAX_N_ARGS = ["--max-n", str(MAX_N)]


def rat(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def comp_text(c) -> str:
    kind = c[0]
    if kind == "iv":
        _, lo, hi, lc, hc = c
        return f"{'[' if lc else '('}{rat(lo)},{rat(hi)}{']' if hc else ')'}"
    if kind == "pts":
        return "{" + ", ".join(rat(p) for p in c[1]) + "}"
    if kind == "harm":
        _, lim, cc, start, below, wl = c
        rule = f"harmonic({rat(cc)})"
    else:
        _, lim, cc, q, start, below, wl = c
        rule = f"geometric({rat(cc)},{rat(q)})"
    opts = (", side=below" if below else "") + (", with_limit" if wl else "")
    return f"seq(limit={rat(lim)}, rule={rule}, from={start}{opts})"


def set_text(comps, op: str = "u") -> str:
    return f" {op} ".join(comp_text(c) for c in comps)


class Strata:
    """Draws pick(u) for u in [0, 1): every ``count`` consecutive draws take
    one u from each of ``count`` equal-probability strata, in random order,
    so that a run of a few dozen rounds covers the range evenly. Without
    ``jitter`` u is the middle of its stratum."""

    def __init__(self, rng: random.Random, pick, count: int = 4,
                 jitter: bool = True):
        self.rng, self.pick, self.count = rng, pick, count
        self.jitter = jitter
        self.cells: list[int] = []

    def draw(self):
        if not self.cells:
            self.cells = list(range(self.count))
            self.rng.shuffle(self.cells)
        u = self.rng.random() if self.jitter else 0.5
        return self.pick((self.cells.pop() + u) / self.count)


def log_uniform(lo: int, hi: int):
    return lambda u: int(round(lo * (hi / lo) ** u))


# --------------------------------------------------------------------------
# small sets of 1-12 components


def _interval(rng, x: Q) -> tuple:
    w = Q(rng.randint(1, 8), 8)
    return ("iv", x, x + w, rng.random() < 0.5, rng.random() < 0.5)


def _points(rng, x: Q, count: int) -> tuple:
    pts, p = [], x
    for _ in range(count):
        pts.append(p)
        p += Q(rng.randint(1, 4), 8)
    return ("pts", tuple(pts))


def _cluster(rng, x: Q, kind: str, c_lo_exp: int = 1,
             c_hi_exp: int = 3) -> tuple:
    """A cluster whose hull starts at ``x`` and has width at most 1/2."""
    below = rng.random() < 0.5
    with_limit = rng.random() < 0.5
    c = Q(1, 2 ** rng.randint(c_lo_exp, c_hi_exp))
    start = rng.randint(1, 3)
    if kind == "harm":
        width = c / start
        lim = x + width if below else x
        return ("harm", lim, c, start, below, with_limit)
    q = Q(1, rng.choice((2, 3)))
    width = c * q ** start
    lim = x + width if below else x
    return ("geom", lim, c, q, start, below, with_limit)


def comp_end(c) -> Q:
    """Right end of a component's hull."""
    if c[0] == "iv":
        return c[2]
    if c[0] == "pts":
        return c[1][-1]
    if c[0] == "harm":
        _, lim, cc, start, below, _ = c
        return lim if below else lim + cc / start
    _, lim, cc, q, start, below, _ = c
    return lim if below else lim + cc * q ** start


# The program keeps a cluster's hull a window wider than its terms (up to
# the cluster's width of at most 1/2) and rejects a set whose cluster hulls
# overlap, so a cluster keeps this extra gap on both sides. The probe
# ``adjacent_clusters`` in ``known_failure_probes`` shows the rejection.
CLUSTER_MARGIN = Q(1, 2)


SMALL_KINDS = ("intervals", "points", "harmonic", "geometric",
               "intervals_points", "mixed")


def small_set(rng: random.Random, kind: str) -> list:
    """1-12 components of the given kind, laid out from a random origin."""
    count = rng.randint(1, 12)
    if kind == "intervals":
        makers = ["iv"] * count
    elif kind == "points":
        makers = ["pt"] * count
    elif kind == "harmonic":
        makers = ["harm"] + rng.choices(["harm", "pt"], k=min(count, 3) - 1)
    elif kind == "geometric":
        makers = ["geom"] + rng.choices(["geom", "pt"], k=min(count, 3) - 1)
    elif kind == "intervals_points":
        makers = ["iv"] + rng.choices(["iv", "pt"], k=count - 1)
    else:
        makers = ["iv", "harm", "geom"][:count] + \
            rng.choices(["iv", "pt", "harm", "geom"], k=max(0, count - 3))
        rng.shuffle(makers)
    x = Q(rng.randint(-32, 32), 4)
    comps, run = [], 0
    for i, m in enumerate(makers):
        if m == "pt":
            run += 1
            if i + 1 < len(makers) and makers[i + 1] == "pt":
                continue
            comps.append(_points(rng, x, run))
            run = 0
        elif m == "iv":
            comps.append(_interval(rng, x))
        else:
            x += CLUSTER_MARGIN
            comps.append(_cluster(rng, x, m))
        x = comp_end(comps[-1]) + Q(rng.randint(1, 8), 8)
        if comps[-1][0] in ("harm", "geom"):
            x += CLUSTER_MARGIN
    return comps


# --------------------------------------------------------------------------
# eval_mix


EVAL_MEANS = ("amean", "avg1", "m_acc", "iso", "eds", "avg_fat", "lavg",
              "m_iso", "m_eds", "m_mu", "avg_f_square", "exp_conjugate")
LIMIT_MEANS = ("lavg", "m_iso", "m_eds")


def density_for(rng, comps) -> tuple:
    """1-3 density pieces that together cover the set's hull."""
    lo, hi = comp_start(comps[0]) - 1, comp_end(comps[-1]) + 1
    cuts = sorted({lo + (hi - lo) * Q(rng.randint(1, 7), 8)
                   for _ in range(rng.randint(0, 2))})
    edges = [lo] + cuts + [hi]
    return tuple((a, b, Q(rng.randint(1, 4))) for a, b in zip(edges, edges[1:]))


def comp_start(c) -> Q:
    if c[0] == "iv":
        return c[1]
    if c[0] == "pts":
        return c[1][0]
    if c[0] == "harm":
        _, lim, cc, start, below, _ = c
        return lim - cc / start if below else lim
    _, lim, cc, q, start, below, _ = c
    return lim - cc * q ** start if below else lim


def eval_request(rng, comps, family: str, command: str = "eval") -> tuple:
    """One CLI request of ``family`` on the set ``comps``."""
    argv = [command, "--json", "--set", set_text(comps)] + MAX_N_ARGS
    check = {"family": family, "comps": comps}
    if family == "iso":
        n = rng.choice((2, 4, 8))
        argv += ["--mean", f"iso:{n}"]
        check["n"] = n
    elif family == "eds":
        n = rng.randint(2, 16)
        argv += ["--mean", f"eds:{n}"]
        check["n"] = n
    elif family == "avg_fat":
        argv += ["--mean", f"avg_fat:1/{2 ** rng.randint(1, 4)}"]
    elif family == "m_mu":
        dens = density_for(rng, comps)
        argv += ["--mean", "m_mu", "--density=" + ";".join(
            f"{rat(a)},{rat(b)},{rat(w)}" for a, b, w in dens)]
        check["density"] = dens
    elif family == "avg_f_square":
        argv += ["--mean", "avg_f", "--f", "square"]
    elif family == "exp_conjugate":
        base = "avg1" if any(c[0] == "iv" for c in comps) else "amean"
        argv += ["--mean", base, "--f", "exp(2)"]
    else:
        argv += ["--mean", family]
    return ("cli", argv, check)


EXACT_MEANS = tuple(f for f in EVAL_MEANS if f not in LIMIT_MEANS)
# Each exact family appears this many times per set kind and round, each
# limit-type family once.
EXACT_WEIGHT = 6
# Limit-type requests run with these tolerances on the set kinds below,
# where they settle on the shortened schedule. Elsewhere they end in
# no_convergence (lavg and m_eds on cluster sets, m_eds on most interval
# sets at 1e-9, m_iso on harmonic clusters at 1e-9); those failures are
# replayed by ``known_failure_probes`` after the timed loop, not timed.
# m_iso on harmonic clusters stays in and is the slowest request.
LIMIT_TOL = {"lavg": "1/100", "m_iso": "1/100", "m_eds": "1/10"}
LIMIT_KINDS = {"lavg": ("intervals", "intervals_points", "mixed", "points"),
               "m_iso": ("harmonic", "points", "harmonic", "intervals"),
               "m_eds": ("points",)}


def eval_mix_round(rng: random.Random, index: int) -> list:
    """Every set kind crossed with every exact family, and each limit-type
    family once per set kind on a kind where it settles: 6 x (9 x 6 + 3)
    = 342 requests. Limit-type requests alternate between ``eval`` and
    ``limit`` from one slot and round to the next."""
    reqs = []
    for i, kind in enumerate(SMALL_KINDS):
        for fam in EXACT_MEANS * EXACT_WEIGHT:
            reqs.append(eval_request(rng, small_set(rng, kind), fam))
        command = ("eval", "limit")[(i + index) % 2]
        for fam in LIMIT_MEANS:
            kinds = LIMIT_KINDS[fam]
            lkind = kinds[(i + index * len(SMALL_KINDS)) % len(kinds)]
            req = eval_request(rng, small_set(rng, lkind), fam, command)
            req[1].extend(["--tol", LIMIT_TOL[fam]])
            reqs.append(req)
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------------------------
# big_sets


def slot_operand(rng, origin: Q, slots: int, count: int,
                 point_share: float) -> list:
    """``count`` components in distinct unit slots ``origin + i``.

    Every component lies inside [origin+i+1/16, origin+i+15/16], so two
    operands drawn on the same slots interact only slot by slot.
    """
    comps = []
    for i in sorted(rng.sample(range(slots), count)):
        base = origin + i
        if rng.random() < point_share:
            comps.append(("pts", (base + Q(rng.randint(1, 15), 16),)))
        else:
            a = rng.randint(1, 14)
            b = rng.randint(a + 1, 15)
            comps.append(("iv", base + Q(a, 16), base + Q(b, 16),
                          rng.random() < 0.5, rng.random() < 0.5))
    return comps


def merge_points(comps) -> list:
    """Intervals as separate terms, all points in one trailing literal."""
    ivs = [c for c in comps if c[0] == "iv"]
    pts = tuple(p for c in comps if c[0] == "pts" for p in c[1])
    return ivs + ([("pts", pts)] if pts else [])


TEXT_FORMS = ("diff", "diff", "diff", "union", "union", "intersect",
              "intersect", "union")
LIB_OPS = ("union", "diff", "intersect", "closure", "derived", "slice_le",
           "translate", "fatten")
# Interval terms per text operand; points ride in one literal, so the
# component count is not capped by the chain length.
TEXT_TERMS = (2, 40)


# The mean after each big_sets operation, in turn from one request form
# and round to the next.
BIG_MEANS = (("avg1", None), ("eds:8", 8))


def big_text_request(rng, form: str, size: int, terms: int,
                     b_size: int, share: float, mean_index: int) -> tuple:
    """``eval`` of a set-algebra expression on two slot operands of
    ``size`` and ``b_size`` components; their intervals are written as
    chains of about ``terms`` terms, their points as one literal each."""
    slots = 2 * size
    origin = Q(rng.randint(-64, 64))
    share = max(share, 1 - terms / size)
    a = slot_operand(rng, origin, slots, size, share)
    b = slot_operand(rng, origin, slots, b_size, share)
    ta, tb = merge_points(a), merge_points(b)
    if form == "diff":
        text = set_text(ta) + " \\ " + set_text(tb, "\\")
    elif form == "union":
        text = set_text(ta) + " u " + set_text(tb)
    else:
        hi = rat(origin + slots)
        text = f"slice_le({set_text(ta)}, {hi}) & slice_le({set_text(tb)}, {hi})"
    mean, n = BIG_MEANS[mean_index]
    argv = ["eval", "--json", "--mean", mean, "--set", text]
    return ("cli", argv, {"family": "big", "op": form, "a": a, "b": b,
                          "param": None, "mean": mean, "n": n})


def big_lib_request(rng, op: str, size: int, b_size: int,
                    share: float, mean_index: int) -> tuple:
    slots = 2 * size
    origin = Q(rng.randint(-64, 64))
    a = slot_operand(rng, origin, slots, size, share)
    b = slot_operand(rng, origin, slots, b_size, share) \
        if op in ("union", "diff", "intersect") else None
    param = None
    if op == "slice_le":
        param = origin + Q(rng.randint(0, 16 * slots), 16)
    elif op == "translate":
        param = Q(rng.randint(-64, 64), rng.randint(1, 8))
    elif op == "fatten":
        param = Q(1, 2 ** rng.randint(5, 8))  # stays inside the slot margin
    mean, n = BIG_MEANS[mean_index]
    return ("lib", op, a, b, param, mean,
            {"family": "big", "op": op, "a": a, "b": b, "param": param,
             "mean": mean, "n": n})


BIG_SIZES = (50, 1500)


# A difference removes 5-50 components from the large operand, as in
# diluting a big point set; union and intersection take two large operands.
DIFF_SIZES = (5, 50)
# Point shares of the operands, cycled; point-heavy differences included.
POINT_SHARES = (0.2, 0.5, 0.9)


def big_sets_rounds(rng: random.Random):
    """Rounds of 8 text and 8 library requests on operands of 50-1,500
    components. Each request form draws its sizes from its own strata, so
    the cost of a run hardly depends on the seed. Chains past the recursion
    limit fail, so they are a known-failure probe, not part of the rounds."""
    forms = [("text", f) for f in TEXT_FORMS] + [("lib", op) for op in LIB_OPS]
    sizes = [Strata(rng, log_uniform(*BIG_SIZES), 8) for _ in forms]
    terms = [Strata(rng, log_uniform(*TEXT_TERMS), 8) for _ in forms]
    b_sizes = [Strata(rng, log_uniform(*DIFF_SIZES)) for _ in forms]
    index = 0
    while True:
        reqs = []
        for i, (kind, op) in enumerate(forms):
            size = sizes[i].draw()
            b_size = min(size, b_sizes[i].draw()) if op == "diff" else size
            share = POINT_SHARES[(index + i) % len(POINT_SHARES)]
            turn = (index + i) % len(BIG_MEANS)
            if kind == "text":
                reqs.append(big_text_request(rng, op, size, terms[i].draw(),
                                             b_size, share, turn))
            else:
                reqs.append(big_lib_request(rng, op, size, b_size, share,
                                            turn))
        rng.shuffle(reqs)
        yield reqs
        index += 1


# --------------------------------------------------------------------------
# audit


AUDIT_MEANS = ("avg1", "amean", "m_acc", "iso:4", "eds:3", "avg_fat:1/4",
               "lavg", "m_eds", "m_iso", "m_mu", "avg_f_square")
AUDIT_TRIALS = 1
# The audit's schedule, 16 .. 2^10: the limit-type means stay cheap enough
# for several rounds per run, and the hausdorff witness, built at the last
# index, still has 1025 points.
AUDIT_MAX_N = 1024
# Check seeds are drawn from 0 .. AUDIT_SEEDS-1. Over all of them every
# check below ends in under a second on a 2-core x86_64 VM, except for the
# (property, mean, seed) triples in AUDIT_FAILING, which the program fails,
# so the rounds leave those out and the audit probes replay some of them.
AUDIT_SEEDS = 64
AUDIT_FAILING = {
    ("mean_monotone", "iso:4"): (50, 58, 60),
    ("mean_monotone", "m_acc"): (16, 21, 52),
    ("mean_monotone", "m_iso"): (56,),
    ("monotone", "lavg"): (23,),
    ("monotone", "m_acc"): (24,),
    ("monotone", "m_eds"): (23,),
    ("monotone", "m_iso"): (24, 44),
    ("u_bounded_overlap", "iso:4"): (4, 11, 17, 22, 39, 41),
    ("u_bounded_overlap", "lavg"): (11,),
    ("u_bounded_overlap", "m_acc"): (4, 11, 17, 39, 41),
    ("u_bounded_overlap", "m_eds"): (14,),
    ("u_bounded_overlap", "m_iso"): (17,),
}
# strong_internal and strict_strong_internal bisect toward a harmonic limit
# on these means and run for 1-40 s on many seeds; they are left out of the
# rounds (the bounds workload times that bisection) and probed once.
AUDIT_BISECTING = ("m_acc", "iso:4", "avg_fat:1/4", "eds:3", "m_iso")
AUDIT_SKIPPED = {(pid, mean) for mean in AUDIT_BISECTING
                 for pid in ("strong_internal", "strict_strong_internal")}


def audit_seed(rng: random.Random, pid: str, mean: str) -> int:
    failing = AUDIT_FAILING.get((pid, mean), ())
    while True:
        seed = rng.randrange(AUDIT_SEEDS)
        if seed not in failing:
            return seed


def audit_round(rng: random.Random, property_ids) -> list:
    """Every property on every mean once, but for AUDIT_SKIPPED, each with
    its own seed: 27 x 11 - 10 = 287 checks."""
    reqs = [("check", pid, mean, audit_seed(rng, pid, mean), AUDIT_TRIALS)
            for mean in AUDIT_MEANS for pid in property_ids
            if (pid, mean) not in AUDIT_SKIPPED]
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------------------------
# bounds


BOUNDS_MEANS = ("eds", "avg_fat", "m_acc", "iso", "amean")
# Harmonic scales c = k / 2^40 with k log-uniform on [1, 2^8], so c runs
# from 2^-40 to 2^-32: every bisection cut near the limit then materializes
# about c / 2^-44 head terms.
BOUNDS_C_EXP = (32, 40)


def bounds_set(rng, kind: str, c_num: int = 1) -> list:
    x = Q(rng.randint(-16, 16), 4)
    if kind == "harmonic":
        c = Q(c_num, 2 ** BOUNDS_C_EXP[1])
        comps = [("harm", x, c, 1, False, rng.random() < 0.5)]
        tail = x + c + Q(rng.randint(1, 8), 4)
        comps.append(("pts", (tail,)))
        return comps
    if kind == "geometric":
        comps = [_cluster(rng, x, "geom")]
        comps.append(("pts", (comp_end(comps[0]) + Q(rng.randint(1, 8), 4),)))
        return comps
    kinds = ("intervals_points", "points")[rng.random() < 0.5]
    return small_set(rng, kinds)


# One parameter per family, as in the audit's catalogue: the cost of a
# bisection then depends on the set alone.
BOUNDS_MEAN_ARGS = {"eds": "eds:3", "iso": "iso:4", "avg_fat": "avg_fat:1/4"}


def bounds_request(family: str, comps) -> tuple:
    argv = ["bounds", "--json", "--set", set_text(comps), "--mean",
            BOUNDS_MEAN_ARGS.get(family, family)] + MAX_N_ARGS
    return ("cli", argv, {"family": "bounds", "mean": family, "comps": comps})


def bounds_rounds(rng: random.Random):
    """Rounds in which each mean meets two harmonic-cluster sets, one
    geometric-cluster set and one interval/point set. The harmonic scales
    take the middle of each octave of 2^-40..2^-32 in turn, per mean: the
    slowest 5% of requests are the top octaves', whose cost would double
    across an octave if the scale were drawn inside it."""
    lo, hi = BOUNDS_C_EXP
    scales = {fam: Strata(rng, lambda u: round(2 ** ((hi - lo) * u)),
                          count=hi - lo, jitter=False)
              for fam in BOUNDS_MEANS}
    while True:
        reqs = []
        for fam in BOUNDS_MEANS:
            for _ in range(2):
                reqs.append(bounds_request(
                    fam, bounds_set(rng, "harmonic", scales[fam].draw())))
            reqs.append(bounds_request(fam, bounds_set(rng, "geometric")))
            reqs.append(bounds_request(fam, bounds_set(rng, "plain")))
        rng.shuffle(reqs)
        yield reqs


# --------------------------------------------------------------------------
# known failures


def _probe(command: str, mean: str, comps, *extra) -> tuple:
    argv = [command, "--json", "--set", set_text(comps), "--mean", mean]
    return ("cli", argv + MAX_N_ARGS + list(extra),
            {"family": mean, "comps": comps})


def known_failure_probes(workload: str) -> list:
    """(name, request, expected outcome) for failures the program is known
    to produce on this workload's kind of input.

    A timed workload must run without a failed request, so these inputs are
    kept out of its rounds. Each run replays them once after its timed loop
    and reports whether each still fails; they count in no request total.
    """
    if workload == "eval_mix":
        harm = [("harm", Q(0), Q(1, 2), 1, False, False), ("pts", (Q(2),))]
        geom = [("geom", Q(0), Q(1, 2), Q(1, 2), 1, False, False)]
        ivs = [("iv", Q(0), Q(1), True, True), ("iv", Q(2), Q(5, 2), True,
                                                 False)]
        missed = [("iv", Q(-6), Q(-41, 8), False, True),
                  ("iv", Q(-33, 8), Q(-4), True, True),
                  ("iv", Q(-27, 8), Q(-19, 8), False, False),
                  ("iv", Q(-11, 8), Q(-1), False, True)]
        # two clusters 1/8 apart: their hulls, a window wider, overlap
        close = [("harm", Q(-11, 2), Q(1, 2), 1, False, False),
                 ("harm", Q(-35, 8), Q(1, 2), 1, True, True)]
        return [
            ("m_iso_harmonic", _probe("eval", "m_iso", harm), "no_convergence"),
            ("m_eds_intervals", _probe("eval", "m_eds", ivs), "no_convergence"),
            ("lavg_geometric", _probe("limit", "lavg", geom), "no_convergence"),
            ("m_eds_limit_missed", _probe("limit", "m_eds", missed, "--tol",
                                          "1/100"), "limit_missed"),
            ("adjacent_clusters", _probe("eval", "avg1", close),
             "overlapping_cluster_windows"),
        ]
    if workload == "big_sets":
        # Python's default recursion limit is 1000; the evaluator recurses
        # once per term of a left-associated chain.
        chain = " u ".join("{%d}" % i for i in range(1100))
        return [("chain_1100_terms",
                 ("cli", ["eval", "--json", "--mean", "avg1", "--set", chain],
                  None), "RecursionError")]
    if workload == "audit":
        return [
            ("u_bounded_overlap_iso4",
             ("check", "u_bounded_overlap", "iso:4", 4, AUDIT_TRIALS),
             "overlapping_cluster_windows"),
            ("u_bounded_overlap_m_eds",
             ("check", "u_bounded_overlap", "m_eds", 14, AUDIT_TRIALS),
             "unrepresentable_result"),
            ("mean_monotone_m_acc",
             ("check", "mean_monotone", "m_acc", 16, AUDIT_TRIALS),
             "overlapping_cluster_windows"),
            ("strong_internal_m_acc",
             ("check", "strong_internal", "m_acc", 2001129965, AUDIT_TRIALS),
             "deadline"),
        ]
    return []


# --------------------------------------------------------------------------


def stream(workload: str, seed: int, property_ids):
    """The endless sequence of rounds of a workload, fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "big_sets":
        yield from big_sets_rounds(rng)
    elif workload == "bounds":
        yield from bounds_rounds(rng)
    index = 0
    while True:
        if workload == "eval_mix":
            yield eval_mix_round(rng, index)
        else:
            yield audit_round(rng, property_ids)
        index += 1
