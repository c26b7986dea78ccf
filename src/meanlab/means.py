"""The catalogue of generalized means on RealSets.

Every mean takes a RealSet (plus parameters) and returns an exact Fraction
when the defining expression is rational, a RootValue when it is an exact
radical, or an Approx when only a certified/stabilized estimate exists.
Domain violations raise typed errors rather than returning sentinels.

The catalogue is exposed two ways: plain functions (``avg1``, ``eds_n``, ...)
for direct use, and ``MeanRef`` records that bundle a mean with its domain
test and exactness flag so the analysis and property-checking layers can
treat means as first-class values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import (
    BadParameters,
    DegenerateSet,
    DomainViolation,
    EmptySet,
    EmptySlice,
    MeanlabError,
    NotFinite,
    NullSet,
    UnsupportedMean,
)
from .exactset import (
    RealSet,
    _cut_parts,
    _run_sum,
    _span_diff,
    balanced_sum,
    derived,
    derived_iter,
    from_points,
    image_set,
    level,
    set_diff,
)
from .funcs import MonotoneFunc, parse_func
from .limits import DEFAULT_SCHEDULE, LimitSchedule, limit_estimate
from .measure import (
    DensityMeasure,
    essential_bounds,
    fatten,
    lebesgue,
    moment,
    mu_mass_moment,
    split_native,
    support,
)
from .values import Approx, RootValue, value_mid

Q = Fraction

Value = Union[Fraction, RootValue, Approx]


# --------------------------------------------------------------------------
# finite and interval-mass means


def amean(h: RealSet) -> Fraction:
    """Arithmetic mean of a finite point set, its points added in balanced
    pairs of neighbours (``balanced_sum``)."""
    if h.is_empty:
        raise EmptySet("arithmetic mean of the empty set is undefined")
    if not h.is_finite():
        raise NotFinite("arithmetic mean needs a finite point set")
    return balanced_sum(list(h.points)) / len(h.points)


def _amean_acc_points(h: RealSet) -> RealSet:
    """Removing the only point, or any point but the mean, moves the mean."""
    if h.is_empty or not h.is_finite():
        raise DomainViolation("the finite arithmetic mean needs a "
                              "nonempty finite set")
    if len(h.points) == 1:
        return h
    return set_diff(h, from_points(amean(h)))


def _amean_certified(f: MonotoneFunc, h: RealSet) -> Approx:
    """Enclose the mean of f over the points from enclosures of each f(p)."""
    if h.is_empty:
        raise EmptySet("arithmetic mean of the empty set is undefined")
    if not h.is_finite():
        raise NotFinite("arithmetic mean needs a finite point set")
    lo_sum = Q(0)
    hi_sum = Q(0)
    for p in h.points:
        b_lo, b_hi = f.apply_bounds(p)
        lo_sum += b_lo
        hi_sum += b_hi
    n = len(h.points)
    return Approx((lo_sum + hi_sum) / (2 * n), (hi_sum - lo_sum) / (2 * n))


def avg1(h: RealSet) -> Fraction:
    """Length-weighted average: first moment over total length."""
    if h.is_empty:
        raise EmptySet("average of the empty set is undefined")
    lam = lebesgue(h)
    if lam == 0:
        raise NullSet("the set carries no length; the average is undefined")
    return moment(h) / lam


def _avg1_occupancy(h: RealSet, x: Fraction) -> Fraction | None:
    """Closed-form shrinking-neighborhood derivative for the length average:
    0 in the interior of the mass, ±1/2 at one-sided edges, None if the
    point carries no nearby length."""
    left = any(iv.lo < x <= iv.hi for iv in h.intervals)
    right = any(iv.lo <= x < iv.hi for iv in h.intervals)
    if left and right:
        return Q(0)
    if left:
        return Q(-1, 2)
    if right:
        return Q(1, 2)
    return None


def _avg1_append_rate(h: RealSet, side: str) -> Fraction:
    """Exact append rate: (sup − mean)/length, or (inf − mean)/length."""
    a, b = h.bounds()
    v = avg1(h)
    lam = lebesgue(h)
    return (b - v) / lam if side == "sup_append" else (a - v) / lam


def _avg1_certified(f: MonotoneFunc, h: RealSet) -> Approx:
    """The image of each interval is an interval; bound its length and
    first moment through certified endpoint enclosures."""
    if h.is_empty:
        raise EmptySet("average of the empty set is undefined")
    mom_lo = Q(0)
    mom_hi = Q(0)
    len_lo = Q(0)
    len_hi = Q(0)
    for iv_ in h.intervals:
        a_lo, a_hi = f.apply_bounds(iv_.lo)
        b_lo, b_hi = f.apply_bounds(iv_.hi)
        if not f.increasing:
            a_lo, a_hi, b_lo, b_hi = b_lo, b_hi, a_lo, a_hi
        # image interval [A, B] with A in [a_lo,a_hi], B in [b_lo,b_hi]
        len_lo += max(Q(0), b_lo - a_hi)
        len_hi += b_hi - a_lo
        m_cands = [(b * b - a * a) / 2
                   for a in (a_lo, a_hi) for b in (b_lo, b_hi)]
        mom_lo += min(m_cands)
        mom_hi += max(m_cands)
    if len_lo <= 0:
        raise NullSet("the image carries no certified length")
    cands = [m / l for m in (mom_lo, mom_hi) for l in (len_lo, len_hi)]
    v_lo, v_hi = min(cands), max(cands)
    return Approx((v_lo + v_hi) / 2, (v_hi - v_lo) / 2)


def m_mu(mu: DensityMeasure, h: RealSet) -> Fraction:
    """Average against a piecewise-constant density measure."""
    if h.is_empty:
        raise EmptySet("average of the empty set is undefined")
    total, first = mu_mass_moment(h, mu)
    if total == 0:
        raise NullSet("the set is null for this measure")
    return first / total


# --------------------------------------------------------------------------
# accumulation-structure means


def m_acc(h: RealSet) -> Fraction:
    """Arithmetic mean of the deepest nonempty derived set."""
    ell = level(h)  # raises InfiniteLevel on interval mass, EmptySet on empty
    return amean(derived_iter(h, ell))


def _m_acc_acc_points(h: RealSet) -> RealSet:
    """As for ``amean``, on the deepest derived set, which alone moves it."""
    ell = level(h)
    deep = derived_iter(h, ell)
    if deep.is_finite() and len(deep.points) == 1:
        return deep
    return set_diff(deep, from_points(m_acc(h)))


def iso_n(h: RealSet, n: int) -> Fraction:
    """Arithmetic mean of the points surviving outside the open 1/n
    neighborhood of the accumulation points.

    Defined only when the isolated points are dense in the set; within the
    representable class that is a structural condition: interval mass has no
    isolated points at all, while points and cluster terms (at any nesting
    depth) are each a limit of isolated members.

    The survivors are never built as a set: the cut of each cluster leaves
    runs of bare terms, each summed in closed form, and finitely many other
    points. Exact sums do not depend on their order, so the value and every
    error are those of ``amean(set_diff(h, fatten(derived(h), 1/n)))``.
    """
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
        return amean(h)  # no accumulation points: nothing is excised
    ball = fatten(d, Q(1, n)).spans
    cuts = [_cut_parts(c, ball) for c in h.clusters]
    if any(clusters for clusters, _, _ in cuts):
        raise NotFinite("arithmetic mean needs a finite point set")
    points = [lo[1] for lo, _ in _span_diff(h.spans, ball)]
    points += [p for _, c_points, _ in cuts for p in c_points]
    runs = [r for _, _, c_runs in cuts for r in c_runs]
    count = len(points) + sum(k_hi - k_lo + 1 for _, k_lo, k_hi in runs)
    if not count:
        raise EmptySlice("no points survive outside the neighborhood")
    return balanced_sum(points + [_run_sum(*r) for r in runs]) / count


def m_iso(h: RealSet, schedule: LimitSchedule = DEFAULT_SCHEDULE) -> Approx:
    """Limit of iso_n along the schedule (see ``m_iso_ref``)."""
    return m_iso_ref(schedule).evaluate(h)


def _cell(x: Fraction, a: Fraction, w: Fraction) -> int:
    r = (x - a) / w
    return r.numerator // r.denominator


def _is_cell_boundary(x: Fraction, a: Fraction, w: Fraction) -> bool:
    return ((x - a) / w).denominator == 1


def _point_cells(xs: Sequence[Fraction], a: Fraction,
                 w: Fraction) -> list[int]:
    """The cells of the sorted, distinct points xs, each once, in order.

    The cell index does not decrease along sorted points, so a stretch
    whose two ends share a cell lies wholly in it: halving the stretches
    whose ends differ finds every cell without dividing at every point.
    """
    cells: list[int] = []

    def add(c: int) -> None:
        if not cells or cells[-1] != c:
            cells.append(c)

    def walk(i: int, ci: int, j: int, cj: int) -> None:
        if ci == cj:
            add(ci)
        elif j - i == 1:
            add(ci)
            add(cj)
        else:
            m = (i + j) // 2
            cm = _cell(xs[m], a, w)
            walk(i, ci, m, cm)
            walk(m, cm, j, cj)

    if xs:
        walk(0, _cell(xs[0], a, w), len(xs) - 1, _cell(xs[-1], a, w))
    return cells


def eds_n(h: RealSet, n: int) -> Fraction:
    """Equal-division mean: split [inf, sup] into n half-open cells
    [a+i*w, a+(i+1)*w), average the left endpoints of occupied cells
    (the supremum occupies its own degenerate cell).

    The points' cells come from ``_point_cells``: the point spans of a set
    are sorted and distinct."""
    if n < 1:
        raise BadParameters("the division count must be >= 1")
    if h.is_empty:
        raise EmptySet("equal-division mean of the empty set is undefined")
    a, b = h.bounds()
    if a == b:
        raise DegenerateSet("equal-division mean needs a non-degenerate set")
    w = (b - a) / n
    ranges: list[tuple[int, int]] = []

    def add(i_lo: int, i_hi: int) -> None:
        if i_lo <= i_hi:
            ranges.append((i_lo, i_hi))

    points = []
    for lo, hi in h.spans:
        x, y = lo[1], hi[1]
        if lo == hi:
            points.append(x)
        elif hi[2] and _is_cell_boundary(y, a, w):  # open at a cell's left end
            add(_cell(x, a, w), _cell(y, a, w) - 1)
        else:
            add(_cell(x, a, w), _cell(y, a, w))
    for i in _point_cells(points, a, w):
        add(i, i)
    for c in h.clusters:
        k_merge, head = split_native(c, w)
        for t in head:
            i = _cell(t, a, w)
            add(i, i)
        t_m = c.term(k_merge)
        if c.above:
            # tail terms descend to the limit without skipping a cell
            lim_cell = _cell(c.limit, a, w)  # the cell just above the limit
            add(lim_cell, _cell(t_m, a, w))
        else:
            if _is_cell_boundary(c.limit, a, w):
                lim_cell = _cell(c.limit, a, w) - 1
            else:
                lim_cell = _cell(c.limit, a, w)
            add(_cell(t_m, a, w), lim_cell)
        if c.include_limit:
            i = _cell(c.limit, a, w)
            add(i, i)
    ranges.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in ranges:
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    count = 0
    total = Q(0)
    for lo, hi in merged:
        m = hi - lo + 1
        count += m
        total += m * a + w * Q((lo + hi) * m, 2)
    return total / count


def m_eds(h: RealSet, schedule: LimitSchedule = DEFAULT_SCHEDULE) -> Approx:
    """Limit of eds_n along the schedule (see ``m_eds_ref``)."""
    return m_eds_ref(schedule).evaluate(h)


# --------------------------------------------------------------------------
# neighborhood-average means


def avg_fat(h: RealSet, delta) -> Fraction:
    """Length-weighted average of the open delta-neighborhood."""
    return avg1(fatten(h, delta))


def lavg(h: RealSet, schedule: LimitSchedule = DEFAULT_SCHEDULE) -> Value:
    """Limit of avg_fat as the radius shrinks to zero (see ``lavg_ref``)."""
    return lavg_ref(schedule).evaluate(h)


def _interval_mass_average(h: RealSet) -> Fraction:
    """The limit of avg_fat(h, 1/n) when h carries length: the null parts
    vanish in the limit, leaving the plain average of the interval mass."""
    return avg1(support(h))


# --------------------------------------------------------------------------
# function-transformed means


def avg_f(f: MonotoneFunc, h: RealSet) -> Value:
    """Quasi-arithmetic average over length: invert f at the mean of f."""
    if h.is_empty:
        raise EmptySet("average of the empty set is undefined")
    lam = lebesgue(h)
    if lam == 0:
        raise NullSet("the set carries no length; the average is undefined")
    for iv_ in h.intervals:
        if not (f.contains(iv_.lo) and f.contains(iv_.hi)):
            raise DomainViolation("the set leaves the transform's domain")
    lo_sum = Q(0)
    hi_sum = Q(0)
    for iv_ in h.intervals:
        p_lo, p_hi = f.integral(iv_.lo, iv_.hi)
        lo_sum += p_lo
        hi_sum += p_hi
    if f.exact:
        return f.invert(lo_sum / lam)
    v_lo, v_hi = lo_sum / lam, hi_sum / lam
    return f.invert(Approx((v_lo + v_hi) / 2, (v_hi - v_lo) / 2))


# --------------------------------------------------------------------------
# the MeanRef catalogue


@dataclass(frozen=True)
class MeanRef:
    """A named mean bundled with its domain test and exactness flag.

    ``evaluate(h)`` succeeds exactly on sets accepted by
    ``domain_predicate`` (limit means may additionally fail to stabilize,
    which is a convergence report, not a domain fact). ``exact`` promises
    Fraction/RootValue results; otherwise values may be certified Approx.
    ``param`` carries the defining parameter (stage, radius, density,
    transform, or a limit mean's stage sequence) so checkers can
    reconstruct canonical inputs.

    The optional hooks give ``analysis`` and ``transform_kf`` structural
    answers; a mean without one takes the generic path there.
    """

    id: str
    evaluate: Callable[[RealSet], Value]
    domain_predicate: Callable[[RealSet], bool]
    exact: bool
    param: object = None
    bounds: Callable[[RealSet], tuple[Value, Value]] | None = None
    acc_points: Callable[[RealSet], RealSet] | None = None
    occupancy: Callable[[RealSet, Fraction], Fraction | None] | None = None
    append_rate: Callable[[RealSet, str], Fraction] | None = None
    certified: Callable[[MonotoneFunc, RealSet], Approx] | None = None

    def __call__(self, h: RealSet) -> Value:
        return self.evaluate(h)

    def in_domain(self, h: RealSet) -> bool:
        return bool(self.domain_predicate(h))

    def kind(self) -> str:
        """Catalogue family name: the id up to any parameter/transform tag."""
        return self.id.split("^", 1)[0].split(":", 1)[0]


def _domain_by_trial(evaluate: Callable[[RealSet], Value]):
    def pred(h: RealSet) -> bool:
        try:
            evaluate(h)
        except MeanlabError:
            return False
        return True

    return pred


def _by_trial(name: str, ev: Callable[[RealSet], Value], param, *,
              exact: bool = True, **hooks) -> MeanRef:
    """A catalogue entry whose domain is the sets on which ``ev`` succeeds."""
    return MeanRef(name, ev, _domain_by_trial(ev), exact=exact, param=param,
                   **hooks)


AMEAN = MeanRef(
    "amean", amean,
    lambda h: (not h.is_empty) and h.is_finite(),
    exact=True, acc_points=_amean_acc_points, certified=_amean_certified)

AVG1 = MeanRef(
    "avg1", avg1,
    lambda h: (not h.is_empty) and lebesgue(h) > 0,
    exact=True, bounds=essential_bounds, acc_points=support,
    occupancy=_avg1_occupancy, append_rate=_avg1_append_rate,
    certified=_avg1_certified)

M_ACC = MeanRef(
    "m_acc", m_acc,
    lambda h: (not h.is_empty) and not h.intervals,
    exact=True, acc_points=_m_acc_acc_points)


def iso_ref(n: int) -> MeanRef:
    """Stage-n isolated-point mean as a catalogue entry."""
    if n < 1:
        raise BadParameters("the neighborhood stage must be >= 1")
    return _by_trial(f"iso:{n}", lambda h: iso_n(h, n), n)


def eds_ref(n: int) -> MeanRef:
    """Stage-n equal-division mean as a catalogue entry."""
    if n < 1:
        raise BadParameters("the division count must be >= 1")
    return _by_trial(f"eds:{n}", lambda h: eds_n(h, n), n)


def avg_fat_ref(delta) -> MeanRef:
    """Fixed-radius neighborhood average as a catalogue entry."""
    d = Q(delta)
    if d <= 0:
        raise BadParameters("the neighborhood radius must be positive")
    return _by_trial(f"avg_fat:{d}", lambda h: avg_fat(h, d), d)


def m_mu_ref(mu: DensityMeasure) -> MeanRef:
    """Density-weighted average as a catalogue entry."""
    return _by_trial(f"m_mu:{mu.text()}", lambda h: m_mu(mu, h), mu)


# --------------------------------------------------------------------------
# sequences of means and the limit-type means they define


@dataclass(frozen=True)
class MeanSequence:
    """An index-to-mean rule; the limit mean it defines owns the domain.

    ``applies(h)`` tells from h's structure alone whether the pointwise
    limit of the stage means on h has a closed form, and ``exact_limit(h)``
    computes it there; elsewhere the limit is only sampled.
    """

    id: str
    at: Callable[[int], MeanRef]
    applies: Callable[[RealSet], bool] = lambda h: False
    exact_limit: Callable[[RealSet], Value] | None = None


def avg_fat_sequence() -> MeanSequence:
    return MeanSequence("avg_fat(1/n)", lambda n: avg_fat_ref(Q(1, n)),
                        lambda h: bool(h.intervals), _interval_mass_average)


def eds_sequence() -> MeanSequence:
    return MeanSequence("eds(n)", eds_ref)


def iso_sequence() -> MeanSequence:
    return MeanSequence("iso(n)", iso_ref)


def pointwise_limit(seq: MeanSequence, h: RealSet,
                    schedule: LimitSchedule = DEFAULT_SCHEDULE) -> Approx:
    """Accelerated limit of the stage-n means on a fixed set."""
    return limit_estimate(lambda n: value_mid(seq.at(n).evaluate(h)),
                          schedule, label=f"{seq.id} pointwise limit")


def _limit_ref(name: str, seq: MeanSequence,
               schedule: LimitSchedule) -> MeanRef:
    """The limit-type mean ``name``: the closed form of ``seq`` where it
    applies, else the stage means' limit estimated along the schedule.
    Its domain: the closed form applies or the first stage is defined."""
    def ev(h: RealSet) -> Value:
        if seq.applies(h):
            return seq.exact_limit(h)
        return limit_estimate(lambda n: seq.at(n).evaluate(h), schedule,
                              label=f"{name} limit")

    def dom(h: RealSet) -> bool:
        return seq.applies(h) or seq.at(schedule.indices[0]).in_domain(h)

    return MeanRef(name, ev, dom, exact=False, param=seq)


def lavg_ref(schedule: LimitSchedule = DEFAULT_SCHEDULE) -> MeanRef:
    """Shrinking-neighborhood limit average as a catalogue entry."""
    return _limit_ref("lavg", avg_fat_sequence(), schedule)


def m_iso_ref(schedule: LimitSchedule = DEFAULT_SCHEDULE) -> MeanRef:
    """Limit of the isolated-point means as a catalogue entry."""
    return _limit_ref("m_iso", iso_sequence(), schedule)


def m_eds_ref(schedule: LimitSchedule = DEFAULT_SCHEDULE) -> MeanRef:
    """Limit of the equal-division means as a catalogue entry."""
    return _limit_ref("m_eds", eds_sequence(), schedule)


def avg_f_ref(f: MonotoneFunc) -> MeanRef:
    """Quasi-arithmetic average as a catalogue entry."""
    return _by_trial(f"avg_f:{f.name()}", lambda h: avg_f(f, h), f,
                     exact=f.exact)


def transform_kf(k: MeanRef, f: MonotoneFunc) -> MeanRef:
    """Conjugate a catalogue mean by a monotone transform.

    The returned mean evaluates the base mean on the image of the set and
    pulls the value back through the inverse. Exact transforms work with
    every catalogue mean and keep the base mean's exactness; certified
    transforms (exponential/logarithmic) need the base mean's ``certified``
    hook. The essential support maps onto the image's, so it carries over.
    """
    def evaluate(h: RealSet) -> Value:
        if f.exact:
            return f.invert(k.evaluate(image_set(h, f)))
        if k.certified is None:
            raise UnsupportedMean(
                "certified transforms support only the finite arithmetic "
                "mean and the plain length average")
        return f.invert(k.certified(f, h))

    return _by_trial(f"{k.id}^{f.name()}", evaluate, (k, f),
                     exact=k.exact and f.exact,
                     acc_points=support if k.acc_points is support else None)


# --------------------------------------------------------------------------
# name resolution for the CLI and the property harness


# family -> (the keyword argument that defines it, or None; the refusal when
# that argument is missing, or None for a default; its catalogue entry)
_FAMILIES: dict[str, tuple[str | None, str | None, Callable]] = {
    "amean": (None, None, lambda _: AMEAN),
    "avg1": (None, None, lambda _: AVG1),
    "m_acc": (None, None, lambda _: M_ACC),
    "iso": ("n", "the iso mean needs a stage n", iso_ref),
    "eds": ("n", "the eds mean needs a division count n", eds_ref),
    "avg_fat": ("delta", "the neighborhood average needs a radius",
                avg_fat_ref),
    "lavg": ("schedule", None, lavg_ref),
    "m_iso": ("schedule", None, m_iso_ref),
    "m_eds": ("schedule", None, m_eds_ref),
    "m_mu": ("density", "the density average needs a density measure",
             m_mu_ref),
    "avg_f": ("func", "the quasi-arithmetic average needs a transform "
              "function", avg_f_ref),
}

MEAN_NAMES = tuple(_FAMILIES)

# each family is also named without its underscores: macc, avgfat, ...
_ALIASES = {name.replace("_", ""): name for name in MEAN_NAMES}

# the reader of each defining argument from an id's tag
_READERS = {"n": int, "delta": Q, "density": DensityMeasure.parse,
            "func": parse_func}


def resolve_mean(name: str, *, n: int | None = None, delta=None,
                 density: DensityMeasure | None = None,
                 func: MonotoneFunc | None = None,
                 schedule: LimitSchedule | None = None) -> MeanRef:
    """Build the MeanRef whose id is ``name``: ``family[:tag][^f]...``.

    The tag or a keyword, not both, gives the defining argument (``iso:4``,
    ``avg_fat:1/4``, ``m_mu:0,1,2;1,3,1``, ``avg_f:square``); each ``^f``
    conjugates, left to right, and ``func`` last unless an untagged
    ``avg_f`` takes it. A family refuses an ``n``, ``delta`` or ``density``
    it does not take. The schedule is context, not part of an id.
    """
    args = {"n": n, "delta": delta, "density": density, "func": func,
            "schedule": schedule if schedule is not None else DEFAULT_SCHEDULE}
    head, *conjugates = name.strip().split("^")
    key, tagged, tag = head.partition(":")
    key = key.lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    arg, missing, build = _FAMILIES.get(key, (None, None, None))
    trailing = []
    if func is not None and (arg != "func" or tagged):
        trailing, args["func"] = [func], None
    if tagged:
        if arg not in _READERS:
            raise BadParameters(f"{key} does not take an embedded parameter")
        if args[arg] is not None:
            raise BadParameters(f"{arg} is given both by tag and by keyword")
        try:
            args[arg] = _READERS[arg](tag)
        except (ValueError, ZeroDivisionError):
            raise BadParameters(
                f"not a parameter for {key}: {tag!r}") from None
    if build is None:
        raise BadParameters(f"unknown mean name: {name!r}")
    for kw in ("n", "delta", "density"):
        if args[kw] is not None and kw != arg:
            raise BadParameters(f"{key} does not take {kw}")
    if missing is not None and args[arg] is None:
        raise BadParameters(missing)
    ref = build(args.get(arg))
    for f in [*map(parse_func, conjugates), *trailing]:
        ref = transform_kf(ref, f)
    return ref
